"""Synthetic corpora, SFT formatting, prompt prefixes, and reward scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import HmmCorpusConfig


def _hmm_params(cfg: HmmCorpusConfig, rng):
    """Draw (trans, emit, init) from rng, in that order."""
    m, v = cfg.n_states, cfg.vocab_size
    trans = rng.dirichlet(np.full(m, cfg.transition_concentration), size=m)
    emit = rng.dirichlet(np.full(v, cfg.emission_concentration), size=m)
    init = rng.dirichlet(np.full(m, 1.0))
    return trans, emit, init


def cdf(probs) -> np.ndarray:
    """Cumulative rows of probs (..., k), each divided by its last entry, so
    every row ends at exactly 1.0."""
    cum = np.cumsum(probs, axis=-1)
    cum /= cum[..., -1:]
    return cum


def inverse_cdf(cum: np.ndarray, u) -> np.ndarray:
    """The category each uniform u (...) in [0, 1) draws from its cdf in
    cum (k, ...), categories first, trailing axes broadcasting against u:
    the first category whose cumulative value exceeds u. With categories
    leading, counting cum <= u adds k whole rows of draws instead of a short
    last axis once per draw. u is compared in its own dtype (a Python float
    as float64), so a float32 table never rounds it up to 1. A category of
    zero probability, a leading or trailing one included, is never
    drawn."""
    return np.add.reduce(cum <= np.asarray(u), axis=0)


def gen_hmm_corpus(cfg: HmmCorpusConfig):
    """Sample a hidden-Markov corpus; returns (tokens (n, L), states (n, L)),
    both int16 (`HmmCorpusConfig` keeps every id below 2**15), a quarter of
    int64's bytes: 1.06 MiB in all for the 4352x64 CLI default.

    All sequences advance together, one time step at a time, each draw an
    inverse-CDF lookup. The cdf tables are held categories-first, so each
    step gathers one column per sequence with np.take and writes its draws
    straight into column t of the outputs. The state trace is an evaluation
    oracle only and must never feed training. Pure function of the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    trans, emit, init = (cdf(p).T for p in _hmm_params(cfg, rng))
    n = cfg.n_sequences
    tokens = np.empty((n, cfg.seq_len), dtype=np.int16)
    states = np.empty((n, cfg.seq_len), dtype=np.int16)
    s = inverse_cdf(init[:, None], rng.random(n))
    for t in range(cfg.seq_len):
        states[:, t] = s
        tokens[:, t] = inverse_cdf(np.take(emit, s, axis=1), rng.random(n))
        s = inverse_cdf(np.take(trans, s, axis=1), rng.random(n))
    return tokens, states


def hmm_matrices(cfg: HmmCorpusConfig):
    """The transition/emission/initial distributions behind gen_hmm_corpus."""
    return _hmm_params(cfg, np.random.default_rng(cfg.seed))


@dataclass(frozen=True)
class SftSplit:
    """Prompt/response pairs as one array: every row of tokens (n, L) is a
    prompt of prompt_len tokens followed by its response."""

    tokens: np.ndarray
    prompt_len: int

    def __post_init__(self):
        if self.tokens.ndim != 2 or len(self.tokens) < 1:
            raise ValueError("SFT tokens must be a non-empty (n, L) array")
        if not 0 < self.prompt_len < self.tokens.shape[1]:
            raise ValueError("prompt_len out of range")


def make_sft_split(corpus: np.ndarray, prompt_len: int) -> SftSplit:
    """Deterministically split each sequence into prompt/response at
    prompt_len."""
    return SftSplit(np.array(corpus), prompt_len)


def open_prefixes(corpus: np.ndarray, n: int, length: int, eos: int) -> np.ndarray:
    """The first n length-`length` prefixes of corpus rows that do not end
    in eos. A prefix ending in eos is a finished sequence that generation
    leaves unchanged, so it makes no prompt. Raises ValueError on a length
    outside the rows or on fewer than n such prefixes."""
    if not 0 < length <= corpus.shape[1]:
        raise ValueError(f"prefix length {length} outside 1..{corpus.shape[1]}")
    rows = corpus[corpus[:, length - 1] != eos][:n, :length]
    if len(rows) < n:
        raise ValueError(f"{n} prompts needed, but only {len(rows)} length-{length} "
                         f"val prefixes do not end in eos")
    return rows


def marker_reward(response, marker_token: int) -> float:
    """1 iff the marker token occurs anywhere in the response."""
    return 1.0 if marker_token in np.asarray(response) else 0.0


class Scorer:
    """reward_fn made total: a call on which reward_fn raises or returns a
    non-finite value (NaN or an infinity) scores 0 and is counted in
    `failures`."""

    def __init__(self, reward_fn):
        self.reward_fn = reward_fn
        self.failures = 0

    def __call__(self, tokens) -> float:
        try:
            reward = float(self.reward_fn(np.asarray(tokens)))
        except Exception:
            reward = math.nan
        if math.isfinite(reward):
            return reward
        self.failures += 1
        return 0.0
