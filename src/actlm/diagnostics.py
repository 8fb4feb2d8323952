"""Model diagnostics: semantic diversity, alive actions, marginal
decomposition KL, action-conditioned validation loss, and per-action token
statistics."""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from .actions import policy_forward, row_ends, world_logits
from .autodiff import Tensor
from .config import DiversityConfig
from .model import ModelState, base_forward, base_logits
from .training import rollout_batch, val_sweep

log = logging.getLogger(__name__)

KL_FLOOR = 1e-12


def token_bags(sequences, vocab_size: int) -> np.ndarray:
    """L2-normalized bag-of-token count vectors, one row per sequence."""
    bags = np.zeros((len(sequences), vocab_size))
    for i, seq in enumerate(sequences):
        bags[i] = np.bincount(np.asarray(seq), minlength=vocab_size)
    norms = np.linalg.norm(bags, axis=1, keepdims=True)
    return bags / np.maximum(norms, 1e-12)


def semantic_diversity(state: ModelState, prefixes, cfg: DiversityConfig,
                       rng, max_len: int) -> float:
    """Reciprocal of mean pairwise cosine similarity among sampled
    continuations.

    Each prefix yields n_samples rollouts (sampled actions, greedy tokens),
    all prefixes' in one batch; similarity is cosine over bag-of-token
    vectors of the full sequences (or of the continuations alone when
    include_prefix is off). A prefix's rollouts are scored up to the last
    position any of them generated, as if decoded in a batch of their
    own."""
    prefixes = np.asarray(prefixes)
    n, p = cfg.n_samples, prefixes.shape[1]
    tokens, _ = rollout_batch(state, np.repeat(prefixes, n, axis=0), "sample",
                              max_len, rng)
    ends = row_ends(tokens, p, state.cfg.eos_token_id)
    sims = []
    for i, stop in enumerate(ends.reshape(-1, n).max(axis=1)):
        rows = tokens[i * n:(i + 1) * n, :stop]
        seqs = rows if cfg.include_prefix else rows[:, p:]
        bags = token_bags(list(seqs), state.cfg.vocab_size)
        gram = bags @ bags.T
        off_diag = gram.sum() - np.trace(gram)
        sims.append(off_diag / (n * (n - 1)))
    s = float(np.mean(sims))
    return 1.0 / max(s, cfg.sim_floor)


def alive_actions(usage) -> int:
    """Number of actions used more than zero times."""
    return int((np.asarray(usage) > 0).sum())


def marginal_kl(state: ModelState, contexts) -> float:
    """Mean KL(base || action-mixture) over contexts, mixture computed by
    explicit summation over all actions."""
    contexts = np.asarray(contexts)
    cfg, base = state.cfg, state.groups["base"]
    e_l = base_forward(base, cfg, contexts)
    t = contexts.shape[1]
    e_last = ad.slice_time(e_l, t - 1, None)
    p_base = ad.softmax(base_logits(base, e_l)).data[:, -1, :]  # (B, V)
    pi = policy_forward(state.groups["policy"], cfg, e_l).data[:, -1, :]  # (B, N)
    codes = state.groups["codebook"]["codes"].data
    mixture = np.zeros_like(p_base)
    for i in range(cfg.codebook_size):
        code = Tensor(np.broadcast_to(codes[i], (len(contexts), 1, cfg.d_model)).copy())
        logits = world_logits(state.groups["merge"], cfg, e_last, code)
        p_world = ad.softmax(logits).data[:, -1, :]
        mixture += pi[:, i:i + 1] * p_world
    if np.any((mixture < KL_FLOOR) & (p_base > 0)):
        log.warning("mixture mass below %g at a supported token; flooring", KL_FLOOR)
    mixture = np.maximum(mixture, KL_FLOOR)
    kl = (p_base * (np.log(np.maximum(p_base, KL_FLOOR)) - np.log(mixture))).sum(axis=1)
    return float(kl.mean())


def val_loss(state: ModelState, corpus, mode: str, gumbel_temp: float = 1.0) -> float:
    """Mean next-token CE: world model under the inverse labels' actions
    ('with_actions') or the plain base lm-head ('base_ar'), as the corpus's
    memoised `training.val_sweep` holds it (keyed by the corpus bytes, the
    state's dtype and the base and inverse hashes; the slot holds one
    corpus)."""
    if mode == "base_ar":
        return val_sweep(state, corpus).base_ce
    if mode != "with_actions":
        raise ValueError(f"unknown val_loss mode: {mode!r}")
    return val_sweep(state, corpus, gumbel_temp).world_ce


def action_token_table(state: ModelState, corpus,
                       gumbel_temp: float = 1.0) -> np.ndarray:
    """(N, V) counts of next tokens grouped by the inverse label of their
    position, from the corpus's memoised `training.val_sweep` (see
    `val_loss`)."""
    labels = val_sweep(state, corpus, gumbel_temp).labels
    table = np.zeros((state.cfg.codebook_size, state.cfg.vocab_size), dtype=np.int64)
    np.add.at(table, (labels.reshape(-1), np.asarray(corpus)[:, 1:].reshape(-1)), 1)
    return table


def write_action_token_tsv(path, table: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("action_index\ttoken_id\tcount\n")
        for a in range(table.shape[0]):
            for v in range(table.shape[1]):
                if table[a, v]:
                    f.write(f"{a}\t{v}\t{table[a, v]}\n")


def normalized_mutual_information(joint: np.ndarray) -> float:
    """NMI of a joint count table; 0 when either marginal is degenerate."""
    joint = np.asarray(joint, dtype=np.float64)
    total = joint.sum()
    if total == 0:
        return 0.0
    p = joint / total
    px = p.sum(axis=1)
    py = p.sum(axis=0)

    def entropy(q):
        q = q[q > 0]
        return float(-(q * np.log(q)).sum())

    hx, hy = entropy(px), entropy(py)
    if hx == 0.0 or hy == 0.0:
        return 0.0
    nz = p > 0
    mi = float((p[nz] * (np.log(p[nz]) - np.log(np.outer(px, py)[nz]))).sum())
    return mi / np.sqrt(hx * hy)
