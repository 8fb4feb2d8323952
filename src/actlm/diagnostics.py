"""Model diagnostics: semantic diversity, alive actions, marginal
decomposition KL, action-conditioned validation loss, and per-action token
statistics."""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from .actions import policy_forward, world_logits
from .autodiff import Tensor
from .config import DiversityConfig
from .model import ModelState, base_forward, base_logits
from .training import (eval_base_ce, inverse_action_labels, inverse_labels,
                       rollout_batch)

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
                       rng, max_len: int | None = None) -> float:
    """Reciprocal of mean pairwise cosine similarity among sampled
    continuations.

    Each prefix yields n_samples rollouts (sampled actions, greedy tokens);
    similarity is cosine over bag-of-token vectors of the full sequences
    (or of the continuations alone when include_prefix is off)."""
    prefixes = np.asarray(prefixes)
    if max_len is None:
        max_len = state.cfg.max_seq_len
    sims = []
    for prefix in prefixes:
        batch = np.tile(prefix, (cfg.n_samples, 1))
        tokens, _ = rollout_batch(state, batch, "sample", max_len, rng)
        seqs = tokens if cfg.include_prefix else tokens[:, len(prefix):]
        bags = token_bags(list(seqs), state.cfg.vocab_size)
        gram = bags @ bags.T
        n = cfg.n_samples
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


def val_loss(state: ModelState, corpus, mode: str, batch_size: int = 64,
             gumbel_temp: float = 1.0) -> float:
    """Mean next-token CE: world model under eval-mode inverse actions
    ('with_actions') or the plain base lm-head ('base_ar')."""
    corpus = np.asarray(corpus)
    if mode == "base_ar":
        return eval_base_ce(state, corpus, batch_size)
    if mode != "with_actions":
        raise ValueError(f"unknown val_loss mode: {mode!r}")
    total, count = 0.0, 0
    for i in range(0, len(corpus), batch_size):
        chunk = corpus[i:i + batch_size]
        e_l = base_forward(state.groups["base"], state.cfg, chunk)
        labels = inverse_labels(state, e_l, gumbel_temp)
        action = ad.embedding(state.groups["codebook"]["codes"], labels)
        logits = world_logits(state.groups["merge"], state.cfg,
                              ad.slice_time(e_l, 0, -1), action)
        ce = ad.cross_entropy(logits, chunk[:, 1:])
        total += float(ce.data.sum())
        count += ce.data.size
    return total / count


def action_token_table(state: ModelState, corpus, batch_size: int = 64,
                       gumbel_temp: float = 1.0) -> np.ndarray:
    """(N, V) counts of next tokens grouped by the eval-mode inverse action
    assigned to their position."""
    corpus = np.asarray(corpus)
    table = np.zeros((state.cfg.codebook_size, state.cfg.vocab_size), dtype=np.int64)
    for i in range(0, len(corpus), batch_size):
        chunk = corpus[i:i + batch_size]
        labels = inverse_action_labels(state, chunk, gumbel_temp)
        np.add.at(table, (labels.reshape(-1), chunk[:, 1:].reshape(-1)), 1)
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
