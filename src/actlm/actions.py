"""Discrete latent-action machinery: inverse encoder, code assignment with
straight-through gradients, action-conditioned world head, policy and Q heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ArchConfig
from .data import cdf, inverse_cdf
from .model import KVCache, ModelState, base_forward, block_forward


@dataclass
class ActionAssignment:
    """One code selection per predictable position.

    `soft` sums to 1 per row; `hard` is the exact one-hot; `straight` carries
    the hard values forward but the soft gradients backward; `action` is the
    selected codebook rows.
    """

    logits: Tensor       # (..., N)
    soft: Tensor         # (..., N) softmax probabilities g
    hard: np.ndarray     # (..., N) one-hot, constant
    straight: Tensor     # (..., N) straight-through one-hot
    index: np.ndarray    # (...,) argmax indices
    action: Tensor       # (..., d) codebook rows


def inverse_encode(inverse: dict[str, Tensor], cfg: ArchConfig, e_l: Tensor) -> Tensor:
    """Map base embeddings of x_{1:T} to one future-conditioned embedding per
    predictable position t in [1, T-1].

    The encoder is causal, so its output at position t+1 is the final-position
    encoding of x_{1:t+1}.
    """
    if e_l.shape[1] < 2:
        raise ValueError("inverse_encode needs at least 2 positions")
    h = e_l
    for i in range(cfg.n_layers_inverse):
        h = block_forward(inverse, f"blk{i}", h, cfg)
    return ad.slice_time(h, 1, None)  # (B, T-1, d)


def sample_gumbel(rng, shape) -> np.ndarray:
    u = rng.random(shape)
    return -np.log(-np.log(u + 1e-12) + 1e-12)


def one_hot(index: np.ndarray, n: int) -> np.ndarray:
    o = np.zeros(index.shape + (n,), dtype=ad.active_dtype())
    np.put_along_axis(o, index[..., None], 1.0, axis=-1)
    return o


def action_logits(inverse: dict[str, Tensor], e_i: Tensor) -> Tensor:
    """The inverse's action logits (..., N) at each position of e_i; raises
    FloatingPointError if any of them is not finite."""
    logits = ad.matmul(e_i, inverse["action_head"])
    if not np.all(np.isfinite(logits.data)):
        raise FloatingPointError("non-finite action logits")
    return logits


def assign_direct(inverse: dict[str, Tensor], codebook: dict[str, Tensor],
                  e_i: Tensor, gumbel_temp: float, rng) -> ActionAssignment:
    """Direct code assignment from action logits, as stage-1 trains it.

    The logits are perturbed with Gumbel noise drawn from rng before the
    softmax, so the one-hot is a sample of the Gumbel-max distribution over
    the logits. The exact one-hot is forwarded; gradients flow through the
    soft probabilities.
    """
    logits = action_logits(inverse, e_i)
    noise = sample_gumbel(rng, logits.shape)
    soft = ad.softmax(ad.scale(ad.add(logits, noise), 1.0 / gumbel_temp))
    index = soft.data.argmax(axis=-1)
    hard = one_hot(index, logits.shape[-1])
    straight = ad.add(ad.stop_grad(ad.sub(Tensor(hard), soft)), soft)
    action = ad.matmul(straight, codebook["codes"])
    return ActionAssignment(logits, soft, hard, straight, index, action)


def assign_vq(codebook: dict[str, Tensor], e_i: Tensor):
    """Nearest-code assignment (distance-based ablation path).

    Returns (index, action, commitment_loss, codebook_loss). The action
    forwards the selected code and passes gradients straight through to the
    encoder embedding; the two auxiliary losses are the standard pull terms.
    Ties go to the lowest index (argmin behavior).
    """
    codes = codebook["codes"]
    d2 = ((e_i.data[..., None, :] - codes.data) ** 2).sum(axis=-1)
    index = d2.argmin(axis=-1)
    quantized = ad.embedding(codes, index)
    # forward: quantized; backward: identity into e_i
    action = ad.add(ad.stop_grad(ad.sub(quantized, e_i)), e_i)
    diff_c = ad.sub(e_i, ad.stop_grad(quantized))
    commitment = ad.mean_(ad.mul(diff_c, diff_c))
    diff_q = ad.sub(quantized, ad.stop_grad(e_i))
    codebook_loss = ad.mean_(ad.mul(diff_q, diff_q))
    return index, action, commitment, codebook_loss


def world_logits(merge: dict[str, Tensor], cfg: ArchConfig,
                 e_l: Tensor, action: Tensor) -> Tensor:
    """Next-token logits from base embeddings plus an action embedding.

    Each merge MLP re-concatenates the running embedding with the action,
    gates two up-projections (SiLU(e1) * e2), and projects back down; the
    final embedding goes through the world lm-head. No biases, so an all-zero
    input yields all-zero logits.
    """
    if e_l.shape[-1] != action.shape[-1]:
        raise ValueError("embedding and action dimension mismatch")
    h = e_l
    for i in range(cfg.n_merge_mlps):
        x = ad.concat_last(h, action)
        gate = ad.mul(ad.silu(ad.matmul(x, merge[f"mlp{i}.w1"])),
                      ad.matmul(x, merge[f"mlp{i}.w2"]))
        h = ad.matmul(gate, merge[f"mlp{i}.w3"])
    return ad.matmul(h, merge["lm_head"])


def _head_stack_forward(params: dict[str, Tensor], cfg: ArchConfig,
                        depth: int, e_l: Tensor,
                        cache: list[KVCache] | None = None) -> Tensor:
    h = e_l
    for i in range(depth):
        h = block_forward(params, f"blk{i}", h, cfg,
                          None if cache is None else cache[i])
    return ad.matmul(h, params["head"])


def policy_forward(policy: dict[str, Tensor], cfg: ArchConfig, e_l: Tensor,
                   cache: list[KVCache] | None = None) -> Tensor:
    """Per-position action distribution (B, T, N), causal in T. With one
    KVCache per block, e_l continues the cached positions."""
    return ad.softmax(_head_stack_forward(policy, cfg, cfg.n_layers_policy,
                                          e_l, cache))


def policy_log_probs(policy: dict[str, Tensor], cfg: ArchConfig, e_l: Tensor) -> Tensor:
    return ad.log_softmax(_head_stack_forward(policy, cfg, cfg.n_layers_policy, e_l))


def q_forward(q: dict[str, Tensor], cfg: ArchConfig, e_l: Tensor) -> Tensor:
    """Per-position unconstrained action values (B, T, N)."""
    return _head_stack_forward(q, cfg, cfg.n_layers_policy, e_l)


class Decoder:
    """Incremental decoding of a batch of sequences under fixed weights.

    Holds the keys and values of the base and policy blocks for the tokens
    it was last synced to, plus the base embedding and policy probabilities
    at every held position. `sync` keeps the longest prefix the new tokens
    share with the held ones and encodes the rest in one forward, so
    appending a token or going back to a prefix re-encodes nothing else.
    A sync may change the number of rows: the decoder then forks one held
    row into all new rows (or keeps one of many), so n rows that leave one
    sequence encode only what follows it. A new decoder holds one empty
    row, which its first sync forks into however many rows it is given.
    The caches are valid only while the state's weights stay unchanged.

    `sync`, `policy_probs`, `next_tokens`, `eos_token_id` and `n_actions`
    are the generator contract that `generate` and search decode through,
    so hand-built test generators plug in alike."""

    def __init__(self, state: ModelState):
        cfg = state.cfg
        self.state = state
        self.eos_token_id = cfg.eos_token_id
        self.n_actions = cfg.codebook_size
        self.tokens = np.zeros((1, 0), dtype=np.int64)
        self.base_cache = [KVCache(cfg.max_seq_len) for _ in range(cfg.n_layers_base)]
        self.policy_cache = [KVCache(cfg.max_seq_len)
                             for _ in range(cfg.n_layers_policy)]
        dtype = ad.active_dtype()
        self.e_l = np.zeros((1, cfg.max_seq_len, cfg.d_model), dtype)
        self.probs = np.zeros((1, cfg.max_seq_len, cfg.codebook_size), dtype)

    def sync(self, tokens) -> None:
        """Make the held sequences equal to tokens (B, T), B any batch size.

        With B unchanged, row i keeps what it shares with held row i. With
        B changed, every row continues the one held row with which all of
        them share the longest prefix. Raises FloatingPointError, naming
        the first position, if the policy probabilities of a newly encoded
        position are not finite."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or tokens.shape[1] < 1:
            raise ValueError(f"expected (B, T>=1) tokens, got shape {tokens.shape}")
        n = min(self.tokens.shape[1], tokens.shape[1])
        if len(tokens) == len(self.tokens):
            differ = np.flatnonzero((self.tokens[:, :n] != tokens[:, :n]).any(axis=0))
            if differ.size:
                n = int(differ[0])
        else:
            n = self._fork(tokens[:, :n])
        for c in self.base_cache + self.policy_cache:
            c.length = n
        t = tokens.shape[1]
        if t > n:
            groups, cfg = self.state.groups, self.state.cfg
            e_l = base_forward(groups["base"], cfg, tokens[:, n:], self.base_cache)
            probs = policy_forward(groups["policy"], cfg, e_l, self.policy_cache)
            if not np.isfinite(probs.data).all():
                bad = np.flatnonzero(~np.isfinite(probs.data).all(axis=(0, 2)))
                self.tokens = tokens[:, :n].copy()  # positions n.. are overwritten
                raise FloatingPointError("non-finite policy probabilities at "
                                         f"position {n + int(bad[0])}")
            self.e_l[:, n:t] = e_l.data
            self.probs[:, n:t] = probs.data
        self.tokens = tokens.copy()

    def _fork(self, prefixes: np.ndarray) -> int:
        """Hold len(prefixes) copies of the held row whose prefix all rows
        of prefixes (B, n) share longest; returns that shared length."""
        same = prefixes[:, None, :] == self.tokens[None, :, :prefixes.shape[1]]
        shared = np.logical_and.accumulate(same, axis=2).sum(axis=2).min(axis=0)
        row, b = int(shared.argmax()), len(prefixes)
        for c in self.base_cache + self.policy_cache:
            if c.k is not None:
                c.k = np.repeat(c.k[row:row + 1], b, axis=0)
                c.v = np.repeat(c.v[row:row + 1], b, axis=0)
        self.e_l = np.repeat(self.e_l[row:row + 1], b, axis=0)
        self.probs = np.repeat(self.probs[row:row + 1], b, axis=0)
        return int(shared[row])

    def policy_probs(self) -> np.ndarray:
        """(B, N) action distribution after the held tokens."""
        return self.probs[:, self.tokens.shape[1] - 1].copy()

    def next_tokens(self, actions) -> np.ndarray:
        """(B,) world-model argmax token after the held tokens, one action
        per row."""
        t = self.tokens.shape[1]
        codes = self.state.groups["codebook"]["codes"].data
        logits = world_logits(self.state.groups["merge"], self.state.cfg,
                              Tensor(self.e_l[:, t - 1:t]),
                              Tensor(codes[np.asarray(actions)][:, None, :]))
        return logits.data[:, -1, :].argmax(axis=-1)


def check_prompts(prompts, mode: str, rng) -> np.ndarray:
    """A copy of prompts as a (B, p) array, p >= 1, after checking that
    `generate` can decode from them in this mode."""
    prompts = np.array(prompts)
    if prompts.ndim != 2 or prompts.shape[1] < 1:
        raise ValueError("prompts must be a non-empty (B, p) array")
    if mode == "sample" and rng is None:
        raise ValueError("sample mode needs an rng")
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown rollout mode: {mode!r}")
    return prompts


def generate(dec, rows, mode: str, max_len: int, rng=None):
    """The one decode loop: continue every row of rows, B token sequences of
    any lengths, through a generator speaking the Decoder contract.

    The shortest rows start, and a longer row joins the batch when the
    batch reaches its length: a sync with more rows, which the generator
    forks from the prefix they share. Each step syncs once, picks one
    action per row in the batch (argmax in greedy mode, else an inverse-CDF
    draw of one `rng.random(b)` over the batch's b rows, ordered by length)
    and appends the world-model argmax token. A row is done at eos, also
    one it joins with, and is padded with eos and action 0; the batch stops
    at max_len, and once all its rows are done jumps to the next waiting
    length. Returns (tokens (B, T), actions (B, T - p)) in the order of
    rows, p the shortest length: tokens[i] starts with rows[i], and
    actions[i, s] produced tokens[i, p + s] (0 within rows[i]); `row_ends`
    says where each row ends."""
    eos = dec.eos_token_id
    lengths = np.array([len(row) for row in rows])
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    p, n = int(lengths[0]), len(order)
    tokens = np.full((n, max(max_len, int(lengths[-1]))), eos, dtype=np.int64)
    for j, i in enumerate(order):
        tokens[j, :lengths[j]] = rows[i]
    actions = np.zeros((n, tokens.shape[1] - p), dtype=np.int64)
    done = tokens[np.arange(n), lengths - 1] == eos
    t = p
    while True:
        b = int(np.searchsorted(lengths, t, side="right"))  # rows joined
        if t < max_len and not done[:b].all():
            dec.sync(tokens[:b, :t])
            probs = dec.policy_probs()
            if mode == "greedy":
                act = probs.argmax(axis=-1)
            else:
                act = inverse_cdf(cdf(probs), rng.random(b))
            nxt = np.where(done[:b], eos, dec.next_tokens(act))
            tokens[:b, t] = nxt
            actions[:b, t - p] = np.where(done[:b], 0, act)
            done[:b] |= nxt == eos
            t += 1
        elif b < n:
            t = int(lengths[b])
        else:
            break
    back = np.argsort(order)
    return tokens[back, :t], actions[back, :t - p]


def row_ends(tokens: np.ndarray, p, eos: int) -> np.ndarray:
    """(B,) end of each row of a `generate` output that continued
    tokens[:, :p], p one length or one per row: after its first eos at or
    after column p-1 (so a row continued from one ending in eos ends at p),
    else at the last column."""
    hit = (tokens == eos) & (np.arange(tokens.shape[1])
                             >= np.reshape(p, (-1, 1)) - 1)
    return np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, tokens.shape[1])
