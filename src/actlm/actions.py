"""Discrete latent-action machinery: inverse encoder, code assignment with
straight-through gradients, action-conditioned world head, policy and Q heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ArchConfig
from .data import cdf, inverse_cdf
from .model import BLOCK_WEIGHTS, ModelState, block_forward


@dataclass
class ActionAssignment:
    """One code selection per predictable position.

    `soft` sums to 1 per row; `straight` carries the exact one-hot of
    `index` forward but the soft gradients backward; `action` is the
    selected codebook rows.
    """

    soft: Tensor         # (..., N) softmax probabilities g
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
    soft = ad.softmax(ad.mul(ad.add(logits, noise), 1.0 / gumbel_temp))
    index = soft.data.argmax(axis=-1)
    hard = one_hot(index, logits.shape[-1])
    straight = ad.add(ad.stop_grad(ad.sub(Tensor(hard), soft)), soft)
    action = ad.matmul(straight, codebook["codes"])
    return ActionAssignment(soft, straight, index, action)


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
                        depth: int, e_l: Tensor) -> Tensor:
    h = e_l
    for i in range(depth):
        h = block_forward(params, f"blk{i}", h, cfg)
    return ad.matmul(h, params["head"])


def policy_forward(policy: dict[str, Tensor], cfg: ArchConfig, e_l: Tensor) -> Tensor:
    """Per-position action distribution (B, T, N), causal in T."""
    return ad.softmax(_head_stack_forward(policy, cfg, cfg.n_layers_policy, e_l))


def policy_log_probs(policy: dict[str, Tensor], cfg: ArchConfig, e_l: Tensor) -> Tensor:
    return ad.log_softmax(_head_stack_forward(policy, cfg, cfg.n_layers_policy, e_l))


def q_forward(q: dict[str, Tensor], cfg: ArchConfig, e_l: Tensor) -> Tensor:
    """Per-position unconstrained action values (B, T, N)."""
    return _head_stack_forward(q, cfg, cfg.n_layers_policy, e_l)


class Decoder:
    """Incremental decoding of a batch of sequences under fixed weights.

    Holds the keys and values of the base and policy blocks for the tokens
    it was last synced to, plus the base embedding and policy probabilities
    at every held position. `sync` has one match rule: each new row
    continues the held row it shares the longest prefix with, and the rows
    encode the rest in one forward, so appending a token or going back to
    a prefix re-encodes nothing else. The number of rows may change, so n
    rows that leave one sequence encode only what follows it, rows that
    join a batch encode only past what they share with a held row, and
    reordered rows encode nothing. A new decoder holds one empty row,
    which every row of its first sync continues.

    At construction the decoder compiles the state's weights into copies
    of its own in the dtype then active, so later changes to the state do
    not reach it, and a sync under another precision mode raises. Each
    fold is computed in float64 and rounded once:
    - per base and policy block, `wqkv = [wq / sqrt(dh) | wk | wv]` and
      `w12 = [w1 | w2]`, each with the gain of the norm before it and the
      norm's sqrt(d) folded into its rows, so a norm is one scale of the
      product by 1 / sqrt(sum x^2 + d eps); `wo` and `w3` as they are;
    - `ln_out` times sqrt(d);
    - per merge MLP, the running embedding's rows of `[w1 | w2]`, and a
      table `codes @ [w1 | w2][d:]` of one row per code, since the action
      is always a codebook row; each MLP's `w3` is folded into the next
      MLP's rows, and the last one into the world lm-head;
    - every `w1` negated, and the `w3` after it, so the gate
      silu(a) b = a b / (1 + exp(-a)) reads exp of its input as it is.
    Each cached value ends in a 1, so the context product also sums the
    softmax weights. Decoding records no tape and never runs
    `model.block_arrays` or `world_logits`. Its outputs differ from the
    full-sequence forward (`base_forward`, `policy_forward`,
    `world_logits`) only by rounding: the tests hold them within a
    first-order bound on the dot-product error over each output's
    accumulation length, in both precision modes.

    `sync`, `policy_probs`, `next_tokens`, `eos_token_id` and `n_actions`
    are the generator contract that `generate` and search decode through,
    so hand-built test generators plug in alike."""

    def __init__(self, state: ModelState):
        cfg, groups = state.cfg, state.groups
        self.cfg, self.dtype = cfg, ad.active_dtype()
        self.eos_token_id = cfg.eos_token_id
        self.n_actions = cfg.codebook_size
        d, heads = cfg.d_model, cfg.n_heads
        root_d = math.sqrt(d)

        def array(group, name):
            return np.asarray(groups[group][name].data, np.float64)

        def compiled(a):
            return np.ascontiguousarray(a, self.dtype)

        def block(group, i):
            ln1, wq, wk, wv, wo, ln2, w1, w2, w3 = (
                array(group, f"blk{i}.{w}") for w in BLOCK_WEIGHTS)
            wqkv = np.concatenate([wq / math.sqrt(d // heads), wk, wv], axis=1)
            w12 = np.concatenate([-w1, w2], axis=1)
            return (compiled(root_d * ln1[:, None] * wqkv), compiled(wo),
                    compiled(root_d * ln2[:, None] * w12), compiled(-w3))

        self.tok_emb = compiled(array("base", "tok_emb"))
        self.pos_emb = compiled(array("base", "pos_emb"))
        self.ln_out = compiled(root_d * array("base", "ln_out"))
        self.eps = np.asarray(d * ad.RMS_EPS, self.dtype)
        self.n_base = cfg.n_layers_base
        self.blocks = ([block("base", i) for i in range(cfg.n_layers_base)]
                       + [block("policy", i) for i in range(cfg.n_layers_policy)])
        self.policy_head = compiled(array("policy", "head"))
        # `down` maps the running embedding into an MLP's input: the
        # identity before the first MLP, then the previous MLP's w3
        codes, down, self.mlps = array("codebook", "codes"), np.eye(d), []
        for i in range(cfg.n_merge_mlps):
            w12 = np.concatenate([-array("merge", f"mlp{i}.w1"),
                                  array("merge", f"mlp{i}.w2")], axis=1)
            self.mlps.append((compiled(down @ w12[:d]), compiled(codes @ w12[d:])))
            down = -array("merge", f"mlp{i}.w3")
        self.lm_head = compiled(down @ array("merge", "lm_head"))
        self.tokens = np.zeros((1, 0), dtype=np.int64)
        # per block, keys (row, head, position, dh) and values (row, head,
        # position, dh + 1) whose last entry is 1
        dh, self.kv = d // heads, []
        for _ in self.blocks:
            v = np.zeros((1, heads, cfg.max_seq_len, dh + 1), self.dtype)
            v[..., dh] = 1
            self.kv.append((np.zeros((1, heads, cfg.max_seq_len, dh), self.dtype), v))
        self.e_l = np.zeros((1, cfg.max_seq_len, d), self.dtype)
        self.probs = np.zeros((1, cfg.max_seq_len, cfg.codebook_size), self.dtype)

    def sync(self, tokens) -> None:
        """Make the held sequences equal to tokens (B, T), B any batch size.

        Each row continues the held row with which it shares the longest
        prefix, its own row (the same index) on a tie: that row's caches,
        base embeddings and policy probabilities are gathered into it, and
        every row encodes from the shortest of those shared lengths. When
        every row extends its own row, nothing is gathered. Raises
        ValueError, before it changes what it holds, under a precision
        mode other than the one it was built in, on ids that are not
        integers, past max_seq_len and on a token id outside the
        vocabulary in a column it encodes (the held
        columns were checked when they were encoded); and
        FloatingPointError, naming the first position, if the policy
        probabilities of a newly encoded position are not finite."""
        if ad.active_dtype() != self.dtype:
            raise ValueError(f"decoder built for {self.dtype} synced under "
                             f"{ad.active_dtype()}")
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or tokens.shape[1] < 1:
            raise ValueError(f"expected (B, T>=1) tokens, got shape {tokens.shape}")
        if tokens.dtype.kind not in "iu":
            raise ValueError(f"expected integer token ids, got {tokens.dtype}")
        t = tokens.shape[1]
        if t > self.cfg.max_seq_len:
            raise ValueError(f"sequence length {t} exceeds max_seq_len "
                             f"{self.cfg.max_seq_len}")
        n, rows = self.tokens.shape[1], None
        # the decode step, where every row extends its own, skips the compare
        if len(tokens) != len(self.tokens) or t < n \
                or (tokens[:, :n] != self.tokens).any():
            n = min(n, t)
            same = tokens[:, None, :n] == self.tokens[None, :, :n]
            shared = np.logical_and.accumulate(same, axis=2).sum(axis=2)
            # the eye term breaks a tie towards the row's own held row
            rows = (2 * shared + np.eye(*shared.shape, dtype=int)).argmax(axis=1)
            n = int(shared.max(axis=1).min())
        new = tokens[:, n:]
        if t > n and (new.min() < 0 or new.max() >= len(self.tok_emb)):
            raise ValueError("embedding id out of range")
        if rows is not None:
            # one block at a time, so that one block's copy at most is extra
            for i, (k, v) in enumerate(self.kv):
                self.kv[i] = k[rows], v[rows]
            self.e_l, self.probs = self.e_l[rows], self.probs[rows]
        if t > n:
            e_l, probs = self.encode(new, n)
            if not np.isfinite(probs).all():
                bad = np.flatnonzero(~np.isfinite(probs).all(axis=(0, 2)))
                self.tokens = tokens[:, :n].copy()  # positions n.. are overwritten
                raise FloatingPointError("non-finite policy probabilities at "
                                         f"position {n + int(bad[0])}")
            self.e_l[:, n:t] = e_l
            self.probs[:, n:t] = probs
        self.tokens = tokens.copy()

    def _scale(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """y / sqrt(sum x^2 + d eps) over x's last axis, in place: y is x
        times weights with the norm's gain and sqrt(d) folded in, so this
        is the rms norm of x times those weights."""
        y /= np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) + self.eps)
        return y

    def _block(self, x: np.ndarray, i: int, start: int) -> np.ndarray:
        """Compiled block i on x (B, t, d) at positions start.. of the held
        rows: their keys and values join the cache, and each query attends
        to every cached position up to its own."""
        wqkv, wo, w12, w3 = self.blocks[i]
        b, t, d = x.shape
        end, heads = start + t, self.cfg.n_heads
        dh = d // heads
        qkv = self._scale(np.matmul(x, wqkv), x)
        qkv = qkv.reshape(b, t, 3, heads, dh).transpose(2, 0, 3, 1, 4)
        k, v = self.kv[i]
        k[:, :, start:end] = qkv[1]
        v[:, :, start:end, :dh] = qkv[2]
        att = np.matmul(qkv[0], k[:, :, :end].swapaxes(-1, -2))
        if t > 1:
            np.copyto(att, ad.NEG_MASK,
                      where=np.arange(end) > np.arange(start, end)[:, None])
        np.subtract(att, ad.row_max(att), out=att)
        np.exp(att, out=att)
        # the values' trailing 1 makes the last column the weights' sum
        ctx = np.matmul(att, v[:, :, :end])
        ctx = (ctx[..., :dh] / ctx[..., dh:]).swapaxes(1, 2).reshape(b, t, d)
        x1 = np.matmul(ctx, wo)
        x1 += x
        out = np.matmul(self._gate(self._scale(np.matmul(x1, w12), x1)), w3)
        out += x1
        return out

    @staticmethod
    def _gate(z: np.ndarray) -> np.ndarray:
        """-silu(-z1) * z2 for z = [z1 | z2] split in half on the last axis:
        the compiled w1 and w3 are negated, so this is the gate."""
        half = z.shape[-1] // 2
        a1, a2 = z[..., :half], z[..., half:]
        den = np.exp(a1)
        den += 1
        out = a1 * a2
        out /= den
        return out

    def encode(self, tokens: np.ndarray, start: int):
        """(e_l, policy probabilities) at positions start.. of the held
        rows, for tokens (B, t) that continue the cached positions, which
        they join."""
        x = self.tok_emb[tokens] + self.pos_emb[start:start + tokens.shape[1]]
        for i in range(self.n_base):
            x = self._block(x, i, start)
        e_l = h = self._scale(x * self.ln_out, x)
        for i in range(self.n_base, len(self.blocks)):
            h = self._block(h, i, start)
        return e_l, ad.softmax_rows(np.matmul(h, self.policy_head))

    def policy_probs(self) -> np.ndarray:
        """(B, N) action distribution after the held tokens."""
        return self.probs[:, self.tokens.shape[1] - 1].copy()

    def next_logits(self, actions) -> np.ndarray:
        """(B, V) world-model logits after the held tokens, one action per
        row."""
        actions = np.asarray(actions)
        h = self.e_l[:, self.tokens.shape[1] - 1]
        for up, table in self.mlps:
            z = np.matmul(h, up)
            z += table[actions]
            h = self._gate(z)
        return np.matmul(h, self.lm_head)

    def next_tokens(self, actions) -> np.ndarray:
        """(B,) world-model argmax token after the held tokens, one action
        per row."""
        return self.next_logits(actions).argmax(axis=-1)

    def next_token(self, tokens, action: int) -> int:
        """World-model argmax token after tokens (p,) under one action; the
        decoder is left holding tokens as its one row."""
        self.sync(np.asarray(tokens)[None])
        return int(self.next_tokens([action])[0])


def generate(dec, rows, mode: str, max_len: int, rng=None):
    """The one decode loop: continue every row of rows, B token sequences of
    any lengths, through a generator speaking the Decoder contract.

    The shortest rows start, and a longer row joins the batch when the
    batch reaches its length: a sync with more rows, in which each row
    continues the held row it shares most with. Each step syncs once,
    picks one action per row in the batch (argmax in greedy mode, else an
    inverse-CDF draw of one `rng.random(b)` over the batch's b rows,
    ordered by length) and appends the world-model argmax token. A row is
    done at eos, also one it joins with, and is padded with eos and action
    0; the batch stops at max_len, and once all its rows are done jumps to
    the next waiting length. Returns (tokens (B, T), actions (B, T - p)) in the order of
    rows, p the shortest length: tokens[i] starts with rows[i], and
    actions[i, s] produced tokens[i, p + s] (0 within rows[i]); `row_ends`
    says where each row ends. Raises ValueError before any sync on an
    unknown mode, sample mode without an rng, or a row that is empty or
    not 1-d."""
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown rollout mode: {mode!r}")
    if mode == "sample" and rng is None:
        raise ValueError("sample mode needs an rng")
    if any(np.ndim(row) != 1 or len(row) == 0 for row in rows):
        raise ValueError("every row must be a non-empty 1-d token sequence")
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
                act = inverse_cdf(cdf(probs).T, rng.random(b))
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
