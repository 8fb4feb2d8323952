"""Tiny causal transformer base model and shared block machinery.

Parameters come in groups by training role (base / inverse / merge /
policy / codebook / q_online / q_target). Each group is one flat buffer,
and its name->Tensor dict holds views into it, so stage freezing, hashing,
checkpointing and the optimizer treat each group as one array.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ArchConfig

INIT_STD = 0.02
GROUP_NAMES = ("base", "merge", "inverse", "policy", "codebook", "q_online", "q_target")


BLOCK_WEIGHTS = ("ln1", "wq", "wk", "wv", "wo", "ln2", "w1", "w2", "w3")


def weight_grad(a: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """Gradient of the weight w, of `shape`, in a @ w from the gradient g of
    the product, as ad.matmul's backward computes it."""
    return ad._unbroadcast(np.matmul(a.swapaxes(-1, -2), g), shape)


def block_arrays(x: np.ndarray, ws, n_heads: int, keep: bool = False):
    """The training and eval block kernel: pre-norm causal attention block
    + gated MLP, residual throughout, on arrays over all positions of x;
    ws are the BLOCK_WEIGHTS arrays. Returns (out, saved): saved is None,
    or with `keep` every intermediate block_forward's backward reads.
    Decoding does not run it: `actions.Decoder` steps its own block on
    weights it compiles from these, with a key/value cache.

    The numpy calls are those, in that order, of the block composed of
    rms_norm, matmul, reshape, swapaxes, causal_attention_scores, softmax,
    add, silu and mul, so the output is bitwise equal to it. The scores
    are scaled, masked and softmaxed in place. Without `keep`, each
    intermediate is dropped as soon as the next step has read it."""
    b, t, d = x.shape
    dh = d // n_heads
    ln1, wq, wk, wv, wo, ln2, w1, w2, w3 = ws

    hn, xn1, inv1 = ad.rms_norm_arrays(x, ln1)
    q, k, v = (np.matmul(hn, w).reshape(b, t, n_heads, dh).swapaxes(1, 2)
               for w in (wq, wk, wv))
    att, mask = ad.causal_scores(q, k)
    ad.softmax_rows(att, out=att)
    ctx = np.matmul(att, v).swapaxes(1, 2).reshape(b, t, d)
    if not keep:
        del hn, xn1, inv1, q, k, v, att
    x1 = np.matmul(ctx, wo)
    np.add(x, x1, out=x1)

    hn2, xn2, inv2 = ad.rms_norm_arrays(x1, ln2)
    a1 = np.matmul(hn2, w1)
    s1, sig = ad.silu_arrays(a1)
    if not keep:
        del ctx, xn2, inv2, a1, sig
    a2 = np.matmul(hn2, w2)
    gate = s1 * a2
    if not keep:
        del hn2, s1, a2
    out = np.matmul(gate, w3)
    np.add(x1, out, out=out)
    if not keep:
        return out, None
    return out, (hn, xn1, inv1, q, k, v, att, mask, ctx, x1,
                 hn2, xn2, inv2, a1, s1, sig, a2, gate)


def block_forward(p: dict[str, Tensor], prefix: str, x: Tensor, cfg: ArchConfig) -> Tensor:
    """The block of `block_arrays` as one tape op.

    The backward replays the composed block's backward steps in its tape's
    reverse order, so outputs and gradients are bitwise equal to it. It
    keeps its intermediates iff it is recorded: iff `ad.needs_grad`."""
    weights = [p[f"{prefix}.{name}"] for name in BLOCK_WEIGHTS]
    ws = [w.data for w in weights]
    ln1, wq, wk, wv, wo, ln2, w1, w2, w3 = ws
    xd = x.data
    out, saved = block_arrays(xd, ws, cfg.n_heads, keep=ad.needs_grad(x, *weights))
    if saved is None:
        return Tensor(out)
    (hn, xn1, inv1, q, k, v, att, mask, ctx, x1,
     hn2, xn2, inv2, a1, s1, sig, a2, gate) = saved
    b, t, d = xd.shape
    h, dh = cfg.n_heads, d // cfg.n_heads

    def backward(g):
        # residual: g reaches x1 directly and through the MLP
        g_gate = np.matmul(g, w3.swapaxes(-1, -2))
        grads = {"w3": weight_grad(gate, g, w3.shape)}
        g_a2 = g_gate * s1
        g_a1 = ad.silu_backward(g_gate * a2, a1, sig)
        del g_gate
        g_hn2 = np.matmul(g_a2, w2.swapaxes(-1, -2))
        grads["w2"] = weight_grad(hn2, g_a2, w2.shape)
        g_hn2 = g_hn2 + np.matmul(g_a1, w1.swapaxes(-1, -2))
        grads["w1"] = weight_grad(hn2, g_a1, w1.shape)
        del g_a1, g_a2
        g_x1, grads["ln2"] = ad.rms_norm_backward(g_hn2, x1, ln2, xn2, inv2)
        g_x1 = g + g_x1

        g_ctx = np.matmul(g_x1, wo.swapaxes(-1, -2))
        grads["wo"] = weight_grad(ctx, g_x1, wo.shape)
        g_ctx = g_ctx.reshape(b, t, h, dh).swapaxes(1, 2)
        g_att = np.matmul(g_ctx, v.swapaxes(-1, -2))
        g_v = np.matmul(att.swapaxes(-1, -2), g_ctx)
        g_s = ad.softmax_rows_backward(g_att, att)
        del g_att
        g_q, g_k = ad.causal_scores_backward(g_s, q, k, mask)
        del g_s
        # hn fans out to v, k and q; the tape sums them in that order
        g_hn = None
        for name, w, gy in (("wv", wv, g_v), ("wk", wk, g_k), ("wq", wq, g_q)):
            gy = gy.swapaxes(1, 2).reshape(b, t, d)
            gh = np.matmul(gy, w.swapaxes(-1, -2))
            g_hn = gh if g_hn is None else g_hn + gh
            grads[name] = weight_grad(hn, gy, w.shape)
        g_x, grads["ln1"] = ad.rms_norm_backward(g_hn, xd, ln1, xn1, inv1)
        return [(x, g_x1), (x, g_x)] + [(w, grads[name]) for name, w
                                        in zip(BLOCK_WEIGHTS, weights)]

    return ad._emit(out, backward, x, *weights)


def _block_specs(group: str, prefix: str, cfg: ArchConfig) -> list[tuple]:
    d, inter = cfg.d_model, cfg.intermediate_dim
    return [(group, f"{prefix}.ln1", (d,), None),
            *[(group, f"{prefix}.{w}", (d, d), INIT_STD) for w in ("wq", "wk", "wv", "wo")],
            (group, f"{prefix}.ln2", (d,), None),
            (group, f"{prefix}.w1", (d, inter), INIT_STD),
            (group, f"{prefix}.w2", (d, inter), INIT_STD),
            (group, f"{prefix}.w3", (inter, d), INIT_STD)]


def param_specs(cfg: ArchConfig) -> list[tuple[str, str, tuple, float | None]]:
    """(group, name, shape, init std) of every parameter init_model draws,
    in its draw order; std None means ones. q_target starts as a copy of
    q_online and has no entries of its own."""
    d, n, v, inter = cfg.d_model, cfg.codebook_size, cfg.vocab_size, cfg.intermediate_dim
    specs = [("base", "tok_emb", (v, d), INIT_STD),
             ("base", "pos_emb", (cfg.max_seq_len, d), INIT_STD)]
    for i in range(cfg.n_layers_base):
        specs += _block_specs("base", f"blk{i}", cfg)
    specs += [("base", "ln_out", (d,), None), ("base", "lm_head", (d, v), INIT_STD)]
    for i in range(cfg.n_layers_inverse):
        specs += _block_specs("inverse", f"blk{i}", cfg)
    # Codes live in the residual stream next to post-block embeddings whose
    # scale is ~1; initializing them at the weight scale (0.02) starves the
    # action channel and the assignment collapses to a single code.
    specs += [("inverse", "action_head", (d, n), INIT_STD),
              ("codebook", "codes", (n, d), 1.0)]
    for i in range(cfg.n_merge_mlps):
        specs += [("merge", f"mlp{i}.w1", (2 * d, inter), INIT_STD),
                  ("merge", f"mlp{i}.w2", (2 * d, inter), INIT_STD),
                  ("merge", f"mlp{i}.w3", (inter, d), INIT_STD)]
    specs.append(("merge", "lm_head", (d, v), INIT_STD))
    for group in ("policy", "q_online"):
        for i in range(cfg.n_layers_policy):
            specs += _block_specs(group, f"blk{i}", cfg)
        specs.append((group, "head", (d, n), INIT_STD))
    return specs


def group_layout(cfg: ArchConfig) -> dict[str, list[tuple[str, tuple]]]:
    """(name, shape) of each tensor of every group, in param_specs order:
    the layout of each group's flat buffer. q_target takes q_online's
    layout."""
    layout = {g: [] for g in GROUP_NAMES}
    for g, name, shape, _ in param_specs(cfg):
        layout[g].append((name, shape))
    layout["q_target"] = layout["q_online"]
    return layout


def unflatten(layout: list[tuple[str, tuple]], values: np.ndarray) -> dict[str, Tensor]:
    """{name: Tensor} of a group's `layout` entries, each a view into the
    1-d `values` that keeps its dtype; raises ValueError unless values
    holds exactly the layout's elements."""
    out, off = {}, 0
    for name, shape in layout:
        t = Tensor.__new__(Tensor)
        t.data = values[off:off + math.prod(shape)].reshape(shape)
        t._backward = None
        out[name] = t
        off += t.data.size
    if off != values.size:
        raise ValueError(f"buffer of {values.size} elements for a layout of {off}")
    return out


def base_forward(p: dict[str, Tensor], cfg: ArchConfig, tokens) -> Tensor:
    """tokens (B, T) int -> embeddings (B, T, d); `base_logits` turns them
    into next-token logits."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError("tokens must be (batch, time)")
    t = tokens.shape[1]
    if t > cfg.max_seq_len:
        raise ValueError(f"sequence length {t} exceeds max_seq_len {cfg.max_seq_len}")
    # ad.embedding rejects token ids outside the table's vocab_size rows
    x = ad.add(ad.embedding(p["tok_emb"], tokens),
               ad.slice_time(ad.reshape(p["pos_emb"], (1, cfg.max_seq_len, cfg.d_model)),
                             0, t))
    for i in range(cfg.n_layers_base):
        x = block_forward(p, f"blk{i}", x, cfg)
    return ad.rms_norm(x, p["ln_out"])


def base_logits(p: dict[str, Tensor], e_l: Tensor) -> Tensor:
    """Next-token logits (B, T, V) of the base lm-head from base_forward's
    embeddings."""
    return ad.matmul(e_l, p["lm_head"])


@dataclass(eq=False)
class ModelState:
    """Every parameter group plus the architecture that shaped them.

    Each group is one 1-d buffer that owns its memory, `buffers[g]`, laid
    out as `group_layout` gives; `groups[g]` holds the group's tensors as
    views into it, which `unflatten` builds here. AdamW and `sync_target`
    write the buffers in place, so the tensors see every update, and
    hashing and saving read the tensors' values through the buffer.
    Rebinding a tensor's `.data`, or replacing a group dict, detaches it
    from the buffer, and `flat` then raises. Every buffer has the one
    dtype, float32 or float64, that the state computes in."""

    cfg: ArchConfig
    buffers: dict[str, np.ndarray]
    groups: dict[str, dict[str, Tensor]] = field(init=False, repr=False)
    # the one memoised `training.val_sweep`; it checks its own key on use
    sweep: object = field(default=None, repr=False)

    def __post_init__(self):
        layout = group_layout(self.cfg)
        for g, buf in self.buffers.items():
            if buf.ndim != 1 or buf.base is not None:
                raise ValueError(f"the {g} buffer must be 1-d and own its memory")
        dtypes = {buf.dtype for buf in self.buffers.values()}
        if len(dtypes) != 1 or dtypes.isdisjoint(ad.FLOAT_DTYPES):
            named = ", ".join(f"{g} {buf.dtype}" for g, buf in self.buffers.items())
            raise ValueError(f"the buffers must share one dtype, float32 or float64: {named}")
        self.groups = {g: unflatten(layout[g], buf) for g, buf in self.buffers.items()}

    @property
    def dtype(self) -> np.dtype:
        """The buffers' one dtype, which all this state computes in."""
        return next(iter(self.buffers.values())).dtype

    def flat(self, group: str) -> np.ndarray:
        """The group's buffer itself, not a copy: its tensors in
        param_specs order. Raises ValueError naming the first tensor of the
        group that is no longer a view into it."""
        buf = self.buffers[group]
        for name, t in self.groups[group].items():
            if t.data.base is not buf:
                raise ValueError(f"{group}/{name} no longer lives in the {group} "
                                 "buffer: write its .data in place instead")
        return buf

    def group_hash(self, group: str) -> str:
        return hashlib.sha256(self.flat(group)).hexdigest()

    def hashes(self, groups=GROUP_NAMES) -> dict[str, str]:
        return {g: self.group_hash(g) for g in groups}


def init_model(cfg: ArchConfig, seed: int = 0, dtype=np.float32) -> ModelState:
    """Deterministically initialize every parameter group from one seed, in
    buffers of `dtype`: float32 trains, float64 verifies. One rng draws
    each tensor of param_specs in turn, in float64, straight into its place
    in its group's buffer; a std of None leaves the ones the buffer starts
    as. q_target's buffer is a copy of q_online's."""
    specs, layout = param_specs(cfg), group_layout(cfg)
    # keyed in param_specs order, which state.groups keeps
    buffers = {g: np.ones(sum(math.prod(s) for _, s in layout[g]), dtype)
               for g in dict.fromkeys(g for g, *_ in specs)}
    offsets = dict.fromkeys(buffers, 0)
    rng = np.random.default_rng(seed)
    for group, _, shape, std in specs:
        start = offsets[group]
        offsets[group] = end = start + math.prod(shape)
        if std is not None:
            buffers[group][start:end] = rng.normal(0.0, std, size=end - start)
    buffers["q_target"] = buffers["q_online"].copy()
    return ModelState(cfg, buffers)
