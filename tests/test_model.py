"""Model structure tests: shapes, causality, deterministic init, group
hashing, and the decoder's cached base embeddings against the
full-prefix forward."""

import ast
import pathlib

import numpy as np
import pytest

import actlm
from actlm import autodiff as ad
from actlm.autodiff import Tape, Tensor
from actlm.config import ArchConfig
from actlm.actions import Decoder
from actlm.model import (GROUP_NAMES, ModelState, base_forward, base_logits,
                         block_forward, group_layout, init_model, param_specs,
                         unflatten)
from conftest import BOTH_DTYPES, assert_one_storage, check_base_logits


CFG = ArchConfig(vocab_size=11, d_model=8, n_heads=2, max_seq_len=12,
                 intermediate_dim=16, codebook_size=4)


def test_base_forward_shapes():
    state = init_model(CFG, 0)
    tokens = np.random.default_rng(0).integers(0, 11, size=(3, 7))
    e_l = base_forward(state.groups["base"], CFG, tokens)
    logits = base_logits(state.groups["base"], e_l)
    assert e_l.shape == (3, 7, 8)
    assert logits.shape == (3, 7, 11)


def test_base_forward_is_causal():
    state = init_model(CFG, 0)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, 11, size=(1, 8))
    p = state.groups["base"]
    logits = base_logits(p, base_forward(p, CFG, tokens))
    for t in range(1, 8):
        mutated = tokens.copy()
        mutated[0, t] = (mutated[0, t] + 1 + rng.integers(0, 9)) % 11
        logits2 = base_logits(p, base_forward(p, CFG, mutated))
        np.testing.assert_array_equal(logits.data[:, :t], logits2.data[:, :t])
        assert not np.array_equal(logits.data[:, t], logits2.data[:, t])


@BOTH_DTYPES
@pytest.mark.parametrize("seed", range(6))
def test_cached_base_forward_matches_full_prefix(dtype, seed):
    """The decoder's cached base embeddings, synced one token at a time,
    then after a truncation and a re-extension with other tokens in
    chunks: every base logit they give stays within the rounding-error
    bound of the full-prefix forward (a few ulp of the operands in
    float64)."""
    cfg = ArchConfig(max_seq_len=24)
    state = init_model(cfg, seed, dtype)
    rng = np.random.default_rng(seed)
    t = cfg.max_seq_len
    tokens = rng.integers(0, cfg.vocab_size, size=(2, t))
    dec = Decoder(state)
    for i in range(1, t + 1):
        dec.sync(tokens[:, :i])
    check_base_logits(state, tokens, dec.e_l[:, :t], 0)

    keep = int(rng.integers(1, t - 2))
    branch = tokens.copy()
    branch[:, keep:] = rng.integers(0, cfg.vocab_size, size=(2, t - keep))
    dec.sync(branch[:, :keep])
    for cut in sorted(rng.choice(np.arange(keep + 1, t), 2, replace=False)):
        dec.sync(branch[:, :cut])
    dec.sync(branch)
    check_base_logits(state, branch, dec.e_l[:, keep:t], keep)


def reference_block_forward(p, prefix, x, cfg):
    """The block composed of tape primitives that the fused block_forward
    replaced, one node per primitive. Kept as the reference the fused op is
    checked against bit for bit."""
    b, t, d = x.shape
    h, dh = cfg.n_heads, d // cfg.n_heads
    hn = ad.rms_norm(x, p[f"{prefix}.ln1"])

    def heads(w):
        y = ad.matmul(hn, p[f"{prefix}.{w}"])
        y = ad.reshape(y, (b, t, h, dh))
        return ad.swapaxes(y, 1, 2)  # (b, h, t, dh)

    q, k, v = heads("wq"), heads("wk"), heads("wv")
    att = ad.softmax(ad.causal_attention_scores(q, k))
    ctx = ad.matmul(att, v)
    ctx = ad.reshape(ad.swapaxes(ctx, 1, 2), (b, t, d))
    x = ad.add(x, ad.matmul(ctx, p[f"{prefix}.wo"]))

    hn = ad.rms_norm(x, p[f"{prefix}.ln2"])
    gate = ad.mul(ad.silu(ad.matmul(hn, p[f"{prefix}.w1"])),
                  ad.matmul(hn, p[f"{prefix}.w2"]))
    return ad.add(x, ad.matmul(gate, p[f"{prefix}.w3"]))


def _weights(n_blocks, seed, dtype):
    """A state of dtype with n_blocks base blocks whose base weights sit
    well away from the tiny init scale, and the rng that moved them."""
    cfg = ArchConfig(n_layers_base=n_blocks)
    state = init_model(cfg, seed, dtype)
    rng = np.random.default_rng(seed)
    for w in state.groups["base"].values():
        w.data += rng.normal(0.0, 0.3, size=w.shape).astype(w.data.dtype)
    return state, rng


def _block_run(block, b, t, n_blocks, seed, dtype):
    """Output and gradients (input's first, then every weight's) of
    n_blocks stacked blocks plus a skip from their input, so that the
    input's gradient also sums with one reaching it from outside the
    blocks."""
    state, rng = _weights(n_blocks, seed, dtype)
    p, cfg = state.groups["base"], state.cfg
    x = Tensor(rng.normal(size=(b, t, cfg.d_model)).astype(dtype))
    with Tape() as tape:
        h = x
        for i in range(n_blocks):
            h = block(p, f"blk{i}", h, cfg)
        out = ad.add(h, x)
    g = rng.normal(size=out.shape).astype(out.data.dtype)
    with tape:
        loss = ad.sum_(ad.mul(out, Tensor(g)))  # hands `out` exactly g
    grads = tape.gradients(loss)
    return [out.data] + [tape.grad(grads, t) for t in (x, *p.values())]


def _decoder_step(b, t, past, n_blocks, seed, dtype):
    """A decoder holding `past` positions of b rows steps t more through
    its compiled blocks against its key/value cache."""
    state, rng = _weights(n_blocks, seed, dtype)
    tokens = rng.integers(0, state.cfg.vocab_size, size=(b, past + t))
    dec = Decoder(state)
    dec.sync(tokens[:, :past])
    dec.sync(tokens)
    check_base_logits(state, tokens, dec.e_l[:, past:past + t], past)


@BOTH_DTYPES
@pytest.mark.parametrize("b,t,past,n_blocks", [
    (16, 16, 0, 1), (3, 64, 0, 1), (2, 33, 0, 1), (1, 5, 0, 1),
    (4, 1, 9, 1),   # one decode step against a KV cache
    (2, 3, 5, 1),   # a chunk of queries against a KV cache
    (3, 9, 0, 2),   # two stacked blocks under one tape
])
def test_fused_block_matches_composed_reference_bitwise(dtype, b, t, past, n_blocks):
    """The fused block gives the composed block's output and every
    gradient, the input's included, to the bit. With `past` positions
    cached, the decoder's compiled block step, which folds weights and so
    rounds otherwise, stays within the rounding-error bound of the
    full-prefix forward, whose fused blocks the other cases hold to the
    composed ones."""
    for seed in range(3):
        if past:
            _decoder_step(b, t, past, n_blocks, seed, dtype)
            continue
        got = _block_run(block_forward, b, t, n_blocks, seed, dtype)
        want = _block_run(reference_block_forward, b, t, n_blocks, seed, dtype)
        assert len(got) == len(want)
        for i, (a, r) in enumerate(zip(got, want)):
            assert a.dtype == r.dtype and np.array_equal(a, r), (seed, i)


def test_init_is_deterministic():
    a, b = init_model(CFG, 3), init_model(CFG, 3)
    assert a.hashes() == b.hashes()
    c = init_model(CFG, 4)
    assert a.hashes() != c.hashes()


def test_all_groups_present():
    state = init_model(CFG, 0)
    assert set(state.groups) == set(GROUP_NAMES)
    assert state.groups["q_target"].keys() == state.groups["q_online"].keys()
    for k in state.groups["q_online"]:
        np.testing.assert_array_equal(state.groups["q_online"][k].data,
                                      state.groups["q_target"][k].data)


@pytest.mark.parametrize("cfg", [CFG, ArchConfig(
    vocab_size=5, d_model=6, n_heads=3, n_layers_base=3, n_layers_inverse=2,
    n_merge_mlps=1, n_layers_policy=2, codebook_size=3, max_seq_len=7,
    intermediate_dim=4)])
def test_flat_layout_round_trips_init_model(cfg):
    """init_model's tensors are views of their group's buffer, named and
    ordered as param_specs gives, and bitwise the per-tensor init: one rng
    drawing each tensor in param_specs order in float64, each cast on its
    own to the buffers' dtype (so float64 buffers hold the draws exactly).
    q_target equals q_online in a buffer of its own."""
    for dtype in (np.float64, np.float32):
        state = init_model(cfg, 0, dtype)
        assert state.dtype == dtype
        rng = np.random.default_rng(0)
        for g, name, shape, std in param_specs(cfg):
            ref = np.ones(shape) if std is None else rng.normal(0.0, std, size=shape)
            t = state.groups[g][name]
            assert t.data.dtype == dtype
            assert t.data.shape == shape and t.data.tobytes() == ref.astype(dtype).tobytes()
    assert set(state.groups) == set(GROUP_NAMES)
    assert_one_storage(state)
    for g in GROUP_NAMES:
        assert list(state.groups[g]) == [name for name, _ in group_layout(cfg)[g]]
        back = unflatten(group_layout(cfg)[g], state.flat(g))
        assert [t.data.tobytes() for t in back.values()] == \
            [t.data.tobytes() for t in state.groups[g].values()]
    assert state.flat("q_target").tobytes() == state.flat("q_online").tobytes()
    assert not np.shares_memory(state.flat("q_target"), state.flat("q_online"))


# (module, qualified name) of the only functions that may bind a `.data`
DATA_BINDERS = {("autodiff.py", "Tensor.__init__"), ("model.py", "unflatten")}


def test_parameter_data_is_bound_only_where_tensors_are_made():
    """No src function but these two assigns to a `.data` attribute, so a
    parameter cannot be silently detached from its group's buffer: every
    other write goes through the array in place."""
    found = []

    def visit(node, path, qualname):
        for child in ast.iter_child_nodes(node):
            name = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}" if qualname else child.name
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target] if isinstance(child, ast.AnnAssign) else [])
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and t.attr == "data" \
                            and isinstance(t.ctx, ast.Store):
                        found.append((path.name, name))
            visit(child, path, name)

    for path in sorted(pathlib.Path(actlm.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    assert found and set(found) <= DATA_BINDERS, found


def test_model_state_refuses_buffers_of_mixed_or_other_dtypes():
    """A state computes in the one dtype of its buffers, so buffers of two
    dtypes, or of one other than float32 and float64, are refused by
    ValueError naming each group's dtype."""
    buffers = init_model(CFG, 0).buffers
    mixed = {**buffers, "policy": buffers["policy"].astype(np.float64)}
    with pytest.raises(ValueError, match="one dtype.*policy float64"):
        ModelState(CFG, mixed)
    half = {g: buf.astype(np.float16) for g, buf in buffers.items()}
    with pytest.raises(ValueError, match="one dtype.*base float16"):
        ModelState(CFG, half)
    assert ModelState(CFG, {g: buf.astype(np.float64) for g, buf in buffers.items()}
                      ).dtype == np.float64


def test_group_hash_tracks_content():
    state = init_model(CFG, 0)
    before = state.group_hash("policy")
    first = next(iter(state.groups["policy"].values()))
    first.data[...] += 1.0
    assert state.group_hash("policy") != before


def test_params_flattening_and_group_selection():
    state = init_model(CFG, 0)
    sub = state.params("policy", "codebook")
    assert all(k.startswith(("policy/", "codebook/")) for k in sub)
    assert "codebook/codes" in sub


def test_rejects_bad_inputs():
    state = init_model(CFG, 0)
    with pytest.raises(ValueError):
        base_forward(state.groups["base"], CFG, np.zeros(5, dtype=int))
    with pytest.raises(ValueError):
        base_forward(state.groups["base"], CFG,
                     np.zeros((1, CFG.max_seq_len + 1), dtype=int))
    with pytest.raises(ValueError):
        base_forward(state.groups["base"], CFG, np.full((1, 3), 11))


def test_arch_config_validation():
    with pytest.raises(ValueError):
        ArchConfig(d_model=9, n_heads=2)
    with pytest.raises(ValueError):
        ArchConfig(codebook_size=1)
    with pytest.raises(ValueError):
        ArchConfig(eos_token_id=99)
    with pytest.raises(ValueError, match="n_heads"):
        ArchConfig(n_heads=0)
    with pytest.raises(ValueError, match="max_seq_len"):
        ArchConfig(max_seq_len=0)
