"""Unit tests for the reverse-mode engine: per-primitive gradient checks
against central finite differences and structural tape behavior."""

import ast
import contextlib
import inspect
import math
import pathlib
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import actlm
from actlm import autodiff as ad
from actlm.autodiff import Tape, Tensor
from actlm.config import ArchConfig
from actlm.model import base_forward, init_model
from actlm.training import loss_base_ar
from conftest import BOTH_DTYPES, StopGradCapture, finite_diff_check, \
    finite_diff_report, matmul_error_bound


def rand(rng, *shape):
    return Tensor(rng.normal(0.0, 1.0, size=shape))


def probe(rng, t: Tensor) -> Tensor:
    """Scalar readout sum(w * t) with a fixed random w."""
    w = rng.normal(0.0, 1.0, size=t.shape)
    return ad.sum_(ad.mul(t, Tensor(w)))


PRIMITIVE_CASES = {
    "add": lambda rng, x, y: ad.add(x, y),
    "add_broadcast": lambda rng, x, y: ad.add(x, Tensor(rng.normal(size=(x.shape[-1],)))),
    "sub": lambda rng, x, y: ad.sub(x, y),
    "mul": lambda rng, x, y: ad.mul(x, y),
    "mul_const": lambda rng, x, y: ad.mul(x, 1.7),
    "softmax": lambda rng, x, y: ad.softmax(x),
    "log_softmax": lambda rng, x, y: ad.log_softmax(x),
    "silu": lambda rng, x, y: ad.silu(x),
    "exp": lambda rng, x, y: ad.exp(x),
    "sum_all": lambda rng, x, y: ad.sum_(x),
    "sum_axis": lambda rng, x, y: ad.sum_(x, axis=1),
    "mean_all": lambda rng, x, y: ad.mean_(x),
    "reshape": lambda rng, x, y: ad.reshape(x, (x.data.size,)),
    "swapaxes": lambda rng, x, y: ad.swapaxes(x, 0, 1),
    "concat_last": lambda rng, x, y: ad.concat_last(x, y),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_matches_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = rand(rng, 2, 3)
    y = rand(rng, 2, 3)
    op = PRIMITIVE_CASES[name]

    def build():
        return probe(np.random.default_rng(5), op(np.random.default_rng(9), x, y))

    assert finite_diff_check(build, [x, y]) <= 1


def test_matmul_gradients():
    rng = np.random.default_rng(0)
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)
    assert finite_diff_check(
        lambda: probe(np.random.default_rng(1), ad.matmul(a, b)), [a, b]) <= 1


def test_batched_matmul_gradients():
    rng = np.random.default_rng(0)
    a, b = rand(rng, 2, 3, 4), rand(rng, 4, 2)
    assert finite_diff_check(
        lambda: probe(np.random.default_rng(1), ad.matmul(a, b)), [a, b]) <= 1


def test_log_gradients():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(0.5, 2.0, size=(2, 3)))
    assert finite_diff_check(
        lambda: probe(np.random.default_rng(1), ad.log(x)), [x]) <= 1


def test_rms_norm_gradients():
    rng = np.random.default_rng(0)
    x, gain = rand(rng, 2, 3, 4), rand(rng, 4)
    assert finite_diff_check(
        lambda: probe(np.random.default_rng(1), ad.rms_norm(x, gain)),
        [x, gain]) <= 1


def test_causal_attention_scores_gradients():
    rng = np.random.default_rng(0)
    q, k = rand(rng, 1, 3, 4), rand(rng, 1, 3, 4)

    def build():
        s = ad.causal_attention_scores(q, k)
        # probe only the unmasked triangle; the mask is a constant
        w = np.tril(np.random.default_rng(1).normal(size=(3, 3)))
        return ad.sum_(ad.mul(s, Tensor(w[None])))

    assert finite_diff_check(build, [q, k]) <= 1


def test_causal_attention_scores_query_offset():
    """Tq < Tk queries are the last Tq positions: query i sees keys up to
    Tk - Tq + i, exactly the rows of the full square mask."""
    rng = np.random.default_rng(0)
    q, k = rand(rng, 2, 5, 4), rand(rng, 2, 5, 4)
    full = ad.causal_attention_scores(q, k).data
    np.testing.assert_array_equal(full == ad.NEG_MASK,
                                  np.triu(np.ones((2, 5, 5), bool), 1))
    bound = 2 * matmul_error_bound(q.data, np.swapaxes(k.data, -1, -2),
                                   np.float64) / 2.0  # / sqrt(dh)
    for tq in range(1, 5):
        part = ad.causal_attention_scores(Tensor(q.data[:, 5 - tq:]), k).data
        assert part.shape == (2, tq, 5)
        np.testing.assert_array_equal(part == ad.NEG_MASK,
                                      full[:, 5 - tq:] == ad.NEG_MASK)
        assert (np.abs(part - full[:, 5 - tq:]) <= bound[:, 5 - tq:]).all()


# Reference formulas in plain numpy spelling. The primitives skip numpy's
# Python-level wrappers and masks that mask nothing; they must give the same
# bits, forward and backward.

def rms_norm_reference(x, gain, g, eps=1e-5):
    """(output, grad x, grad gain) with the mean square from ndarray.mean."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    xn = x * inv
    gx_n = g * gain
    gx = inv * (gx_n - x * (inv * inv / x.shape[-1])
                * (gx_n * x).sum(axis=-1, keepdims=True))
    return xn * gain, gx, (g * xn).sum(axis=tuple(range(x.ndim - 1)))


def scores_reference(q, k, g):
    """(scores, grad q, grad k) with a fresh np.triu mask applied by an
    unconditional np.where."""
    dh = q.shape[-1]
    s = np.matmul(q, np.swapaxes(k, -1, -2)) / math.sqrt(dh)
    tq, tk = s.shape[-2:]
    mask = np.triu(np.ones((tq, tk), dtype=bool), k=tk - tq + 1)
    s = np.where(mask, np.asarray(ad.NEG_MASK, dtype=s.dtype), s)
    g = np.where(mask, 0.0, g) / math.sqrt(dh)
    return s, np.matmul(g, k), np.matmul(np.swapaxes(g, -1, -2), q)


def silu_reference(x, g):
    """(output, grad x) with Python-scalar ufunc operands."""
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, g * sig * (1.0 + x * (1.0 - sig))


def softmax_reference(x, g):
    """(output, grad x) with the ndarray.max and .sum methods."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    return y, (g - (g * y).sum(axis=-1, keepdims=True)) * y


def log_softmax_reference(x, g):
    """(output, grad x) with the ndarray.max and .sum methods."""
    z = x - x.max(axis=-1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return y, g - np.exp(y) * g.sum(axis=-1, keepdims=True)


def cross_entropy_reference(x, targets, g):
    """(losses, grad x) with the ndarray.max and .sum methods."""
    lsm, _ = log_softmax_reference(x, x)
    losses = -np.take_along_axis(lsm, targets[..., None], axis=-1)[..., 0]
    gx = np.exp(lsm) * g[..., None]
    np.subtract.at(gx.reshape(-1, gx.shape[-1]),
                   (np.arange(targets.size), targets.reshape(-1)), g.reshape(-1))
    return losses, gx


def forward_and_grads(op, inputs, rng):
    """op's output and the gradients of sum(g * output) for a random g."""
    with Tape() as tape:
        out = op(*inputs)
    g = rng.normal(size=out.shape).astype(out.data.dtype)
    with tape:
        # the sum hands `out` exactly g: its backward gives ones, and 1 * g == g
        loss = ad.sum_(ad.mul(out, Tensor(g)))
    grads = tape.gradients(loss)
    return out.data, [tape.grad(grads, t) for t in inputs], g


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


@BOTH_DTYPES
@pytest.mark.parametrize("shape", [(1, 1, 32), (2, 5, 32), (3, 7, 8), (4, 9)])
def test_rms_norm_matches_mean_formula(dtype, shape):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=shape).astype(dtype))
        gain = Tensor(rng.normal(size=shape[-1:]).astype(dtype))
        out, (gx, gg), g = forward_and_grads(ad.rms_norm, [x, gain], rng)
        ref, ref_gx, ref_gg = rms_norm_reference(x.data, gain.data, g)
        assert out.dtype == dtype
        for got, want in ((out, ref), (gx, ref_gx), (gg, ref_gg)):
            assert_same_bits(got, want)


@BOTH_DTYPES
@pytest.mark.parametrize("tq", [1, 2, 5, 6])  # Tq == 1, 1 < Tq < Tk, Tq == Tk
def test_causal_attention_scores_match_triu_mask(dtype, tq):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        q = Tensor(rng.normal(size=(2, 3, tq, 4)).astype(dtype))
        k = Tensor(rng.normal(size=(2, 3, 6, 4)).astype(dtype))
        out, (gq, gk), g = forward_and_grads(ad.causal_attention_scores,
                                             [q, k], rng)
        for got, want in zip((out, gq, gk), scores_reference(q.data, k.data, g)):
            assert_same_bits(got, want)


@BOTH_DTYPES
def test_softmax_matches_method_reductions(dtype):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(0.0, 5.0, size=(2, 3, 1 + seed % 9)).astype(dtype))
        out, (gx,), g = forward_and_grads(ad.softmax, [x], rng)
        for got, want in zip((out, gx), softmax_reference(x.data, g)):
            assert_same_bits(got, want)


def plain_row_max(x):
    """The reference for `ad.row_max`: numpy's reduction without `initial`,
    seeded with each row's first entry."""
    return np.maximum.reduce(x, axis=-1, keepdims=True)


def same_bytes(got, want) -> bool:
    """Equal dtype, shape and bytes: NaNs and the signs of zeros included."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# Row shapes of training (16, 2, 16, 16), eval (16, 2, 64, 64) and the
# lm-head (16, 63, 16), the codebook-sized rows of 8, and decode (B, 2, 1, t).
ROW_SHAPES = [(16, 2, 16, 16), (16, 2, 64, 64), (16, 63, 16), (16, 63, 8),
              (1, 2, 1, 40), (16, 2, 1, 64)]


def row_cases(shape, dtype, rng):
    """Rows of each kind a row max can meet, by name: random; masked with
    NEG_MASK as causal_scores masks shape[-2] queries against shape[-1]
    keys; holding +-inf; holding NaN; and holding zeros of both signs
    among negative entries."""
    x = rng.normal(0.0, 5.0, size=shape)
    t, tq = shape[-1], shape[-2]
    masked = x.copy()
    np.copyto(masked, ad.NEG_MASK,
              where=np.arange(t) > np.arange(t - tq, t)[:, None])
    pick = lambda values, p: np.where(rng.random(shape) < p,
                                      rng.choice(values, size=shape), x)
    zeros = np.where(rng.random(shape) < 0.5,
                     rng.choice([0.0, -0.0], size=shape), -np.abs(x))
    cases = {"random": x, "masked": masked,
             "inf": pick([np.inf, -np.inf], 0.1), "nan": pick([np.nan], 0.05),
             "zeros": zeros}
    return {name: a.astype(dtype) for name, a in cases.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", ROW_SHAPES)
def test_row_max_matches_the_plain_reduction(shape, dtype):
    """row_max gives the bits of np.maximum.reduce, NaNs and signs of zeros
    included, on every kind of row but one: where a row's max is a zero it
    holds with both signs, the two reductions may pick different signs.
    The values still agree there, and the softmax family never sees the
    sign (see the next test)."""
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    for name, x in row_cases(shape, dtype, rng).items():
        got, want = ad.row_max(x), plain_row_max(x)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True), name
        rows, bits = x.reshape(-1, shape[-1]), f"u{x.itemsize}"
        both_zeros = ((rows == 0) & np.signbit(rows)).any(axis=1) \
            & ((rows == 0) & ~np.signbit(rows)).any(axis=1) \
            & (want.reshape(-1) == 0)
        differs = got.reshape(-1).view(bits) != want.reshape(-1).view(bits)
        assert not (differs & ~both_zeros).any(), name
    assert same_bytes(ad.row_max(np.zeros((3, 0), dtype)), np.full((3, 1), -np.inf, dtype))


@BOTH_DTYPES
@pytest.mark.parametrize("shape", ROW_SHAPES)
def test_softmax_family_matches_the_plain_reduction(dtype, shape):
    """softmax, log_softmax and cross_entropy, forward and backward, give the
    bits of references that take the row max with the ndarray method, on
    random, causally masked and signed-zero rows: exp(+0) = exp(-0) = 1, so
    the sign of a zero max reaches no output."""
    rng = np.random.default_rng(shape[-1])
    for name, x in row_cases(shape, dtype, rng).items():
        if name in ("inf", "nan"):
            continue  # rows no softmax in the package is given
        x = Tensor(x)
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        for op, reference in (
                (ad.softmax, softmax_reference),
                (ad.log_softmax, log_softmax_reference),
                (lambda x: ad.cross_entropy(x, targets),
                 lambda x, g: cross_entropy_reference(x, targets, g))):
            out, (gx,), g = forward_and_grads(op, [x], rng)
            want_out, want_gx = reference(x.data, g)
            assert same_bytes(out, want_out) and same_bytes(gx, want_gx), name


@BOTH_DTYPES
def test_base_loss_matches_the_plain_reduction(dtype, monkeypatch):
    """A base forward, its blocks' attention softmaxes included, and the
    next-token cross-entropy give, forward and in every gradient, the bits
    they give with the row max taken by the plain reduction."""
    cfg = ArchConfig(max_seq_len=16)
    state = init_model(cfg, 0, dtype)
    tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(4, 16))

    def loss_and_grads():
        params = list(state.groups["base"].values())
        with Tape() as tape:
            loss, _ = loss_base_ar(state, tokens)
        grads = tape.gradients(loss)
        return [loss.data] + [tape.grad(grads, p) for p in params]

    def counted_row_max(x):
        calls.append(x.shape)
        return plain_row_max(x)

    got, calls = loss_and_grads(), []
    monkeypatch.setattr(ad, "row_max", counted_row_max)
    want = loss_and_grads()
    # every block's attention and the cross-entropy
    assert len(calls) == cfg.n_layers_base + 1
    assert all(same_bytes(a, b) for a, b in zip(got, want))


def test_every_row_max_goes_through_row_max():
    """No module of the package reduces a max over the last axis but
    `autodiff.row_max`: no `np.maximum.reduce` elsewhere, and no `.max`
    or `.amax` call given axis -1, so a new softmax cannot fall back onto
    numpy's slow per-row reduction unnoticed."""
    def is_minus_one(node):
        return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant) and node.operand.value == 1)

    def offending(call):
        f = call.func
        if not isinstance(f, ast.Attribute):
            return False
        if f.attr == "reduce":
            return isinstance(f.value, ast.Attribute) and f.value.attr == "maximum"
        return f.attr in ("max", "amax") and any(
            is_minus_one(a) for a in call.args + [k.value for k in call.keywords
                                                  if k.arg == "axis"])

    found = []
    for path in sorted(pathlib.Path(actlm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and offending(node):
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                found.append((path.name, getattr(scope, "name", None)))
    assert found == [("autodiff.py", "row_max")], found


@BOTH_DTYPES
def test_silu_matches_scalar_formula(dtype):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(0.0, 10.0 ** rng.uniform(-2, 1.5), size=(2, 3, 8)).astype(dtype))
        out, (gx,), g = forward_and_grads(ad.silu, [x], rng)
        assert out.dtype == dtype
        for got, want in zip((out, gx), silu_reference(x.data, g)):
            assert_same_bits(got, want)


def _primitive_inputs(dtype):
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype))

    return {"x": t(2, 3, 4), "y": t(2, 3, 4), "w": t(4, 5), "gain": t(4),
            "table": t(9, 4), "ids": rng.integers(0, 9, size=(2, 3)),
            "targets": rng.integers(0, 4, size=(2, 3))}


# One call of every primitive on the inputs above.
EVERY_PRIMITIVE = {
    "add": lambda i: ad.add(i["x"], i["y"]),
    "sub": lambda i: ad.sub(i["x"], i["y"]),
    "mul": lambda i: ad.mul(i["x"], i["y"]),
    "matmul": lambda i: ad.matmul(i["x"], i["w"]),
    "embedding": lambda i: ad.embedding(i["table"], i["ids"]),
    "concat_last": lambda i: ad.concat_last(i["x"], i["y"]),
    "softmax": lambda i: ad.softmax(i["x"]),
    "log_softmax": lambda i: ad.log_softmax(i["x"]),
    "silu": lambda i: ad.silu(i["x"]),
    "rms_norm": lambda i: ad.rms_norm(i["x"], i["gain"]),
    "causal_attention_scores": lambda i: ad.causal_attention_scores(i["x"], i["y"]),
    "cross_entropy": lambda i: ad.cross_entropy(i["x"], i["targets"]),
    "log": lambda i: ad.log(ad.exp(i["x"])),
    "exp": lambda i: ad.exp(i["x"]),
    "sum_": lambda i: ad.sum_(i["x"], axis=1),
    "mean_": lambda i: ad.mean_(i["x"]),
    "reshape": lambda i: ad.reshape(i["x"], (6, 4)),
    "swapaxes": lambda i: ad.swapaxes(i["x"], 0, 2),
    "slice_time": lambda i: ad.slice_time(i["x"], 1, 3),
}


def test_every_primitive_is_covered():
    emitting = {name for name, fn in vars(ad).items()
                if inspect.isfunction(fn) and "_emit" in fn.__code__.co_names}
    assert emitting == set(EVERY_PRIMITIVE)


@BOTH_DTYPES
@pytest.mark.parametrize("name", sorted(EVERY_PRIMITIVE))
def test_untaped_primitive_keeps_no_closure(name, dtype):
    """Outside a tape and under `untaped()` an op gives the same bits as on a
    tape but holds no backward closure, so nothing keeps its inputs or
    intermediates alive."""
    op, inputs = EVERY_PRIMITIVE[name], _primitive_inputs(dtype)
    with Tape() as tape:
        taped = op(inputs)
    assert tape.nodes[-1] is taped and taped._backward is not None
    free = op(inputs)
    with Tape() as tape:
        with ad.untaped():
            inner = op(inputs)
    assert tape.nodes == []
    for out in (free, inner):
        assert out._backward is None
        assert_same_bits(out.data, taped.data)


def test_untaped_base_forward_frees_its_intermediates():
    """tracemalloc peak of a B=64 x T=64 base forward without a tape stays
    within the live set of one block: the scores are scaled, masked and
    softmaxed in place in one array the size of the attention scores (two
    are allowed), and the residual, norm, q, k, v and the MLP's
    intermediates fit in four B x T x d_ff activations. On a tape every
    block's graph stays alive, well past that bound."""
    cfg = ArchConfig()
    base = init_model(cfg, 0).groups["base"]
    b = t = 64
    tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(b, t))
    itemsize = base["tok_emb"].data.itemsize
    scores = b * cfg.n_heads * t * t * itemsize
    bound = 2 * scores + 4 * b * t * cfg.intermediate_dim * itemsize

    def peak(record):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base_mem = tracemalloc.get_traced_memory()[0]
        with Tape() if record else contextlib.nullcontext():
            base_forward(base, cfg, tokens)
        grown = tracemalloc.get_traced_memory()[1] - base_mem
        if not tracing:
            tracemalloc.stop()
        return grown

    assert peak(record=False) < bound < peak(record=True)


def test_tensor_holds_float_arrays_and_refuses_other_dtypes():
    """A float32 or float64 ndarray is stored as is, and a numpy scalar as a
    0-d array of its own dtype; anything else raises TypeError naming its
    dtype or type, so that nothing is cast silently."""
    for dtype in (np.float32, np.float64):
        a = np.ones(3, dtype)
        assert Tensor(a).data is a
        s = Tensor(dtype(2.0)).data
        assert type(s) is np.ndarray and s.shape == () and s.dtype == dtype
    for other, name in ((np.ones(3, np.int64), "int64"), (np.ones(3, ">f4"), ">f4"),
                        (np.ones(3, np.float16), "float16"), (np.int64(2), "int64"),
                        ([1.0, 2.0], "list"), (2.0, "float")):
        with pytest.raises(TypeError, match=name):
            Tensor(other)


def test_embedding_gradients_accumulate_repeated_ids():
    table = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    ids = np.array([1, 1, 2])
    with Tape() as tape:
        out = ad.embedding(table, ids)
        loss = ad.sum_(out)
        grads = tape.gradients(loss)
    g = tape.grad(grads, table)
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[2] = 1.0
    np.testing.assert_allclose(g, expected)


def test_embedding_rejects_out_of_range():
    table = Tensor(np.zeros((4, 3), np.float32))
    with pytest.raises(ValueError):
        ad.embedding(table, np.array([4]))


def test_cross_entropy_matches_manual_log_softmax():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(2, 5)))
    targets = np.array([1, 4])
    ce = ad.cross_entropy(logits, targets)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    manual = -(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))
    np.testing.assert_allclose(
        ce.data, manual[np.arange(2), targets], rtol=1e-12)


def test_cross_entropy_gradients():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(2, 3, 5)))
    targets = rng.integers(0, 5, size=(2, 3))
    assert finite_diff_check(
        lambda: ad.mean_(ad.cross_entropy(logits, targets)), [logits]) <= 1


def test_slice_time_backward_scatters():
    x = Tensor(np.arange(12, dtype=np.float64).reshape(1, 4, 3))
    with Tape() as tape:
        loss = ad.sum_(ad.slice_time(x, 1, 3))
        grads = tape.gradients(loss)
    g = tape.grad(grads, x)
    expected = np.zeros((1, 4, 3))
    expected[:, 1:3] = 1.0
    np.testing.assert_allclose(g, expected)


def test_fanout_accumulates():
    x = Tensor(np.array(3.0, np.float32))
    with Tape() as tape:
        y = ad.add(ad.mul(x, x), x)  # x^2 + x
        grads = tape.gradients(y)
    np.testing.assert_allclose(tape.grad(grads, x), 7.0, rtol=1e-6)


def test_stop_grad_blocks_gradient():
    x = Tensor(np.array([1.0, 2.0], np.float32))
    with Tape() as tape:
        loss = ad.sum_(ad.mul(ad.stop_grad(x), x))
        grads = tape.gradients(loss)
    np.testing.assert_allclose(tape.grad(grads, x), x.data, rtol=1e-6)


def test_untaped_ops_stay_off_the_tape():
    """Ops inside `untaped` are not recorded, so their output is a constant
    to the tape: d/dx sum(3x * x) is read as 3x, not 6x."""
    x = Tensor(np.array([1.0, 2.0], np.float32))
    with Tape() as tape:
        with ad.untaped():
            y = ad.mul(x, 3.0)
        loss = ad.sum_(ad.mul(y, x))
        grads = tape.gradients(loss)
    assert len(tape.nodes) == 2
    np.testing.assert_allclose(tape.grad(grads, x), y.data, rtol=1e-6)


def _on_a_thread(target):
    """Run target on a thread of its own and wait for it to end."""
    t = threading.Thread(target=target)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()


def test_tapes_and_untaped_blocks_belong_to_their_thread():
    """A Tape open on one thread records none of a worker thread's ops, a
    worker's own Tape records only the worker's, and an `untaped()` opened
    on a worker leaves the main thread recording."""
    x = Tensor(np.array([1.0, 2.0], np.float32))
    seen, opened, release = {}, threading.Event(), threading.Event()

    def plain_ops():
        seen["recording"] = ad.recording()
        seen["plain"] = ad.mul(x, 2.0)

    def own_tape():
        with Tape() as tape:
            seen["own"] = (tape, ad.mul(x, 4.0))

    def untaped_block():
        with ad.untaped():
            opened.set()
            release.wait(timeout=10)

    with Tape() as tape:
        _on_a_thread(plain_ops)
        _on_a_thread(own_tape)
        worker = threading.Thread(target=untaped_block)
        worker.start()
        try:
            assert opened.wait(timeout=10)
            assert ad.recording()
            y = ad.mul(x, 3.0)
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert ad.recording()
        loss = ad.sum_(y)
        grads = tape.gradients(loss)
    assert seen["recording"] is False and seen["plain"]._backward is None
    worker_tape, z = seen["own"]
    assert worker_tape.nodes == [z] and z._backward is not None
    assert tape.nodes == [y, loss]
    np.testing.assert_array_equal(tape.grad(grads, x), [3.0, 3.0])
    assert not ad.recording()


def test_stop_grad_capture_replays_recorded_values():
    """A replay hands back the recorded values, and each block puts the
    src stop_grad back, even when the build inside it raises."""
    plain = ad.stop_grad
    x = Tensor(np.array([1.0, 2.0], np.float32))
    cap = StopGradCapture()
    with cap.recording():
        frozen = ad.stop_grad(x)
    assert ad.stop_grad is plain
    x.data = x.data + 100.0
    with cap.replaying():
        replayed = ad.stop_grad(x)
    np.testing.assert_array_equal(replayed.data, frozen.data)
    for block in (cap.recording, cap.replaying):
        with pytest.raises(FloatingPointError), block():
            raise FloatingPointError("a build that fails")
        assert ad.stop_grad is plain


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(logits):
    out = ad.softmax(Tensor(np.array(logits, np.float32)))
    assert abs(out.data.sum() - 1.0) < 1e-6
    assert (out.data > 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_matmul_forward_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 4))
    out = ad.matmul(Tensor(a.astype(np.float32)), Tensor(b.astype(np.float32)))
    ref = (a @ b).astype(out.data.dtype)
    err = np.abs(out.data.astype(np.float64) - ref)
    assert (err <= matmul_error_bound(a, b, out.data.dtype)).all()


def test_finite_diff_report_rejects_nonscalar():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        finite_diff_report(lambda: ad.mul(x, 1.0), [x])


def test_finite_diff_report_rejects_params_of_two_dtypes():
    """u is the unit roundoff of the params' one dtype, so params of two
    dtypes have none and are refused."""
    x, y = Tensor(np.ones(3)), Tensor(np.ones(3, np.float32))
    with pytest.raises(ValueError, match="one dtype"):
        finite_diff_report(lambda: ad.sum_(ad.mul(x, y)), [x, y])
