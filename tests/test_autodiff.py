"""Unit tests for the reverse-mode engine: per-primitive gradient checks
against central finite differences and structural tape behavior."""

import contextlib
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actlm import autodiff as ad
from actlm.autodiff import (StopGradCapture, Tape, Tensor, finite_diff_check,
                            set_precision)
from actlm.config import ArchConfig
from actlm.model import base_forward, init_model
from conftest import matmul_error_bound


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
    "scale": lambda rng, x, y: ad.scale(x, 1.7),
    "softmax": lambda rng, x, y: ad.softmax(x),
    "log_softmax": lambda rng, x, y: ad.log_softmax(x),
    "silu": lambda rng, x, y: ad.silu(x),
    "exp": lambda rng, x, y: ad.exp(x),
    "sum_all": lambda rng, x, y: ad.sum_(x),
    "sum_axis": lambda rng, x, y: ad.sum_(x, axis=1),
    "mean_all": lambda rng, x, y: ad.mean_(x),
    "mean_axis": lambda rng, x, y: ad.mean_(x, axis=0),
    "reshape": lambda rng, x, y: ad.reshape(x, (x.data.size,)),
    "swapaxes": lambda rng, x, y: ad.swapaxes(x, 0, 1),
    "concat_last": lambda rng, x, y: ad.concat_last(x, y),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_matches_finite_differences(name, verify_mode):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rand(rng, 2, 3)
    y = rand(rng, 2, 3)
    op = PRIMITIVE_CASES[name]
    w_rng = np.random.default_rng(5)

    def build():
        return probe(np.random.default_rng(5), op(np.random.default_rng(9), x, y))

    assert finite_diff_check(build, [x, y]) < 1e-6


def test_matmul_gradients(verify_mode):
    rng = np.random.default_rng(0)
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)
    assert finite_diff_check(
        lambda: probe(np.random.default_rng(1), ad.matmul(a, b)), [a, b]) < 1e-6


def test_batched_matmul_gradients(verify_mode):
    rng = np.random.default_rng(0)
    a, b = rand(rng, 2, 3, 4), rand(rng, 4, 2)
    assert finite_diff_check(
        lambda: probe(np.random.default_rng(1), ad.matmul(a, b)), [a, b]) < 1e-6


def test_log_gradients(verify_mode):
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(0.5, 2.0, size=(2, 3)))
    assert finite_diff_check(
        lambda: probe(np.random.default_rng(1), ad.log(x)), [x]) < 1e-6


def test_rms_norm_gradients(verify_mode):
    rng = np.random.default_rng(0)
    x, gain = rand(rng, 2, 3, 4), rand(rng, 4)
    assert finite_diff_check(
        lambda: probe(np.random.default_rng(1), ad.rms_norm(x, gain)),
        [x, gain]) < 1e-6


def test_causal_attention_scores_gradients(verify_mode):
    rng = np.random.default_rng(0)
    q, k = rand(rng, 1, 3, 4), rand(rng, 1, 3, 4)

    def build():
        s = ad.causal_attention_scores(q, k)
        # probe only the unmasked triangle; the mask is a constant
        w = np.tril(np.random.default_rng(1).normal(size=(3, 3)))
        return ad.sum_(ad.mul(s, Tensor(w[None])))

    assert finite_diff_check(build, [q, k]) < 1e-6


def test_causal_attention_scores_query_offset(verify_mode):
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


def forward_and_grads(op, inputs, rng):
    """op's output and the gradients of sum(g * output) for a random g."""
    with Tape() as tape:
        out = op(*inputs)
    g = rng.normal(size=out.shape).astype(out.data.dtype)
    grads = tape.gradients(out, seed=g)
    return out.data, [tape.grad(grads, t) for t in inputs], g


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("mode", ["train", "verify"])
@pytest.mark.parametrize("shape", [(1, 1, 32), (2, 5, 32), (3, 7, 8), (4, 9)])
def test_rms_norm_matches_mean_formula(mode, shape):
    ad.set_precision(mode)
    dtype = ad.active_dtype()
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=shape))
        gain = Tensor(rng.normal(size=shape[-1:]))
        out, (gx, gg), g = forward_and_grads(ad.rms_norm, [x, gain], rng)
        ref, ref_gx, ref_gg = rms_norm_reference(x.data, gain.data, g)
        assert out.dtype == dtype
        for got, want in ((out, ref), (gx, ref_gx), (gg, ref_gg)):
            assert_same_bits(got, want)


@pytest.mark.parametrize("mode", ["train", "verify"])
@pytest.mark.parametrize("tq", [1, 2, 5, 6])  # Tq == 1, 1 < Tq < Tk, Tq == Tk
def test_causal_attention_scores_match_triu_mask(mode, tq):
    ad.set_precision(mode)
    for seed in range(25):
        rng = np.random.default_rng(seed)
        q = Tensor(rng.normal(size=(2, 3, tq, 4)))
        k = Tensor(rng.normal(size=(2, 3, 6, 4)))
        out, (gq, gk), g = forward_and_grads(ad.causal_attention_scores,
                                             [q, k], rng)
        for got, want in zip((out, gq, gk), scores_reference(q.data, k.data, g)):
            assert_same_bits(got, want)


@pytest.mark.parametrize("mode", ["train", "verify"])
def test_softmax_matches_method_reductions(mode):
    ad.set_precision(mode)
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(0.0, 5.0, size=(2, 3, 1 + seed % 9)))
        out, (gx,), g = forward_and_grads(ad.softmax, [x], rng)
        for got, want in zip((out, gx), softmax_reference(x.data, g)):
            assert_same_bits(got, want)


@pytest.mark.parametrize("mode", ["train", "verify"])
def test_silu_matches_scalar_formula(mode):
    ad.set_precision(mode)
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(0.0, 10.0 ** rng.uniform(-2, 1.5), size=(2, 3, 8)))
        out, (gx,), g = forward_and_grads(ad.silu, [x], rng)
        assert out.dtype == ad.active_dtype()
        for got, want in zip((out, gx), silu_reference(x.data, g)):
            assert_same_bits(got, want)


def _primitive_inputs():
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.normal(size=shape))

    return {"x": t(2, 3, 4), "y": t(2, 3, 4), "w": t(4, 5), "gain": t(4),
            "table": t(9, 4), "ids": rng.integers(0, 9, size=(2, 3)),
            "targets": rng.integers(0, 4, size=(2, 3))}


# One call of every primitive on the inputs above.
EVERY_PRIMITIVE = {
    "add": lambda i: ad.add(i["x"], i["y"]),
    "sub": lambda i: ad.sub(i["x"], i["y"]),
    "mul": lambda i: ad.mul(i["x"], i["y"]),
    "scale": lambda i: ad.scale(i["x"], 1.7),
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


@pytest.mark.parametrize("mode", ["train", "verify"])
@pytest.mark.parametrize("name", sorted(EVERY_PRIMITIVE))
def test_untaped_primitive_keeps_no_closure(name, mode):
    """Outside a tape and under `untaped()` an op gives the same bits as on a
    tape but holds no backward closure, so nothing keeps its inputs or
    intermediates alive."""
    ad.set_precision(mode)
    op, inputs = EVERY_PRIMITIVE[name], _primitive_inputs()
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
    within the live set of one block: softmax holds four arrays the size of
    the attention scores (input, shifted, exp, output), and the residual,
    norm, q, k and v fit in four B x T x d_ff activations. On a tape every
    block's graph stays alive, well past that bound."""
    cfg = ArchConfig()
    base = init_model(cfg, 0).groups["base"]
    b = t = 64
    tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(b, t))
    itemsize = ad.active_dtype().itemsize
    scores = b * cfg.n_heads * t * t * itemsize
    bound = 4 * scores + 4 * b * t * cfg.intermediate_dim * itemsize

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


def test_tensor_keeps_arrays_of_the_active_dtype():
    """An ndarray of the active dtype is stored as is (np.asarray aliases it
    too); anything else is converted to that dtype."""
    a = np.ones(3, dtype=ad.active_dtype())
    assert Tensor(a).data is a
    for other in (np.ones(3), np.ones(3, dtype=int), [1.0, 2.0], 2.0,
                  np.float32(2.0), np.ones(3, dtype=">f4")):
        t = Tensor(other)
        assert type(t.data) is np.ndarray and t.data.dtype == ad.active_dtype()
        np.testing.assert_array_equal(t.data, np.asarray(other, dtype=np.float64))


def test_embedding_gradients_accumulate_repeated_ids(verify_mode):
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
    table = Tensor(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        ad.embedding(table, np.array([4]))


def test_cross_entropy_matches_manual_log_softmax(verify_mode):
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(2, 5)))
    targets = np.array([1, 4])
    ce = ad.cross_entropy(logits, targets)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    manual = -(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))
    np.testing.assert_allclose(
        ce.data, manual[np.arange(2), targets], rtol=1e-12)


def test_cross_entropy_gradients(verify_mode):
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(2, 3, 5)))
    targets = rng.integers(0, 5, size=(2, 3))
    assert finite_diff_check(
        lambda: ad.mean_(ad.cross_entropy(logits, targets)), [logits]) < 1e-6


def test_slice_time_backward_scatters(verify_mode):
    x = Tensor(np.arange(12, dtype=np.float64).reshape(1, 4, 3))
    with Tape() as tape:
        loss = ad.sum_(ad.slice_time(x, 1, 3))
        grads = tape.gradients(loss)
    g = tape.grad(grads, x)
    expected = np.zeros((1, 4, 3))
    expected[:, 1:3] = 1.0
    np.testing.assert_allclose(g, expected)


def test_fanout_accumulates():
    x = Tensor(np.array(3.0))
    with Tape() as tape:
        y = ad.add(ad.mul(x, x), x)  # x^2 + x
        grads = tape.gradients(y)
    np.testing.assert_allclose(tape.grad(grads, x), 7.0, rtol=1e-6)


def test_stop_grad_blocks_gradient():
    x = Tensor(np.array([1.0, 2.0]))
    with Tape() as tape:
        loss = ad.sum_(ad.mul(ad.stop_grad(x), x))
        grads = tape.gradients(loss)
    np.testing.assert_allclose(tape.grad(grads, x), x.data, rtol=1e-6)


def test_untaped_ops_stay_off_the_tape():
    """Ops inside `untaped` are not recorded, so their output is a constant
    to the tape: d/dx sum(3x * x) is read as 3x, not 6x."""
    x = Tensor(np.array([1.0, 2.0]))
    with Tape() as tape:
        with ad.untaped():
            y = ad.scale(x, 3.0)
        loss = ad.sum_(ad.mul(y, x))
        grads = tape.gradients(loss)
    assert len(tape.nodes) == 2
    np.testing.assert_allclose(tape.grad(grads, x), y.data, rtol=1e-6)


def test_stop_grad_capture_replays_recorded_values():
    x = Tensor(np.array([1.0, 2.0]))
    cap = StopGradCapture("record")
    with cap:
        frozen = ad.stop_grad(x)
    x.data = x.data + 100.0
    with cap.replaying():
        replayed = ad.stop_grad(x)
    np.testing.assert_array_equal(replayed.data, frozen.data)


def test_precision_switch_guarded_inside_tape():
    with Tape():
        with pytest.raises(RuntimeError):
            set_precision("verify")


def test_unknown_precision_mode_rejected():
    with pytest.raises(ValueError):
        set_precision("half")


def test_gradients_seed_shape_checked():
    x = Tensor(np.zeros((2, 2)))
    with Tape() as tape:
        y = ad.scale(x, 2.0)
    with pytest.raises(ValueError):
        tape.gradients(y, seed=np.ones(3))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(logits):
    out = ad.softmax(Tensor(np.array(logits)))
    assert abs(out.data.sum() - 1.0) < 1e-6
    assert (out.data > 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_matmul_forward_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 4))
    out = ad.matmul(Tensor(a), Tensor(b))
    ref = (a @ b).astype(out.data.dtype)
    err = np.abs(out.data.astype(np.float64) - ref)
    assert (err <= matmul_error_bound(a, b, out.data.dtype)).all()


def test_finite_diff_report_rejects_nonscalar(verify_mode):
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        ad.finite_diff_report(lambda: ad.scale(x, 1.0), [x])
