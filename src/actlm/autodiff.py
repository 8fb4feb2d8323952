"""Dense-array reverse-mode autodiff on numpy storage.

A Tensor wraps a float ndarray. Ops compute forward with numpy. Only while a
Tape records does an op keep a backward closure over its inputs and append
its output to the tape, which `Tape.gradients` replays in reverse for the
gradients of the leaves it is asked for; outside a tape (or under
`untaped()`) the closure is dropped at once, so forward-only work frees
each intermediate as soon as nothing reads it.

Tapes are per thread: each thread has its own stack of open tapes and
`untaped()` blocks, so an op records only on a tape its own thread opened,
and a worker thread's ops, which start with an empty stack, record nowhere.

Tensors hold float32 (training) or float64 (verification) arrays, and
every op computes in the dtype of the arrays it is given: a constant
operand is cast to its Tensor operand's dtype. No module state selects a
precision: a model's is the dtype of its parameter buffers
(`model.ModelState.dtype`).

The tests' finite-difference oracle holds `stop_grad`'s outputs fixed by
swapping this module's `stop_grad` attribute, so src calls it only as
`ad.stop_grad`, never by a name imported from here.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

# The dtypes a Tensor holds: float32 trains, float64 verifies.
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _TapeStack(threading.local):
    """This thread's open tapes, innermost last; None marks an `untaped()`
    block."""

    def __init__(self):
        self.open: list[Tape | None] = []


_TAPES = _TapeStack()
_SCALARS: dict[tuple, np.ndarray] = {}

# Large negative additive mask; -inf would poison backward passes with NaN.
NEG_MASK = -1e9
# Added to the mean square under rms_norm's square root.
RMS_EPS = 1e-5


class Tensor:
    """A dense float array plus, for an op output a tape recorded, the
    closure that maps its gradient to its inputs' gradients."""

    __slots__ = ("data", "_backward")

    def __init__(self, data):
        # a float32 or float64 ndarray is kept as it is, and a numpy scalar
        # of those (a full reduction's) made 0-d; all else raises, uncast
        if type(data) is not np.ndarray or data.dtype not in FLOAT_DTYPES:
            if not isinstance(data, np.generic) or data.dtype not in FLOAT_DTYPES:
                raise TypeError("a Tensor holds a float32 or float64 ndarray, not "
                                f"{getattr(data, 'dtype', type(data).__name__)}")
            data = np.asarray(data)
        self.data = data
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Tape:
    """Ordered record of op outputs; replayed in reverse for gradients."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self):
        _TAPES.open.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.open.pop()
        return False

    def gradients(self, output: Tensor, leaves) -> list[np.ndarray]:
        """Backward pass from `output`, seeded with ones; returns the
        gradients of `leaves` (tensors no op on this tape produced) in
        order, zeros of a leaf's shape and dtype if no path leads from it
        to `output`. Raises ValueError if an op output is asked for.

        Gradients accumulate additively across fan-out. A node's gradient
        is dropped once its backward has consumed it, a leaf's not asked
        for at once, so neither is held while the pass runs."""
        if any(t._backward is not None for t in leaves):
            raise ValueError("only a leaf's gradient is kept; got an op output")
        # the gradients worth holding: the nodes' (until their backward has
        # run) and the asked-for leaves'
        keep = {id(t) for t in leaves} | {id(node) for node in self.nodes}
        grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        for node in reversed(self.nodes):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            for parent, pg in node._backward(g):
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                elif key in keep:
                    grads[key] = pg
        return [grads[id(t)] if id(t) in grads else np.zeros_like(t.data)
                for t in leaves]


@contextlib.contextmanager
def untaped():
    """Ops inside the block are not recorded on the active tape, so no
    gradient flows through them and, as outside any tape, each op's inputs
    and intermediates are freed as soon as nothing else reads them. For
    frozen and forward-only work inside a training step. Like a tape, the
    block belongs to the thread that opened it."""
    _TAPES.open.append(None)
    try:
        yield
    finally:
        _TAPES.open.pop()


def recording() -> bool:
    """Whether an op run now on this thread would be recorded: the thread
    has a tape open and no `untaped()` block sits inside it."""
    stack = _TAPES.open
    return bool(stack) and stack[-1] is not None


def _emit(data, backward) -> Tensor:
    """The output Tensor of an op; it keeps `backward` (and through it the
    op's inputs) only if the innermost tape records."""
    out = Tensor(data)
    if recording():
        out._backward = backward
        _TAPES.open[-1].nodes.append(out)
    return out


def _scalar(v, dtype) -> np.ndarray:
    """`v` as a 0-d array of `dtype`, the dtype of the array it meets, made
    once per dtype: a ufunc takes it with less overhead than a Python
    scalar, and with the same result."""
    key = (dtype, v)
    s = _SCALARS.get(key)
    if s is None:
        s = _SCALARS[key] = np.asarray(v, dtype=dtype)
    return s


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _as_array(b, a: Tensor) -> np.ndarray:
    # a constant operand takes the dtype of the Tensor operand a
    if isinstance(b, Tensor):
        return b.data
    return np.asarray(b, dtype=a.data.dtype)


# ---------------------------------------------------------------------------
# Array kernels: the numpy work of the primitives below, shared with
# model.block_forward so that a fused block gives the same bits
# ---------------------------------------------------------------------------

def row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, kept as length 1; -inf on an empty row.
    Every softmax-family op in the package takes its row max here.

    Given `initial`, numpy need not seed each row with its first entry,
    and reduces a short last axis 2-3x faster on rows of 16-64 entries
    (about even on rows of 8, never slower on decode rows). A max is exact
    in any order, so the values are those of the plain reduction; the
    bits differ only where a row's max is a zero held with both signs
    (its sign) or a NaN held with both signs (which NaN), and exp(+0) =
    exp(-0) = 1 keeps the zero's sign out of every softmax."""
    return np.maximum.reduce(x, axis=-1, keepdims=True, initial=-np.inf)


def softmax_rows(x: np.ndarray, out=None) -> np.ndarray:
    """Row softmax over the last axis, computed in `out` (a fresh array if
    None; `out=x` overwrites x), stabilised by subtracting `row_max`."""
    # the reduction ndarray.sum does, without its Python wrapper
    y = np.subtract(x, row_max(x), out=out)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    return y


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row log-softmax over the last axis, in a fresh array: x minus its
    `row_max`, minus the log of the sum of exp of that."""
    y = np.subtract(x, row_max(x))
    y -= np.log(np.add.reduce(np.exp(y), axis=-1, keepdims=True))
    return y


def softmax_rows_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of softmax_rows' input from the gradient g of its output y."""
    gy = g * y
    dot = np.add.reduce(gy, axis=-1, keepdims=True)
    np.subtract(g, dot, out=gy)
    gy *= y
    return gy


def silu_arrays(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x * sigmoid(x), sigmoid(x))."""
    one = _scalar(1.0, x.dtype)
    sig = np.negative(x)
    np.exp(sig, out=sig)
    np.add(one, sig, out=sig)
    np.divide(one, sig, out=sig)
    return x * sig, sig


def silu_backward(g: np.ndarray, x: np.ndarray, sig: np.ndarray) -> np.ndarray:
    return g * sig * (1.0 + x * (1.0 - sig))


def rms_norm_arrays(x: np.ndarray, gain: np.ndarray):
    """(x / rms(x) * gain, x / rms(x), 1 / rms(x)) over the last axis."""
    # the sum and division ndarray.mean does, without its Python wrapper
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / _scalar(x.shape[-1], x.dtype)
    inv = _scalar(1.0, x.dtype) / np.sqrt(ms + _scalar(RMS_EPS, x.dtype))
    xn = x * inv
    return xn * gain, xn, inv


def rms_norm_backward(g, x, gain, xn, inv) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of rms_norm_arrays' x and gain from the gradient g of its
    output."""
    d = x.shape[-1]
    gg = _unbroadcast(g * xn, gain.shape)
    gx_n = g * gain
    # d(xn)/dx: inv * (I - x x^T * inv^2 / d)
    gx = inv * (gx_n - x * (inv * inv / d) * (gx_n * x).sum(axis=-1, keepdims=True))
    return gx, gg


def causal_scores(q: np.ndarray, k: np.ndarray):
    """(scores, mask) of causal_attention_scores; mask is None for a single
    query, which is the last position and sees every key."""
    s = np.matmul(q, k.swapaxes(-1, -2))
    s /= math.sqrt(q.shape[-1])
    tq, tk = s.shape[-2:]
    mask = None if tq == 1 else np.arange(tk) > np.arange(tk - tq, tk)[:, None]
    if mask is not None:
        np.copyto(s, _scalar(NEG_MASK, s.dtype), where=mask)
    return s, mask


def causal_scores_backward(g, q, k, mask) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of causal_scores' q and k from the gradient g of the
    scores."""
    if mask is not None:
        g = np.where(mask, 0.0, g)
    g = g / math.sqrt(q.shape[-1])
    return np.matmul(g, k), np.matmul(g.swapaxes(-1, -2), q)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    bd = _as_array(b, a)

    def backward(g):
        pairs = [(a, _unbroadcast(g, a.data.shape))]
        if isinstance(b, Tensor):
            pairs.append((b, _unbroadcast(g, b.data.shape)))
        return pairs

    return _emit(a.data + bd, backward)


def sub(a: Tensor, b) -> Tensor:
    bd = _as_array(b, a)

    def backward(g):
        pairs = [(a, _unbroadcast(g, a.data.shape))]
        if isinstance(b, Tensor):
            pairs.append((b, _unbroadcast(-g, b.data.shape)))
        return pairs

    return _emit(a.data - bd, backward)


def mul(a: Tensor, b) -> Tensor:
    bd = _as_array(b, a)

    def backward(g):
        pairs = [(a, _unbroadcast(g * bd, a.data.shape))]
        if isinstance(b, Tensor):
            pairs.append((b, _unbroadcast(g * a.data, b.data.shape)))
        return pairs

    return _emit(a.data * bd, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batching semantics on leading dims; numpy
    raises ValueError on mismatched inner dimensions."""
    def backward(g):
        ga = np.matmul(g, b.data.swapaxes(-1, -2))
        gb = np.matmul(a.data.swapaxes(-1, -2), g)
        return [
            (a, _unbroadcast(ga, a.data.shape)),
            (b, _unbroadcast(gb, b.data.shape)),
        ]

    return _emit(np.matmul(a.data, b.data), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: table (V, d), integer ids of any shape -> (*ids, d)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("embedding id out of range")

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return [(table, gt)]

    return _emit(table.data[ids], backward)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    na = a.data.shape[-1]

    def backward(g):
        return [(a, g[..., :na]), (b, g[..., na:])]

    return _emit(np.concatenate([a.data, b.data], axis=-1), backward)


def softmax(x: Tensor) -> Tensor:
    """Row softmax over the last axis."""
    y = softmax_rows(x.data)

    def backward(g):
        return [(x, softmax_rows_backward(g, y))]

    return _emit(y, backward)


def log_softmax(x: Tensor) -> Tensor:
    """Row log-softmax over the last axis."""
    y = log_softmax_rows(x.data)

    def backward(g):
        return [(x, g - np.exp(y) * g.sum(axis=-1, keepdims=True))]

    return _emit(y, backward)


def silu(x: Tensor) -> Tensor:
    y, sig = silu_arrays(x.data)
    return _emit(y, lambda g: [(x, silu_backward(g, x.data, sig))])


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """RMS normalization over the last axis with a learned gain (no mean
    subtraction)."""
    y, xn, inv = rms_norm_arrays(x.data, gain.data)

    def backward(g):
        gx, gg = rms_norm_backward(g, x.data, gain.data, xn, inv)
        return [(x, gx), (gain, gg)]

    return _emit(y, backward)


def causal_attention_scores(q: Tensor, k: Tensor) -> Tensor:
    """Scaled dot-product scores (..., Tq, Tk) of the last Tq positions
    against all Tk keys: query i sits at position Tk - Tq + i, and keys after
    it are masked to a large negative constant. Tq == Tk is the full causal
    mask."""
    s, mask = causal_scores(q.data, k.data)

    def backward(g):
        gq, gk = causal_scores_backward(g, q.data, k.data, mask)
        return [(q, gq), (k, gk)]

    return _emit(s, backward)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-position negative log-likelihood: logits (..., V), int targets
    (...,) -> losses (...,)."""
    targets = np.asarray(targets)
    lsm = log_softmax_rows(logits.data)
    picked = np.take_along_axis(lsm, targets[..., None], axis=-1)[..., 0]

    def backward(g):
        gl = np.exp(lsm) * g[..., None]
        np.subtract.at(gl.reshape(-1, gl.shape[-1]),
                       (np.arange(targets.size), targets.reshape(-1)),
                       g.reshape(-1))
        return [(logits, gl)]

    return _emit(-picked, backward)


def log(x: Tensor) -> Tensor:
    return _emit(np.log(x.data), lambda g: [(x, g / x.data)])


def exp(x: Tensor) -> Tensor:
    # the closure holds the output array, not a Tensor: no cycle through it
    y = np.exp(x.data)
    return _emit(y, lambda g: [(x, g * y)])


def sum_(x: Tensor, axis=None) -> Tensor:
    def backward(g):
        if axis is None:
            return [(x, np.broadcast_to(g, x.data.shape).copy())]
        return [(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())]

    return _emit(x.data.sum(axis=axis), backward)


def mean_(x: Tensor) -> Tensor:
    """Mean over all elements."""
    n = x.data.size
    return _emit(x.data.mean(),
                 lambda g: [(x, np.broadcast_to(g / n, x.data.shape).copy())])


def reshape(x: Tensor, shape) -> Tensor:
    return _emit(x.data.reshape(shape), lambda g: [(x, g.reshape(x.data.shape))])


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    return _emit(x.data.swapaxes(a, b), lambda g: [(x, g.swapaxes(a, b))])


def slice_time(x: Tensor, start, stop) -> Tensor:
    """Slice along axis 1 (the time axis of a (B, T, ...) tensor)."""
    idx = (slice(None), slice(start, stop))

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return [(x, gx)]

    return _emit(x.data[idx], backward)


def stop_grad(x: Tensor) -> Tensor:
    """Identity forward, zero backward: the output is a leaf that shares
    x's array, so nothing may write into it."""
    return Tensor(x.data)
