"""Dense-array reverse-mode autodiff on numpy storage.

A Tensor wraps a float ndarray. Ops compute forward with numpy and, when a
Tape is active, record the output so the tape can later be replayed in
reverse to accumulate gradients. Two numeric modes exist: float32 for
training and float64 for verification; the mode is global and must not be
switched while a tape is open.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_DTYPE = np.dtype(np.float32)
_TAPE_STACK: list["Tape | None"] = []
_SG_CAPTURE: list["StopGradCapture"] = []

# Large negative additive mask; -inf would poison backward passes with NaN.
NEG_MASK = -1e9


def set_precision(mode: str) -> None:
    """Select the global numeric mode: 'train' (f32) or 'verify' (f64)."""
    global _DTYPE
    if _TAPE_STACK:
        raise RuntimeError("cannot switch precision while a tape is active")
    if mode == "train":
        _DTYPE = np.dtype(np.float32)
    elif mode == "verify":
        _DTYPE = np.dtype(np.float64)
    else:
        raise ValueError(f"unknown precision mode: {mode!r}")


def active_dtype():
    return _DTYPE


class Tensor:
    """A dense float array plus the bookkeeping needed for backward."""

    __slots__ = ("data", "parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        # an ndarray of the active dtype is stored as is, as np.asarray would
        if type(data) is not np.ndarray or data.dtype is not _DTYPE:
            data = np.asarray(data, dtype=_DTYPE)
        self.data = data
        self.parents = parents
        self._backward = backward

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
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def gradients(self, output: Tensor, seed=None) -> dict[int, np.ndarray]:
        """Backward pass from `output`; returns grads keyed by id(tensor).

        Gradients accumulate additively across fan-out. Tensors not on any
        path to `output` simply have no entry.
        """
        if seed is None:
            seed = np.ones_like(output.data)
        else:
            seed = np.asarray(seed, dtype=_DTYPE)
            if seed.shape != output.data.shape:
                raise ValueError(
                    f"seed shape {seed.shape} != output shape {output.data.shape}"
                )
        grads: dict[int, np.ndarray] = {id(output): seed}
        for node in reversed(self.nodes):
            g = grads.get(id(node))
            if g is None or node._backward is None:
                continue
            for parent, pg in node._backward(g):
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        return grads

    def grad(self, grads: dict[int, np.ndarray], t: Tensor) -> np.ndarray:
        """Gradient of a leaf from a `gradients()` result; zeros if unused."""
        return grads.get(id(t), np.zeros_like(t.data))


@contextlib.contextmanager
def untaped():
    """Ops inside the block are not recorded on the active tape, so no
    gradient flows through them. For frozen work: its graph is freed as soon
    as its output is, instead of living until the tape is."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def _emit(out: Tensor) -> Tensor:
    if _TAPE_STACK and _TAPE_STACK[-1] is not None:
        _TAPE_STACK[-1].nodes.append(out)
    return out


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


def _as_array(x):
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=_DTYPE)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    bd = _as_array(b)
    out = Tensor(a.data + bd, (a, b))

    def backward(g):
        pairs = [(a, _unbroadcast(g, a.data.shape))]
        if isinstance(b, Tensor):
            pairs.append((b, _unbroadcast(g, b.data.shape)))
        return pairs

    out._backward = backward
    return _emit(out)


def sub(a: Tensor, b) -> Tensor:
    bd = _as_array(b)
    out = Tensor(a.data - bd, (a, b))

    def backward(g):
        pairs = [(a, _unbroadcast(g, a.data.shape))]
        if isinstance(b, Tensor):
            pairs.append((b, _unbroadcast(-g, b.data.shape)))
        return pairs

    out._backward = backward
    return _emit(out)


def mul(a: Tensor, b) -> Tensor:
    bd = _as_array(b)
    out = Tensor(a.data * bd, (a, b))

    def backward(g):
        pairs = [(a, _unbroadcast(g * bd, a.data.shape))]
        if isinstance(b, Tensor):
            pairs.append((b, _unbroadcast(g * a.data, b.data.shape)))
        return pairs

    out._backward = backward
    return _emit(out)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s, (a,))
    out._backward = lambda g: [(a, g * s)]
    return _emit(out)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batching semantics on leading dims; numpy
    raises ValueError on mismatched inner dimensions."""
    out = Tensor(np.matmul(a.data, b.data), (a, b))

    def backward(g):
        ga = np.matmul(g, b.data.swapaxes(-1, -2))
        gb = np.matmul(a.data.swapaxes(-1, -2), g)
        return [
            (a, _unbroadcast(ga, a.data.shape)),
            (b, _unbroadcast(gb, b.data.shape)),
        ]

    out._backward = backward
    return _emit(out)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: table (V, d), integer ids of any shape -> (*ids, d)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("embedding id out of range")
    out = Tensor(table.data[ids], (table,))

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return [(table, gt)]

    out._backward = backward
    return _emit(out)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(np.concatenate([a.data, b.data], axis=-1), (a, b))
    na = a.data.shape[-1]

    def backward(g):
        return [(a, g[..., :na]), (b, g[..., na:])]

    out._backward = backward
    return _emit(out)


def softmax(x: Tensor) -> Tensor:
    """Row softmax over the last axis."""
    # the reductions ndarray.max and .sum do, without their Python wrappers
    z = x.data - np.maximum.reduce(x.data, axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / np.add.reduce(e, axis=-1, keepdims=True)
    out = Tensor(y, (x,))

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return [(x, (g - dot) * y)]

    out._backward = backward
    return _emit(out)


def log_softmax(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = Tensor(z - lse, (x,))
    sm = np.exp(out.data)

    def backward(g):
        return [(x, g - sm * g.sum(axis=-1, keepdims=True))]

    out._backward = backward
    return _emit(out)


def silu(x: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(x.data * sig, (x,))

    def backward(g):
        return [(x, g * sig * (1.0 + x.data * (1.0 - sig)))]

    out._backward = backward
    return _emit(out)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """RMS normalization over the last axis with a learned gain (no mean
    subtraction)."""
    d = x.data.shape[-1]
    # the sum and division ndarray.mean does, without its Python wrapper
    ms = np.add.reduce(x.data * x.data, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(ms + eps)
    xn = x.data * inv
    out = Tensor(xn * gain.data, (x, gain))

    def backward(g):
        gg = _unbroadcast(g * xn, gain.data.shape)
        gx_n = g * gain.data
        # d(xn)/dx: inv * (I - x x^T * inv^2 / d)
        gx = inv * (gx_n - x.data * (inv * inv / d) * (gx_n * x.data).sum(axis=-1, keepdims=True))
        return [(x, gx), (gain, gg)]

    out._backward = backward
    return _emit(out)


def causal_attention_scores(q: Tensor, k: Tensor) -> Tensor:
    """Scaled dot-product scores (..., Tq, Tk) of the last Tq positions
    against all Tk keys: query i sits at position Tk - Tq + i, and keys after
    it are masked to a large negative constant. Tq == Tk is the full causal
    mask."""
    dh = q.data.shape[-1]
    s = np.matmul(q.data, k.data.swapaxes(-1, -2)) / math.sqrt(dh)
    tq, tk = s.shape[-2:]
    # a single query is the last position and sees every key
    mask = None if tq == 1 else np.arange(tk) > np.arange(tk - tq, tk)[:, None]
    if mask is not None:
        s = np.where(mask, np.asarray(NEG_MASK, dtype=_DTYPE), s)
    out = Tensor(s, (q, k))

    def backward(g):
        if mask is not None:
            g = np.where(mask, 0.0, g)
        g = g / math.sqrt(dh)
        gq = np.matmul(g, k.data)
        gk = np.matmul(g.swapaxes(-1, -2), q.data)
        return [(q, gq), (k, gk)]

    out._backward = backward
    return _emit(out)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-position negative log-likelihood: logits (..., V), int targets
    (...,) -> losses (...,)."""
    targets = np.asarray(targets)
    lsm = logits.data - logits.data.max(axis=-1, keepdims=True)
    lsm = lsm - np.log(np.exp(lsm).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(lsm, targets[..., None], axis=-1)[..., 0]
    out = Tensor(-picked, (logits,))
    sm = np.exp(lsm)

    def backward(g):
        gl = sm * g[..., None]
        np.subtract.at(gl.reshape(-1, gl.shape[-1]),
                       (np.arange(targets.size), targets.reshape(-1)),
                       g.reshape(-1))
        return [(logits, gl)]

    out._backward = backward
    return _emit(out)


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data), (x,))
    out._backward = lambda g: [(x, g / x.data)]
    return _emit(out)


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    out = Tensor(y, (x,))
    # capture the array, not `out`: a closure over its own Tensor is a cycle
    out._backward = lambda g: [(x, g * y)]
    return _emit(out)


def sum_(x: Tensor, axis=None) -> Tensor:
    out = Tensor(x.data.sum(axis=axis), (x,))

    def backward(g):
        if axis is None:
            return [(x, np.broadcast_to(g, x.data.shape).copy())]
        return [(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())]

    out._backward = backward
    return _emit(out)


def mean_(x: Tensor, axis=None) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    out = Tensor(x.data.mean(axis=axis), (x,))

    def backward(g):
        if axis is None:
            return [(x, np.broadcast_to(g / n, x.data.shape).copy())]
        return [(x, np.broadcast_to(np.expand_dims(g, axis) / n, x.data.shape).copy())]

    out._backward = backward
    return _emit(out)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape), (x,))
    out._backward = lambda g: [(x, g.reshape(x.data.shape))]
    return _emit(out)


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    out = Tensor(x.data.swapaxes(a, b), (x,))
    out._backward = lambda g: [(x, g.swapaxes(a, b))]
    return _emit(out)


def slice_time(x: Tensor, start, stop) -> Tensor:
    """Slice along axis 1 (the time axis of a (B, T, ...) tensor)."""
    idx = (slice(None), slice(start, stop))
    out = Tensor(x.data[idx], (x,))

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return [(x, gx)]

    out._backward = backward
    return _emit(out)


class StopGradCapture:
    """Freeze stop_grad outputs across re-evaluations of a graph.

    Finite-difference checks of graphs containing stop_grad must hold the
    stopped values fixed at their base-point forward values; otherwise the
    numeric derivative measures the (zero or discontinuous) true derivative
    instead of the estimator the tape implements. Run the reference forward
    under mode='record', perturbed forwards under mode='replay'.
    """

    def __init__(self, mode: str):
        if mode not in ("record", "replay"):
            raise ValueError(mode)
        self.mode = mode
        self.values: list[np.ndarray] = []
        self._cursor = 0

    def replaying(self) -> "StopGradCapture":
        replay = StopGradCapture("replay")
        replay.values = self.values
        return replay

    def __enter__(self):
        self._cursor = 0
        _SG_CAPTURE.append(self)
        return self

    def __exit__(self, *exc):
        _SG_CAPTURE.pop()
        return False


def stop_grad(x: Tensor) -> Tensor:
    """Identity forward, zero backward. Honors an active StopGradCapture."""
    data = x.data
    if _SG_CAPTURE:
        cap = _SG_CAPTURE[-1]
        if cap.mode == "record":
            cap.values.append(data.copy())
        else:
            data = cap.values[cap._cursor]
            cap._cursor += 1
    return Tensor(data.copy())


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def finite_diff_report(build_loss, params: list[Tensor], eps: float = 1e-5):
    """Analytic vs central-difference gradients of a scalar loss.

    `build_loss()` must construct the loss from the current contents of
    `params` (mutated in place between evaluations). Returns
    (max_relative_error, analytic_grads, numeric_grads). Requires the
    'verify' (float64) precision mode for meaningful tolerances.
    """
    capture = StopGradCapture("record")
    with capture:
        with Tape() as tape:
            loss = build_loss()
        if loss.data.shape != ():
            raise ValueError("finite_diff_report needs a scalar loss")
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite loss at base point")
        grads = tape.gradients(loss)
        analytic = [tape.grad(grads, p).copy() for p in params]

    def eval_loss():
        with capture.replaying():
            value = build_loss().data
        if not np.isfinite(value):
            raise FloatingPointError("non-finite loss at perturbed point")
        return float(value)

    numeric = []
    for p in params:
        gn = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = gn.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = eval_loss()
            flat[i] = orig - eps
            down = eval_loss()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        numeric.append(gn)

    max_err = 0.0
    for ga, gn in zip(analytic, numeric):
        err = np.abs(ga - gn) / (np.abs(ga) + 1e-12)
        if err.size:
            max_err = max(max_err, float(err.max()))
    return max_err, analytic, numeric


def finite_diff_check(build_loss, params: list[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    return finite_diff_report(build_loss, params, eps)[0]
