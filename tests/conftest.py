import contextlib
import json
import math
import pathlib
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import settings

from actlm import autodiff as ad
from actlm.checkpoint import MAGIC
from actlm.model import base_forward, base_logits

# Property tests draw the same examples on every run, and no example
# database carries failures from one run into the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_TESTS = pathlib.Path(__file__).parent
# A file, socket or thread pool that is never closed warns when it is
# collected, and a warning or error raised inside a finalizer reaches
# pytest as an unraisable exception; both fail a test here.
_LEAKS_FAIL = [pytest.mark.filterwarnings("error::ResourceWarning"),
               pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")]


def pytest_collection_modifyitems(items):
    """Resource leaks fail every test under tests/. The benchmark's tests
    under bench/ are left out: its calibration pipe still leaks."""
    for item in items:
        if item.path.is_relative_to(_TESTS):
            for mark in _LEAKS_FAIL:
                item.add_marker(mark)


def group_tensors(state, *groups) -> list:
    """The tensors of the named groups, in group order and each group's
    buffer order: the params of an AdamW over those groups."""
    return [t for g in groups for t in state.groups[g].values()]


def assert_one_storage(state) -> None:
    """Every group's tensors are views into its buffer, and flat(g) hands
    out that buffer itself, not a copy."""
    for g, tensors in state.groups.items():
        buf = state.flat(g)
        assert buf is state.flat(g) is state.buffers[g], g
        assert all(t.data.base is buf for t in tensors.values()), g
        assert sum(t.data.size for t in tensors.values()) == buf.size, g


# A test that runs in both precisions takes `dtype` from this: float32, the
# training dtype, as "train", and float64, the verification dtype, as
# "verify".
BOTH_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64],
                                      ids=["train", "verify"])


class StopGradCapture:
    """Holds `ad.stop_grad`'s outputs fixed across re-evaluations of a
    graph.

    A finite-difference check of a graph that contains stop_grad must hold
    the stopped values at their base-point forward values; otherwise the
    numeric derivative measures the true derivative (zero, or a jump where
    an argmax flips) instead of the straight-through estimator the tape
    implements. `recording()` keeps a copy of each stop_grad output of the
    base forward, in call order, and `replaying()` hands them back in the
    same order to each perturbed forward. Both swap the module attribute
    `ad.stop_grad` for the length of the block and restore it however the
    block ends. They see every src call, because each goes through the
    module (test_reachability.py checks this)."""

    def __init__(self):
        self.values: list[np.ndarray] = []

    def recording(self):
        def record(x):
            self.values.append(x.data.copy())
            return ad.Tensor(x.data)
        return _stop_grad_as(record)

    def replaying(self):
        replay = iter(self.values)
        return _stop_grad_as(lambda x: ad.Tensor(next(replay)))


@contextlib.contextmanager
def _stop_grad_as(fn):
    original, ad.stop_grad = ad.stop_grad, fn
    try:
        yield
    finally:
        ad.stop_grad = original


FD_STEP = 1e-5  # the central-difference step h
FD_RTOL = 1e-6  # the bar on a coordinate whose gradient is well above b


def finite_diff_report(build_loss, params):
    """Analytic against central-difference gradients of a scalar loss.

    `build_loss()` builds the loss from the current contents of `params`,
    which are perturbed in place one coordinate at a time, with every
    stop_grad output held at its base-point value (StopGradCapture).
    Returns (worst, analytic, numeric). A coordinate passes when
    |ga - gn| <= FD_RTOL |ga| + b; worst is the largest ratio of the left
    side to the right over every coordinate, so the check passes when
    worst <= 1. Meaningful on float64 params.

    b bounds the error of gn itself, on the rounding model of Nocedal and
    Wright (Numerical Optimization, 2nd ed., section 8.1). By Taylor's
    theorem
        gn = (f(x + h) - f(x - h)) / 2h = f'(x) + h^2 f'''(x) / 6 + O(h^4).
    If each computed f errs by at most u L, with u the unit roundoff of the
    params' dtype (2^-53 in float64) and L the largest |f| at the
    coordinate's probe points, the two values add at most 2 u L / 2h =
    u L / h to gn. The third derivative comes from the same stencil at 2h,
        f(x + 2h) - 2 f(x + h) + 2 f(x - h) - f(x - 2h) = 2 h^3 f''' + O(h^5),
    so the truncation term h^2 |f'''| / 6 is that sum's magnitude over 12h,
    give or take the sum's own rounding, at most 6 u L / 12h = u L / 2h.
    Hence
        b = |f(x + 2h) - 2 f(x + h) + 2 f(x - h) - f(x - 2h)| / 12h
            + 3 u L / 2h.
    At h = 1e-5 with |f| and |f'''| of order one, b is of order 1e-11, so
    every coordinate with |ga| well above 1e-5 meets FD_RTOL's bar alone.
    The model's u L can fall short: a loss whose terms cancel rounds by a
    multiple of it (see test_acceptance.py's gradient-fidelity gates).
    Raises ValueError on params of more than one dtype."""
    dtypes = {p.data.dtype for p in params}
    if len(dtypes) != 1:
        raise ValueError(f"finite_diff_report needs params of one dtype, got {dtypes}")
    capture = StopGradCapture()
    with capture.recording(), ad.Tape() as tape:
        loss = build_loss()
    if loss.data.shape != ():
        raise ValueError("finite_diff_report needs a scalar loss")
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss at base point")
    analytic = [g.copy() for g in tape.gradients(loss, params)]

    def eval_loss():
        with capture.replaying():
            value = build_loss().data
        if not np.isfinite(value):
            raise FloatingPointError("non-finite loss at perturbed point")
        return float(value)

    u, h = np.finfo(dtypes.pop()).eps / 2, FD_STEP
    worst, numeric = 0.0, []
    for p, ga in zip(params, analytic):
        flat, ga = p.data.reshape(-1), ga.reshape(-1)
        gn, b = np.zeros_like(flat), np.zeros_like(flat)
        for i in range(flat.size):
            orig, f = flat[i], []
            for k in (2, 1, -1, -2):
                flat[i] = orig + k * h
                f.append(eval_loss())
            flat[i] = orig
            gn[i] = (f[1] - f[2]) / (2.0 * h)
            b[i] = (abs(f[0] - 2 * f[1] + 2 * f[2] - f[3]) / (12 * h)
                    + 3 * u * max(map(abs, f)) / (2 * h))
        numeric.append(gn.reshape(p.shape))
        if flat.size:
            ratio = np.abs(ga - gn) / (FD_RTOL * np.abs(ga) + b)
            worst = max(worst, float(ratio.max()))
    return worst, analytic, numeric


def finite_diff_check(build_loss, params) -> float:
    """finite_diff_report's worst ratio: at most 1 when every coordinate
    passes."""
    return finite_diff_report(build_loss, params)[0]


def gamma(n: int, dtype) -> float:
    """gamma_n = n u / (1 - n u), u the unit roundoff of dtype: the relative
    error bound of n successive roundings (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., lemma 3.1)."""
    u = np.finfo(dtype).eps / 2
    return n * u / (1 - n * u)


def matmul_error_bound(a, b, dtype, n=None) -> np.ndarray:
    """Componentwise bound on |fl(AB) - AB| when A and B are rounded to
    `dtype`, multiplied in it, and compared with the exact product rounded
    to it.

    A dot product of length n computed in floating point errs by at most
    gamma_n |A||B| (Higham, section 3.5). Rounding the inputs adds two more
    factors of (1 + u), giving gamma_{n+2}, and rounding the reference adds
    u |AB|. `n` defaults to the inner dimension; pass the total accumulation
    length when the product ends a chain of them, since first-order errors
    of successive products add up (gamma_a + gamma_b <= gamma_{a+b})."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    n = a.shape[-1] if n is None else n
    u = np.finfo(dtype).eps / 2
    return gamma(n + 2, dtype) * (np.abs(a) @ np.abs(b)) + u * np.abs(a @ b)


def frequency_tolerance(p, n, cells: int):
    """The largest |f - p| a test may allow a frequency f of N independent
    Bernoulli(p) draws, in each of `cells` cells checked together.

    Bernstein's inequality for a mean of N Bernoulli draws gives
    P(|f - p| >= z*sqrt(p(1-p)/N) + z^2/(3N)) <= 2*exp(-z^2/2), which holds
    at every p, unlike the normal approximation near p = 0. z is set so
    that the false-failure probability of the whole check is 1e-3, split
    evenly (Bonferroni) over its cells, so the bound follows from the
    sample size and the seed cannot tune it. p and n broadcast."""
    z = math.sqrt(2 * math.log(2 * cells / 1e-3))
    return z * np.sqrt(p * (1 - p) / n) + z * z / (3 * n)


def accumulation_length(cfg, t: int, blocks: int) -> int:
    """Summed lengths of the reductions on the longest path from a token to
    a head output through `blocks` transformer blocks at t positions: per
    block two norms, a query or key projection, the scores, the softmax
    sum, the context, the output projection and the MLP's two projections;
    then the final norm and the head."""
    d, dh = cfg.d_model, cfg.d_model // cfg.n_heads
    return blocks * (5 * d + dh + 2 * t + cfg.intermediate_dim) + 2 * d


def decoder_accumulation_length(cfg, t: int, blocks: int, mlps: int = 0) -> int:
    """accumulation_length for an output of the compiled `actions.Decoder`
    through `blocks` blocks, the final norm and a head, or with `mlps`
    the merge MLPs and the world lm-head.

    Element for element, the decoder's reductions are those of the full
    forward: the context product sums the softmax weights in place of the
    softmax's t-term sum, and a merge MLP's 2d-term product over the
    concatenation becomes a d-term product plus a row of the code table,
    itself a d-term product; folding a w3 into the next weight swaps the
    order of a d-term and an I-term product. A merge MLP adds 2d + I, as
    a block's reductions do in accumulation_length. Beyond these the
    decoder rounds each compiled weight entry at most 4 times (a product
    of a norm gain, sqrt(d), 1/sqrt(dh) or a sign and the weight, then
    the cast) and adds one division per block (the context by its weight
    sum) and one addition per MLP (the table row). A block reads two
    compiled weights, the final norm one, an MLP two and the world
    lm-head one."""
    d = cfg.d_model
    n = accumulation_length(cfg, t, blocks) + blocks * (2 * 4 + 1) + 4
    if mlps:
        n += mlps * (2 * d + cfg.intermediate_dim + 2 * 4 + 1) + 4
    return n


def check_base_logits(state, tokens, e_l, start):
    """Base logits of a Decoder's embeddings e_l (B, t) at positions
    start.. of tokens stay within the rounding-error bound of the
    full-prefix forward's: both sides err by at most the dot-product
    bound over the decoder's accumulation length, hence the factor 2."""
    cfg, p = state.cfg, state.groups["base"]
    e_full = base_forward(p, cfg, tokens)
    full = base_logits(p, e_full).data[:, start:]
    n = decoder_accumulation_length(cfg, tokens.shape[1], cfg.n_layers_base)
    bound = 2 * matmul_error_bound(e_full.data[:, start:], p["lm_head"].data,
                                   full.dtype, n=n)
    err = np.abs(e_l @ p["lm_head"].data - full)
    assert (err <= bound).all(), (err / bound).max()


class ChainLM:
    """Deterministic two-branch generator speaking the Decoder contract:
    the first action's parity picks token 2 (the rewarded branch) or 3;
    filler token 4 follows until eos closes the episode at a fixed length.
    Every row of a batch follows the same rule."""

    def __init__(self, episode_len=8, n_actions=2, eos=0):
        self.episode_len = episode_len
        self.n_actions = n_actions
        self.eos_token_id = eos
        self.tokens = None

    def sync(self, tokens):
        self.tokens = np.asarray(tokens)

    def policy_probs(self):
        return np.full((len(self.tokens), self.n_actions), 1.0 / self.n_actions)

    def next_tokens(self, actions):
        actions, t = np.asarray(actions), self.tokens.shape[1]
        if t == 1:
            return np.where(actions % 2 == 0, 2, 3)
        return np.full(len(actions), self.eos_token_id
                       if t >= self.episode_len - 1 else 4)


class StickyLM:
    """Stochastic generator speaking the Decoder contract: actions 0-2 emit
    tokens 1-3 and action 3 emits eos. After the prompt token 4 the policy
    is POLICY[4]; after token t it repeats action t-1 with probability 0.75
    and picks eos with probability 0.05. A finished row, padded with eos,
    reads POLICY[0], which the decode loop ignores."""

    eos_token_id, n_actions = 0, 4
    POLICY = {0: [0.25] * 4, 4: [0.3, 0.3, 0.3, 0.1], 1: [0.75, 0.1, 0.1, 0.05],
              2: [0.1, 0.75, 0.1, 0.05], 3: [0.1, 0.1, 0.75, 0.05]}

    def sync(self, tokens):
        self.tokens = np.asarray(tokens)

    def policy_probs(self):
        return np.array([self.POLICY[t] for t in self.tokens[:, -1]])

    def next_tokens(self, actions):
        return np.where(np.asarray(actions) == 3, 0, np.asarray(actions) + 1)


def per_prefix(q):
    """A q_fn of the search contract from a per-context value function q:
    the values (T, N) at every position of a context, row t being q of the
    prefix that ends there, as the causal Q head gives them."""
    def q_fn(context):
        context = np.asarray(context)
        return np.stack([np.asarray(q(context[:t + 1]), float)
                         for t in range(len(context))])
    return q_fn


def chain_reward(tokens):
    return 1.0 if 2 in np.asarray(tokens) else 0.0


def tree_snapshot(node):
    """A search tree as nested tuples: state, visits, rounded value sum and
    the snapshots of the children in key order."""
    return (tuple(node.state.tolist()), node.visits, round(node.q_sum, 12),
            sorted((k, tree_snapshot(v)) for k, v in node.children.items()))


def v1_checkpoint_body(state) -> bytes:
    """A format-1 checkpoint body of a float32 state, without its checksum:
    a header naming the groups, then one record per tensor (name, dtype
    code, rank, shape, data), groups and names sorted."""
    header = {"arch": asdict(state.cfg), "stage": "", "step": 0,
              "rng_state": None, "groups": sorted(state.groups)}
    h = json.dumps(header, sort_keys=True).encode()
    records = [(f"{g}/{k}", t.data) for g in sorted(state.groups)
               for k, t in sorted(state.groups[g].items())]
    chunks = [MAGIC, struct.pack("<II", 1, len(h)), h,
              struct.pack("<I", len(records))]
    for name, data in records:
        chunks += [struct.pack("<H", len(name)), name.encode(),
                   struct.pack("<BB", 0, data.ndim),
                   struct.pack(f"<{data.ndim}I", *data.shape),
                   data.astype("<f4").tobytes()]
    return b"".join(chunks)
