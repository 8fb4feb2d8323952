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


@contextlib.contextmanager
def complex_step_mode():
    """For the length of the block `ad.FLOAT_DTYPES` admits complex128, and
    `ad.stop_grad` and `ad.Tensor.item` keep the real part: the
    straight-through estimator, since stop_grad(hard - soft) + soft then
    carries soft's derivative alone. src reads all three through the module
    (test_reachability.py). A constant that drops an imaginary part raises
    ComplexWarning, which the suite's error::RuntimeWarning filter fails."""
    saved = ad.FLOAT_DTYPES, ad.stop_grad, ad.Tensor.item
    ad.FLOAT_DTYPES = saved[0] + (np.dtype(np.complex128),)
    ad.stop_grad = lambda x: ad.Tensor(x.data.real)
    ad.Tensor.item = lambda self: float(self.data.real)
    try:
        yield
    finally:
        ad.FLOAT_DTYPES, ad.stop_grad, ad.Tensor.item = saved


def complex_step_report(build_loss, params):
    """Analytic against complex-step gradients of a scalar loss.

    `build_loss()` builds the loss from the current contents of `params`,
    float64 Tensors. For the length of the check each param's `.data` is a
    complex128 copy (complex_step_mode), and coordinate i of the numeric
    gradient gc is Im f(x + ih e_i) / h from one evaluation; the original
    arrays are put back however the check ends. Returns (worst, analytic,
    numeric), worst the largest |ga - gc| in units of the bound
    2 gamma_n ||g||_2 derived below: the check passes when worst <= 1.
    Raises ValueError for a non-scalar loss or params not float64, and
    FloatingPointError for a non-finite loss.

    The step (Squire and Trapp, SIAM Review 40(1), 1998; Martins, Sturdza
    and Alonso, ACM TOMS 29(3), 2003). For f real-analytic in x_i,
    Im f(x + ih e_i) / h = g_i - h^2 f^(3)(x) / 6 + O(h^4), with no
    difference of nearby values. At h = 1e-30 the truncation term is below
    u |g_i| unless |f^(3)| exceeds |g_i| by 1e44, and the real parts carry
    f(x) to working precision. Argmax labels, VQ's argmin and a softmax's
    row max read the real parts, so they are constants here, as on the tape.

    Rounding. With imaginary parts of order h, a complex operation rounds
    its real part as the float64 one does and its imaginary part as the
    forward-mode tangent ((a + ib)(c + id) has imaginary part ad + bc, bd
    lying h^2 below). So gc is the chain rule's sum over paths of products
    of local partials, summed in forward order, and ga the same sum in the
    tape's reverse order. Each errs by at most gamma_n times the sum of the
    absolute terms, n the most roundings on one path (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 3.5, as
    in matmul_error_bound); hence the factor 2.

    n and the condition measure. Each rounding on a path adds in or writes
    an entry of an array on it: a param, a recorded node's output, or a
    fused op's intermediate, which at the gates' shapes has no more entries
    than the op's params. So n, the entries of the params and the recorded
    nodes' outputs, overcounts any one path. The sum of absolute terms
    would need an absolute-valued pass through every op; the norm of the
    whole analytic gradient, ||g||_2, stands in for it, and a gate's worst
    ratio shows how much of the bound its cancellation uses."""
    if any(p.data.dtype != np.float64 for p in params):
        raise ValueError("complex_step_report needs float64 params")
    with ad.Tape(params) as tape:
        loss = build_loss()
    if loss.data.shape != ():
        raise ValueError("complex_step_report needs a scalar loss")
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss")
    analytic = [g.copy() for g in tape.gradients(loss)]
    n = sum(t.data.size for t in (*params, *tape.nodes))
    h, originals, numeric = 1e-30, [p.data for p in params], []
    try:
        with complex_step_mode():
            for p in params:
                p.data = p.data.astype(np.complex128)
            for p in params:
                flat, gc = p.data.reshape(-1), np.empty(p.data.size)
                for i in range(flat.size):
                    flat[i] += 1j * h
                    gc[i] = build_loss().data.imag / h
                    flat[i] = flat[i].real
                numeric.append(gc.reshape(p.data.shape))
    finally:
        for p, data in zip(params, originals):
            p.data = data
    # np.max propagates a NaN, so a non-finite stepped loss fails the check
    err = np.max([np.abs(ga - gc).max(initial=0.0) for ga, gc in zip(analytic, numeric)],
                 initial=0.0)
    bound = 2 * gamma(n, np.float64) * math.sqrt(sum((g * g).sum() for g in analytic))
    return float(err / bound if bound else (0.0 if err == 0 else math.inf)), analytic, numeric


def complex_step_check(build_loss, params) -> float:
    """complex_step_report's worst ratio: at most 1 when it passes."""
    return complex_step_report(build_loss, params)[0]


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
