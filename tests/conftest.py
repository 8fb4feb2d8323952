import numpy as np
import pytest

from actlm import autodiff as ad


@pytest.fixture(autouse=True)
def _restore_precision():
    yield
    ad.set_precision("train")


@pytest.fixture
def verify_mode():
    ad.set_precision("verify")
    yield
    ad.set_precision("train")


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


def accumulation_length(cfg, t: int, blocks: int) -> int:
    """Summed lengths of the reductions on the longest path from a token to
    a head output through `blocks` transformer blocks at t positions: per
    block two norms, a query or key projection, the scores, the softmax
    sum, the context, the output projection and the MLP's two projections;
    then the final norm and the head."""
    d, dh = cfg.d_model, cfg.d_model // cfg.n_heads
    return blocks * (5 * d + dh + 2 * t + cfg.intermediate_dim) + 2 * d
