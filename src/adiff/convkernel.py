"""Green-kernel view of the resolvent sum.

The particular solution of y(t+1) - lam*y(t) = f(t) is a discrete
convolution of f with a kernel supported on the integer offsets 1..floor(t)
carrying geometric weights 1, lam, lam^2, ... Materializing the weights and
folding them against f reproduces the resolvent sum bit for bit, because
both sides build the weights by the same iterated multiplication and add
terms in the same ascending order.

The fold here deliberately does not call :func:`adiff.antidiff.resolvent_sum`:
it is the independent Green-kernel route, and the test suite compares it
with ``==`` against that function. Sharing the loop would turn that check
into a comparison of one function with itself.
"""

from __future__ import annotations

import math

from .antidiff import RealFunction, Scalar, _coefficient
from .numkit import _Frozen, _require_finite, _set


def kernel_weights(lam: Scalar, t: float) -> list[tuple[int, Scalar]]:
    """Weight list [(1, 1), (2, lam), ..., (floor(t), lam^(floor(t)-1))].

    Empty for t < 1. Weights are the running products of lam, complex
    exactly when lam is passed complex.
    """
    t = _require_finite(t)
    lam = _coefficient(lam)
    n = max(math.floor(t), 0)
    w: Scalar = 1.0 + 0j if isinstance(lam, complex) else 1.0
    weights = []
    for s in range(1, n + 1):
        weights.append((s, w))
        w *= lam
    return weights


class GreenKernel(_Frozen):
    """Kernel parameters (lam, t) with lazily derived weights."""

    __slots__ = _fields = ("lam", "t")

    def __init__(self, lam: Scalar, t: float):
        _set(self, "lam", lam)
        _set(self, "t", t)

    def weights(self) -> list[tuple[int, Scalar]]:
        return kernel_weights(self.lam, self.t)

    def support_size(self) -> int:
        return max(math.floor(float(self.t)), 0)


def convolve(lam: Scalar, f: RealFunction, t: float) -> Scalar:
    """Kernel-weighted sum: sum over (s, w) of w * f(t - s), ascending s.

    Equals the unit-shift resolvent sum exactly (same weights, same
    accumulation order), and therefore satisfies
    y(t+1) - lam*y(t) = f(t).
    """
    weights = kernel_weights(lam, t)
    acc: Scalar = 0j if isinstance(lam, complex) else 0.0
    for s, w in weights:
        acc += w * f(t - s)
    return acc
