"""Base derivative estimators and the 16/17-point quadrature behind LDI.

Three classical first-derivative estimators over a step h:

* afd: the two-evaluation central difference, O(h^2).
* richardson5: the four-evaluation five-point rule obtained by
  Richardson extrapolation, O(h^4).
* ldi: differentiation by integration, f'(x) recovered as
  3/(2 h^3) * integral of (t - x) f(t) over [x-h, x+h], with the
  integral computed by a fixed Boole-type quadrature.

The quadrature and the LDI kernel each exist in two modes. The
PaperVerbatim quadrature reproduces a published 16-point weight table
whose weights sum to 328 instead of 337.5 (in units of 2*dx/45), so it
is not exact even for constants; CorrectedComposite is the standard
17-point four-panel composite Boole rule, exact through degree 5. The
PaperVerbatim kernel sign (x - t) provably returns -f'; Corrected uses
(t - x). Both anomalies are kept selectable so their effect can be
measured rather than silently repaired.

All estimators accept h as a scalar or an array of steps and broadcast
over it; x stays scalar.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import InvalidIntervalError, InvalidStepError

__all__ = [
    "MethodId",
    "QuadratureMode",
    "LdiSignMode",
    "afd",
    "richardson5",
    "boole16",
    "ldi",
]

ArrayLike = Union[float, np.ndarray]


class MethodId(Enum):
    """The three base estimators."""

    AFD = "AFD"
    RE = "RE"
    LDI = "LDI"


class QuadratureMode(Enum):
    PAPER_VERBATIM = "paper"
    CORRECTED_COMPOSITE = "corrected"


class LdiSignMode(Enum):
    CORRECTED = "corrected"
    PAPER_VERBATIM = "paper"


# 16 nodes at a + i*(b-a)/15; weight sum 328, not the 337.5 an exact
# rule scaled by 2*dx/45 would need. Kept verbatim by design.
_W16 = np.array([7, 12, 32, 14, 32, 12, 32, 14, 32, 12, 32, 14, 32, 12, 32, 7],
                dtype=float)
# Node basis: row 0 holds the node indices i, row 1 ones, so that
# [dx, a] @ basis gives the nodes a + i*dx.
_BASIS16 = np.array([np.arange(16, dtype=float), np.ones(16)])

# Standard four-panel composite Boole rule: 17 nodes at a + i*(b-a)/16.
_W17 = np.array([7, 32, 12, 32, 14, 32, 12, 32, 14, 32, 12, 32, 14, 32, 12, 32, 7],
                dtype=float)
_BASIS17 = np.array([np.arange(17, dtype=float), np.ones(17)])


def _check_step(h: ArrayLike) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    valid = (h > 0.0) & (h < np.inf)
    if not np.all(valid):
        first_bad = float(h[~valid].flat[0])
        raise InvalidStepError(
            f"step h must be positive and finite, got h={first_bad!r}")
    return h


def afd(f: Callable, x: float, h: ArrayLike) -> ArrayLike:
    """Central difference (f(x+h) - f(x-h)) / (2h).

    Uses exactly two function evaluations per step.
    """
    h = _check_step(h)
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson5(f: Callable, x: float, h: ArrayLike) -> ArrayLike:
    """Five-point rule (f(x-2h) - 8f(x-h) + 8f(x+h) - f(x+2h)) / (12h)."""
    h = _check_step(h)
    return (f(x - 2.0 * h) - 8.0 * f(x - h) + 8.0 * f(x + h) - f(x + 2.0 * h)) / (12.0 * h)


def boole16(f: Callable, a: ArrayLike, b: ArrayLike,
            mode: QuadratureMode = QuadratureMode.PAPER_VERBATIM) -> ArrayLike:
    """Fixed-node Boole-type quadrature of f over [a, b].

    PaperVerbatim: 16 equidistant nodes, dx = (b-a)/15, weights
    7,12,32,14,32,12,32,14,32,12,32,14,32,12,32,7 scaled by 2*dx/45.
    Applied to f = 1 this returns (328/337.5)*(b-a), not (b-a).

    CorrectedComposite: 17 equidistant nodes, dx = (b-a)/16, standard
    composite weights 7,32,12,32,14,...,32,7 scaled by 2*dx/45; exact
    for polynomials of degree <= 5.

    a and b may be arrays of matching shape; the nodes are laid out
    along a trailing axis and the result has the shape of a. All
    intervals are evaluated in one pass, so the node matrix holds 16 or
    17 float64 nodes per interval; averaged_derivative calls this
    through ldi on 16384 steps at a time.

    Each node is a + i*dx, counted from the left endpoint to bound
    rounding drift and rounded as fl(fl(i*dx) + a). For two or more
    intervals the node matrix is one BLAS product of the n x 2 matrix
    [dx, a] with the constant 2 x k matrix [i; 1]: the kernel sums its
    inner dimension in index order, so it rounds each node the same way
    and is several times faster than two broadcast passes whose inner
    loop has length 16. A single interval keeps the elementwise form,
    because numpy sends a one-row product to gemv, whose fused
    multiply-add rounds i*dx + a only once.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    valid = a < b
    if not np.all(valid):
        first = int(np.flatnonzero(~valid)[0])
        bad_a = float(np.broadcast_to(a, valid.shape).flat[first])
        bad_b = float(np.broadcast_to(b, valid.shape).flat[first])
        raise InvalidIntervalError(f"need a < b, got a={bad_a!r}, b={bad_b!r}")
    if mode is QuadratureMode.PAPER_VERBATIM:
        basis, weights, panels = _BASIS16, _W16, 15.0
    else:
        basis, weights, panels = _BASIS17, _W17, 16.0
    dx = (b - a) / panels
    if dx.size < 2:
        nodes = np.multiply.outer(dx, basis[0])
        nodes += a[..., np.newaxis]
    else:
        lhs = np.empty(dx.shape + (2,))
        lhs[..., 0] = dx
        lhs[..., 1] = a
        nodes = (lhs.reshape(-1, 2) @ basis).reshape(dx.shape + basis.shape[1:])
    return 2.0 * dx / 45.0 * (f(nodes) @ weights)


def ldi(f: Callable, x: float, h: ArrayLike,
        qmode: QuadratureMode = QuadratureMode.PAPER_VERBATIM,
        smode: LdiSignMode = LdiSignMode.CORRECTED) -> ArrayLike:
    """Differentiation by integration over the window [x-h, x+h].

    Returns 3/(2 h^3) times the boole16 integral of the moment kernel
    times f: kernel (t - x) for Corrected sign, (x - t) for
    PaperVerbatim sign. The verbatim sign negates the derivative
    exactly; the verbatim quadrature adds an error term of roughly
    0.079 * f(x) / h because its weights are not exact for constants.
    """
    h = _check_step(h)

    def integrand(t):
        kernel = np.subtract(t, x)
        if smode is LdiSignMode.PAPER_VERBATIM:
            np.negative(kernel, out=kernel)
        return np.multiply(kernel, f(t), out=kernel)

    integral = boole16(integrand, x - h, x + h, qmode)
    return 1.5 / (h * h * h) * integral
