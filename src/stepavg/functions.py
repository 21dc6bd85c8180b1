"""Test-function registry: five real functions with exact derivatives.

The registry carries cos, exp, ln, arctan and the degree-7 Laguerre
polynomial, each with closed-form first and second derivatives, plus the
19-row benchmark case table (an evaluation point per row together with
the published derivative magnitudes) and its self-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "FunctionId",
    "CustomFunction",
    "FunctionCase",
    "CaseCheck",
    "evaluate",
    "d1_exact",
    "d2_exact",
    "function_handle",
    "case_table",
    "validate_case_table",
    "display_unit",
]


class FunctionId(Enum):
    """The five registered test functions."""

    COS = "cos"
    EXP = "exp"
    LN = "ln"
    ATAN = "atan"
    LAGUERRE7 = "laguerre7"


# Exact rational coefficients of the degree-7 Laguerre polynomial for
# x^0 .. x^7, normalized so that L7(0) = 1. The derivative coefficient
# lists follow by term-wise differentiation.
_L7_COEFFS = (1.0, -7.0, 21.0 / 2.0, -35.0 / 6.0, 35.0 / 24.0,
              -7.0 / 40.0, 7.0 / 720.0, -1.0 / 5040.0)
_L7_D1_COEFFS = tuple(i * c for i, c in enumerate(_L7_COEFFS))[1:]
_L7_D2_COEFFS = tuple(i * c for i, c in enumerate(_L7_D1_COEFFS))[1:]


def _horner(coeffs, x):
    """Evaluate a polynomial given by ascending coefficients at x.

    Needs at least two coefficients. The first step forms x*c_n + c_(n-1)
    directly rather than 0*x + c_n, which gives the same bits for finite
    x and the true limit, not nan, at x = +-inf: L7(+inf) = -inf and
    L7(-inf) = +inf.
    """
    x = np.asarray(x, dtype=float)
    result = np.multiply(x, coeffs[-1], out=np.empty_like(x))
    np.add(result, coeffs[-2], out=result)
    for c in coeffs[-3::-1]:
        np.multiply(result, x, out=result)
        np.add(result, c, out=result)
    return result[()] if result.ndim == 0 else result


def _laguerre7(x):
    return _horner(_L7_COEFFS, x)


def _laguerre7_d1(x):
    return _horner(_L7_D1_COEFFS, x)


def _laguerre7_d2(x):
    return _horner(_L7_D2_COEFFS, x)


# fn -> (f, f', f'', requires x > 0)
_REGISTRY = {
    FunctionId.COS: (np.cos, lambda x: -np.sin(np.asarray(x, dtype=float)),
                     lambda x: -np.cos(np.asarray(x, dtype=float)), False),
    FunctionId.EXP: (np.exp, np.exp, np.exp, False),
    FunctionId.LN: (np.log, lambda x: 1.0 / np.asarray(x, dtype=float),
                    lambda x: -1.0 / np.asarray(x, dtype=float) ** 2, True),
    FunctionId.ATAN: (np.arctan,
                      lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2),
                      lambda x: (lambda t: -2.0 * t / (1.0 + t * t) ** 2)(
                          np.asarray(x, dtype=float)),
                      False),
    FunctionId.LAGUERRE7: (_laguerre7, _laguerre7_d1, _laguerre7_d2, False),
}


@dataclass(frozen=True)
class CustomFunction:
    """A caller-supplied function with its exact derivative.

    Extension point for injecting synthetic cases (for example f(t) = t^2
    with known derivative) into the benchmark without touching the
    registry enum.
    """

    name: str
    f: Callable
    d1: Callable
    d2: Callable = None


FunctionLike = Union[FunctionId, CustomFunction]


def _check_domain(fn: FunctionId, x: float) -> None:
    if not math.isfinite(x) or (_REGISTRY[fn][3] and not x > 0.0):
        raise DomainError(fn.value, x)


def evaluate(fn: FunctionLike, x: float) -> float:
    """Evaluate the function at a scalar point x.

    The Laguerre polynomial is evaluated by Horner's scheme with exact
    rational coefficients. Raises DomainError when x violates the
    function's domain: x must be finite, and x > 0 for ln.
    """
    if isinstance(fn, CustomFunction):
        return float(fn.f(x))
    _check_domain(fn, x)
    return float(_REGISTRY[fn][0](x))


def d1_exact(fn: FunctionLike, x: float) -> float:
    """Exact (closed-form) first derivative at x; the truth reference."""
    if isinstance(fn, CustomFunction):
        return float(fn.d1(x))
    _check_domain(fn, x)
    return float(_REGISTRY[fn][1](x))


def d2_exact(fn: FunctionLike, x: float) -> float:
    """Exact (closed-form) second derivative at x."""
    if isinstance(fn, CustomFunction):
        if fn.d2 is None:
            raise DomainError(fn.name, x)
        return float(fn.d2(x))
    _check_domain(fn, x)
    return float(_REGISTRY[fn][2](x))


def function_handle(fn: FunctionLike) -> Callable:
    """Return the raw vectorized evaluator for use inside estimators.

    The handle is pure and accepts scalars or arrays. It performs no
    domain checking; out-of-domain points propagate as non-finite values
    that the benchmark records as flagged cells.
    """
    if isinstance(fn, CustomFunction):
        return fn.f
    return _REGISTRY[fn][0]


def function_name(fn: FunctionLike) -> str:
    return fn.name if isinstance(fn, CustomFunction) else fn.value


@dataclass(frozen=True)
class FunctionCase:
    """One benchmark case: a function, a point, and published magnitudes.

    d1_text and d2_text are the published |f'(x)| and |f''(x)| exactly
    as printed, kept as strings so that the number of displayed digits
    (and hence the comparison tolerance) is preserved.
    """

    case_id: int
    fn: FunctionLike
    x: float
    d1_text: str
    d2_text: str

    @property
    def abs_d1_published(self) -> float:
        return float(self.d1_text)

    @property
    def abs_d2_published(self) -> float:
        return float(self.d2_text)


# case_id, function, x, published |f'|, published |f''|
_CASE_ROWS = (
    (1, FunctionId.LAGUERRE7, 9.683, "19.88", "0.0011"),
    (2, FunctionId.LAGUERRE7, 11.2345, "0.0031", "28.57"),
    (3, FunctionId.LAGUERRE7, 15.83, "265.1", "0.1534"),
    (4, FunctionId.LAGUERRE7, 17.65, "1.443", "358.1"),
    (5, FunctionId.LAGUERRE7, 15.8285, "265.1", "0.0026"),
    (6, FunctionId.LAGUERRE7, 17.64595, "0.0048", "356.8"),
    (7, FunctionId.EXP, -6.9, "0.0010", "0.0010"),
    (8, FunctionId.LN, 10.0, "0.1", "0.01"),
    (9, FunctionId.ATAN, 6.245, "0.0249", "0.0078"),
    (10, FunctionId.COS, 1.47, "0.9949", "0.1006"),
    (11, FunctionId.COS, 0.1, "0.0998", "0.9950"),
    (12, FunctionId.COS, 0.0025, "0.0024", "0.9999"),
    (13, FunctionId.ATAN, 0.002, "0.9999", "0.0039"),
    (14, FunctionId.LN, 0.03, "33.33", "1111.1"),
    (15, FunctionId.EXP, 6.9, "992.2", "992.2"),
    (16, FunctionId.LN, 1.0, "1.0", "1.0"),
    (17, FunctionId.LAGUERRE7, 9.67477, "19.88", "0.1000"),
    (18, FunctionId.LAGUERRE7, 11.2311, "0.1001", "28.49"),
    (19, FunctionId.EXP, 4.25, "70.10", "70.10"),
)


def case_table() -> list:
    """Return the 19 benchmark cases in order, ids 1..19."""
    return [FunctionCase(*row) for row in _CASE_ROWS]


def display_unit(text: str) -> float:
    """One unit in the last displayed decimal place of a printed number.

    "19.88" -> 0.01, "0.0010" -> 0.0001, "1111.1" -> 0.1. Published
    values are compared with a tolerance of one such unit, which also
    covers values that were truncated rather than rounded.
    """
    mantissa, _, exponent = text.partition("e")
    decimals = len(mantissa.partition(".")[2])
    exp = int(exponent) if exponent else 0
    return 10.0 ** (exp - decimals)


@dataclass(frozen=True)
class CaseCheck:
    """Result of checking one case row against its published magnitudes."""

    case_id: int
    d1_computed: float
    d2_computed: float
    ok: bool


def validate_case_table() -> list:
    """Check computed |f'| and |f''| against the published table rows.

    A row passes when both magnitudes agree with the printed values to
    within one unit in the last displayed digit. Mismatches are reported
    in the returned list, never raised.
    """
    checks = []
    for case in case_table():
        d1 = abs(d1_exact(case.fn, case.x))
        d2 = abs(d2_exact(case.fn, case.x))
        ok = (
            abs(d1 - case.abs_d1_published)
            <= display_unit(case.d1_text) * (1.0 + 1e-9)
            and abs(d2 - case.abs_d2_published)
            <= display_unit(case.d2_text) * (1.0 + 1e-9)
        )
        checks.append(CaseCheck(case.case_id, d1, d2, ok))
    return checks
