"""Function registry: exact values, derivatives, case table validation."""

import math
import warnings

import numpy as np
import pytest

from stepavg import (
    CustomFunction,
    DomainError,
    FunctionId,
    case_table,
    d1_exact,
    d2_exact,
    display_unit,
    evaluate,
    function_handle,
    validate_case_table,
)
from stepavg.functions import (
    _L7_COEFFS,
    _L7_D1_COEFFS,
    _L7_D2_COEFFS,
    _horner,
    _laguerre7,
)

# High-precision reference values for the degree-7 polynomial at the case
# points, computed with 50-digit arithmetic from the exact rational
# coefficients and frozen here. Tolerances allow for the float64 Horner
# rounding of the implementation (absolute, scaled by the intermediate
# term size) on top of tiny relative slack.
L7_ORACLE = {
    9.683: (-24.669700051180779023, -19.88680659653369278376, 0.001111089596550873454082),
    11.2345: (-45.862270018260691288, -0.003155435640778617740516, 28.57302023425691158435),
    15.83: (562.03514053831635609, 265.1258684999864319335, -0.1534651872025071497639),
    17.65: (899.58145243478469327, -1.44301511304202578068, -358.1357715963537160927),
    15.8285: (561.63745161950182522, 265.1259855416271058145, -0.002620888428798318059703),
    17.64595: (899.58436299360879061, 0.004836236650249395260034, -356.8529910377051744839),
    9.67477: (-24.50603273858468219, -19.88639917455064218468, -0.1000240623109293121567),
    11.2311: (-45.862094291559866035, -0.1001679730170450741394, 28.49318690886773180801),
}


def close(a, b, atol=2e-9, rtol=1e-11):
    return abs(a - b) <= atol + rtol * abs(b)


def test_function_id_has_exactly_five_members():
    assert len(FunctionId) == 5


def test_trivial_values():
    assert evaluate(FunctionId.LAGUERRE7, 0.0) == 1.0
    assert evaluate(FunctionId.COS, 0.0) == 1.0
    assert d1_exact(FunctionId.LN, 1.0) == 1.0
    assert d2_exact(FunctionId.LN, 10.0) == -0.01


@pytest.mark.parametrize("x", sorted(L7_ORACLE))
def test_laguerre7_against_frozen_oracle(x):
    f_ref, d1_ref, d2_ref = L7_ORACLE[x]
    assert close(evaluate(FunctionId.LAGUERRE7, x), f_ref)
    assert close(d1_exact(FunctionId.LAGUERRE7, x), d1_ref)
    assert close(d2_exact(FunctionId.LAGUERRE7, x), d2_ref)


def test_elementary_derivatives():
    assert d1_exact(FunctionId.EXP, -6.9) == pytest.approx(math.exp(-6.9), rel=1e-15)
    assert d1_exact(FunctionId.ATAN, 0.002) == pytest.approx(1 / (1 + 0.002**2), rel=1e-15)
    assert d2_exact(FunctionId.ATAN, 0.002) == pytest.approx(
        -2 * 0.002 / (1 + 0.002**2) ** 2, rel=1e-15)
    assert d2_exact(FunctionId.EXP, 4.25) == pytest.approx(math.exp(4.25), rel=1e-15)
    assert d1_exact(FunctionId.COS, 1.47) == pytest.approx(-math.sin(1.47), rel=1e-15)


def test_case_table_shape_and_rows():
    cases = case_table()
    assert len(cases) == 19
    assert [c.case_id for c in cases] == list(range(1, 20))
    row3 = cases[2]
    assert row3.fn is FunctionId.LAGUERRE7
    assert row3.x == 15.83
    assert row3.abs_d1_published == 265.1
    assert row3.abs_d2_published == 0.1534
    row16 = cases[15]
    assert (row16.fn, row16.x) == (FunctionId.LN, 1.0)
    assert (row16.abs_d1_published, row16.abs_d2_published) == (1.0, 1.0)


def test_validate_case_table_all_pass():
    checks = validate_case_table()
    assert len(checks) == 19
    assert all(c.ok for c in checks)


def test_validate_case_table_spot_values():
    by_id = {c.case_id: c for c in validate_case_table()}
    assert by_id[10].d1_computed == pytest.approx(0.9949, abs=1e-4)
    assert by_id[10].d2_computed == pytest.approx(0.1006, abs=1e-4)
    assert by_id[16].d1_computed == 1.0
    assert by_id[16].d2_computed == 1.0
    # near-root magnitudes of the degree-7 polynomial resolve beyond
    # their 2-digit published displays
    assert by_id[2].d1_computed == pytest.approx(0.0031554, abs=1e-6)
    assert by_id[6].d1_computed == pytest.approx(0.0048362, abs=1e-6)


def test_d1_cross_checks_central_difference_on_laguerre_points():
    # cross-check, not definition: a wrong polynomial coefficient would
    # miss by many orders of magnitude. Near roots of f' the difference
    # quotient's rounding noise (proportional to |f|/h) exceeds any
    # fixed relative tolerance, so the bound carries a function-scale
    # floor for those points.
    f = function_handle(FunctionId.LAGUERRE7)
    h = 1e-5
    for x in L7_ORACLE:
        approx = (f(x + h) - f(x - h)) / (2 * h)
        exact = d1_exact(FunctionId.LAGUERRE7, x)
        assert abs(approx - exact) <= 1e-5 * max(abs(exact), 0.01 * abs(f(x)))


def test_all_cases_finite():
    for case in case_table():
        for op in (evaluate, d1_exact, d2_exact):
            assert math.isfinite(op(case.fn, case.x))


def test_ln_domain_errors():
    with pytest.raises(DomainError):
        evaluate(FunctionId.LN, 0.0)
    with pytest.raises(DomainError):
        d1_exact(FunctionId.LN, -1.0)
    with pytest.raises(DomainError):
        d2_exact(FunctionId.LN, -2.5)


def _horner_from_zero(coeffs, x):
    result = np.zeros_like(x)
    for c in reversed(coeffs):
        result = result * x + c
    return result


@pytest.mark.parametrize("coeffs", [_L7_COEFFS, _L7_D1_COEFFS, _L7_D2_COEFFS])
def test_horner_matches_zero_start_bitwise(coeffs):
    rng = np.random.default_rng(3)
    xs = np.concatenate([
        rng.uniform(-20.0, 20.0, 1000),
        rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-300, 40, 1000),
        [0.0, -0.0, 9.683, 17.65],
    ])
    expected = _horner_from_zero(coeffs, xs)
    assert _horner(coeffs, xs).tobytes() == expected.tobytes()
    if coeffs is _L7_COEFFS:
        assert _laguerre7(xs).tobytes() == expected.tobytes()
    value = _horner(coeffs, 9.683)
    assert isinstance(value, np.float64)
    assert value.tobytes() == _horner_from_zero(coeffs, np.float64(9.683)).tobytes()


def test_laguerre7_has_its_limits_at_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _laguerre7(np.array([np.inf, -np.inf]))
    assert values.tolist() == [-np.inf, np.inf]


def test_nonfinite_x_is_outside_every_domain():
    for fn in FunctionId:
        for x in (math.nan, math.inf, -math.inf):
            for op in (evaluate, d1_exact, d2_exact):
                with pytest.raises(DomainError):
                    op(fn, x)


def test_function_handle_is_pure_and_vectorized():
    f = function_handle(FunctionId.LAGUERRE7)
    assert f(9.683) == f(9.683)
    xs = np.array([0.0, 9.683, 15.83])
    assert np.array_equal(f(xs), np.array([f(x) for x in xs]))


def test_custom_function_passthrough():
    sq = CustomFunction("square", lambda t: np.asarray(t) ** 2,
                        lambda t: 2.0 * np.asarray(t), lambda t: 2.0)
    assert evaluate(sq, 3.0) == 9.0
    assert d1_exact(sq, 3.0) == 6.0
    assert d2_exact(sq, 3.0) == 2.0
    assert function_handle(sq)(4.0) == 16.0


def test_display_unit():
    assert display_unit("19.88") == pytest.approx(0.01)
    assert display_unit("0.0010") == pytest.approx(1e-4)
    assert display_unit("1111.1") == pytest.approx(0.1)
    assert display_unit("1.0") == pytest.approx(0.1)
    assert display_unit("2.1e-4") == pytest.approx(1e-5)
