"""Base estimators and quadrature: exactness, frozen values, anomalies."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stepavg import (
    InvalidIntervalError,
    InvalidStepError,
    LdiSignMode,
    QuadratureMode,
    afd,
    boole16,
    ldi,
    richardson5,
)

PV = QuadratureMode.PAPER_VERBATIM
CC = QuadratureMode.CORRECTED_COMPOSITE
COR = LdiSignMode.CORRECTED
PVS = LdiSignMode.PAPER_VERBATIM


def _bits(value):
    return np.float64(value).tobytes()


def poly(coeffs):
    def f(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c in reversed(coeffs):
            out = out * t + c
        return out
    return f


def poly_d1(coeffs):
    return poly([i * c for i, c in enumerate(coeffs)][1:])


def poly_integral(coeffs, a, b):
    anti = [0.0] + [c / (i + 1) for i, c in enumerate(coeffs)]
    return poly(anti)(b) - poly(anti)(a)


# --- afd ---

def test_afd_exact_on_quadratic():
    assert afd(lambda t: t * t, 1.0, 0.1) == pytest.approx(2.0, rel=1e-14)


def test_afd_cubic_truncation_term():
    # ((h^3 - (-h)^3) / 2h = h^2; the true derivative at 0 is 0
    assert afd(lambda t: t**3, 0.0, 0.1) == pytest.approx(0.01, rel=1e-13)


def test_afd_frozen_value_cos():
    # (cos(x+h) - cos(x-h)) / 2h = -sin(x) sin(h)/h; 50-digit reference,
    # reproduced up to the representation rounding of x +/- h
    est = float(afd(np.cos, 1.47, 1e-3))
    assert est == pytest.approx(-0.9949241839568642, abs=5e-13)
    err = abs(est - (-math.sin(1.47)))
    assert 1.64e-7 < err < 1.69e-7


# --- richardson5 ---

def test_richardson5_exact_on_quartic():
    assert richardson5(lambda t: t**4, 1.0, 0.1) == pytest.approx(4.0, rel=1e-13)


def test_richardson5_quintic_truncation_term():
    # -4 h^4 at x=0 for f(t)=t^5
    assert richardson5(lambda t: t**5, 0.0, 0.1) == pytest.approx(-4.0e-4, rel=1e-12)


def test_richardson5_frozen_value_exp():
    est = float(richardson5(np.exp, 0.0, 1e-2))
    assert est == pytest.approx(0.9999999996666627, abs=5e-14)
    err = abs(est - 1.0)
    assert 3.30e-10 < err < 3.37e-10


# --- step validation ---

@pytest.mark.parametrize("bad_h", [0.0, -1e-3])
def test_estimators_reject_nonpositive_step(bad_h):
    for method in (afd, richardson5):
        with pytest.raises(InvalidStepError):
            method(np.cos, 1.0, bad_h)
    with pytest.raises(InvalidStepError):
        ldi(np.cos, 1.0, bad_h)


@pytest.mark.parametrize("bad_h", [math.inf, math.nan])
def test_estimators_reject_nonfinite_step(bad_h):
    for method in (afd, richardson5, ldi):
        with pytest.raises(InvalidStepError):
            method(np.cos, 1.0, bad_h)


def test_estimators_reject_step_array_with_nonpositive_entry():
    with pytest.raises(InvalidStepError):
        afd(np.cos, 1.0, np.array([1e-3, 0.0]))


# --- vectorization over h ---

def test_afd_and_richardson5_vectorize_bitwise():
    hs = np.array([1e-3, 2e-4, 7e-5])
    for method in (afd, richardson5):
        vec = method(np.cos, 1.47, hs)
        scalar = np.array([float(method(np.cos, 1.47, h)) for h in hs])
        assert np.array_equal(vec, scalar)


def test_ldi_vectorizes():
    hs = np.array([1e-2, 1e-3])
    vec = ldi(np.exp, 0.5, hs, CC, COR)
    scalar = np.array([float(ldi(np.exp, 0.5, h, CC, COR)) for h in hs])
    assert np.allclose(vec, scalar, rtol=1e-14)


# --- boole16 ---

def test_boole16_verbatim_weight_defect_on_unit_function():
    # printed weights sum to 328, not 337.5, so f=1 over [-1,1] gives
    # 2 * (2/15) * 328/45 = 1312/675 instead of 2
    value = float(boole16(lambda t: np.ones_like(t), -1.0, 1.0, PV))
    assert value == pytest.approx(1312.0 / 675.0, rel=1e-14)


@given(a=st.floats(-5, 5), width=st.floats(0.1, 10), c=st.floats(-3, 3))
def test_boole16_verbatim_constant_scaling(a, width, c):
    b = a + width
    value = float(boole16(lambda t: np.full_like(t, c), a, b, PV))
    assert value == pytest.approx(c * (328.0 / 337.5) * (b - a), abs=1e-12)


def test_boole16_corrected_exact_on_unit_function():
    value = float(boole16(lambda t: np.ones_like(t), -1.0, 1.0, CC))
    assert value == pytest.approx(2.0, rel=1e-14)


def test_boole16_corrected_odd_quintic_is_zero():
    value = float(boole16(lambda t: t**5, -1.0, 1.0, CC))
    assert abs(value) < 1e-15


@given(coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=6))
def test_boole16_corrected_exact_through_degree_five(coeffs):
    exact = poly_integral(coeffs, -1.0, 1.0)
    value = float(boole16(poly(coeffs), -1.0, 1.0, CC))
    scale = sum(abs(c) for c in coeffs) + 1.0
    assert abs(value - exact) <= 1e-12 * scale


def test_boole16_rejects_empty_interval():
    with pytest.raises(InvalidIntervalError):
        boole16(np.cos, 1.0, 1.0, CC)
    with pytest.raises(InvalidIntervalError):
        boole16(np.cos, 2.0, 1.0, PV)


@pytest.mark.parametrize("mode", [PV, CC])
def test_boole16_zero_d_input_stays_scalar(mode):
    value = boole16(np.exp, 0.25, 0.75, mode)
    assert np.ndim(value) == 0
    batch = boole16(np.exp, np.array([0.25]), np.array([0.75]), mode)
    assert _bits(value) == _bits(batch[0])


# --- ldi ---

@given(x=st.floats(-3, 3), h=st.floats(1e-4, 1.0))
def test_ldi_corrected_recovers_identity_derivative(x, h):
    value = float(ldi(lambda t: t, x, h, CC, COR))
    # rounding the nodes x + i*dx perturbs the kernel moment by about
    # eps * ((|x| + h) / h)**2, which dominates once h << |x|
    eps = np.finfo(float).eps
    tol = 1e-12 + 20.0 * eps * ((abs(x) + h) / h) ** 2
    assert abs(value - 1.0) <= tol


def test_ldi_verbatim_sign_negates():
    value = float(ldi(lambda t: t, 0.7, 0.05, CC, PVS))
    assert value == pytest.approx(-1.0, rel=1e-12)


def test_ldi_verbatim_quadrature_frozen_value():
    # with the printed 16-point weights the kernel integral picks up a
    # spurious term of about 0.0529 h^2 f(x), so the estimate is
    # dominated by 0.079 f(x)/h; 50-digit reference of the same sum
    est = float(ldi(np.cos, 0.1, 1e-3, PV, COR))
    assert est == pytest.approx(78.91825008670890, abs=1e-9)
    err = abs(est - (-math.sin(0.1)))
    assert 79.0 < err < 79.04


def test_ldi_default_modes_are_verbatim_quadrature_corrected_sign():
    explicit = float(ldi(np.cos, 0.1, 1e-3, PV, COR))
    assert float(ldi(np.cos, 0.1, 1e-3)) == explicit


# --- linearity and polynomial exactness ---

@given(
    alpha=st.floats(-2, 2), beta=st.floats(-2, 2),
    cf=st.lists(st.floats(-2, 2), min_size=2, max_size=5),
    cg=st.lists(st.floats(-2, 2), min_size=2, max_size=5),
    x=st.floats(-2, 2), h=st.floats(1e-3, 1e-1),
)
def test_linearity(alpha, beta, cf, cg, x, h):
    f, g = poly(cf), poly(cg)

    def combo(t):
        return alpha * f(t) + beta * g(t)

    for method in (afd, richardson5):
        lhs = float(method(combo, x, h))
        rhs = alpha * float(method(f, x, h)) + beta * float(method(g, x, h))
        scale = (abs(alpha) + abs(beta)) * (sum(map(abs, cf)) + sum(map(abs, cg))) + 1.0
        assert abs(lhs - rhs) <= 1e-13 * scale


@given(coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=3),
       x=st.floats(-2, 2), h=st.floats(1e-3, 1e-1))
def test_afd_exact_through_degree_two(coeffs, x, h):
    est = float(afd(poly(coeffs), x, h))
    exact = float(poly_d1(coeffs)(x))
    scale = sum(abs(c) for c in coeffs) * 30.0 + 1.0
    assert abs(est - exact) <= 1e-12 * scale


@given(coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=5),
       x=st.floats(-2, 2), h=st.floats(1e-3, 1e-1))
def test_richardson5_exact_through_degree_four(coeffs, x, h):
    est = float(richardson5(poly(coeffs), x, h))
    exact = float(poly_d1(coeffs)(x))
    scale = sum(abs(c) for c in coeffs) * 300.0 + 1.0
    assert abs(est - exact) <= 1e-12 * scale
