"""Step generation strategies and the averaging meta-method."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stepavg
from stepavg import (
    AveragedResult,
    InvalidStrategyError,
    MethodId,
    NonFiniteEstimateError,
    StepStrategy,
    StrategyKind,
    afd,
    averaged_derivative,
    compensated_mean,
    make_steps,
    predict_error_reduction,
    steps_equidistant,
    steps_lowdiscrepancy,
    steps_mc,
)
from stepavg import averaging
from stepavg.bench import MethodVariant, VariantKind, substream_seed

MC = StrategyKind.MC_UNIFORM
ED = StrategyKind.EQUIDISTANT
LDS = StrategyKind.LOW_DISCREPANCY
SINGLE = StrategyKind.SINGLE


# --- strategy validation ---

def test_single_strategy_rejects_multiple_samples():
    with pytest.raises(InvalidStrategyError):
        StepStrategy(SINGLE, sample_count=2)


def test_equidistant_strategy_needs_two_samples():
    with pytest.raises(InvalidStrategyError):
        StepStrategy(ED, sample_count=1)


def test_sample_count_must_be_positive():
    with pytest.raises(InvalidStrategyError):
        StepStrategy(MC, sample_count=0)


def test_step_generators_reject_bad_arguments():
    with pytest.raises(InvalidStrategyError):
        steps_equidistant(1e-3, 1)
    with pytest.raises(InvalidStrategyError):
        steps_mc(-1e-3, 10, seed=0)
    with pytest.raises(InvalidStrategyError):
        steps_lowdiscrepancy(0.0, 10)
    with pytest.raises(InvalidStrategyError):
        steps_mc(math.inf, 10, seed=0)


# --- equidistant ---

@pytest.mark.parametrize("h,n,expected", [
    (1e-3, 3, [5e-4, 1e-3, 1.5e-3]),
    (1e-3, 2, [5e-4, 1.5e-3]),
    (2.0, 5, [1.0, 1.5, 2.0, 2.5, 3.0]),
])
def test_equidistant_examples(h, n, expected):
    seq = steps_equidistant(h, n)
    assert seq.base_h == h
    assert np.array_equal(seq.steps, np.array(expected))
    assert seq.steps[0] == 0.5 * h
    assert seq.steps[-1] == 1.5 * h


# --- all strategies stay inside the window [0.5 h, 1.5 h] ---

@given(h=st.floats(1e-8, 1.0), n=st.integers(2, 50),
       kind=st.sampled_from([MC, ED, LDS]), seed=st.integers(0, 2**31))
def test_steps_stay_inside_window(h, n, kind, seed):
    seq = make_steps(h, StepStrategy(kind, sample_count=n, seed=seed))
    assert seq.steps.shape == (n,)
    assert np.all(seq.steps >= 0.5 * h * (1.0 - 1e-14))
    assert np.all(seq.steps <= 1.5 * h * (1.0 + 1e-14))


# --- mc ---

def test_mc_steps_are_seed_deterministic():
    a = steps_mc(1e-3, 1000, seed=42).steps
    b = steps_mc(1e-3, 1000, seed=42).steps
    c = steps_mc(1e-3, 1000, seed=43).steps
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mc_sample_mean_matches_window_center():
    # uniform on [0.5e-3, 1.5e-3]: sigma of the mean of 1e5 draws is
    # (h / sqrt(12)) / sqrt(n); stay within three of those
    steps = steps_mc(1e-3, 10**5, seed=42).steps
    margin = 3.0 * (1e-3 / math.sqrt(12.0)) / math.sqrt(10**5)
    assert abs(steps.mean() - 1e-3) < margin


# --- low discrepancy ---

def test_lowdiscrepancy_first_term():
    seq = steps_lowdiscrepancy(1.0, 3)
    assert seq.steps[0] == pytest.approx(1.1180339887498949, rel=1e-15)


def test_lowdiscrepancy_fills_window_evenly():
    steps = np.sort(steps_lowdiscrepancy(1.0, 1000).steps)
    assert len(np.unique(steps)) == 1000
    # golden-ratio sequence: largest gap stays within a small constant
    # multiple of the average spacing 1/n
    assert np.diff(steps).max() * 1000 < 3.0


# --- make_steps ---

def test_make_steps_single_is_the_nominal_step():
    seq = make_steps(1e-3, StepStrategy(SINGLE))
    assert np.array_equal(seq.steps, np.array([1e-3]))


# --- averaged_derivative ---

def test_single_strategy_matches_base_estimator_bitwise():
    res = averaged_derivative(MethodId.AFD, np.cos, 1.47, 1e-5,
                              StepStrategy(SINGLE))
    assert isinstance(res, AveragedResult)
    assert res.mean == float(afd(np.cos, 1.47, 1e-5))
    assert res.sample_std == 0.0
    assert res.n == 1
    assert res.predicted_sigma == 0.0


def test_averaging_quadratic_has_no_spread():
    # afd is exact on t^2 at every step, so the per-step estimates agree
    # up to rounding and the spread collapses
    res = averaged_derivative(MethodId.AFD, lambda t: t * t, 1.0, 1e-3,
                              StepStrategy(ED, sample_count=5))
    assert res.n == 5
    assert res.mean == pytest.approx(2.0, rel=1e-12)
    assert res.sample_std <= 1e-12


def test_averaging_re_quintic_mean_bias():
    # richardson5 on t^5 at x=0 errs by -4 h_i^4; over the two
    # equidistant steps {0.05, 0.15} the mean error is
    # -4 (0.05^4 + 0.15^4) / 2 = -1.025e-3
    res = averaged_derivative(MethodId.RE, lambda t: t**5, 0.0, 0.1,
                              StepStrategy(ED, sample_count=2))
    assert res.mean == pytest.approx(-1.025e-3, rel=1e-12)


def test_averaging_beats_single_step_in_noise_regime():
    # at h=1e-7 the central difference on cos is rounding-dominated;
    # averaging 1e4 uniform steps cuts the error well below the typical
    # (median) single-step error
    truth = -math.sin(1.47)
    strategy = StepStrategy(MC, sample_count=10**4, seed=0)
    steps = steps_mc(1e-7, 10**4, seed=0).steps
    singles = np.abs(afd(np.cos, 1.47, steps) - truth)
    res = averaged_derivative(MethodId.AFD, np.cos, 1.47, 1e-7, strategy)
    assert abs(res.mean - truth) <= float(np.median(singles)) / 10.0


def test_error_shrinks_as_sample_count_grows():
    # more samples should tighten the averaged estimate relative to the
    # stationary median single-step error; demands a clear majority
    # across a fixed panel of 20 derived seeds rather than certainty,
    # since any single realized error can get lucky or unlucky
    truth = -math.sin(1.47)
    variant = MethodVariant(MethodId.AFD, VariantKind.AVG_MC)
    grew = 0
    for master in range(20):
        seed = substream_seed(master, 10, variant, 1e-7)
        ratio = {}
        for n in (10**2, 10**4):
            steps = steps_mc(1e-7, n, seed).steps
            median = float(np.median(np.abs(afd(np.cos, 1.47, steps) - truth)))
            res = averaged_derivative(MethodId.AFD, np.cos, 1.47, 1e-7,
                                      StepStrategy(MC, sample_count=n, seed=seed))
            ratio[n] = median / abs(res.mean - truth)
        if ratio[10**4] > ratio[10**2]:
            grew += 1
    assert grew >= 16


@pytest.mark.parametrize("strategy", [
    StepStrategy(MC, sample_count=50, seed=3),
    StepStrategy(ED, sample_count=7),
    StepStrategy(LDS, sample_count=13),
])
def test_averaging_preserves_quartic_exactness(strategy):
    res = averaged_derivative(MethodId.RE, lambda t: t**4, 0.5, 0.05, strategy)
    assert res.mean == pytest.approx(0.5, rel=1e-12)


def test_nonfinite_estimate_reports_offending_step():
    def f(t):
        return np.full_like(np.asarray(t, dtype=float), np.inf)

    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteEstimateError) as err:
        averaged_derivative(MethodId.AFD, f, 1.0, 1e-3,
                            StepStrategy(ED, sample_count=3))
    assert err.value.step == 5e-4
    assert "non-finite" in str(err.value)


def test_nonfinite_estimate_in_a_later_chunk_reports_its_step():
    # equidistant steps grow with the index, so f(x + h_i) is nan from
    # index 20000 on, inside the second 16384-step chunk
    n = 3 * 16384
    steps = steps_equidistant(1e-3, n).steps
    cut = (steps[19999] + steps[20000]) / 2.0

    def f(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > cut, np.nan, t)

    with pytest.raises(NonFiniteEstimateError) as err:
        averaged_derivative(MethodId.AFD, f, 0.0, 1e-3,
                            StepStrategy(ED, sample_count=n))
    assert err.value.step == steps[20000]


def test_single_strategy_rejects_nonfinite_estimate():
    def f(t):
        return np.full_like(np.asarray(t, dtype=float), np.inf)

    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteEstimateError) as err:
        averaged_derivative(MethodId.AFD, f, 1.0, 1e-3, StepStrategy(SINGLE))
    assert err.value.step == 1e-3


def test_sample_std_is_spread_about_exact_mean():
    steps = steps_mc(1e-7, 3000, seed=5).steps
    estimates = afd(np.cos, 1.47, steps)
    res = averaged_derivative(MethodId.AFD, np.cos, 1.47, 1e-7,
                              StepStrategy(MC, sample_count=3000, seed=5))
    assert res.sample_std == pytest.approx(float(np.std(estimates, ddof=1)),
                                           rel=1e-10)
    assert res.predicted_sigma == res.sample_std / math.sqrt(3000)


# --- chunked evaluation ---

def _run_script(script, args, blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads),
               MKL_NUM_THREADS=str(blas_threads),
               PYTHONPATH=str(Path(stepavg.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


# Step counts around the 16384-step chunk of averaged_derivative.
_CHUNK_SIZES = (16383, 16384, 16385, 3 * 16384 + 5)

# LDI's weighted sum is a BLAS matrix-vector product that splits its
# rows among threads, and the rows at the end of a thread's share are
# summed in another order; so chunked and one-shot estimates agree bit
# for bit only with one BLAS thread, which this script is run under.
_CHUNKED_VS_ONE_SHOT = """
import sys
import numpy as np
from stepavg import (FunctionId, LdiSignMode, MethodId, QuadratureMode,
                     averaging, function_handle)

f = function_handle(FunctionId.LAGUERRE7)
rng = np.random.default_rng(11)
for n in map(int, sys.argv[1:]):
    steps = rng.uniform(0.5e-6, 1.5e-6, n)
    for method in MethodId:
        for qmode in QuadratureMode:
            estimator = averaging._base_estimator(method, qmode,
                                                  LdiSignMode.CORRECTED)
            chunked = averaging._chunked_estimates(estimator, f, 17.65, steps)
            one_shot = estimator(f, 17.65, steps)
            if chunked.tobytes() != one_shot.tobytes():
                print(n, method.value, qmode.value,
                      np.count_nonzero(chunked != one_shot))
"""


def test_chunked_estimates_match_one_shot_bitwise():
    assert _run_script(_CHUNKED_VS_ONE_SHOT, _CHUNK_SIZES, blas_threads=1) == ""


# Prints the exact mean and a hash of the estimates of an MC-averaged
# LDI evaluation of cos at 1.47 for each step count and quadrature.
_LDI_DIGESTS = """
import hashlib
import sys
import numpy as np
from stepavg import (LdiSignMode, MethodId, QuadratureMode, StepStrategy,
                     StrategyKind, averaging)

for n in map(int, sys.argv[1:]):
    steps = averaging.make_steps(
        1e-5, StepStrategy(StrategyKind.MC_UNIFORM, n, seed=7)).steps
    for qmode in QuadratureMode:
        estimator = averaging._base_estimator(MethodId.LDI, qmode,
                                              LdiSignMode.CORRECTED)
        estimates = averaging._chunked_estimates(estimator, np.cos, 1.47, steps)
        print(n, qmode.value, averaging.compensated_mean(estimates).hex(),
              hashlib.sha256(estimates.tobytes()).hexdigest())
"""


def test_averaged_ldi_bits_do_not_depend_on_blas_threads():
    # one-shot LDI calls on 49157 and 100003 steps gave other bits with
    # two BLAS threads than with one; the 16384-step chunks do not
    sizes = (49157, 100003, 10**6)
    one = _run_script(_LDI_DIGESTS, sizes, blas_threads=1)
    assert len(one.splitlines()) == 2 * len(sizes)
    assert _run_script(_LDI_DIGESTS, sizes, blas_threads=2) == one


# --- predict_error_reduction ---

def test_predict_error_reduction_examples():
    assert predict_error_reduction([3.0, 4.0]) == pytest.approx(2.5, rel=1e-15)
    assert predict_error_reduction([0.0]) == 0.0
    n = 100
    assert predict_error_reduction([2.0] * n) == pytest.approx(
        2.0 / math.sqrt(n), rel=1e-12)


def test_predict_error_reduction_rejects_empty():
    with pytest.raises(ValueError):
        predict_error_reduction([])


@given(sigmas=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=20),
       c=st.floats(1e-3, 1e3))
def test_predict_error_reduction_scale_equivariance(sigmas, c):
    scaled = predict_error_reduction([c * s for s in sigmas])
    base = predict_error_reduction(sigmas)
    assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-300)


# --- compensated_mean ---

def _bits(value):
    return np.float64(value).tobytes()


@given(st.data())
def test_compensated_mean_is_permutation_invariant(data):
    # repeating the drawn values carries n past the small-n cut, so both
    # the math.fsum path and the integer reduction are exercised
    base = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    values = base * data.draw(st.sampled_from([1, 35, 200]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    shuffled = np.random.default_rng(seed).permutation(values)
    mean = compensated_mean(values)
    assert _bits(mean) == _bits(compensated_mean(shuffled))
    assert _bits(mean) == _bits(math.fsum(values) / len(values))


_RNG = np.random.default_rng(2017)
_CLUSTER = -0.9949 + 1e-8 * _RNG.standard_normal(5000)
_WITH_ZEROS = _RNG.standard_normal(3000)
_WITH_ZEROS[::3] = 0.0
# (values, whether the integer reduction applies rather than math.fsum)
_MEAN_INPUTS = {
    "tenths": ([0.1] * 10, False),
    "clustered, one below the cut": (_CLUSTER[:1023], False),
    "clustered, at the cut": (_CLUSTER[:1024], True),
    "clustered": (_CLUSTER, True),
    # verbatim LDI's ~0.079 f/h term over steps in [0.5h, 1.5h]
    "factor-3 spread": (0.079 * 900.0 / _RNG.uniform(0.5e-8, 1.5e-8, 4096), True),
    "mixed signs": (_RNG.standard_normal(3000), True),
    "zeros": (_WITH_ZEROS, True),
    "exponent span too wide": (np.append(_CLUSTER, 1e-30), False),
    "subnormal": (np.full(2000, 5e-324), False),
    "near overflow": (np.tile([1e307, -1e307, 3.0], 700), False),
    "all zero": (np.zeros(2000), False),
}


def test_compensated_mean_matches_exact_fraction():
    assert compensated_mean([0.1] * 10) == pytest.approx(0.1, rel=1e-16)
    for name, (values, integer_path) in _MEAN_INPUTS.items():
        values = np.asarray(values, dtype=float)
        n = values.size
        exact = sum(map(Fraction, values.tolist()), Fraction(0))
        assert math.fsum(values.tolist()) == float(exact), name
        mean = compensated_mean(values)
        assert _bits(mean) == _bits(math.fsum(values) / n), name
        assert (n >= averaging._EXACT_MIN_N
                and averaging._exact_sum(values) is not None) == integer_path, name
