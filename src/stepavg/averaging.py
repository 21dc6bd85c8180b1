"""Step-size averaging: evaluate one estimator at many steps and average.

The meta-method draws N step sizes h_i from the interval
H = [0.5 h, 1.5 h] around a nominal step h, evaluates a base estimator
at each h_i, and returns the mean. Truncation bias is smooth in h, but
rounding noise is effectively random across nearby steps, so in the
noise-dominated regime the mean suppresses the error roughly like
1/sqrt(N).

Step generation strategies:

* Single: the degenerate N = 1 case, the plain estimator at h.
* McUniform: N independent uniform draws from H (seeded, reproducible).
* Equidistant: N evenly spaced steps with endpoints 0.5 h and 1.5 h.
* LowDiscrepancy: the golden-ratio additive recurrence mapped onto H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .diffcore import LdiSignMode, MethodId, QuadratureMode, afd, ldi, richardson5
from .errors import InvalidStrategyError, NonFiniteEstimateError

__all__ = [
    "StrategyKind",
    "StepStrategy",
    "StepSequence",
    "AveragedResult",
    "steps_equidistant",
    "steps_mc",
    "steps_lowdiscrepancy",
    "make_steps",
    "averaged_derivative",
    "predict_error_reduction",
    "compensated_mean",
]

_PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0


class StrategyKind(Enum):
    SINGLE = "single"
    MC_UNIFORM = "mc"
    EQUIDISTANT = "ed"
    LOW_DISCREPANCY = "lds"


@dataclass(frozen=True)
class StepStrategy:
    """How to generate the step multiset for one averaged evaluation.

    seed is consumed only by McUniform; Single forces sample_count 1 and
    Equidistant needs at least the two distinct endpoint steps.
    """

    kind: StrategyKind
    sample_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise InvalidStrategyError(
                f"sample_count must be >= 1, got {self.sample_count}")
        if self.kind is StrategyKind.SINGLE and self.sample_count != 1:
            raise InvalidStrategyError(
                f"Single strategy requires sample_count 1, got {self.sample_count}")
        if self.kind is StrategyKind.EQUIDISTANT and self.sample_count < 2:
            raise InvalidStrategyError(
                f"Equidistant strategy requires sample_count >= 2, got {self.sample_count}")


@dataclass(frozen=True, eq=False)
class StepSequence:
    """A concrete multiset of steps, all inside [0.5 base_h, 1.5 base_h]."""

    base_h: float
    steps: np.ndarray


@dataclass(frozen=True)
class AveragedResult:
    """Mean estimate plus the spread of the single-step estimates.

    predicted_sigma = sample_std / sqrt(n) is the usual uncorrelated-sum
    prediction for the standard deviation of the mean; sample_std is 0
    when n = 1.
    """

    mean: float
    sample_std: float
    n: int
    predicted_sigma: float


def _check_positive_h(h: float) -> float:
    h = float(h)
    if not 0.0 < h < math.inf:
        raise InvalidStrategyError(f"base step h must be positive and finite, got {h}")
    return h


def steps_equidistant(h: float, n: int) -> StepSequence:
    """n evenly spaced steps, first 0.5 h and last 1.5 h."""
    h = _check_positive_h(h)
    if n < 2:
        raise InvalidStrategyError(
            f"equidistant steps need n >= 2, got {n}")
    steps = 0.5 * h + np.arange(n, dtype=float) * (h / (n - 1))
    return StepSequence(h, steps)


def steps_mc(h: float, n: int, seed: int) -> StepSequence:
    """n independent uniform draws from [0.5 h, 1.5 h], seeded."""
    h = _check_positive_h(h)
    if n < 1:
        raise InvalidStrategyError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return StepSequence(h, rng.uniform(0.5 * h, 1.5 * h, n))


def steps_lowdiscrepancy(h: float, n: int) -> StepSequence:
    """Golden-ratio additive recurrence mapped onto [0.5 h, 1.5 h].

    steps[i] = 0.5 h + h * frac((i+1) * phi^-1); deterministic and
    seedless, with star discrepancy O(log n / n).
    """
    h = _check_positive_h(h)
    if n < 1:
        raise InvalidStrategyError(f"need n >= 1, got {n}")
    frac = (np.arange(1, n + 1, dtype=float) * _PHI_INV) % 1.0
    return StepSequence(h, 0.5 * h + h * frac)


def make_steps(h: float, strategy: StepStrategy) -> StepSequence:
    """Generate the step sequence for a strategy at nominal step h."""
    if strategy.kind is StrategyKind.SINGLE:
        return StepSequence(_check_positive_h(h), np.array([h], dtype=float))
    if strategy.kind is StrategyKind.MC_UNIFORM:
        return steps_mc(h, strategy.sample_count, strategy.seed)
    if strategy.kind is StrategyKind.EQUIDISTANT:
        return steps_equidistant(h, strategy.sample_count)
    return steps_lowdiscrepancy(h, strategy.sample_count)


# math.fsum over a list of fewer values costs about as much as the
# integer reduction's fixed ~15 us of numpy calls, so small inputs, such
# as most single library calls, skip it.
_EXACT_MIN_N = 1024
# Values per pass of the integer reduction, so its buffers stay in cache.
_EXACT_CHUNK = 1 << 15


def _exact_sum(values: np.ndarray):
    """The exact sum of values rounded once, or None where it cannot apply.

    With e_min the binary exponent of the smallest nonzero |value|, each
    value times 2^(53 - e_min) is an integer-valued float. Its quotient
    by 2^32, truncated, and the remainder convert to int64 exactly, and n
    of each sum in int64 without overflow while the exponent span is at
    most 42 - bit_length(n). Python ints join the two sums, and one
    correctly rounded conversion gives what math.fsum returns. None means
    the input is non-finite, all zero, too widely spread, or so large or
    so small that the sum or its scale leaves the normal range.
    """
    n = values.size
    vmin, vmax = float(values.min()), float(values.max())
    if vmin > 0.0:
        amin, amax = vmin, vmax
    elif vmax < 0.0:
        amin, amax = -vmax, -vmin
    else:
        amax = max(-vmin, vmax)
        mags = np.abs(values)
        amin = float(np.min(mags, where=mags > 0.0, initial=math.inf))
    if not (amax < math.inf and amin < math.inf):
        return None
    e_max, e_min = math.frexp(amax)[1], math.frexp(amin)[1]
    bits = n.bit_length()
    if (bits > 31 or e_max - e_min > 42 - bits
            or e_min < -968 or e_max + bits > 1023):
        return None
    shift = 53 - e_min
    scale = 2.0 ** shift
    width = min(n, _EXACT_CHUNK)
    scaled, high, ints = np.empty(width), np.empty(width), np.empty(width, np.int64)
    high_sum = low_sum = 0
    for start in range(0, n, _EXACT_CHUNK):
        chunk = values[start:start + _EXACT_CHUNK]
        k = chunk.size
        y = np.multiply(chunk, scale, out=scaled[:k])
        hi = np.multiply(y, 2.0 ** -32, out=high[:k])
        np.trunc(hi, out=hi)
        as_int = ints[:k]
        as_int[...] = hi
        high_sum += int(as_int.sum())
        np.multiply(hi, 2.0 ** 32, out=hi)
        np.subtract(y, hi, out=y)
        as_int[...] = y
        low_sum += int(as_int.sum())
    return math.ldexp(float((high_sum << 32) + low_sum), -shift)


def compensated_mean(values: Sequence[float]) -> float:
    """Mean via exact summation rounded once; permutation invariant.

    Bitwise equal to math.fsum(values) / n. Large inputs take an exact
    integer reduction; small or out-of-range ones take math.fsum itself.
    """
    values = np.asarray(values, dtype=float)
    total = _exact_sum(values) if values.size >= _EXACT_MIN_N else None
    if total is None:
        total = math.fsum(values.tolist())
    return total / values.size


def _base_estimator(method: MethodId, qmode: QuadratureMode,
                    smode: LdiSignMode) -> Callable:
    if method is MethodId.AFD:
        return afd
    if method is MethodId.RE:
        return richardson5
    return lambda f, x, h: ldi(f, x, h, qmode, smode)


# Steps per estimator call in an average. An LDI call on this many steps
# builds a 2.2 MB node matrix that stays in cache, where one call on 10^6
# steps would allocate 136 MB. LDI's weighted sums over 16384-row blocks
# were checked to give the same bits under one and two BLAS threads.
_STEP_CHUNK = 16384


def _chunked_estimates(estimator: Callable, f: Callable, x: float,
                       steps: np.ndarray) -> np.ndarray:
    """estimator(f, x, steps), evaluated 16384 steps per call."""
    estimates = np.empty(steps.size)
    for start in range(0, steps.size, _STEP_CHUNK):
        part = slice(start, start + _STEP_CHUNK)
        estimates[part] = estimator(f, x, steps[part])
    return estimates


def averaged_derivative(method: MethodId, f: Callable, x: float, h: float,
                        strategy: StepStrategy,
                        qmode: QuadratureMode = QuadratureMode.PAPER_VERBATIM,
                        smode: LdiSignMode = LdiSignMode.CORRECTED) -> AveragedResult:
    """Average a base estimator over the strategy's step multiset.

    The Single strategy returns the base estimate at h itself. Otherwise
    every method runs on 16384 steps per estimator call, so only the
    steps and the estimates grow with N. The mean is formed with exact
    summation so the aggregation step does not reintroduce the rounding
    noise it is meant to remove, and the spread is taken about that
    mean. Any non-finite single-step estimate, the Single one included,
    aborts with the offending step.
    """
    estimator = _base_estimator(method, qmode, smode)
    if strategy.kind is StrategyKind.SINGLE:
        value = float(estimator(f, x, h))
        if not math.isfinite(value):
            raise NonFiniteEstimateError(float(h), value)
        return AveragedResult(mean=value, sample_std=0.0, n=1, predicted_sigma=0.0)

    seq = make_steps(h, strategy)
    estimates = _chunked_estimates(estimator, f, x, seq.steps)
    finite = np.isfinite(estimates)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteEstimateError(float(seq.steps[bad]), float(estimates[bad]))
    n = estimates.size
    mean = compensated_mean(estimates)
    if n > 1:
        # the estimates are not needed once the mean is formed, so the
        # deviations overwrite them rather than fill a fresh array
        dev = np.subtract(estimates, mean, out=estimates)
        std = math.sqrt(float(dev @ dev) / (n - 1))
    else:
        std = 0.0
    return AveragedResult(mean=mean, sample_std=std, n=n,
                          predicted_sigma=std / math.sqrt(n))


def predict_error_reduction(sigmas: Sequence[float]) -> float:
    """Uncorrelated-error prediction sqrt(sum sigma_i^2) / N.

    For N equal sigmas this is sigma / sqrt(N), the nominal payoff of
    averaging N independent estimates.
    """
    sigmas = list(sigmas)
    if not sigmas:
        raise ValueError("need at least one sigma")
    return math.sqrt(math.fsum(s * s for s in sigmas)) / len(sigmas)
