"""Empirical joint/marginal CDF queries and their exactness audit.

Probabilities here are frequencies over a finite pair sample.  Identities
that hold measure-theoretically (rectangle inclusion-exclusion, bounds,
monotonicity, attained limits at the sample extremes) are checked as exact
integer-count identities; distributional facts (independence factorization,
goodness of fit) are checked statistically with explicit tolerances.

Rectangle events follow the half-open convention ``a < x <= b`` on both
axes: lower bounds strict, upper bounds inclusive.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# pairs per block for the batch kernels and CSV encoding: each temporary is
# one block long, so the working set stays cache-sized at any sample size
BLOCK_PAIRS = 1 << 16

# the audit's independence probe: a square quantile grid of this side, and
# the largest factorization gap it accepts
_GRID_SIZE = 5
_INDEPENDENCE_TOLERANCE = 0.01


@dataclass(frozen=True)
class SamplePairs:
    """A finite, immutable collection of (x1, x2) pairs, however obtained."""

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self) -> None:
        x1 = np.asarray(self.x1, dtype=np.float64)
        x2 = np.asarray(self.x2, dtype=np.float64)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        if x1.ndim != 1 or x1.shape != x2.shape:
            raise ValueError("x1 and x2 must be 1-D arrays of equal length")
        if x1.size == 0:
            raise ValueError("sample must be non-empty")
        if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
            raise ValueError("all sample coordinates must be finite")
        x1.setflags(write=False)
        x2.setflags(write=False)

    def __len__(self) -> int:
        return int(self.x1.size)


@dataclass(frozen=True)
class IndependenceReport:
    """Worst factorization gap |F(x1,x2) - F1(x1)*F2(x2)| over a probe grid."""

    max_abs_deviation: float
    passed: bool


@dataclass(frozen=True)
class PropertyCheck:
    """One audited CDF property: pass/fail plus the measured worst deviation."""

    name: str
    passed: bool
    max_deviation: float
    detail: str


def _joint_count(samples: SamplePairs, x1: float, x2: float) -> int:
    return int(np.count_nonzero((samples.x1 <= x1) & (samples.x2 <= x2)))


def joint_cdf(samples: SamplePairs, x1: float, x2: float) -> float:
    """Fraction of pairs with first coordinate <= x1 and second <= x2."""
    return _joint_count(samples, x1, x2) / len(samples)


def marginal_cdf_x1(samples: SamplePairs, x1: float) -> float:
    """Fraction of pairs with first coordinate <= x1.

    Realizes the joint CDF with the second bound sent past the sample
    maximum, where the limit is attained exactly on finite data.
    """
    return int(np.count_nonzero(samples.x1 <= x1)) / len(samples)


def marginal_cdf_x2(samples: SamplePairs, x2: float) -> float:
    """Fraction of pairs with second coordinate <= x2."""
    return int(np.count_nonzero(samples.x2 <= x2)) / len(samples)


def _check_rectangle(a: float, b: float, c: float, d: float) -> None:
    if not (a < b and c < d):
        raise ValueError(
            f"rectangle needs a < b and c < d, got a={a!r}, b={b!r}, c={c!r}, d={d!r}"
        )


def interval_prob(samples: SamplePairs, a: float, b: float, c: float, d: float) -> float:
    """Fraction of pairs inside the half-open rectangle (a, b] x (c, d]."""
    _check_rectangle(a, b, c, d)
    inside = (samples.x1 > a) & (samples.x1 <= b) & (samples.x2 > c) & (samples.x2 <= d)
    return int(np.count_nonzero(inside)) / len(samples)


def interval_via_cdf(samples: SamplePairs, a: float, b: float, c: float, d: float) -> float:
    """Rectangle probability by corner inclusion-exclusion of the joint CDF.

    The combination is done on integer counts before the single division, so
    the result equals :func:`interval_prob` exactly, not just approximately.
    """
    _check_rectangle(a, b, c, d)
    n = (
        _joint_count(samples, b, d)
        - _joint_count(samples, b, c)
        - _joint_count(samples, a, d)
        + _joint_count(samples, a, c)
    )
    return n / len(samples)


def independence_check(
    samples: SamplePairs,
    grid: Sequence[tuple[float, float]],
    tolerance: float = _INDEPENDENCE_TOLERANCE,
) -> IndependenceReport:
    """Compare the joint CDF against the product of marginals on a grid."""
    if len(grid) == 0:
        raise ValueError("probe grid must be non-empty")
    if tolerance <= 0.0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    worst = 0.0
    for gx1, gx2 in grid:
        joint = joint_cdf(samples, gx1, gx2)
        product = marginal_cdf_x1(samples, gx1) * marginal_cdf_x2(samples, gx2)
        worst = max(worst, abs(joint - product))
    return IndependenceReport(max_abs_deviation=worst, passed=worst <= tolerance)


def quantile_grid(samples: SamplePairs, size: int = _GRID_SIZE) -> list[tuple[float, float]]:
    """``size x size`` probe grid at equally spaced marginal quantiles."""
    if size < 1:
        raise ValueError(f"grid size must be >= 1, got {size!r}")
    levels = [(i + 1) / (size + 1) for i in range(size)]
    q1 = np.quantile(samples.x1, levels)
    q2 = np.quantile(samples.x2, levels)
    return [(float(a), float(b)) for a in q1 for b in q2]


# reference-CDF values are allowed to wobble by this much before the
# monotonicity precondition trips (numerically evaluated references)
_REFERENCE_SLACK = 1e-12


def ks_statistic(values: Iterable[float], reference_cdf: Callable) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sample to a reference CDF.

    ``reference_cdf`` must map the ndarray of sorted sample points to an
    ndarray of CDF values of the same shape, in [0, 1], non-decreasing, and
    not flat at 0 or 1 across the whole sample range.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64).ravel())
    n = xs.size
    if n == 0:
        raise ValueError("sample must be non-empty")
    fv = np.asarray(reference_cdf(xs), dtype=np.float64)
    if fv.shape != xs.shape:
        raise ValueError(f"reference_cdf must keep the sample's shape {xs.shape}, got {fv.shape}")
    if fv.min() < -_REFERENCE_SLACK or fv.max() > 1.0 + _REFERENCE_SLACK:
        raise ValueError("reference_cdf must take values in [0, 1]")
    if np.any(np.diff(fv) < -_REFERENCE_SLACK):
        raise ValueError("reference_cdf must be monotone non-decreasing")
    if fv[-1] <= 0.0 or fv[0] >= 1.0:
        raise ValueError("reference_cdf is degenerate over the sample range")
    steps_hi = np.arange(1, n + 1, dtype=np.float64) / n
    steps_lo = np.arange(0, n, dtype=np.float64) / n
    return float(max(np.max(steps_hi - fv), np.max(fv - steps_lo)))


def ks_pvalue(statistic: float, n: int) -> float:
    """Asymptotic two-sided KS p-value with the small-sample correction."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if statistic <= 0.0:
        return 1.0
    rn = math.sqrt(n)
    y = (rn + 0.12 + 0.11 / rn) * statistic
    if y < 1.1e-16:
        return 1.0
    total = 0.0
    sign = 1.0
    for r in range(1, 201):
        term = math.exp(-2.0 * r * r * y * y)
        total += sign * term
        if term < 1e-18 * max(total, 1e-300):
            break
        sign = -sign
    return max(0.0, min(1.0, 2.0 * total))


def _csv_chunks(samples: SamplePairs) -> Iterator[str]:
    """The header, then the text of each :data:`BLOCK_PAIRS`-row block."""
    yield "x1,x2\n"
    for start in range(0, len(samples), BLOCK_PAIRS):
        block = slice(start, start + BLOCK_PAIRS)
        rows = zip(samples.x1[block].tolist(), samples.x2[block].tolist())
        yield "".join([f"{a!r},{b!r}\n" for a, b in rows])


def samples_to_csv(samples: SamplePairs) -> str:
    """CSV text with header ``x1,x2``; floats use shortest round-trip form."""
    return "".join(_csv_chunks(samples))


def samples_from_csv(text: str) -> SamplePairs:
    """Parse :func:`samples_to_csv` output back into the same pairs."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["x1", "x2"]:
        raise ValueError(f"expected header ['x1', 'x2'], got {header!r}")
    col1: list[float] = []
    col2: list[float] = []
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"expected two columns, got {row!r}")
        col1.append(float(row[0]))
        col2.append(float(row[1]))
    return SamplePairs(x1=np.asarray(col1), x2=np.asarray(col2))


def _exact(name: str, deviation: float, detail: str) -> PropertyCheck:
    """A count-level check: it passes only when nothing deviates."""
    return PropertyCheck(name=name, passed=deviation == 0.0, max_deviation=deviation, detail=detail)


def _rectangles(rng: np.random.Generator, box1: tuple, box2: tuple, count: int) -> Iterator[tuple]:
    """Up to ``count`` random rectangles ``(a, b, c, d)`` in ``box1 x box2``.

    Every draw takes an x1 pair, then an x2 pair, before a degenerate one
    (``a == b`` or ``c == d``) is skipped, so skips never move the sequence.
    """
    for _ in range(count):
        a, b = sorted(rng.uniform(*box1, size=2).tolist())
        c, d = sorted(rng.uniform(*box2, size=2).tolist())
        if a < b and c < d:
            yield a, b, c, d


def run_property_audit(
    samples: SamplePairs,
    *,
    rng_seed: int = 0,
    n_probes: int = 200,
    n_rectangles: int = 1000,
) -> list[PropertyCheck]:
    """Run the full CDF property suite against one pair sample.

    Count-level identities (bounds, monotonicity, limits at the sample
    extremes, rectangle inclusion-exclusion, event containment) must hold
    exactly; the independence factorization is held to a fixed tolerance on
    a quantile probe grid, both named in that check's detail.  Probe points
    and rectangles are drawn deterministically from ``rng_seed``.
    """
    rng = np.random.default_rng(rng_seed)
    lo1, hi1 = float(samples.x1.min()), float(samples.x1.max())
    lo2, hi2 = float(samples.x2.min()), float(samples.x2.max())
    span1 = (hi1 - lo1) or 1.0
    span2 = (hi2 - lo2) or 1.0
    # probes come from the sample range widened by a tenth of its span
    box1 = (lo1 - 0.1 * span1, hi1 + 0.1 * span1)
    box2 = (lo2 - 0.1 * span2, hi2 + 0.1 * span2)

    px1 = rng.uniform(*box1, size=n_probes)
    px2 = rng.uniform(*box2, size=n_probes)
    values = [joint_cdf(samples, a, b) for a, b in zip(px1, px2)]
    bound_gap = max(0.0, -min(values), max(values) - 1.0)
    checks = [_exact("bounds", bound_gap, f"0 <= F <= 1 on {n_probes} probe points")]

    worst = 0.0
    for a, b, c, d in _rectangles(rng, box1, box2, n_probes):
        fac = joint_cdf(samples, a, c)
        fbc = joint_cdf(samples, b, c)
        fbd = joint_cdf(samples, b, d)
        worst = max(worst, fac - fbc, fbc - fbd)
    checks.append(
        _exact("monotonicity", worst, f"F(a,c) <= F(b,c) <= F(b,d) on {n_probes} random quadruples")
    )

    top = joint_cdf(samples, hi1, hi2)
    checks.append(
        _exact("limit-at-upper-extreme", abs(top - 1.0), "F at the sample maxima equals 1 exactly")
    )

    below1 = joint_cdf(samples, lo1 - 0.5 * span1, hi2)
    below2 = joint_cdf(samples, hi1, lo2 - 0.5 * span2)
    checks.append(
        _exact(
            "limit-below-minimum",
            max(below1, below2),
            "F below the sample minimum in either coordinate equals 0",
        )
    )

    # two separate count routes, so their agreement is not a tautology
    n = len(samples)
    worst_count = 0
    for rect in _rectangles(rng, box1, box2, n_rectangles):
        direct = round(interval_prob(samples, *rect) * n)
        corners = round(interval_via_cdf(samples, *rect) * n)
        worst_count = max(worst_count, abs(direct - corners))
    checks.append(
        _exact(
            "interval-identity",
            float(worst_count),
            f"direct count equals corner combination on {n_rectangles} rectangles",
        )
    )

    worst = 0.0
    for a, b in zip(px1, px2):
        joint = joint_cdf(samples, a, b)
        cap = min(marginal_cdf_x1(samples, a), marginal_cdf_x2(samples, b))
        worst = max(worst, joint - cap)
    checks.append(
        _exact("event-containment", worst, "F(x1,x2) <= min(F1(x1), F2(x2)) on probe points")
    )

    report = independence_check(samples, quantile_grid(samples))
    checks.append(
        PropertyCheck(
            name="independence-factorization",
            passed=report.passed,
            max_deviation=report.max_abs_deviation,
            detail=(
                f"max |joint - product| over {_GRID_SIZE}x{_GRID_SIZE} quantile grid,"
                f" tolerance {_INDEPENDENCE_TOLERANCE}"
            ),
        )
    )
    return checks
