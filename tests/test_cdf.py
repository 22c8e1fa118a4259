import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senserate import cdf
from senserate.cdf import (
    SamplePairs,
    independence_check,
    interval_prob,
    interval_via_cdf,
    joint_cdf,
    ks_pvalue,
    ks_statistic,
    marginal_cdf_x1,
    marginal_cdf_x2,
    quantile_grid,
    run_property_audit,
    samples_from_csv,
    samples_to_csv,
)
from senserate.samplers import RvPairSpec, sample_many


def pairs_of(*pts) -> SamplePairs:
    return SamplePairs(
        x1=np.array([p[0] for p in pts], dtype=float),
        x2=np.array([p[1] for p in pts], dtype=float),
    )


def brute_joint(pts, x1, x2) -> float:
    return sum(1 for a, b in pts if a <= x1 and b <= x2) / len(pts)


def brute_rect(pts, a, b, c, d) -> float:
    return sum(1 for p, q in pts if a < p <= b and c < q <= d) / len(pts)


DIAGONAL = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]


def test_joint_cdf_matches_brute_force():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    samples = pairs_of(*pts)
    assert joint_cdf(samples, 1.0, 1.0) == brute_joint(pts, 1.0, 1.0) == 2.0 / 3.0
    assert joint_cdf(samples, -1.0, -1.0) == 0.0
    assert joint_cdf(samples, 2.0, 2.0) == 1.0


def test_marginals_drop_the_other_coordinate():
    pts = [(0.0, 5.0), (1.0, -5.0)]
    samples = pairs_of(*pts)
    assert marginal_cdf_x1(samples, 0.0) == 0.5
    assert marginal_cdf_x2(samples, -5.0) == 0.5
    assert marginal_cdf_x1(samples, 1.0) == 1.0
    # containment: the joint event is inside each marginal event
    assert joint_cdf(samples, 0.0, 100.0) <= marginal_cdf_x1(samples, 0.0)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        SamplePairs(x1=np.array([]), x2=np.array([]))
    with pytest.raises(ValueError):
        SamplePairs(x1=np.array([1.0, np.nan]), x2=np.array([0.0, 0.0]))


def test_interval_prob_on_diagonal():
    samples = pairs_of(*DIAGONAL)
    assert interval_prob(samples, 0.0, 2.0, 0.0, 2.0) == 0.5
    assert interval_prob(samples, -1.0, 3.0, -1.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        interval_prob(samples, 2.0, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        interval_via_cdf(samples, 0.0, 1.0, 5.0, 4.0)


def test_interval_via_cdf_equals_direct_count():
    samples = pairs_of(*DIAGONAL)
    assert interval_via_cdf(samples, 0.0, 2.0, 0.0, 2.0) == 0.5
    assert interval_via_cdf(samples, 0.0, 2.0, 0.0, 2.0) == interval_prob(
        samples, 0.0, 2.0, 0.0, 2.0
    )
    # all-enclosing rectangle: corner terms vanish
    assert interval_via_cdf(samples, -10.0, 10.0, -10.0, 10.0) == 1.0


def test_interval_identity_exact_on_gaussian_sample():
    samples = sample_many(RvPairSpec.gaussian(0.0, 1.0), 10_000, 11)
    rng = np.random.default_rng(5)
    n = len(samples)
    for _ in range(1000):
        a, b = np.sort(rng.uniform(-4.0, 4.0, size=2))
        c, d = np.sort(rng.uniform(-4.0, 4.0, size=2))
        if a == b or c == d:
            continue
        direct = interval_prob(samples, a, b, c, d)
        corners = interval_via_cdf(samples, a, b, c, d)
        assert round(direct * n) == round(corners * n)
        assert direct == corners


@settings(max_examples=100, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=30
    ),
    rect=st.tuples(
        st.integers(-6, 6), st.integers(1, 4), st.integers(-6, 6), st.integers(1, 4)
    ),
)
def test_count_identities_hold_for_any_small_sample(pts, rect):
    a, width, c, height = rect
    b, d = a + width, c + height
    samples = pairs_of(*[(float(p), float(q)) for p, q in pts])
    fpts = [(float(p), float(q)) for p, q in pts]
    assert joint_cdf(samples, a, c) == brute_joint(fpts, a, c)
    assert interval_prob(samples, a, b, c, d) == brute_rect(fpts, a, b, c, d)
    assert interval_via_cdf(samples, a, b, c, d) == interval_prob(samples, a, b, c, d)
    # monotonicity in each argument
    assert joint_cdf(samples, a, c) <= joint_cdf(samples, b, c) <= joint_cdf(samples, b, d)


def test_independence_fails_on_comonotone_sample():
    samples = pairs_of(*DIAGONAL)
    report = independence_check(samples, [(1.0, 1.0)], tolerance=0.05)
    assert report.max_abs_deviation == 0.25
    assert not report.passed


def test_independence_passes_on_uniform_pairs():
    samples = sample_many(RvPairSpec.standard_uniform(), 100_000, 42)
    report = independence_check(samples, quantile_grid(samples, 5), tolerance=0.01)
    assert report.passed


def test_independence_degenerate_single_sample():
    samples = pairs_of((2.0, 3.0))
    report = independence_check(samples, [(2.0, 3.0)], tolerance=0.05)
    assert report.max_abs_deviation == 0.0
    assert report.passed


def test_independence_input_validation():
    samples = pairs_of(*DIAGONAL)
    with pytest.raises(ValueError):
        independence_check(samples, [], tolerance=0.05)
    with pytest.raises(ValueError):
        independence_check(samples, [(1.0, 1.0)], tolerance=0.0)


def test_quantile_grid_shape():
    samples = sample_many(RvPairSpec.standard_uniform(), 1000, 3)
    grid = quantile_grid(samples, 5)
    assert len(grid) == 25
    assert all(0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 for a, b in grid)


def test_ks_statistic_at_uniform_quantiles():
    n = 9
    xs = [(i + 1) / (n + 1) for i in range(n)]
    stat = ks_statistic(xs, lambda x: np.clip(x, 0.0, 1.0))
    assert stat <= 2.0 / (n + 1)


def test_ks_statistic_single_sample_at_median():
    assert ks_statistic([0.5], lambda x: np.clip(x, 0.0, 1.0)) == 0.5


def test_ks_rejects_degenerate_reference():
    with pytest.raises(ValueError):
        ks_statistic([0.1, 0.5, 0.9], lambda x: np.zeros_like(x))
    with pytest.raises(ValueError):
        ks_statistic([0.1, 0.5], lambda x: np.ones_like(x) * 2.0)
    with pytest.raises(ValueError):
        ks_statistic([0.1, 0.5], lambda x: -x)
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: x)
    with pytest.raises(ValueError, match="shape"):
        ks_statistic([0.1, 0.5, 0.9], lambda x: x[:-1])


def test_ks_pvalue_behaviour():
    assert ks_pvalue(0.0, 100) == 1.0
    assert ks_pvalue(0.5, 100) < 1e-6
    # mid-range statistic has a mid-range p
    p = ks_pvalue(0.05, 400)
    assert 0.1 < p < 0.9
    with pytest.raises(ValueError):
        ks_pvalue(0.1, 0)


def test_csv_round_trip_is_exact():
    samples = sample_many(RvPairSpec.gaussian(0.0, 1.0), 500, 13)
    text = samples_to_csv(samples)
    assert text.startswith("x1,x2\n")
    back = samples_from_csv(text)
    assert np.array_equal(back.x1, samples.x1)
    assert np.array_equal(back.x2, samples.x2)


def test_csv_rejects_malformed_input():
    with pytest.raises(ValueError):
        samples_from_csv("a,b\n1,2\n")
    with pytest.raises(ValueError):
        samples_from_csv("x1,x2\n1,2,3\n")


def test_property_audit_passes_on_sampled_pairs(monkeypatch):
    samples = sample_many(RvPairSpec.standard_uniform(), 20_000, 7)
    rectangles = []

    def recording(s, *rect):
        rectangles.append(rect)
        return interval_prob(s, *rect)

    monkeypatch.setattr(cdf, "interval_prob", recording)
    checks = run_property_audit(samples, rng_seed=7, n_rectangles=200, n_probes=100)
    assert [c.name for c in checks] == [
        "bounds",
        "monotonicity",
        "limit-at-upper-extreme",
        "limit-below-minimum",
        "interval-identity",
        "event-containment",
        "independence-factorization",
    ]
    assert all(c.passed for c in checks)
    assert [c.max_deviation for c in checks[:-1]] == [0.0] * 6
    assert checks[0].detail == "0 <= F <= 1 on 100 probe points"
    assert checks[1].detail.endswith("on 100 random quadruples")
    assert checks[4].detail.endswith("on 200 rectangles")
    # the probe sequence: 100 points, then 100 quadruples and 200
    # rectangles, each an x1 pair followed by an x2 pair
    rng = np.random.default_rng(7)
    boxes = []
    for x in (samples.x1, samples.x2):
        lo, hi = float(x.min()), float(x.max())
        boxes.append((lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)))
    rng.uniform(*boxes[0], size=100)
    rng.uniform(*boxes[1], size=100)
    draws = [[sorted(rng.uniform(*box, size=2).tolist()) for box in boxes] for _ in range(300)]
    assert rectangles == [(a, b, c, d) for (a, b), (c, d) in draws[100:]]


def test_property_audit_flags_dependent_pairs():
    base = sample_many(RvPairSpec.standard_uniform(), 20_000, 7)
    comonotone = SamplePairs(x1=base.x1, x2=base.x1)
    checks = run_property_audit(comonotone, rng_seed=7, n_rectangles=50, n_probes=50)
    by_name = {c.name: c for c in checks}
    assert not by_name["independence-factorization"].passed
    assert by_name["independence-factorization"].max_deviation > 0.01
    # the count-level identities still hold even for dependent data
    assert all(c.passed and c.max_deviation == 0.0 for c in checks[:-1])
    assert by_name["interval-identity"].detail.endswith("on 50 rectangles")
