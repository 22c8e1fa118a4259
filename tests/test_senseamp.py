import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from senserate.bitstream import substream_seed
from senserate.normal import q_function, q_reference
from senserate.samplers import BLOCK_PAIRS, RvPairSpec, sample_many
from senserate.senseamp import (
    DEEP_TAIL_CUTOFF,
    SenseAmpParams,
    SerResult,
    detection_error_probs,
    evaluate,
    ser_analytical,
    ser_monte_carlo,
    ser_probabilistic,
    sweep,
    sweep_to_csv,
    _analytical_terms,
    _evaluate_many,
    _mc_rows,
)

# frozen oracle values (fixed-step quadrature rule, confirmed independently)
Q1 = 0.15865525393145705
Q3 = 0.0013498980316300945
Q24 = 0.008197535924596129
WORKED_SER = 0.004773716978113112  # 0.5 * (Q3 + Q24)


def params(v=3.0, sigma=1.0, delta=0.0, chi=0.0, v_low=None, v_high=None):
    return SenseAmpParams(
        v_low=v if v_low is None else v_low,
        v_high=v if v_high is None else v_high,
        noise_sigma=sigma,
        delta=delta,
        chi=chi,
    )


def test_params_validation():
    with pytest.raises(ValueError):
        params(v_low=0.0)
    with pytest.raises(ValueError):
        params(v_high=-1.0)
    with pytest.raises(ValueError):
        params(sigma=0.0)
    with pytest.raises(ValueError):
        params(delta=1.5)
    with pytest.raises(ValueError):
        params(chi=-0.1)
    for field, value in (
        ("v_low", math.inf),
        ("v_high", math.nan),
        ("noise_sigma", math.inf),
        ("delta", math.nan),
        ("chi", -math.inf),
    ):
        values = dict(v_low=3.0, v_high=3.0, noise_sigma=1.0, delta=0.0, chi=0.0)
        values[field] = value
        with pytest.raises(ValueError, match=field):
            SenseAmpParams(**values)


def test_params_reject_overflowing_margins():
    # every field is valid alone, but the standardized margins overflow
    with pytest.raises(ValueError, match="noise_sigma"):
        params(v=1e308, sigma=1e-308)
    # the erfc argument v / (sqrt(2) sigma) overflows while the Q arguments
    # do not: rejected at symmetric levels, where the closed form needs it
    with pytest.raises(ValueError, match="noise_sigma"):
        params(v=1e308, sigma=0.35, delta=1.0)
    # asymmetric levels have no closed form, so the exact route still runs
    result = evaluate(params(v_low=0.9e308, v_high=1e308, sigma=0.35, delta=1.0), 10, 1)
    assert result.analytical is None
    assert result.exact_cdf == 0.0
    assert result.analytical_only


def test_derived_quantities_scale_with_v_high():
    p = params(v=2.0, delta=0.4, chi=0.25)
    assert p.insensitivity_width == 0.4 * 2.0
    assert p.center_deviation == 0.25 * 2.0


def _with_peak(fn):
    """``fn()`` and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_params_json_round_trip():
    p = params(delta=0.2, chi=0.1)
    text = json.dumps(p.to_dict())
    assert SenseAmpParams.from_json(text) == p


def test_params_json_rejects_unknown_and_missing_keys():
    good = params().to_dict()
    bad = dict(good)
    bad["temperature"] = 300.0
    with pytest.raises(ValueError, match="unknown parameter keys: temperature"):
        SenseAmpParams.from_json(json.dumps(bad))
    short = dict(good)
    del short["chi"]
    with pytest.raises(ValueError, match="missing parameter keys: chi"):
        SenseAmpParams.from_json(json.dumps(short))
    wrong = dict(good)
    wrong["delta"] = "zero"
    with pytest.raises(ValueError, match="must be a number"):
        SenseAmpParams.from_json(json.dumps(wrong))
    huge = dict(good)
    huge["delta"] = 10**400
    with pytest.raises(ValueError, match="parameter delta is out of float range"):
        SenseAmpParams.from_json(json.dumps(huge))
    with pytest.raises(ValueError):
        SenseAmpParams.from_json("[1, 2]")


def test_detection_probs_symmetric_point():
    p1, p2 = detection_error_probs(params(v=3.0))
    assert abs(p1 - Q3) < 1e-12
    assert abs(p2 - Q3) < 1e-12


def test_detection_probs_shifted_threshold():
    # chi=1 puts the threshold on the high mean: line 1 sees 2V, line 2 sees 0
    p1, p2 = detection_error_probs(params(v=2.0, chi=1.0))
    assert abs(p1 - q_function(4.0)) < 1e-12
    assert abs(p2 - 0.5) < 1e-12


def test_ser_probabilistic_is_equal_weight_average():
    p = params(delta=0.3, chi=0.2)
    p1, p2 = detection_error_probs(p)
    assert ser_probabilistic(p) == 0.5 * (p1 + p2)


def test_ser_probabilistic_known_point():
    assert abs(ser_probabilistic(params(v=3.0)) - Q3) < 1e-12


def test_ser_probabilistic_noiseless_limit():
    assert ser_probabilistic(params(v=38.0)) < 1e-300


def test_ser_analytical_known_points():
    assert abs(ser_analytical(params(v=3.0)) - Q3) < 1e-12
    worked = ser_analytical(params(delta=0.2, chi=0.1))
    assert abs(worked - WORKED_SER) < 1e-7
    assert abs(worked - 0.5 * (q_reference(3.0) + q_reference(2.4))) < 1e-10
    assert abs(worked - 4.7737e-3) < 1e-6


def test_ser_analytical_near_zero_signal():
    # the coin-flip limit: erfc(0) = 1 on both terms
    p = params(v=1e-12)
    assert abs(ser_analytical(p) - 0.5) < 1e-12
    assert abs(ser_probabilistic(p) - 0.5) < 1e-12


def test_ser_analytical_rejects_asymmetric_levels():
    with pytest.raises(ValueError, match="symmetric"):
        ser_analytical(params(v_low=2.0, v_high=3.0))


def test_analytical_terms_swap_under_role_exchange():
    # with symmetric levels, exchanging which line carries which level flips
    # the sign of the threshold offset: each term is the other's image under
    # chi -> -chi
    from senserate.normal import erfc

    def term(level, sigma, delta, signed_chi):
        return 0.25 * float(
            erfc(level / (math.sqrt(2.0) * sigma) * (1.0 - 0.5 * delta + signed_chi))
        )

    p = params(v=2.5, delta=0.4, chi=0.3)
    term_high, term_low = _analytical_terms(p)
    assert term_high == term(p.v_high, p.noise_sigma, p.delta, p.chi)
    assert term_low == term(p.v_low, p.noise_sigma, p.delta, -p.chi)


def test_closed_form_equivalence_spot_grid():
    # v = 9 and 12 reach rates of 1e-19 to 1e-33, where only a relative
    # bound says anything
    for v in (0.5, 2.0, 5.0, 9.0, 12.0):
        for delta in (0.0, 0.5, 1.0):
            for chi in (0.0, 0.3, 1.0):
                p = params(v=v, delta=delta, chi=chi)
                analytical = ser_analytical(p)
                assert abs(analytical - ser_probabilistic(p)) <= 1e-12 * analytical


def test_monte_carlo_deterministic():
    p = params(v=1.0)
    a = ser_monte_carlo(p, 50_000, 42)
    b = ser_monte_carlo(p, 50_000, 42)
    assert a == b


def test_monte_carlo_chunking_is_invisible():
    p = params(v=1.0, delta=0.2, chi=0.1)
    whole = ser_monte_carlo(p, 100_000, 7)
    chunked = ser_monte_carlo(p, 100_000, 7, chunk_size=7919)
    assert whole == chunked


def test_monte_carlo_memory_is_bounded():
    p = params(v=1.0, delta=0.2, chi=0.1)
    default, peak = _with_peak(lambda: ser_monte_carlo(p, 1_000_000, 1))
    # one million trials held at once would take about 80 MB
    assert peak <= 16 * 2**20, peak
    assert default == ser_monte_carlo(p, 1_000_000, 1, chunk_size=1_000_000)


def _reference_mc(p, n, seed):
    """One row by the per-row loop: all ``n`` trials in one draw, counted apart."""
    g = sample_many(RvPairSpec.gaussian(0.0, 1.0), n, seed)
    low_edge = p.center_deviation - 0.5 * p.insensitivity_width
    high_edge = p.center_deviation + 0.5 * p.insensitivity_width
    hits_low = int(np.count_nonzero(-p.v_low + p.noise_sigma * g.x1 > low_edge))
    hits_high = int(np.count_nonzero(p.v_high + p.noise_sigma * g.x2 <= high_edge))
    p1, p2 = hits_low / n, hits_high / n
    stderr = math.sqrt((p1 * (1.0 - p1) + p2 * (1.0 - p2)) / (4 * n))
    return (hits_low + hits_high) / (2 * n), stderr


@pytest.mark.parametrize("n", [70_001, 3, 1])
def test_rows_drawn_together_equal_each_row_alone(n):
    # rows 1 and 3 are analytical_only; at n = 70 001 the three Monte Carlo
    # rows meet inside the second and third blocks
    points = [
        params(v=1.0, delta=0.2, chi=0.1),
        params(v=12.0),
        params(v_low=2.0, v_high=3.0, delta=0.3, chi=0.05),
        params(v_low=0.9e308, v_high=1e308, sigma=0.35, delta=1.0),
        params(v=0.5, chi=1.0),
    ]
    seeds = [substream_seed(11, row) for row in range(len(points))]
    together = _evaluate_many(points, seeds, n)
    assert together == [evaluate(p, n, seed) for p, seed in zip(points, seeds)]
    assert [r.analytical_only for r in together] == [False, True, False, True, False]
    mc_points = [(p, seed) for p, seed, r in zip(points, seeds, together) if not r.analytical_only]
    expected = [_reference_mc(p, n, seed) for p, seed in mc_points]
    assert [(r.monte_carlo, r.mc_stderr) for r in together if not r.analytical_only] == expected
    # blocks smaller than a row, spanning rows, and at small n of one trial
    steps = [4999, 2 * n + 1] + ([1] if n <= 3 else [])
    for step in steps:
        assert _mc_rows(*zip(*mc_points), n, step) == expected


def test_sweep_memory_is_one_block():
    base = params(v=3.0, delta=0.2, chi=0.1)
    _, block = _with_peak(lambda: ser_monte_carlo(base, BLOCK_PAIRS, 1))
    # sweep-tail's axis: 768 Monte Carlo rows of 1000 trials, 12 blocks
    snr = [k / 100 for k in range(100, 1601)]
    _, peak = _with_peak(lambda: sweep(base, "snr", snr, 1000, 42))
    assert peak <= 1.5 * block, (peak, block)


def test_monte_carlo_covers_true_rate():
    p = params(v=1.0)
    estimate, stderr = ser_monte_carlo(p, 100_000, 42)
    assert abs(estimate - Q1) <= 4.0 * stderr
    # the estimate averages 2n Bernoulli trials: n per line, each at its own rate
    g = sample_many(RvPairSpec.gaussian(0.0, 1.0), 100_000, 42)
    p1 = np.count_nonzero(-1.0 + g.x1 > 0.0) / 100_000
    p2 = np.count_nonzero(1.0 + g.x2 <= 0.0) / 100_000
    assert stderr == math.sqrt((p1 * (1.0 - p1) + p2 * (1.0 - p2)) / (4 * 100_000))


def _consistency_grid():
    """Parameter grid points whose closed-form rate is at least 1e-3."""
    grid = []
    for v in (0.5, 1.0, 2.0, 3.0, 5.0):
        for delta in np.linspace(0.0, 1.0, 11):
            for chi in np.linspace(0.0, 1.0, 11):
                p = params(v=v, delta=round(float(delta), 10), chi=round(float(chi), 10))
                if ser_analytical(p) >= 1e-3:
                    grid.append(p)
    return grid


def _assert_mc_within_band(p, n, seed):
    estimate, stderr = ser_monte_carlo(p, n, seed)
    gap = abs(estimate - ser_analytical(p))
    assert gap <= 4.0 * stderr, (p, estimate, stderr)


def test_monte_carlo_consistency_grid_subsample():
    # every 25th qualifying point at full trial count; the complete grid
    # runs under `pytest -m slow`
    grid = _consistency_grid()
    for p in grid[::25]:
        _assert_mc_within_band(p, 1_000_000, 42)


@pytest.mark.slow
def test_monte_carlo_consistency_full_grid():
    for p in _consistency_grid():
        _assert_mc_within_band(p, 1_000_000, 42)


def test_monte_carlo_unreachable_thresholds():
    p = params(v=1.0, sigma=1e-12)
    estimate, stderr = ser_monte_carlo(p, 10_000, 1)
    assert estimate == 0.0
    assert stderr == 0.0


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        ser_monte_carlo(params(), 0, 1)
    with pytest.raises(ValueError):
        ser_monte_carlo(params(), 10, 1, chunk_size=0)


def test_evaluate_populates_all_routes():
    result = evaluate(params(v=1.0), 20_000, 42)
    assert isinstance(result, SerResult)
    assert abs(result.analytical - result.exact_cdf) <= 1e-12
    assert result.monte_carlo is not None
    assert abs(result.monte_carlo - result.analytical) <= 4.0 * result.mc_stderr
    assert not result.analytical_only
    assert result.n_samples == 20_000
    assert result.seed == 42


def test_evaluate_skips_monte_carlo_in_deep_tail():
    result = evaluate(params(v=12.0), 1000, 42)
    assert result.analytical < DEEP_TAIL_CUTOFF
    assert result.analytical_only
    assert result.monte_carlo is None
    assert result.mc_stderr is None


def test_evaluate_asymmetric_levels_fall_back_to_exact_cdf():
    result = evaluate(params(v_low=2.0, v_high=3.0), 5000, 42)
    assert result.analytical is None
    assert 0.0 <= result.exact_cdf <= 1.0
    assert result.monte_carlo is not None


def test_evaluate_is_invariant_under_power_of_two_scaling():
    # scaling every voltage by 2**k is exact in float64 and leaves every
    # standardized margin and every drawn trial's decision as it was
    points = [
        params(v=1.0, delta=0.2, chi=0.1),
        params(v_low=2.0, v_high=3.0, delta=0.3, chi=0.05),
        params(v=3.0, sigma=0.7, delta=1.0, chi=0.3),
        params(v=12.0),
    ]
    for base in points:
        expected = evaluate(base, 2000, 7)
        for k in range(-20, 21):
            scale = 2.0**k
            scaled = replace(
                base,
                v_low=base.v_low * scale,
                v_high=base.v_high * scale,
                noise_sigma=base.noise_sigma * scale,
            )
            assert evaluate(scaled, 2000, 7) == expected, (base, k)


def test_rates_never_fall_as_delta_grows():
    # at one seed the draws stay the same, and a wider band only adds hits
    deltas = [k / 20 for k in range(21)]
    for v, chi in ((1.0, 0.0), (2.0, 0.1), (3.0, 0.3), (2.5, 1.0)):
        results = [evaluate(params(v=v, delta=d, chi=chi), 5000, 3) for d in deltas]
        for a, b in zip(results, results[1:]):
            assert b.monte_carlo >= a.monte_carlo, (v, chi)
            assert b.exact_cdf >= a.exact_cdf, (v, chi)


def test_sweep_single_value_matches_direct_calls():
    base = params(v=1.0, delta=0.2, chi=0.1)
    rows = sweep(base, "delta", [0.2], 10_000, 42)
    assert len(rows) == 1
    value, result = rows[0]
    assert value == 0.2
    direct = evaluate(base, 10_000, substream_seed(42, 0))
    assert result == direct


def test_sweep_chi_example():
    rows = sweep(params(v=3.0), "chi", [0.0, 0.1], 1000, 1)
    analytical = [r.analytical for _, r in rows]
    assert abs(analytical[0] - q_reference(3.0)) < 1e-10
    expected = 0.5 * (q_reference(3.3) + q_reference(2.7))
    assert abs(analytical[1] - expected) < 1e-10


def test_sweep_snr_monotone_non_increasing():
    rows = sweep(params(v=1.0, delta=0.2, chi=0.1), "snr", [0.5, 1.0, 2.0, 3.0, 5.0], 1000, 3)
    rates = [r.analytical for _, r in rows]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_sweep_rejects_invalid_value_up_front():
    with pytest.raises(ValueError, match="1.5"):
        sweep(params(), "delta", [0.0, 1.5], 1000, 1)
    with pytest.raises(ValueError, match="axis"):
        sweep(params(), "voltage", [1.0], 1000, 1)
    with pytest.raises(ValueError):
        sweep(params(), "delta", [], 1000, 1)


def test_sweep_warns_when_monotonicity_unguaranteed():
    base = params(v=1.0, delta=1.0, chi=1.0)
    with pytest.warns(UserWarning, match="monotone"):
        sweep(base, "snr", [1.0, 2.0], 100, 1)


def test_sweep_csv_layout():
    rows = sweep(params(v=1.0), "delta", [0.0, 0.4], 1000, 5)
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "axis_value,analytical,exact_cdf,monte_carlo,mc_stderr,n_samples"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == 1000


def test_sweep_csv_blank_fields_in_deep_tail():
    rows = sweep(params(v=12.0), "delta", [0.0], 1000, 5)
    line = sweep_to_csv(rows).strip().split("\n")[1]
    fields = line.split(",")
    assert fields[3] == "" and fields[4] == ""
