import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import senserate
from senserate import cdf, cli
from senserate.cdf import BLOCK_PAIRS, PropertyCheck, samples_from_csv
from senserate.samplers import RvPairSpec, sample_many
from senserate.senseamp import SenseAmpParams, evaluate, sweep, sweep_to_csv

SER_ARGS = [
    "ser", "--v-high", "3", "--v-low", "3", "--sigma", "1",
    "--delta", "0", "--chi", "0",
]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ser_rejects_zero_trials(capsys):
    code, _, err = run(SER_ARGS + ["--n", "0"], capsys)
    assert code == 1
    assert "--n" in err and ">= 1" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(["ser", "--frequency", "3"], capsys)
    assert code == 1
    assert "error" in err


def test_unknown_command_exits_one(capsys):
    code, _, _ = run(["simulate"], capsys)
    assert code == 1


def test_malformed_number_exits_one(capsys):
    code, _, err = run(SER_ARGS[:-1] + ["abc", "--n", "10"], capsys)
    assert code == 1
    assert "invalid" in err


def test_ser_emits_complete_json(capsys):
    code, out, _ = run(SER_ARGS + ["--n", "1000", "--seed", "42"], capsys)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "analytical", "exact_cdf", "monte_carlo", "mc_stderr",
        "n_samples", "seed", "analytical_only",
    }
    assert abs(data["analytical"] - 1.3498980e-3) < 1e-9
    assert data["n_samples"] == 1000
    assert data["seed"] == 42
    direct = evaluate(
        SenseAmpParams(3.0, 3.0, 1.0, 0.0, 0.0), 1000, 42
    )
    assert data["analytical"] == direct.analytical
    assert data["monte_carlo"] == direct.monte_carlo


def test_ser_monte_carlo_consistent_with_analytical(capsys):
    code, out, _ = run(SER_ARGS + ["--n", "100000", "--seed", "42"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["monte_carlo"] - data["analytical"]) <= 4.0 * data["mc_stderr"]


def test_ser_deterministic_output(capsys):
    argv = SER_ARGS + ["--n", "2000", "--seed", "9"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_ser_params_file(tmp_path, capsys):
    path = tmp_path / "amp.json"
    path.write_text(json.dumps(
        {"v_low": 3.0, "v_high": 3.0, "noise_sigma": 1.0, "delta": 0.0, "chi": 0.0}
    ))
    code, out, _ = run(["ser", "--params", str(path), "--n", "500", "--seed", "1"], capsys)
    assert code == 0
    assert abs(json.loads(out)["analytical"] - 1.3498980e-3) < 1e-9


def test_ser_params_file_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "amp.json"
    path.write_text(json.dumps({"v_low": 3.0, "v_high": 3.0, "noise_sigma": 1.0,
                                "delta": 0.0, "chi": 0.0, "vdd": 1.2}))
    code, _, err = run(["ser", "--params", str(path)], capsys)
    assert code == 1
    assert "vdd" in err


def test_ser_params_file_rejects_huge_integer(tmp_path, capsys):
    path = tmp_path / "amp.json"
    path.write_text('{"v_low": 3.0, "v_high": 3.0, "noise_sigma": 1.0, '
                    '"delta": 1' + "0" * 400 + ', "chi": 0.0}')
    code, out, err = run(["ser", "--params", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("senserate: error: ") and "delta" in err
    assert "Traceback" not in err


def test_ser_params_file_conflicts_with_flags(tmp_path, capsys):
    path = tmp_path / "amp.json"
    path.write_text(json.dumps({"v_low": 3.0, "v_high": 3.0, "noise_sigma": 1.0,
                                "delta": 0.0, "chi": 0.0}))
    code, _, err = run(["ser", "--params", str(path), "--delta", "0.5"], capsys)
    assert code == 1
    assert "--delta" in err


def test_ser_missing_flags_named(capsys):
    code, _, err = run(["ser", "--v-high", "3"], capsys)
    assert code == 1
    assert "--v-low" in err and "--sigma" in err


def test_ser_domain_violation_exits_one(capsys):
    code, _, err = run(
        ["ser", "--v-high", "3", "--v-low", "3", "--sigma", "-1",
         "--delta", "0", "--chi", "0", "--n", "10"],
        capsys,
    )
    assert code == 1
    assert "noise_sigma" in err


def test_sample_csv_output(tmp_path, capsys):
    out_path = tmp_path / "pairs.csv"
    code, _, _ = run(
        ["sample", "--dist", "std-uniform-pair", "--n", "50", "--seed", "4",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("x1,x2\n")
    back = samples_from_csv(text)
    assert len(back) == 50
    assert np.all((back.x1 >= 0.0) & (back.x1 < 1.0))


def test_sample_gaussian_needs_valid_sigma(capsys):
    code, _, err = run(
        ["sample", "--dist", "gaussian-pair", "--sigma", "0", "--n", "10"], capsys
    )
    assert code == 1
    assert "sigma" in err


def test_sample_bits_out_of_range(capsys):
    code, _, err = run(["sample", "--bits", "54", "--n", "10"], capsys)
    assert code == 1
    assert "--bits" in err


def test_cdf_props_passes_and_reports_each_property(capsys):
    code, out, _ = run(
        ["cdf-props", "--dist", "std-uniform-pair", "--n", "20000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines)
    assert any("interval-identity" in line for line in lines)


def test_cdf_props_output_is_exact(capsys):
    # the uniform kind calls no libm, so these bytes hold on every host
    code, out, _ = run(
        ["cdf-props", "--dist", "std-uniform-pair", "--n", "20000", "--seed", "7"], capsys
    )
    assert code == 0
    assert out == (
        "PASS bounds: max deviation 0 (0 <= F <= 1 on 200 probe points)\n"
        "PASS monotonicity: max deviation 0"
        " (F(a,c) <= F(b,c) <= F(b,d) on 200 random quadruples)\n"
        "PASS limit-at-upper-extreme: max deviation 0"
        " (F at the sample maxima equals 1 exactly)\n"
        "PASS limit-below-minimum: max deviation 0"
        " (F below the sample minimum in either coordinate equals 0)\n"
        "PASS interval-identity: max deviation 0"
        " (direct count equals corner combination on 1000 rectangles)\n"
        "PASS event-containment: max deviation 0"
        " (F(x1,x2) <= min(F1(x1), F2(x2)) on probe points)\n"
        "PASS independence-factorization: max deviation 0.002975"
        " (max |joint - product| over 5x5 quantile grid, tolerance 0.01)\n"
    )


def test_cdf_props_failure_exits_two(monkeypatch, capsys):
    failing = [PropertyCheck(name="bounds", passed=False, max_deviation=0.5, detail="x")]
    monkeypatch.setattr(cdf, "run_property_audit", lambda *a, **k: failing)
    monkeypatch.setattr(cli.cdf, "run_property_audit", lambda *a, **k: failing)
    code, out, _ = run(["cdf-props", "--n", "100"], capsys)
    assert code == 2
    assert out.startswith("FAIL")


def test_sweep_csv(capsys):
    code, out, _ = run(
        ["sweep", "--v-high", "3", "--v-low", "3", "--sigma", "1", "--delta", "0",
         "--chi", "0", "--axis", "chi", "--values", "0,0.1", "--n", "200", "--seed", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "axis_value,analytical,exact_cdf,monte_carlo,mc_stderr,n_samples"
    assert len(lines) == 3


def test_sweep_warning_prints_the_message_alone(capsys):
    base = SenseAmpParams(v_low=1.0, v_high=1.0, noise_sigma=0.25, delta=1.0, chi=1.0)
    with pytest.warns(UserWarning, match="monotone"):
        expected = sweep_to_csv(sweep(base, "snr", [1.0, 2.0], 100, 42))
    code, out, err = run(
        ["sweep", "--v-low", "1", "--v-high", "1", "--sigma", "0.25", "--delta", "1",
         "--chi", "1", "--axis", "snr", "--values", "1,2", "--n", "100"],
        capsys,
    )
    assert code == 0
    assert out == expected
    assert err == (
        "senserate: warning: 1 - delta/2 - chi is negative: the analytical rate"
        " need not be monotone along an snr sweep\n"
    )


def test_sweep_rejects_bad_values_list(capsys):
    code, _, err = run(
        ["sweep", "--v-high", "3", "--v-low", "3", "--sigma", "1", "--delta", "0",
         "--chi", "0", "--axis", "chi", "--values", "0,zebra", "--n", "10"],
        capsys,
    )
    assert code == 1
    assert "--values" in err


def test_sweep_requires_axis(capsys):
    code, _, _ = run(
        ["sweep", "--v-high", "3", "--v-low", "3", "--sigma", "1", "--delta", "0",
         "--chi", "0", "--values", "0.1", "--n", "10"],
        capsys,
    )
    assert code == 1


def test_help_shows_defaults(capsys):
    code, out, _ = run(["ser", "--help"], capsys)
    assert code == 0
    assert "default 42" in out
    assert "default 100000" in out


def test_seed_range_enforced(capsys):
    code, _, err = run(SER_ARGS + ["--seed", str(1 << 64), "--n", "10"], capsys)
    assert code == 1
    assert "--seed" in err


@pytest.mark.parametrize("v", ["3", "12"])
def test_ser_json_key_order(v, capsys):
    argv = ["ser", "--v-low", v, "--v-high", v, "--sigma", "1", "--delta", "0", "--chi", "0"]
    code, out, _ = run(argv + ["--n", "100"], capsys)
    assert code == 0
    assert list(json.loads(out)) == [
        "analytical", "exact_cdf", "monte_carlo", "mc_stderr",
        "n_samples", "seed", "analytical_only",
    ]


@pytest.mark.parametrize("command", ["sample", "cdf-props"])
def test_sampling_help_shows_defaults(command, capsys):
    code, out, _ = run([command, "--help"], capsys)
    assert code == 0
    text = " ".join(out.split())
    for default in ("(default 42)", "(default 100000)", "(default 52)"):
        assert default in text


def test_sample_output_is_the_same_bytes_everywhere(tmp_path, capsys):
    n = 2 * BLOCK_PAIRS + 3
    argv = ["sample", "--dist", "gaussian-pair", "--n", str(n), "--seed", "5"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    path = tmp_path / "pairs.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    expected = cdf.samples_to_csv(sample_many(RvPairSpec.gaussian(0.0, 1.0), n, 5))
    assert out == expected
    assert path.read_bytes() == expected.encode()


def test_sample_memory_grows_with_the_pairs_not_the_text(tmp_path):
    def peak(blocks):
        argv = ["sample", "--n", str(blocks * BLOCK_PAIRS), "--out", str(tmp_path / "p.csv")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = peak(8) - peak(2)
    # six more blocks of pairs take 6 MiB; holding their text as well would
    # add about 28 MiB more
    assert growth <= 8 * 2**20, growth


@pytest.mark.parametrize(
    "argv, named",
    [
        (["ser", "--v-low", "1e308", "--v-high", "1e308", "--sigma", "1e-308",
          "--delta", "0", "--chi", "0"], "noise_sigma"),
        (["cdf-props", "--dist", "gaussian-pair", "--mu", "1e308", "--sigma", "1e308"],
         "gaussian-pair"),
    ],
)
def test_overflowing_parameters_fail_before_any_kernel(argv, named):
    # a fresh interpreter, so numpy's warnings reach stderr as a user sees them
    path = [str(Path(senserate.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "senserate.cli", *argv, "--n", "50"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("senserate: error: ") and named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
