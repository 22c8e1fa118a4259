"""Tests of the benchmark itself, at tiny sizes.

Each output check accepts the CLI's real output and rejects a corrupted
one; every metric named in BENCHMARK.json is emitted with its unit; the
benchmark refuses to run where the program's sources are missing.

Run with:  PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import workloads
from senserate import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

TINY = {
    "sample-gauss": workloads.sample_gauss(n=50),
    "cdf-audit": workloads.cdf_audit(n=50_000),
    "ser-mc": workloads.ser_mc(n=20_000),
    "sweep-tail": workloads.sweep_tail(points=12, n=200),
}


def cli_output(workload: workloads.Workload, tmp_path: Path) -> tuple[int, bytes]:
    out_path = tmp_path / f"{workload.name}.out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(workload.argv(SEED, str(out_path)))
    if workload.out_flag:
        return code, out_path.read_bytes()
    return code, stdout.getvalue().encode()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    return {name: cli_output(w, tmp) for name, w in TINY.items()}


def errors_for(name: str, out: bytes, code: int = 0, workload=None) -> list[str]:
    return check.CHECKS[name](workload or TINY[name], SEED, code, out)


@pytest.mark.parametrize("name", list(TINY))
def test_real_output_passes(outputs, name):
    code, out = outputs[name]
    assert code == 0
    assert errors_for(name, out) == []


def _change_last_digit(out: bytes, row: int) -> bytes:
    lines = out.split(b"\n")
    line = bytearray(lines[row + 1])
    line[-1] = ord("0") + (line[-1] - ord("0") + 1) % 10
    lines[row + 1] = bytes(line)
    return b"\n".join(lines)


@pytest.mark.parametrize("row", [0, 5, 49])
def test_sample_gauss_rejects_one_changed_digit(outputs, row):
    _, out = outputs["sample-gauss"]
    bad = _change_last_digit(out, row)
    assert bad != out
    assert errors_for("sample-gauss", bad)


def test_sample_gauss_rejects_missing_row_and_header(outputs):
    _, out = outputs["sample-gauss"]
    lines = out.split(b"\n")
    assert errors_for("sample-gauss", b"\n".join(lines[:3] + lines[4:]))
    assert errors_for("sample-gauss", b"y1,y2\n" + b"\n".join(lines[1:]))


def test_cdf_audit_rejects_missing_or_failed_line(outputs):
    _, out = outputs["cdf-audit"]
    lines = out.decode().splitlines(keepends=True)
    assert errors_for("cdf-audit", "".join(lines[:3] + lines[4:]).encode())
    failed = "".join(lines[:-1] + ["FAIL" + lines[-1][4:]]).encode()
    assert errors_for("cdf-audit", failed)
    assert errors_for("cdf-audit", out, code=2)


def _with_field(out: bytes, **fields) -> bytes:
    result = json.loads(out)
    result.update(fields)
    return json.dumps(result, indent=2).encode() + b"\n"


def test_ser_mc_rejects_wrong_mc_or_exact(outputs):
    _, out = outputs["ser-mc"]
    result = json.loads(out)
    far = result["analytical"] + 5 * result["mc_stderr"]
    assert errors_for("ser-mc", _with_field(out, monte_carlo=far))
    assert errors_for("ser-mc", _with_field(out, exact_cdf=result["analytical"] * (1 + 1e-6)))
    assert errors_for("ser-mc", _with_field(out, monte_carlo=None))


def test_sweep_tail_rejects_reordered_missing_or_rising_rows(outputs):
    _, out = outputs["sweep-tail"]
    lines = out.decode().splitlines(keepends=True)
    swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
    assert errors_for("sweep-tail", "".join(swapped).encode())
    assert errors_for("sweep-tail", "".join(lines[:-1]).encode())
    fields = lines[5].split(",")
    fields[1] = repr(float(fields[1]) * 2)
    rising = lines[:5] + [",".join(fields)] + lines[6:]
    assert errors_for("sweep-tail", "".join(rising).encode())


def test_pinned_monte_carlo_value_at_default_seed():
    full = workloads.WORKLOADS["ser-mc"]
    assert check.pinned_digest(full, workloads.DEFAULT_SEED) is not None
    assert check.pinned_digest(full, SEED) is None
    assert check.pinned_digest(TINY["ser-mc"], workloads.DEFAULT_SEED) is None
    recorded = {
        "analytical": 0.0047737169781131095, "exact_cdf": 0.00477371697811307,
        "monte_carlo": 0.004790625, "mc_stderr": 3.452417599345919e-05,
        "n_samples": full.n, "seed": workloads.DEFAULT_SEED, "analytical_only": False,
    }
    out = json.dumps(recorded).encode()
    assert check.check_ser_mc(full, workloads.DEFAULT_SEED, 0, out) == []
    moved = _with_field(out, monte_carlo=0.004790626)
    assert check.check_ser_mc(full, workloads.DEFAULT_SEED, 0, moved)


def test_accuracy_is_relative_to_the_reference():
    ref = json.loads(check.REFERENCE.read_text())
    w = dataclasses.replace(TINY["sweep-tail"], values=("10.00", "16.00"), units=2)
    rows = [check.SWEEP_HEADER]
    for value, scale in zip(w.values, (1 + 1e-6, 1 + 3e-9)):
        true = float(ref["sweep-tail"]["ser"][value])
        rows.append(f"{float(value)!r},{true * scale!r},{true * (1 - 0.5)!r},,,{w.n}")
    acc = check.accuracy(w, ("\n".join(rows) + "\n").encode())
    assert acc["ser_rel_err"] == pytest.approx(1e-6, rel=1e-6)
    assert acc["exact_rel_err"] == pytest.approx(0.5, rel=1e-12)


def test_reference_table_covers_the_workloads():
    ref = json.loads(check.REFERENCE.read_text())
    assert list(ref["sweep-tail"]["ser"]) == list(workloads.WORKLOADS["sweep-tail"].values)
    flags = dict(zip(workloads.SENSE_POINT[::2], workloads.SENSE_POINT[1::2]))
    assert ref["ser-mc"]["params"]["delta"] == float(flags["--delta"])


@pytest.mark.parametrize("share", [1.0, 0.5, 0.0])
def test_times_are_scaled_by_the_bracketing_calibrations(monkeypatch, tmp_path, share):
    monkeypatch.setattr(run, "WORK", tmp_path)
    cals = iter([0.5, 0.1, 0.2])  # warm-up, before, after
    monkeypatch.setattr(run.calibrate, "host_cal_s", lambda: next(cals))
    w = dataclasses.replace(TINY["ser-mc"], host_share=share)
    record = run.Run(w, SEED, run.child_env())._scaled({"raw_setup_s": 0.5, "raw_wall_s": 2.5})
    slowdown = 0.15 / run.calibrate.REF_CAL_S
    assert record["host_cal_s"] == pytest.approx(0.15)
    assert record["setup_s"] == pytest.approx(0.5 / slowdown)
    assert record["busy_s"] == pytest.approx(2.0 / (share * slowdown + 1 - share))
    assert record["wall_s"] == pytest.approx(record["setup_s"] + record["busy_s"])


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile([1.0] * 10) is None
    hp = run.high_percentile([float(i) for i in range(20)])
    assert hp == {"percentile": 50.0, "value": 9.0}


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(monkeypatch, tmp_path, name):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_INVOCATIONS", 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = run.child_env()
    for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        final, report = run.run_workload(TINY[name], SEED, 0.0, trace, env)
        assert final["correct"], report["errors"]
        assert final["failed"] == 0
        assert final["attempted"] == 2 + trace
        assert report["samples"]["setup_s"] == 2
        emitted = {k: m["unit"] for k, m in final["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in declared}
        assert all(isinstance(m["value"], (int, float)) for m in final["metrics"].values())
    assert report["traced"]["identical_to_untraced"]
    layer = {k: m["value"] for k, m in final["metrics"].items()}
    assert layer["bitstream.words"] == 4 * layer["samplers.pairs"]
    assert layer["samplers.bits_drawn"] == 2 * 52 * layer["samplers.pairs"]
    assert layer["senseamp.points_mc"] == layer["samplers.draw_calls"] * (name in ("ser-mc", "sweep-tail"))
    q_calls = sum(layer[f"normal.q_calls.{b}"] for b in ("direct", "tail", "reflect"))
    assert q_calls == 4 * layer["senseamp.points"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ser-mc", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
