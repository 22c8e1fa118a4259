"""senserate benchmark: time the CLI end to end, check its outputs, trace layers.

Usage:

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each invocation spawns ``perfbench/launch.py``, which runs
``senserate.cli.main`` exactly as the console script does, with the program
imported from ``src/`` of this checkout.  One process runs at a time.  An
invocation measures, from the moment it is spawned:

- ``setup_s``: until ``senserate.cli`` is imported;
- ``wall_s``: until the process has exited with its output written;
- ``work_per_s``: work units / (wall_s - setup_s);
- ``peak_rss_mb``: the process's own ru_maxrss from wait4.

The times are scaled to a reference host speed, because the shared host's
speed drifts by up to 1.5x within minutes: the benchmark times a fixed
calibration (``calibrate.py``) right before and after every invocation;
the mean of the two over ``REF_CAL_S`` is the host's slowdown ``k``.  The
set-up (an import) is divided by ``k``, and the rest of the invocation by
``h * k + 1 - h``, where ``h`` is the share of the workload's work that
slows down with the host (``Workload.host_share``).  The raw times are
reported beside them.

A run repeats the workload invocation with the same inputs until the next
one would end past ``--seconds`` of invocation time (at least three
invocations).  Before each, and after the last until there are
``SETUP_PROBES``, it spawns ``senserate --version``: each such probe adds a
set-up sample.  Each metric is the median over the invocations, never the
best.  Every output is checked (``check.py``); an output identical to one
already checked shares its verdict.

With ``--trace 1`` the run adds one traced in-process invocation
(``traced.py``) and reports per-layer metrics instead; its output must be
byte-identical to the untraced one.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the full report with run
metadata, also written to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import calibrate
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_INVOCATIONS = 3
# minimum `senserate --version` probes per run: import time is short and
# noisy, so set-up gets more samples than the workload itself
SETUP_PROBES = 10
# no child may outlive this many seconds after its run started
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "bitstream.seed_derive_s": "s",
    "bitstream.words": "count",
    "samplers.draw_s": "s",
    "samplers.draw_self_s": "s",
    "samplers.uniform_pairs_s": "s",
    "samplers.box_muller_s": "s",
    "samplers.pairs": "count",
    "samplers.bits_drawn": "count",
    "samplers.draw_calls": "count",
    "samplers.pairs_per_s": "1/s",
    "cdf.csv_s": "s",
    "cdf.csv_bytes": "bytes",
    "cdf.csv_mb_per_s": "MB/s",
    "cdf.audit_s": "s",
    "cdf.audit_self_s": "s",
    "cdf.audit_queries": "count",
    "cdf.audit_us_per_query": "us",
    "normal.q_calls.direct": "count",
    "normal.q_calls.tail": "count",
    "normal.q_calls.reflect": "count",
    "normal.q_us.direct": "us",
    "normal.q_us.tail": "us",
    "normal.q_us.reflect": "us",
    "normal.q_busy_s": "s",
    "normal.erfc_calls": "count",
    "senseamp.points": "count",
    "senseamp.points_mc": "count",
    "senseamp.points_analytical_only": "count",
    "senseamp.mc_s": "s",
    "senseamp.mc_self_s": "s",
    "senseamp.mc_trials_per_s": "1/s",
    "senseamp.mc_ms_per_point": "ms",
    "senseamp.mc_peak_alloc_mb": "MB",
    "senseamp.routes_self_s": "s",
    "senseamp.mc_zero_hit_points": "count",
    "senseamp.mc_outside_4sigma": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.cpu_util": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "ser_rel_err": "ratio",
    "exact_rel_err": "ratio",
    "failed_frac": "ratio",
    "host.cal_s": "s",
    "host.raw_setup_s": "s",
    "host.raw_wall_s": "s",
}


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # numpy's OpenBLAS starts a worker per core at import; on a 2-vCPU VM,
    # waking the idle vCPU made import time bimodal (0.15 s or 0.25 s).  The
    # program's only BLAS calls are small matrix-vector products, which
    # OpenBLAS runs on one thread anyway.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def preflight(env: dict[str, str]) -> str | None:
    """Why the program cannot be benchmarked here, or None.

    Importing once also compiles the package, so the timed invocations do
    not pay for bytecode compilation.
    """
    if not (SRC / "senserate" / "cli.py").is_file():
        return f"no senserate sources under {SRC}"
    probe = subprocess.run(
        [sys.executable, "-c", "import senserate.cli, senserate; print(senserate.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        return f"cannot import senserate.cli: {probe.stderr.strip()}"
    if Path(probe.stdout.strip()).resolve().parent != (SRC / "senserate").resolve():
        return f"senserate resolves to {probe.stdout.strip()}, not to {SRC}"
    return None


def spawn(cmd: list[str], stdout_path: Path, env: dict[str, str], timeout: float):
    """Run one child to completion; (spawn ns, exit ns, exit code, rusage)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = now_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
            t1 = now_ns()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, rusage


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_check(workload: Workload, seed: int, exit_code: int, output: Path, env) -> dict:
    cmd = [sys.executable, str(HERE / "check.py"), "--workload-json", workload.to_json(),
           "--seed", str(seed), "--exit-code", str(exit_code), "--output", str(output)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        return {"ok": False, "errors": [f"checker failed: {proc.stderr.strip()[-500:]}"], "accuracy": {}}
    return json.loads(proc.stdout.splitlines()[-1])


class Run:
    """The invocations of one workload at one seed, and their verdicts."""

    def __init__(self, workload: Workload, seed: int, env: dict[str, str]):
        self.workload, self.seed, self.env = workload, seed, env
        self.dir = WORK / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.started = time.monotonic()
        self.probes: list[dict] = []
        self.records: list[dict] = []
        self.verdicts: dict[tuple[int, str], dict] = {}
        self.traced: dict | None = None
        calibrate.host_cal_s()  # the first call also warms the allocator up
        self.cal_s = calibrate.host_cal_s()

    def _output(self, stem: str) -> tuple[Path, Path]:
        """(file the CLI's stdout goes to, file holding the output)."""
        stdout = self.dir / f"{stem}.stdout"
        return stdout, (self.dir / f"{stem}.out" if self.workload.out_flag else stdout)

    def _timeout(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def _verdict(self, exit_code: int, output: Path) -> tuple[str, dict]:
        digest = file_digest(output) if output.exists() else ""
        key = (exit_code, digest)
        if key not in self.verdicts:
            self.verdicts[key] = run_check(self.workload, self.seed, exit_code, output, self.env)
        return digest, self.verdicts[key]

    def _launch(self, argv: list[str], stdout: Path):
        """Spawn the CLI via launch.py.

        Returns (rusage, exit code, wall_s, setup_s, main_end_s): seconds
        from spawn to exit, to the end of the import, and to the return of
        ``cli.main`` (NaN if it never returned).
        """
        mark = self.dir / "mark"
        mark.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "launch.py"), str(mark), *argv]
        t0, t1, code, ru = spawn(cmd, stdout, self.env, self._timeout())
        wall_s = (t1 - t0) * 1e-9
        try:
            marks = [(int(t) - t0) * 1e-9 for t in mark.read_text().split()]
        except (OSError, ValueError):
            marks = []
        # without a mark the CLI never finished importing: all of it was set-up
        setup_s = marks[0] if marks else wall_s
        main_end_s = marks[1] if len(marks) > 1 else float("nan")
        return ru, code, wall_s, setup_s, main_end_s

    def _scaled(self, record: dict) -> dict:
        """Add the host-speed-scaled times to a record of raw times.

        The calibration is timed again now; the invocation is scaled by the
        mean of this and the previous calibration, which bracket it.
        """
        after = calibrate.host_cal_s()
        record["host_cal_s"] = (self.cal_s + after) / 2
        self.cal_s = after
        slowdown = record["host_cal_s"] / calibrate.REF_CAL_S
        share = self.workload.host_share
        record["setup_s"] = record["raw_setup_s"] / slowdown
        record["busy_s"] = (record["raw_wall_s"] - record["raw_setup_s"]) / (
            share * slowdown + 1.0 - share)
        record["wall_s"] = record["setup_s"] + record["busy_s"]
        return record

    def probe(self) -> None:
        """``senserate --version``: one more set-up sample at little cost."""
        stdout = self.dir / "probe.stdout"
        _, code, wall_s, setup_s, _ = self._launch(["--version"], stdout)
        ok = code == 0 and stdout.read_bytes().startswith(b"senserate ")
        self.probes.append(self._scaled(
            {"raw_wall_s": wall_s, "raw_setup_s": setup_s, "exit_code": code, "ok": ok}))

    def invoke(self) -> float:
        stdout, output = self._output("run")
        output.unlink(missing_ok=True)
        argv = self.workload.argv(self.seed, str(output))
        ru, code, wall_s, setup_s, main_end_s = self._launch(argv, stdout)
        record = self._scaled({"raw_wall_s": wall_s, "raw_setup_s": setup_s})
        digest, verdict = self._verdict(code, output)
        self.records.append({
            **record,
            "main_end_s": main_end_s,
            "work_per_s": self.workload.units / record["busy_s"] if record["busy_s"] > 0 else 0.0,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "cpu_util": (ru.ru_utime + ru.ru_stime) / wall_s,
            "exit_code": code,
            "sha256": digest,
            "output_bytes": output.stat().st_size if output.exists() else 0,
            "ok": verdict["ok"],
        })
        return wall_s

    def measure(self, seconds: float) -> None:
        """Invoke until the next invocation would end past ``seconds`` of
        invocation time, each after one set-up probe; then top the probes up
        to ``SETUP_PROBES``.  Spreading the probes over the run keeps one
        noisy moment from setting the set-up median."""
        spent = 0.0
        while True:
            self.probe()
            spent += self.invoke()
            typical = statistics.median(self.samples("raw_wall_s"))
            if len(self.records) >= MIN_INVOCATIONS and spent + typical > seconds:
                break
            if self._timeout() < 2 * typical + 30:
                break
        while len(self.probes) < SETUP_PROBES:
            self.probe()

    def trace(self) -> None:
        """One traced in-process invocation; its output must match untraced."""
        stdout, output = self._output("traced")
        output.unlink(missing_ok=True)
        result = self.dir / "traced.json"
        result.unlink(missing_ok=True)
        t0 = now_ns()
        cmd = [sys.executable, str(HERE / "traced.py"), "--workload-json", self.workload.to_json(),
               "--seed", str(self.seed), "--spawn-ns", str(t0), "--out", str(output),
               "--spans", str(self.dir / f"spans-seed{self.seed}.jsonl"), "--result", str(result)]
        _, _, code, _ = spawn(cmd, stdout, self.env, self._timeout())
        digest, verdict = self._verdict(code, output)
        untraced = {r["sha256"] for r in self.records}
        ok = code == 0 and verdict["ok"] and untraced == {digest}
        self.traced = {"exit_code": code, "sha256": digest, "ok": ok,
                       "identical_to_untraced": untraced == {digest}}
        if code == 0:
            self.traced.update(json.loads(result.read_text()))

    @property
    def attempted(self) -> int:
        return len(self.probes) + len(self.records) + (self.traced is not None)

    @property
    def failed(self) -> int:
        bad = sum(not r["ok"] for r in self.probes + self.records)
        return bad + (self.traced is not None and not self.traced["ok"])

    def samples(self, key: str) -> list[float]:
        """Per-invocation values; set-up also counts the --version probes."""
        records = self.probes + self.records if "setup_s" in key else self.records
        return [r[key] for r in records]

    def end_to_end(self) -> dict[str, float]:
        return {key: statistics.median(self.samples(key)) for key in END_TO_END_UNITS}

    def host(self) -> dict[str, float]:
        """Medians of the calibration time and of the unscaled times."""
        return {
            "host.cal_s": statistics.median(self.samples("host_cal_s")),
            "host.raw_setup_s": statistics.median(self.samples("raw_setup_s")),
            "host.raw_wall_s": statistics.median(self.samples("raw_wall_s")),
        }

    def accuracy(self) -> dict[str, float]:
        found: dict[str, float] = {}
        for verdict in self.verdicts.values():
            for key, value in verdict.get("accuracy", {}).items():
                found[key] = max(found.get(key, 0.0), value)
        return found

    def per_layer(self) -> dict[str, float]:
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        if self.traced and "metrics" in self.traced:
            metrics.update(self.traced["metrics"])
            untraced = statistics.median(self.samples("main_end_s"))
            metrics["trace.overhead_s"] = self.traced["main_end_s"] - untraced
        metrics["cli.output_bytes"] = statistics.median(self.samples("output_bytes"))
        metrics["cli.cpu_util"] = statistics.median(self.samples("cpu_util"))
        metrics.update(self.accuracy())
        metrics["failed_frac"] = self.failed / self.attempted
        metrics.update(self.host())
        return {key: metrics[key] for key in PER_LAYER_UNITS}


def high_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    k = len(values)
    if k < 11:
        return None
    return {"percentile": 100.0 * (k - 10) / k, "value": sorted(values)[k - 11]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "senserate").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 env: dict[str, str]) -> tuple[dict, dict]:
    """Measure one workload; returns (final result line, full report)."""
    run = Run(workload, seed, env)
    run.measure(seconds)
    if trace:
        run.trace()
        metrics = run.per_layer()
        units = PER_LAYER_UNITS
    else:
        metrics = run.end_to_end()
        units = END_TO_END_UNITS
    final = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": workload.sizes(),
        "argv": workload.argv(seed, "OUT"),
        "machine": machine(),
        "samples": {k: len(run.samples(k)) for k in END_TO_END_UNITS},
        "end_to_end": run.end_to_end(),
        "host": run.host(),
        "high_percentile": {k: high_percentile(run.samples(k)) for k in ("setup_s", "wall_s")},
        "cpu_util": statistics.median(run.samples("cpu_util")),
        "failed_frac": run.failed / run.attempted,
        "accuracy": run.accuracy(),
        "errors": sorted({e for v in run.verdicts.values() for e in v["errors"]}),
        "invocations": run.records,
        "probes": run.probes,
        "traced": run.traced,
        "result": final,
    }
    return final, report


def table(final: dict, report: dict) -> list[str]:
    n = len(report["invocations"])
    lines = [f"# {report['workload']} seed={report['seed']} trace={report['trace']}"
             f" invocations={n} attempted={final['attempted']} failed={final['failed']}"
             f" failed_frac={report['failed_frac']:.4g}"]
    for name, m in final["metrics"].items():
        count = f"median of {report['samples'][name]}" if name in END_TO_END_UNITS else "traced run"
        lines.append(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s} {count}")
    for name, hp in report["high_percentile"].items():
        if hp is not None:
            lines.append(f"  {name} p{hp['percentile']:.1f} = {hp['value']:.6g} s")
    for name, value in report["accuracy"].items() if not report["trace"] else ():
        lines.append(f"  {name:34s} {value:>14.6g} ratio  max over rows, vs 50-digit reference")
    for name, value in report["host"].items() if not report["trace"] else ():
        lines.append(f"  {name:34s} {value:>14.6g} s      median, unscaled")
    lines.extend(f"  ERROR {e}" for e in report["errors"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")

    env = child_env()
    problem = preflight(env)
    if problem is not None:
        sys.stderr.write(f"perfbench: {problem}\n")
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    finals = {}
    for name in names:
        final, report = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
        path = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print("\n".join(table(final, report)), flush=True)
        finals[name] = (final, report)
    if args.workload != "all":
        final, report = finals[args.workload]
        print(json.dumps(report))
        print(json.dumps(final))
    else:
        print(json.dumps({
            "correct": all(f["correct"] for f, _ in finals.values()),
            "attempted": sum(f["attempted"] for f, _ in finals.values()),
            "failed": sum(f["failed"] for f, _ in finals.values()),
            "workloads": {name: f["metrics"] for name, (f, _) in finals.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
