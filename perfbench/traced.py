"""Traced run of one workload: per-layer spans, counts and self times.

Usage:

    python3 perfbench/traced.py --workload-json JSON --seed S --spawn-ns T \
        --out FILE --spans FILE --result FILE

It calls ``senserate.cli.main`` in-process with the workload's argv, after
wrapping the public functions of each module where their caller looks them
up.  Each call records a span (name, start, end, parent span, run id); spans
stay in memory and are written to ``--spans`` when the run ends.  Self time
is a span's duration minus that of its direct child spans.  Like an
untraced run, the CLI prints to this process's stdout and its exit code is
this process's; the per-layer metrics go to ``--result`` as JSON.

After the traced call the wrappers are removed and a few layers are timed
in isolation on the workload's index range: seed derivation, standard
uniform pairs, Box-Muller, and the tracemalloc peak of the largest Monte
Carlo call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from senserate import cdf, cli, normal, samplers, senseamp
from workloads import Workload

QUERIES = ("joint_cdf", "marginal_cdf_x1", "marginal_cdf_x2", "interval_prob", "interval_via_cdf")
NORMAL_SPANS = ("normal.q_function", "normal.erfc")
TAIL_SWITCH = 8.0
MC_SIGMAS = 4.0


def _draw_note(args, kwargs, result):
    spec, _, indices = args
    return {"pairs": len(indices), "bits": spec.truncation_bits}


def _mc_note(args, kwargs, result):
    params, n, seed = args[:3]
    return {"n": n, "seed": seed, "params": params}


def _eval_note(args, kwargs, result):
    return {
        "analytical_only": result.analytical_only,
        "analytical": result.analytical,
        "exact": result.exact_cdf,
        "mc": result.monte_carlo,
        "stderr": result.mc_stderr,
    }


# (module the caller looks the name up in, attribute, span name, note)
WRAPS = [
    (samplers, "substream_seeds_np", "bitstream.substream_seeds_np", None),
    (samplers, "draw_indices", "samplers.draw_indices", _draw_note),
    (senseamp, "draw_indices", "samplers.draw_indices", _draw_note),
    (samplers, "box_muller", "samplers.box_muller", None),
    (senseamp, "evaluate", "senseamp.evaluate", _eval_note),
    (senseamp, "ser_probabilistic", "senseamp.ser_probabilistic", None),
    (senseamp, "ser_analytical", "senseamp.ser_analytical", None),
    (senseamp, "ser_monte_carlo", "senseamp.ser_monte_carlo", _mc_note),
    (normal, "q_function", "normal.q_function", lambda a, k, r: {"x": a[0]}),
    (normal, "erfc", "normal.erfc", None),
    *[(cdf, q, f"cdf.{q}", None) for q in QUERIES],
    (cdf, "run_property_audit", "cdf.run_property_audit", None),
    (cdf, "samples_to_csv", "cdf.samples_to_csv", lambda a, k, r: {"bytes": len(r)}),
    (cli, "main", "cli.main", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0
        self.note = None


class Tracer:
    """Records spans from wrappers installed on module attributes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr, name, note=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def dump(self, path: str) -> None:
        def plain(o):
            return o.tolist() if hasattr(o, "tolist") else repr(o)

        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = {"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                          "parent": s.parent, "run_id": self.run_id, "note": s.note}
                fh.write(json.dumps(record, default=plain) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics derived from the spans of one traced run."""
    dur = [(s.end - s.start) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    def self_time(name):
        return sum(dur[i] - child[i] for i in by_name.get(name, ()))

    m: dict[str, float] = {}
    draws = by_name.get("samplers.draw_indices", [])
    pairs = sum(spans[i].note["pairs"] for i in draws)
    m["bitstream.words"] = 4 * pairs
    m["samplers.draw_s"] = total("samplers.draw_indices")
    m["samplers.draw_self_s"] = self_time("samplers.draw_indices")
    m["samplers.pairs"] = pairs
    m["samplers.bits_drawn"] = sum(2 * spans[i].note["bits"] * spans[i].note["pairs"] for i in draws)
    m["samplers.draw_calls"] = len(draws)
    m["samplers.pairs_per_s"] = _ratio(pairs, m["samplers.draw_s"])

    m["cdf.csv_s"] = total("cdf.samples_to_csv")
    m["cdf.csv_bytes"] = sum(spans[i].note["bytes"] for i in by_name.get("cdf.samples_to_csv", ()))
    m["cdf.csv_mb_per_s"] = _ratio(m["cdf.csv_bytes"] / 1e6, m["cdf.csv_s"])
    m["cdf.audit_s"] = total("cdf.run_property_audit")
    m["cdf.audit_self_s"] = self_time("cdf.run_property_audit")
    m["cdf.audit_queries"] = sum(len(by_name.get(f"cdf.{q}", ())) for q in QUERIES)
    m["cdf.audit_us_per_query"] = _ratio(m["cdf.audit_s"] * 1e6, m["cdf.audit_queries"])

    calls = {"direct": 0, "tail": 0, "reflect": 0}
    busy = dict.fromkeys(calls, 0.0)
    for i in by_name.get("normal.q_function", ()):
        x = np.asarray(spans[i].note["x"], dtype=np.float64).ravel()
        counts = {
            "direct": int(np.count_nonzero(np.abs(x) <= TAIL_SWITCH)),
            "tail": int(np.count_nonzero(x > TAIL_SWITCH)),
            "reflect": int(np.count_nonzero(x < -TAIL_SWITCH)),
        }
        for branch, k in counts.items():
            calls[branch] += k
            busy[branch] += dur[i] * k / max(x.size, 1)
    for branch in calls:
        m[f"normal.q_calls.{branch}"] = calls[branch]
        m[f"normal.q_us.{branch}"] = _ratio(busy[branch] * 1e6, calls[branch])
    m["normal.q_busy_s"] = sum(
        dur[i] for name in NORMAL_SPANS for i in by_name.get(name, ())
        if spans[i].parent < 0 or spans[spans[i].parent].name not in NORMAL_SPANS
    )
    m["normal.erfc_calls"] = len(by_name.get("normal.erfc", ()))

    points = [spans[i].note for i in by_name.get("senseamp.evaluate", ())]
    mc_points = [p for p in points if not p["analytical_only"]]
    m["senseamp.points"] = len(points)
    m["senseamp.points_mc"] = len(mc_points)
    m["senseamp.points_analytical_only"] = len(points) - len(mc_points)
    mc_calls = by_name.get("senseamp.ser_monte_carlo", [])
    m["senseamp.mc_s"] = total("senseamp.ser_monte_carlo")
    m["senseamp.mc_self_s"] = self_time("senseamp.ser_monte_carlo")
    m["senseamp.mc_trials_per_s"] = _ratio(sum(spans[i].note["n"] for i in mc_calls), m["senseamp.mc_s"])
    m["senseamp.mc_ms_per_point"] = _ratio(m["senseamp.mc_s"] * 1e3, len(mc_calls))
    m["senseamp.routes_self_s"] = self_time("senseamp.ser_probabilistic") + self_time("senseamp.ser_analytical")
    m["senseamp.mc_zero_hit_points"] = sum(1 for p in mc_points if p["mc"] == 0.0)
    m["senseamp.mc_outside_4sigma"] = sum(
        1 for p in mc_points
        if abs(p["mc"] - (p["exact"] if p["analytical"] is None else p["analytical"])) > MC_SIGMAS * p["stderr"]
    )

    m["cli.main_s"] = total("cli.main")
    m["cli.self_s"] = self_time("cli.main")
    m["trace.spans"] = len(spans)
    return m


def _median_time(fn, reps: int = 3):
    times, result = [], None
    for _ in range(reps):
        t = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times), result


def isolated_metrics(spans: list[Span], seed: int) -> dict[str, float]:
    """Layers timed on their own, over the largest traced call's inputs."""
    m = dict.fromkeys(
        ("bitstream.seed_derive_s", "samplers.uniform_pairs_s", "samplers.box_muller_s",
         "senseamp.mc_peak_alloc_mb"), 0.0)
    draws = [s.note for s in spans if s.name == "samplers.draw_indices"]
    if draws:
        biggest = max(draws, key=lambda d: d["pairs"])
        idx = np.arange(biggest["pairs"], dtype=np.uint64)
        spec = samplers.RvPairSpec.standard_uniform(biggest["bits"])
        m["bitstream.seed_derive_s"], _ = _median_time(lambda: samplers.substream_seeds_np(seed, idx))
        m["samplers.uniform_pairs_s"], (u1, u2) = _median_time(lambda: samplers.draw_indices(spec, seed, idx))
        m["samplers.box_muller_s"], _ = _median_time(lambda: samplers.box_muller(1.0 - u1, u2))
        del u1, u2
    mc = [s.note for s in spans if s.name == "senseamp.ser_monte_carlo"]
    if mc:
        call = max(mc, key=lambda c: c["n"])
        tracemalloc.start()
        try:
            senseamp.ser_monte_carlo(call["params"], call["n"], call["seed"])
            m["senseamp.mc_peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="traced run of one benchmark workload")
    parser.add_argument("--workload-json", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC ns at which the parent spawned this process")
    parser.add_argument("--out", required=True, help="output path for workloads that write with --out")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workload = Workload.from_json(args.workload_json)

    tracer = Tracer(f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    for owner, attr, name, note in WRAPS:
        tracer.wrap(owner, attr, name, note)
    code = cli.main(workload.argv(args.seed, args.out))
    end_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    tracer.unwrap_all()

    metrics = layer_metrics(tracer.spans)
    metrics.update(isolated_metrics(tracer.spans, args.seed))
    tracer.dump(args.spans)
    result = {"exit_code": code, "main_end_s": (end_ns - args.spawn_ns) * 1e-9,
              "run_id": tracer.run_id, "metrics": metrics}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
