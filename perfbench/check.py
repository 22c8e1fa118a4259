"""Output checks for the benchmark workloads.

Every check returns a list of error strings; an empty list means the output
is correct.  ``accuracy`` measures the SER routes against the 50-digit
reference table (``reference.json``).

Run as a program, it checks one output file and prints one JSON verdict:

    python3 perfbench/check.py --workload-json JSON --seed S --exit-code C --output FILE
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# sha256 digests at the default seed and the default sizes, recorded at the
# commit that introduced the benchmark.  Drawn bits must never move; the
# analytical and exact SER columns are not pinned because correctness work
# on the normal kernel legitimately changes them.
PINNED = {
    "sample-gauss": "dff00973fcdc497a2261c81a50818c714998f46940f5511117eeed69ad2f0e43",
    "cdf-audit": "e2c1297c1c099338db21c816c03d045019443c2955d01e12b0c767638839a173",
    "ser-mc": "f39f40770ef2e1b22e526764b28990ff276a172730fb3cb779bcf664d0f26102",
    "sweep-tail": "d485ce432eb4e64da12579900748710167d292592d18576b54cba8c977c594dc",
}

AUDIT_NAMES = (
    "bounds",
    "monotonicity",
    "limit-at-upper-extreme",
    "limit-below-minimum",
    "interval-identity",
    "event-containment",
    "independence-factorization",
)

SWEEP_HEADER = "axis_value,analytical,exact_cdf,monte_carlo,mc_stderr,n_samples"

# acceptance-suite bounds: MC within 4 standard errors, exact within 1e-12
MC_SIGMAS = 4.0
EXACT_TOLERANCE = 1e-12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_digest(workload: Workload, seed: int) -> str | None:
    """The pinned digest for this run, or None when none applies."""
    if seed != DEFAULT_SEED or workload != WORKLOADS.get(workload.name):
        return None
    return PINNED[workload.name]


def _check_pin(workload: Workload, seed: int, digest: str, what: str) -> list[str]:
    pin = pinned_digest(workload, seed)
    if pin is not None and digest != pin:
        return [f"{what} sha256 {digest} differs from the pinned {pin}"]
    return []


def column_digest(values: list[str]) -> str:
    return sha256("\n".join(values).encode())


def _sample_rows(workload: Workload) -> list[int]:
    n = workload.n
    return sorted({i for i in (0, 1, 2, 999, n // 3, n // 2, n - 2, n - 1) if 0 <= i < n})


def check_sample_gauss(workload: Workload, seed: int, exit_code: int, out: bytes) -> list[str]:
    """Header, row count, full re-encoding against the batch kernel, and
    fixed rows against the scalar (Python bit-loop) Box-Muller path."""
    from senserate import bitstream, samplers

    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        text = out.decode("ascii")
    except UnicodeDecodeError:
        return ["output is not ASCII"]
    lines = text.split("\n")
    errors = []
    if lines[0] != "x1,x2":
        errors.append(f"header {lines[0]!r}, expected 'x1,x2'")
    if lines[-1] != "":
        errors.append("output does not end with a newline")
    rows = lines[1:-1]
    if len(rows) != workload.n:
        return errors + [f"{len(rows)} rows, expected {workload.n}"]
    for i in _sample_rows(workload):
        pair = samplers.gaussian_pair(0.0, 1.0, bitstream.substream(seed, i))
        want = f"{pair.g1!r},{pair.g2!r}"
        if rows[i] != want:
            errors.append(f"row {i} is {rows[i]!r}, scalar path gives {want!r}")
    pairs = samplers.sample_many(samplers.RvPairSpec.gaussian(0.0, 1.0), workload.n, seed)
    for i, (a, b) in enumerate(zip(pairs.x1.tolist(), pairs.x2.tolist())):
        if rows[i] != f"{a!r},{b!r}":
            errors.append(f"row {i} is {rows[i]!r}, batch kernel gives {a!r},{b!r}")
            break
    return errors + _check_pin(workload, seed, sha256(out), "output")


def check_cdf_audit(workload: Workload, seed: int, exit_code: int, out: bytes) -> list[str]:
    """Exit 0 and one PASS line per audited property, in order."""
    errors = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    lines = out.decode("ascii", errors="replace").splitlines()
    names = []
    for line in lines:
        status, _, rest = line.partition(" ")
        names.append(rest.split(":", 1)[0])
        if status != "PASS":
            errors.append(f"audit line is not PASS: {line!r}")
    if tuple(names) != AUDIT_NAMES:
        errors.append(f"audit properties {names}, expected {list(AUDIT_NAMES)}")
    return errors + _check_pin(workload, seed, sha256(out), "output")


def _reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _rel_err(value: float | None, ref: float) -> float:
    if value is None or not math.isfinite(value):
        return math.inf
    return abs(value - ref) / ref


def check_ser_mc(workload: Workload, seed: int, exit_code: int, out: bytes) -> list[str]:
    """MC within 4 stderr of analytical; exact within 1e-12 of analytical."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        result = json.loads(out)
        an, ex = float(result["analytical"]), float(result["exact_cdf"])
        mc, se = float(result["monte_carlo"]), float(result["mc_stderr"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output is not a complete SER result: {exc!r}"]
    errors = []
    if result.get("n_samples") != workload.n or result.get("seed") != seed:
        errors.append(f"n_samples/seed {result.get('n_samples')}/{result.get('seed')},"
                      f" expected {workload.n}/{seed}")
    if not all(math.isfinite(v) for v in (an, ex, mc, se)):
        errors.append("non-finite SER value")
    elif abs(mc - an) > MC_SIGMAS * se:
        errors.append(f"monte_carlo {mc!r} is {abs(mc - an) / se:.2f} stderr from analytical {an!r}")
    if not abs(ex - an) <= EXACT_TOLERANCE:
        errors.append(f"exact_cdf {ex!r} differs from analytical {an!r} by more than {EXACT_TOLERANCE}")
    return errors + _check_pin(workload, seed, column_digest([repr(mc)]), "monte_carlo")


def _sweep_rows(out: bytes) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(out.decode("ascii", errors="replace")))
    header = next(reader, [])
    return header, list(reader)


def check_sweep_tail(workload: Workload, seed: int, exit_code: int, out: bytes) -> list[str]:
    """One row per value, in order; analytical finite and non-increasing."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    header, rows = _sweep_rows(out)
    if ",".join(header) != SWEEP_HEADER:
        return [f"header {header}, expected {SWEEP_HEADER}"]
    if len(rows) != len(workload.values) or any(len(r) != 6 for r in rows):
        return [f"{len(rows)} rows of 6 fields expected {len(workload.values)}"]
    errors = []
    given = [repr(float(v)) for v in workload.values]
    if [r[0] for r in rows] != given:
        errors.append("axis values are not the given values in the given order")
    if any(r[5] != str(workload.n) for r in rows):
        errors.append(f"n_samples column is not {workload.n} throughout")
    try:
        analytical = [float(r[1]) for r in rows]
    except ValueError as exc:
        return errors + [f"analytical column does not parse: {exc}"]
    if not all(math.isfinite(a) for a in analytical):
        errors.append("analytical column has a non-finite value")
    for i in range(1, len(analytical)):
        if analytical[i] > analytical[i - 1]:
            errors.append(f"analytical increases at row {i}: {analytical[i - 1]!r} -> {analytical[i]!r}")
            break
    return errors + _check_pin(workload, seed, column_digest([r[3] for r in rows]), "monte_carlo")


CHECKS = {
    "sample-gauss": check_sample_gauss,
    "cdf-audit": check_cdf_audit,
    "ser-mc": check_ser_mc,
    "sweep-tail": check_sweep_tail,
}


def accuracy(workload: Workload, out: bytes) -> dict[str, float]:
    """Max relative error of the analytical and exact_cdf routes against the
    50-digit reference, over all output rows.  Empty for workloads that
    print no SER."""
    ref = _reference()
    if workload.name == "ser-mc":
        result = json.loads(out)
        pairs = [(result["analytical"], result["exact_cdf"], float(ref["ser-mc"]["ser"]))]
    elif workload.name == "sweep-tail":
        table = ref["sweep-tail"]["ser"]
        _, rows = _sweep_rows(out)
        pairs = [
            (float(r[1]) if r[1] else None, float(r[2]), float(table[v]))
            for v, r in zip(workload.values, rows)
        ]
    else:
        return {}
    return {
        "ser_rel_err": max(_rel_err(an, r) for an, _, r in pairs),
        "exact_rel_err": max(_rel_err(ex, r) for _, ex, r in pairs),
    }


def verdict(workload: Workload, seed: int, exit_code: int, out: bytes) -> dict:
    errors = CHECKS[workload.name](workload, seed, exit_code, out)
    acc = {} if errors else accuracy(workload, out)
    return {"ok": not errors, "errors": errors, "accuracy": acc}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload-json", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--exit-code", type=int, required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    workload = Workload.from_json(args.workload_json)
    out = Path(args.output).read_bytes()
    print(json.dumps(verdict(workload, args.seed, args.exit_code, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
