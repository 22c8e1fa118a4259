"""Write ``reference.json``: the true SER of the ser-mc and sweep-tail points.

The reference is the sense-amp soft error rate of the float parameters the
CLI actually holds, evaluated with mpmath at 50 significant digits:

    SER = (Q((c - h + v_low) / s) + Q((v_high - c - h) / s)) / 2,
    c = chi * v_high,  h = delta * v_high / 2,  Q(x) = erfc(x / sqrt 2) / 2.

Timed runs read the table, so they need no mpmath.  Regenerate with

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath

from workloads import SENSE_POINT, snr_values

DIGITS = 50
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def base_point() -> dict[str, float]:
    flags = dict(zip(SENSE_POINT[::2], SENSE_POINT[1::2]))
    return {
        "v_low": float(flags["--v-low"]),
        "v_high": float(flags["--v-high"]),
        "noise_sigma": float(flags["--sigma"]),
        "delta": float(flags["--delta"]),
        "chi": float(flags["--chi"]),
    }


def true_ser(p: dict[str, float]) -> str:
    with mpmath.workdps(DIGITS + 10):
        v_low, v_high, s, delta, chi = (
            mpmath.mpf(p[k]) for k in ("v_low", "v_high", "noise_sigma", "delta", "chi")
        )
        c = chi * v_high
        h = delta * v_high / 2

        def q(x):
            return mpmath.erfc(x / mpmath.sqrt(2)) / 2

        ser = (q((c - h + v_low) / s) + q((v_high - c - h) / s)) / 2
        return mpmath.nstr(ser, DIGITS, strip_zeros=False, min_fixed=1, max_fixed=0)


def build() -> dict:
    base = base_point()
    rows = {}
    for value in snr_values():
        # the CLI sets both levels to value * sigma in float arithmetic
        level = float(value) * base["noise_sigma"]
        rows[value] = true_ser({**base, "v_low": level, "v_high": level})
    return {
        "digits": DIGITS,
        "formula": "SER = (Q((c - h + v_low)/s) + Q((v_high - c - h)/s))/2, c = chi*v_high, h = delta*v_high/2",
        "ser-mc": {"params": base, "ser": true_ser(base)},
        "sweep-tail": {"base": base, "axis": "snr", "ser": rows},
    }


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {REFERENCE}")
