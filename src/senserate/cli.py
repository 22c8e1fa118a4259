"""Command-line front end: sampling, CDF property audits, and SER analysis.

Exit codes: 0 success, 1 usage or parameter-domain error, 2 property-audit
failure.  All commands are deterministic: the same argv (including --seed)
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import Iterable

from . import __version__, cdf, samplers, senseamp

_DEFAULT_SEED = 42
_DEFAULT_N = 100_000


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit 2 is reserved for audit failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _n_and_seed(args) -> tuple[int, int]:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
    return args.n, args.seed


def _bits_value(value: int) -> int:
    if not 1 <= value <= samplers.MAX_TRUNCATION_BITS:
        raise ValueError(
            f"--bits must be in [1, {samplers.MAX_TRUNCATION_BITS}], got {value}"
        )
    return value


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.writelines(chunks)


def _sample_pairs(args) -> cdf.SamplePairs:
    bits = _bits_value(args.bits)
    if args.dist == "std-uniform-pair":
        spec = samplers.RvPairSpec.standard_uniform(bits)
    else:
        spec = samplers.RvPairSpec.gaussian(args.mu, args.sigma, bits)
    n, seed = _n_and_seed(args)
    return samplers.sample_many(spec, n, seed)


def _sense_params(args) -> senseamp.SenseAmpParams:
    flag_values = {
        "--v-low": args.v_low,
        "--v-high": args.v_high,
        "--sigma": args.sigma,
        "--delta": args.delta,
        "--chi": args.chi,
    }
    if args.params is not None:
        given = [flag for flag, value in flag_values.items() if value is not None]
        if given:
            raise ValueError(
                f"--params cannot be combined with {', '.join(given)}"
            )
        return senseamp.SenseAmpParams.from_json(Path(args.params).read_text())
    missing = [flag for flag, value in flag_values.items() if value is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join(missing)}")
    return senseamp.SenseAmpParams(
        v_low=args.v_low,
        v_high=args.v_high,
        noise_sigma=args.sigma,
        delta=args.delta,
        chi=args.chi,
    )


def _cmd_sample(args) -> int:
    # one block of text at a time, so memory does not grow with the output
    _emit(cdf._csv_chunks(_sample_pairs(args)), args.out)
    return 0


def _cmd_cdf_props(args) -> int:
    checks = cdf.run_property_audit(_sample_pairs(args), rng_seed=args.seed)
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}: max deviation"
        f" {c.max_deviation:.6g} ({c.detail})"
        for c in checks
    ]
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if all(c.passed for c in checks) else 2


def _cmd_ser(args) -> int:
    params = _sense_params(args)
    n, seed = _n_and_seed(args)
    result = senseamp.evaluate(params, n, seed)
    _emit([json.dumps(result.to_dict(), indent=2) + "\n"], args.out)
    return 0


def _cmd_sweep(args) -> int:
    params = _sense_params(args)
    n, seed = _n_and_seed(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"--values must be comma-separated floats, got {args.values!r}")
    # a warning reads like an error: the message alone, with no source location
    with warnings.catch_warnings(record=True) as caught:
        rows = senseamp.sweep(params, args.axis, values, n, seed)
    for warning in caught:
        sys.stderr.write(f"senserate: warning: {warning.message}\n")
    _emit([senseamp.sweep_to_csv(rows)], args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=_DEFAULT_SEED,
        help=f"64-bit unsigned RNG seed (default {_DEFAULT_SEED})",
    )
    parser.add_argument(
        "--n", type=int, default=_DEFAULT_N,
        help=f"number of pairs / trials, >= 1 (default {_DEFAULT_N})",
    )
    parser.add_argument("--out", metavar="PATH", default=None, help="output file (default stdout)")


def _add_dist(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dist", choices=["std-uniform-pair", "gaussian-pair"],
        default="std-uniform-pair", help="pair distribution (default std-uniform-pair)",
    )
    parser.add_argument("--mu", type=float, default=0.0, help="gaussian mean (default 0)")
    parser.add_argument("--sigma", type=float, default=1.0, help="gaussian deviation (default 1)")
    parser.add_argument(
        "--bits", type=int, default=samplers.DEFAULT_TRUNCATION_BITS,
        help=f"uniform truncation depth in bits (default {samplers.DEFAULT_TRUNCATION_BITS})",
    )


def _add_sense(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--v-low", type=float, default=None, help="line-1 level magnitude, volts (> 0)")
    parser.add_argument("--v-high", type=float, default=None, help="line-2 level magnitude, volts (> 0)")
    parser.add_argument("--sigma", type=float, default=None, help="thermal noise deviation, volts (> 0)")
    parser.add_argument("--delta", type=float, default=None, help="insensitivity width factor in [0, 1]")
    parser.add_argument("--chi", type=float, default=None, help="threshold offset factor in [0, 1]")
    parser.add_argument("--params", metavar="PATH", default=None, help="JSON parameter file (alternative to the five flags)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="senserate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("sample", help="draw pairs and emit them as CSV")
    _add_dist(p)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("cdf-props", help="audit the CDF property suite on sampled pairs")
    _add_dist(p)
    _add_common(p)
    p.set_defaults(func=_cmd_cdf_props)

    p = sub.add_parser("ser", help="evaluate the soft error rate (JSON)")
    _add_sense(p)
    _add_common(p)
    p.set_defaults(func=_cmd_ser)

    p = sub.add_parser("sweep", help="sweep one parameter axis (CSV)")
    _add_sense(p)
    p.add_argument("--axis", choices=list(senseamp.SWEEP_AXES), required=True, help="swept parameter")
    p.add_argument("--values", required=True, help="comma-separated axis values")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"senserate: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
