"""DRAM sense-amplifier soft-error-rate model under Gaussian bit-line noise.

The two bit lines carry nominal levels ``-v_low`` and ``+v_high`` and are
read through thermal noise of deviation ``noise_sigma``.  A non-ideal
amplifier has an insensitivity band of width ``delta * v_high`` around a
decision threshold that is itself offset by ``chi * v_high``.  A stored 0 is
misread when the line-1 voltage lands above the lower band edge; a stored 1
is misread when the line-2 voltage lands at or below the upper band edge.
With both stored values equally likely, the soft error rate is the average
of those two probabilities.

Three evaluation routes are provided and cross-validated: the exact Gaussian
CDF form, the closed erfc form (valid for symmetric levels
``v_low == v_high``), and a Monte Carlo estimate over Box-Muller pairs, one
pair per trial (component 1 drives line 1, component 2 line 2).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import normal
from .bitstream import substream_seed
from .normal import SQRT_2
from .samplers import BLOCK_PAIRS, RvPairSpec, draw_indices

# below this analytical SER, Monte Carlo at desk-scale n is meaningless and
# evaluation reports the analytical value only
DEEP_TAIL_CUTOFF = 1e-12

SWEEP_CSV_HEADER = ("axis_value", "analytical", "exact_cdf", "monte_carlo", "mc_stderr", "n_samples")


@dataclass(frozen=True)
class SenseAmpParams:
    """Sense-amplifier model parameters (voltages in volts).

    ``v_low``/``v_high`` are the positive magnitudes of the two nominal bit
    line levels (line 1 sits at ``-v_low``); ``delta`` and ``chi`` scale the
    insensitivity width and threshold offset relative to ``v_high``.
    """

    v_low: float
    v_high: float
    noise_sigma: float
    delta: float
    chi: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.v_low <= 0.0:
            raise ValueError(f"v_low must be > 0, got {self.v_low!r}")
        if self.v_high <= 0.0:
            raise ValueError(f"v_high must be > 0, got {self.v_high!r}")
        if self.noise_sigma <= 0.0:
            raise ValueError(f"noise_sigma must be > 0, got {self.noise_sigma!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta!r}")
        if not 0.0 <= self.chi <= 1.0:
            raise ValueError(f"chi must be in [0, 1], got {self.chi!r}")
        # the closed form's erfc arguments only matter for symmetric levels
        margins = _q_args(self) + (_erfc_args(self) if self.v_low == self.v_high else ())
        if not all(math.isfinite(m) for m in margins):
            raise ValueError(
                f"noise_sigma {self.noise_sigma!r} is too small for these levels:"
                " the standardized error margins overflow"
            )

    @property
    def insensitivity_width(self) -> float:
        """Width of the undecidable band: ``delta * v_high``."""
        return self.delta * self.v_high

    @property
    def center_deviation(self) -> float:
        """Offset of the decision threshold: ``chi * v_high``."""
        return self.chi * self.v_high

    @classmethod
    def from_json(cls, text: str) -> "SenseAmpParams":
        """Parse a JSON object with exactly the five parameter keys."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("parameter file must hold a JSON object")
        keys = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(keys))
        if unknown:
            raise ValueError(f"unknown parameter keys: {', '.join(unknown)}")
        missing = sorted(set(keys) - set(data))
        if missing:
            raise ValueError(f"missing parameter keys: {', '.join(missing)}")
        values = {}
        for key in keys:
            if isinstance(data[key], bool) or not isinstance(data[key], (int, float)):
                raise ValueError(f"parameter {key} must be a number")
            try:
                values[key] = float(data[key])
            except OverflowError:
                raise ValueError(f"parameter {key} is out of float range") from None
        return cls(**values)

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class SerResult:
    """Soft-error rate by all evaluation routes, plus Monte Carlo error.

    ``analytical`` is ``None`` for asymmetric levels (no closed form);
    ``monte_carlo``/``mc_stderr`` are ``None`` when the estimate was skipped
    because the rate sits below :data:`DEEP_TAIL_CUTOFF` (``analytical_only``).
    """

    analytical: float | None
    exact_cdf: float
    monte_carlo: float | None
    mc_stderr: float | None
    n_samples: int
    seed: int
    analytical_only: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _q_args(params: SenseAmpParams) -> tuple[float, float]:
    """Standardized margins of the two lines to their band edges (the Q arguments)."""
    sigma = params.noise_sigma
    half_width = 0.5 * params.insensitivity_width
    center = params.center_deviation
    return (
        (center - half_width + params.v_low) / sigma,
        # P[V2 <= edge] as an upper tail by symmetry; 1 - Q would cancel
        (params.v_high - center - half_width) / sigma,
    )


def detection_error_probs(params: SenseAmpParams) -> tuple[float, float]:
    """(P[stored 0 read as 1], P[stored 1 read as 0]) under the noise model.

    Line 1 (mean ``-v_low``) errs when it exceeds the lower band edge
    ``chi*v_high - delta*v_high/2``; line 2 (mean ``+v_high``) errs when it
    falls at or below the upper band edge ``chi*v_high + delta*v_high/2``.
    """
    z_low, z_high = _q_args(params)
    return float(normal.q_function(z_low)), float(normal.q_function(z_high))


def ser_probabilistic(params: SenseAmpParams) -> float:
    """Soft error rate as the equal-weight average of the two error events.

    Evaluated through the exact Gaussian CDF; valid for any parameter
    combination, symmetric or not.
    """
    p1, p2 = detection_error_probs(params)
    return 0.5 * (p1 + p2)


def _erfc_args(params: SenseAmpParams) -> tuple[float, float]:
    sigma = params.noise_sigma
    return (
        params.v_high / (SQRT_2 * sigma) * (1.0 - 0.5 * params.delta + params.chi),
        params.v_low / (SQRT_2 * sigma) * (1.0 - 0.5 * params.delta - params.chi),
    )


def _analytical_terms(params: SenseAmpParams) -> tuple[float, float]:
    arg_high, arg_low = _erfc_args(params)
    return float(0.25 * normal.erfc(arg_high)), float(0.25 * normal.erfc(arg_low))


def ser_analytical(params: SenseAmpParams) -> float:
    """Closed erfc form of the soft error rate (symmetric levels only).

    Requires ``v_low == v_high``; the closed form is derived under that
    symmetry and an asymmetric request raises rather than guessing.
    """
    if params.v_low != params.v_high:
        raise ValueError(
            "closed-form rate is defined for symmetric levels (v_low == v_high);"
            " use ser_probabilistic for asymmetric parameters"
        )
    term_high, term_low = _analytical_terms(params)
    return term_high + term_low


def ser_monte_carlo(
    params: SenseAmpParams,
    n_samples: int,
    seed: int,
    chunk_size: int | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the soft error rate and its standard error.

    Each trial draws one standard Gaussian pair from the derived stream of
    ``(seed, trial)`` and shifts the components onto the two line levels.
    Trials depend only on their own index, so partitioning the trial range
    (``chunk_size``, by default :data:`~senserate.cdf.BLOCK_PAIRS`) cannot
    change the estimate; the default keeps memory bounded at any
    ``n_samples``.  The estimate is the mean of ``2 * n_samples`` Bernoulli
    trials, ``n_samples`` per line, and the standard error is that of the
    mean: ``sqrt((p1 (1 - p1) + p2 (1 - p2)) / (4 n))`` with ``p1``, ``p2``
    the per-line hit fractions.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
    spec = RvPairSpec.gaussian(0.0, 1.0)
    sigma = params.noise_sigma
    low_edge = params.center_deviation - 0.5 * params.insensitivity_width
    high_edge = params.center_deviation + 0.5 * params.insensitivity_width
    step = chunk_size or BLOCK_PAIRS
    hits_low = 0
    hits_high = 0
    for start in range(0, n_samples, step):
        stop = min(start + step, n_samples)
        indices = np.arange(start, stop, dtype=np.uint64)
        g1, g2 = draw_indices(spec, seed, indices)
        v1 = -params.v_low + sigma * g1
        v2 = params.v_high + sigma * g2
        hits_low += int(np.count_nonzero(v1 > low_edge))
        hits_high += int(np.count_nonzero(v2 <= high_edge))
    estimate = (hits_low + hits_high) / (2 * n_samples)
    p1 = hits_low / n_samples
    p2 = hits_high / n_samples
    stderr = math.sqrt((p1 * (1.0 - p1) + p2 * (1.0 - p2)) / (4 * n_samples))
    return estimate, stderr


def evaluate(params: SenseAmpParams, n_samples: int, seed: int) -> SerResult:
    """All evaluation routes for one parameter point.

    Monte Carlo is skipped (``analytical_only``) when the closed-form rate
    is below :data:`DEEP_TAIL_CUTOFF`, where no desk-scale sample size can
    resolve it.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    exact = ser_probabilistic(params)
    analytical = ser_analytical(params) if params.v_low == params.v_high else None
    reference = exact if analytical is None else analytical
    analytical_only = reference < DEEP_TAIL_CUTOFF
    estimate, stderr = (
        (None, None) if analytical_only else ser_monte_carlo(params, n_samples, seed)
    )
    return SerResult(analytical, exact, estimate, stderr, n_samples, seed, analytical_only)


def _snr_params(base: SenseAmpParams, value: float) -> SenseAmpParams:
    # signal-to-noise sweep: both level magnitudes move together
    level = value * base.noise_sigma
    return replace(base, v_low=level, v_high=level)


# axis -> (base params, axis value) -> swept params
_SWEPT_PARAMS = {
    "delta": lambda base, value: replace(base, delta=value),
    "chi": lambda base, value: replace(base, chi=value),
    "snr": _snr_params,
}
SWEEP_AXES = tuple(_SWEPT_PARAMS)


def sweep(
    base: SenseAmpParams,
    axis: str,
    values: list[float],
    n_samples: int,
    seed: int,
) -> list[tuple[float, SerResult]]:
    """Evaluate a parameter sweep; one row per value, order preserved.

    All swept points are validated before any evaluation, so an invalid
    value produces no partial output.  Row ``i`` seeds its Monte Carlo from
    the derived stream of ``(seed, i)``.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    points: list[tuple[float, SenseAmpParams]] = []
    for value in values:
        try:
            points.append((float(value), _SWEPT_PARAMS[axis](base, float(value))))
        except ValueError as exc:
            raise ValueError(f"invalid {axis} sweep value {value!r}: {exc}") from exc
    if axis == "snr" and 1.0 - 0.5 * base.delta - base.chi < 0.0:
        warnings.warn(
            "1 - delta/2 - chi is negative: the analytical rate need not be"
            " monotone along an snr sweep",
            stacklevel=2,
        )
    return [
        (value, evaluate(point, n_samples, substream_seed(seed, row)))
        for row, (value, point) in enumerate(points)
    ]


def _csv_field(value: float | None) -> str:
    return "" if value is None else repr(value)


def sweep_to_csv(rows: list[tuple[float, SerResult]]) -> str:
    """Sweep rows as CSV; skipped Monte Carlo fields are left empty."""
    return ",".join(SWEEP_CSV_HEADER) + "\n" + "".join(
        [
            f"{float(value)!r},{_csv_field(r.analytical)},{r.exact_cdf!r},"
            f"{_csv_field(r.monte_carlo)},{_csv_field(r.mc_stderr)},{r.n_samples}\n"
            for value, r in rows
        ]
    )
