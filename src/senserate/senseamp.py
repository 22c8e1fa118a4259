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

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import normal
from .bitstream import substream_seed
from .normal import SQRT_2
from .samplers import BLOCK_PAIRS, RvPairSpec, draw_indices

_PARAM_KEYS = ("v_low", "v_high", "noise_sigma", "delta", "chi")

# below this analytical SER, Monte Carlo at desk-scale n is meaningless and
# evaluation reports the analytical value only
DEEP_TAIL_CUTOFF = 1e-12

SWEEP_AXES = ("delta", "chi", "snr")

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
        for key, value in self.to_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
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
        unknown = sorted(set(data) - set(_PARAM_KEYS))
        if unknown:
            raise ValueError(f"unknown parameter keys: {', '.join(unknown)}")
        missing = sorted(set(_PARAM_KEYS) - set(data))
        if missing:
            raise ValueError(f"missing parameter keys: {', '.join(missing)}")
        for key in _PARAM_KEYS:
            if isinstance(data[key], bool) or not isinstance(data[key], (int, float)):
                raise ValueError(f"parameter {key} must be a number")
        return cls(**{key: float(data[key]) for key in _PARAM_KEYS})

    def to_dict(self) -> dict[str, float]:
        return {key: getattr(self, key) for key in _PARAM_KEYS}


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
        return {
            "analytical": self.analytical,
            "exact_cdf": self.exact_cdf,
            "monte_carlo": self.monte_carlo,
            "mc_stderr": self.mc_stderr,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "analytical_only": self.analytical_only,
        }


def detection_error_probs(params: SenseAmpParams) -> tuple[float, float]:
    """(P[stored 0 read as 1], P[stored 1 read as 0]) under the noise model.

    Line 1 (mean ``-v_low``) errs when it exceeds the lower band edge
    ``chi*v_high - delta*v_high/2``; line 2 (mean ``+v_high``) errs when it
    falls at or below the upper band edge ``chi*v_high + delta*v_high/2``.
    """
    sigma = params.noise_sigma
    half_width = 0.5 * params.insensitivity_width
    center = params.center_deviation
    p_low_as_high = normal.q_function((center - half_width + params.v_low) / sigma)
    # P[V2 <= edge] as an upper tail by symmetry; 1 - Q would cancel
    p_high_as_low = normal.q_function((params.v_high - center - half_width) / sigma)
    return float(p_low_as_high), float(p_high_as_low)


def ser_probabilistic(params: SenseAmpParams) -> float:
    """Soft error rate as the equal-weight average of the two error events.

    Evaluated through the exact Gaussian CDF; valid for any parameter
    combination, symmetric or not.
    """
    p1, p2 = detection_error_probs(params)
    return 0.5 * (p1 + p2)


def _analytical_terms(params: SenseAmpParams) -> tuple[float, float]:
    sigma = params.noise_sigma
    term_high = 0.25 * normal.erfc(
        params.v_high / (SQRT_2 * sigma) * (1.0 - 0.5 * params.delta + params.chi)
    )
    term_low = 0.25 * normal.erfc(
        params.v_low / (SQRT_2 * sigma) * (1.0 - 0.5 * params.delta - params.chi)
    )
    return float(term_high), float(term_low)


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
    if reference < DEEP_TAIL_CUTOFF:
        return SerResult(
            analytical=analytical,
            exact_cdf=exact,
            monte_carlo=None,
            mc_stderr=None,
            n_samples=n_samples,
            seed=seed,
            analytical_only=True,
        )
    estimate, stderr = ser_monte_carlo(params, n_samples, seed)
    return SerResult(
        analytical=analytical,
        exact_cdf=exact,
        monte_carlo=estimate,
        mc_stderr=stderr,
        n_samples=n_samples,
        seed=seed,
    )


def _swept_params(base: SenseAmpParams, axis: str, value: float) -> SenseAmpParams:
    if axis == "delta":
        return replace(base, delta=value)
    if axis == "chi":
        return replace(base, chi=value)
    if axis == "snr":
        # signal-to-noise sweep: both level magnitudes move together
        level = value * base.noise_sigma
        return replace(base, v_low=level, v_high=level)
    raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


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
            points.append((float(value), _swept_params(base, axis, float(value))))
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


def sweep_to_csv(rows: list[tuple[float, SerResult]]) -> str:
    """Sweep rows as CSV; skipped Monte Carlo fields are left empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for value, result in rows:
        writer.writerow(
            [
                repr(float(value)),
                "" if result.analytical is None else repr(result.analytical),
                repr(result.exact_cdf),
                "" if result.monte_carlo is None else repr(result.monte_carlo),
                "" if result.mc_stderr is None else repr(result.mc_stderr),
                result.n_samples,
            ]
        )
    return buf.getvalue()
