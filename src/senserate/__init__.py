"""Bit-stream random variables, empirical CDF checks, and DRAM sense-amp SER.

The pipeline: :mod:`~senserate.bitstream` supplies deterministic splittable
bit streams; :mod:`~senserate.samplers` turns them into uniform, inverse-CDF,
and Box-Muller Gaussian pairs; :mod:`~senserate.cdf` queries and audits the
empirical joint distribution; :mod:`~senserate.normal` provides the
normal kernel (phi, Q, erfc); and
:mod:`~senserate.senseamp` cross-validates the sense-amplifier soft-error
rate through closed-form, exact-CDF, and Monte Carlo routes.
"""

__version__ = "0.1.0"

from .bitstream import BitStream, substream, substream_seed
from .cdf import (
    IndependenceReport,
    PropertyCheck,
    SamplePairs,
    independence_check,
    interval_prob,
    interval_via_cdf,
    joint_cdf,
    ks_pvalue,
    ks_statistic,
    marginal_cdf_x1,
    marginal_cdf_x2,
    quantile_grid,
    run_property_audit,
    samples_from_csv,
    samples_to_csv,
)
from .normal import (
    erfc,
    phi,
    q_function,
    q_reference,
)
from .samplers import (
    GaussianPair,
    RvPairSpec,
    box_muller,
    gaussian_pair,
    sample_many,
    std_unif_pair,
)
from .senseamp import (
    SenseAmpParams,
    SerResult,
    detection_error_probs,
    evaluate,
    ser_analytical,
    ser_monte_carlo,
    ser_probabilistic,
    sweep,
    sweep_to_csv,
)

__all__ = [
    "__version__",
    "BitStream",
    "substream",
    "substream_seed",
    "SamplePairs",
    "IndependenceReport",
    "PropertyCheck",
    "joint_cdf",
    "marginal_cdf_x1",
    "marginal_cdf_x2",
    "interval_prob",
    "interval_via_cdf",
    "independence_check",
    "quantile_grid",
    "ks_statistic",
    "ks_pvalue",
    "run_property_audit",
    "samples_to_csv",
    "samples_from_csv",
    "phi",
    "q_function",
    "q_reference",
    "erfc",
    "GaussianPair",
    "RvPairSpec",
    "box_muller",
    "std_unif_pair",
    "gaussian_pair",
    "sample_many",
    "SenseAmpParams",
    "SerResult",
    "detection_error_probs",
    "ser_probabilistic",
    "ser_analytical",
    "ser_monte_carlo",
    "evaluate",
    "sweep",
    "sweep_to_csv",
]
