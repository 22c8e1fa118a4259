"""The four CLI workloads of the senserate benchmark.

Each workload is one ``senserate`` command line at a fixed size.  The sizes
define the workload: a timing is only comparable with another timing of the
same sizes.  The constructors take the sizes as arguments so the
benchmark's own tests can run the same code paths at tiny sizes.

Why these four:

- ``sample-gauss`` is the only command that encodes bulk output (CSV of
  Box-Muller pairs); it never touches ``normal`` or the audit.
- ``cdf-audit`` is dominated by the property audit's O(n) count scans over
  standard-uniform pairs, which bypass Box-Muller; no CSV, no ``normal``.
- ``ser-mc`` is one large Monte Carlo call at the README's worked point;
  it sets the memory peak and has almost no ``normal`` work.
- ``sweep-tail`` walks SNR 1..16 so the SER falls from 0.19 to 4e-38,
  across the whole DRAM regime; it is dominated by scalar ``q_function``
  calls and per-call Monte Carlo overhead.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

DEFAULT_SEED = 42

# the README's worked sense-amp point
SENSE_POINT = ("--v-low", "3", "--v-high", "3", "--sigma", "1", "--delta", "0.2", "--chi", "0.1")


def snr_values(points: int = 1501) -> tuple[str, ...]:
    """SNR axis values 1.00, 1.01, ... as the CLI receives them."""
    return tuple(f"{k / 100:.2f}" for k in range(100, 100 + points))


@dataclass(frozen=True)
class Workload:
    """One CLI command line at fixed sizes.

    ``n`` is the CLI ``--n``; ``values`` the sweep axis values (sweep only).
    ``units`` is the work done by one invocation, in ``unit``s.
    ``host_share`` is the share of the work after the import that runs at
    the speed of the host calibration (``calibrate.py``), so that
    ``run.py`` can scale it to the reference speed: 1 for interpreted
    Python loops, 0.5 for numpy passes driven from a little Python, which
    follow the shared host's drift about half as much.
    """

    name: str
    command: tuple[str, ...]
    n: int
    units: int
    unit: str
    out_flag: bool
    host_share: float
    values: tuple[str, ...] = ()

    def argv(self, seed: int, out_path: str) -> list[str]:
        """CLI arguments; output goes to ``out_path`` via --out, else stdout."""
        argv = [*self.command, "--n", str(self.n), "--seed", str(seed)]
        if self.values:
            argv += ["--values", ",".join(self.values)]
        if self.out_flag:
            argv += ["--out", out_path]
        return argv

    def sizes(self) -> dict:
        sizes = {"n": self.n, "units": self.units, "unit": self.unit}
        if self.values:
            sizes["points"] = len(self.values)
        return sizes

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        data = json.loads(text)
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


def sample_gauss(n: int = 1_000_000) -> Workload:
    return Workload(
        name="sample-gauss",
        command=("sample", "--dist", "gaussian-pair", "--mu", "0", "--sigma", "1"),
        n=n, units=n, unit="pair written", out_flag=True, host_share=1.0,
    )


def cdf_audit(n: int = 200_000) -> Workload:
    return Workload(
        name="cdf-audit",
        command=("cdf-props", "--dist", "std-uniform-pair"),
        n=n, units=n, unit="pair audited", out_flag=False, host_share=0.5,
    )


def ser_mc(n: int = 4_000_000) -> Workload:
    return Workload(
        name="ser-mc",
        command=("ser", *SENSE_POINT),
        n=n, units=n, unit="MC trial", out_flag=False, host_share=0.5,
    )


def sweep_tail(points: int = 1501, n: int = 1000) -> Workload:
    values = snr_values(points)
    return Workload(
        name="sweep-tail",
        command=("sweep", *SENSE_POINT, "--axis", "snr"),
        n=n, units=len(values), unit="sweep point", out_flag=False, host_share=1.0,
        values=values,
    )


WORKLOADS = {w.name: w for w in (sample_gauss(), cdf_audit(), ser_mc(), sweep_tail())}
