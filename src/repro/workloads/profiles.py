"""The fourteen evaluated workloads as synthetic profiles.

The paper drives its study with seven 16-threaded NAS class D benchmarks
and seven mixed cloud workloads (Table III) under GEM5 full-system
simulation.  We cannot rerun GEM5, so each workload is captured as a
*profile* pinning the three observables the power study actually
consumes (see DESIGN.md):

* **footprint_gb** -- sets the network size (avg ceil(17/4) = 5 HMCs in
  the small study, matching the paper's 17 GB average footprint);
* **channel_util** -- target utilization of the processor channel at
  full power (Figure 9: mixB peaks near 75 %, sp.D sits lowest, and the
  average lands at ~43 %);
* **cdf** -- a piecewise-linear cumulative access distribution over the
  address space (Figure 4), whose flat segments are the cold ranges that
  let far modules power down.

The numbers are stylized digitizations of Figures 4 and 9, not ground
truth; EXPERIMENTS.md records the consequences.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.registry import Registry

__all__ = [
    "WorkloadProfile",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "HPC_WORKLOADS",
    "MIX_WORKLOADS",
    "MIX_COMPOSITION",
    "get_profile",
]

#: Table III: application composition of the mixed cloud workloads.
MIX_COMPOSITION: Dict[str, str] = {
    "mixA": "4 bwaves, 4 cactusADM, 4 wrf, 4T ocean_cp",
    "mixB": "4 mcf, 4 GemsFDTD, 4T barnes, 4T radiosity",
    "mixC": "4 omnetpp, 4 mcf, 4 wrf, 4T ocean_cp",
    "mixD": "4 sjeng, 4 cactusADM, 4T radiosity, 4T fft",
    "mixE": "4 cactusADM, 4 sjeng, 4 wrf, 4T fft",
    "mixF": "4 cactusADM, 4 bwaves, 4 sjeng, 4T fft",
    "mixG": "4 mcf, 4 omnetpp, 4 astar, 4T fft",
}


@dataclass(frozen=True)
class WorkloadProfile:
    """Synthetic stand-in for one of the paper's fourteen workloads."""

    name: str
    footprint_gb: float
    channel_util: float
    read_fraction: float
    #: Piecewise-linear CDF of accesses over address space:
    #: (address in GB, cumulative access fraction), ascending, ending at
    #: (footprint_gb, 1.0).
    cdf: Tuple[Tuple[float, float], ...]
    #: Fraction of time each stream is in its ON (bursting) phase.
    duty: float = 0.7
    #: Mean sequential run length in cache lines.
    run_length: float = 4.0
    #: Parallel request streams (one per core, Table II's 16 cores).
    streams: int = 16
    #: Overlapping accesses per stream batch (MSHR-style parallelism).
    mlp: int = 4
    description: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.channel_util < 1:
            raise ValueError(f"{self.name}: channel_util must be in (0,1)")
        if not 0 < self.read_fraction <= 1:
            raise ValueError(f"{self.name}: read_fraction must be in (0,1]")
        pts = self.cdf
        if pts[0] != (0.0, 0.0):
            raise ValueError(f"{self.name}: CDF must start at (0, 0)")
        if abs(pts[-1][0] - self.footprint_gb) > 1e-9 or pts[-1][1] != 1.0:
            raise ValueError(f"{self.name}: CDF must end at (footprint, 1.0)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 <= x0 or y1 < y0:
                raise ValueError(f"{self.name}: CDF must be non-decreasing")

    # ------------------------------------------------------------------
    def sample_address_gb(self, u: float) -> float:
        """Inverse-CDF sample: uniform ``u`` in [0,1) to an address (GB)."""
        ys = [p[1] for p in self.cdf]
        i = bisect.bisect_right(ys, u)
        if i >= len(self.cdf):
            return self.cdf[-1][0]
        x0, y0 = self.cdf[i - 1]
        x1, y1 = self.cdf[i]
        if y1 == y0:
            return x0
        return x0 + (x1 - x0) * (u - y0) / (y1 - y0)

    def access_fraction_below(self, gb: float) -> float:
        """CDF evaluated at ``gb`` (Figure 4's y-axis)."""
        pts = self.cdf
        if gb <= 0:
            return 0.0
        if gb >= pts[-1][0]:
            return 1.0
        xs = [p[0] for p in pts]
        i = bisect.bisect_right(xs, gb)
        x0, y0 = pts[i - 1]
        x1, y1 = pts[i]
        return y0 + (y1 - y0) * (gb - x0) / (x1 - x0)


def _p(
    name: str,
    footprint: float,
    util: float,
    rf: float,
    cdf: Sequence[Tuple[float, float]],
    duty: float = 0.7,
    description: str = "",
) -> WorkloadProfile:
    return WorkloadProfile(
        name=name,
        footprint_gb=footprint,
        channel_util=util,
        read_fraction=rf,
        cdf=tuple((float(x), float(y)) for x, y in cdf),
        duty=duty,
        description=description,
    )


#: All fourteen profiles, stylized from Figures 4 and 9, registered in
#: the paper's evaluation order.  ``KeyError`` preserves the historical
#: dict-lookup exception contract of :func:`get_profile`.
WORKLOADS: Registry = Registry("workload", error_cls=KeyError)

for _profile in (
        _p("ua.D", 12, 0.50, 0.70,
           [(0, 0), (3, 0.35), (9, 0.90), (12, 1.0)],
           description="NAS unstructured adaptive mesh, 16 threads"),
        _p("lu.D", 9, 0.45, 0.75,
           [(0, 0), (2, 0.50), (6, 0.92), (9, 1.0)],
           description="NAS LU factorization, 16 threads"),
        _p("bt.D", 11, 0.40, 0.70,
           [(0, 0), (4, 0.55), (8, 0.90), (11, 1.0)],
           description="NAS block tridiagonal solver, 16 threads"),
        _p("sp.D", 13, 0.08, 0.70,
           [(0, 0), (5, 0.60), (10, 0.95), (13, 1.0)],
           duty=0.5,
           description="NAS scalar pentadiagonal; lowest channel util"),
        _p("cg.D", 17, 0.35, 0.85,
           [(0, 0), (2, 0.70), (4, 0.85), (10, 0.95), (17, 1.0)],
           description="NAS conjugate gradient; hot head of address space"),
        _p("mg.D", 27, 0.55, 0.75,
           [(0, 0), (8, 0.50), (20, 0.85), (27, 1.0)],
           description="NAS multigrid; large footprint"),
        _p("is.D", 34, 0.30, 0.60,
           [(0, 0), (4, 0.45), (6, 0.50), (24, 0.60), (34, 1.0)],
           description="NAS integer sort; largest footprint, cold middle"),
        _p("mixA", 16, 0.55, 0.70,
           [(0, 0), (2, 0.30), (4, 0.35), (7, 0.70), (9, 0.75), (12, 0.90),
            (16, 1.0)],
           description=MIX_COMPOSITION["mixA"]),
        _p("mixB", 14, 0.75, 0.65,
           [(0, 0), (3, 0.50), (6, 0.80), (10, 0.92), (14, 1.0)],
           duty=0.85,
           description=MIX_COMPOSITION["mixB"] + "; highest channel util"),
        _p("mixC", 15, 0.60, 0.65,
           [(0, 0), (2, 0.35), (5, 0.55), (8, 0.80), (15, 1.0)],
           description=MIX_COMPOSITION["mixC"]),
        _p("mixD", 12, 0.30, 0.70,
           [(0, 0), (1, 0.40), (5, 0.55), (8, 0.90), (12, 1.0)],
           description=MIX_COMPOSITION["mixD"]),
        _p("mixE", 13, 0.35, 0.70,
           [(0, 0), (2, 0.45), (6, 0.60), (10, 0.90), (13, 1.0)],
           description=MIX_COMPOSITION["mixE"]),
        _p("mixF", 14, 0.40, 0.70,
           [(0, 0), (3, 0.40), (7, 0.65), (11, 0.90), (14, 1.0)],
           description=MIX_COMPOSITION["mixF"]),
        _p("mixG", 15, 0.50, 0.60,
           [(0, 0), (2, 0.40), (4, 0.60), (9, 0.80), (15, 1.0)],
           description=MIX_COMPOSITION["mixG"]),
):
    WORKLOADS.add(_profile.name, _profile)

#: Evaluation order used throughout the paper's figures (identical to
#: the registration order above).
WORKLOAD_NAMES: Tuple[str, ...] = WORKLOADS.names()

HPC_WORKLOADS: Tuple[str, ...] = WORKLOAD_NAMES[:7]
MIX_WORKLOADS: Tuple[str, ...] = WORKLOAD_NAMES[7:]


def get_profile(name: str) -> WorkloadProfile:
    """Look up a workload profile by name (KeyError when unknown)."""
    return WORKLOADS.get(name)
