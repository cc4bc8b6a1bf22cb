"""Circuit-level I/O power-control mechanisms (Section IV of the paper).

Three mechanisms, each with the paper's published parameters:

**Rapid on/off (ROO)** -- a link turns off after sitting idle longer than
its mode's *idleness threshold* (32/128/512/2048 ns); waking costs 14 ns
(20 ns in the sensitivity study) and the off state consumes 1 % of link
power.  The 2048 ns threshold is considered the full-power ROO mode.

**Variable width links (VWL)** -- the number of active lanes drops from
16 to 8, 4 or 1.  Power with ``l`` lanes on is ``(l + 1) / (16 + 1)`` of
a full-power link because the I/O clock costs about as much as one lane.
Changing width takes 1 us.

**DVFS** -- four voltage/frequency modes providing 100/80/50/14 % of full
bandwidth at 0/30/65/92 % power reduction.  DVFS also stretches SERDES
latency (the SERDES is clocked by the I/O clock) and needs up to 3 us to
complete a voltage transition (two 8-lane bundles scaled one at a time,
0.5 us per rail adjustment).

Mechanisms compose: ``VWL+ROO`` and ``DVFS+ROO`` links support both a
width/frequency mode and an idleness threshold simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.registry import Registry
from repro.units import gbps_lane_to_bytes_per_ns

__all__ = [
    "FULL_LANES",
    "FLIT_TIME_FULL_NS",
    "SERDES_FULL_NS",
    "CHANNEL_BYTES_PER_NS",
    "ROO_THRESHOLDS_NS",
    "ROO_FULL_POWER_THRESHOLD_NS",
    "WidthMode",
    "VWL_MODES",
    "DVFS_MODES",
    "MechanismConfig",
    "LinkModeState",
    "make_mechanism",
    "canonical_mechanism",
    "MECHANISMS",
    "MECHANISM_NAMES",
]

#: Lanes per unidirectional link at full width.
FULL_LANES: int = 16
#: Time to move one 16 B flit over a full-width 12.5 Gbps/lane link:
#: 16 B / (16 lanes * 12.5 Gbps / 8) = 0.64 ns.  Also the router clock.
FLIT_TIME_FULL_NS: float = 0.64
#: SERDES (serialize/deserialize) latency at full I/O frequency.
SERDES_FULL_NS: float = 3.2
#: Bandwidth of one full-width unidirectional link (the processor
#: channel, per direction): 16 lanes x 12.5 Gbps = 25 bytes/ns.
CHANNEL_BYTES_PER_NS: float = gbps_lane_to_bytes_per_ns(12.5, FULL_LANES)

#: ROO idleness thresholds, highest power (longest threshold) first.
ROO_THRESHOLDS_NS: Tuple[float, ...] = (2048.0, 512.0, 128.0, 32.0)
#: The threshold regarded as the "full power" ROO mode.
ROO_FULL_POWER_THRESHOLD_NS: float = 2048.0


@dataclass(frozen=True)
class WidthMode:
    """One VWL or DVFS operating point of a unidirectional link.

    ``bw_fraction`` scales throughput (flit time divides by it),
    ``power_fraction`` scales on-state link power, and ``serdes_ns`` is
    the absolute SERDES latency in this mode.
    """

    name: str
    bw_fraction: float
    power_fraction: float
    serdes_ns: float

    def flit_time_ns(self) -> float:
        """Time to transfer one flit in this mode."""
        return FLIT_TIME_FULL_NS / self.bw_fraction

    def __post_init__(self) -> None:
        if not 0 < self.bw_fraction <= 1:
            raise ValueError(f"bw_fraction out of range: {self.bw_fraction}")
        if not 0 < self.power_fraction <= 1:
            raise ValueError(f"power_fraction out of range: {self.power_fraction}")


def _vwl_mode(lanes: int) -> WidthMode:
    """VWL mode with ``lanes`` active: power is (l+1)/(16+1) of full."""
    return WidthMode(
        name=f"{lanes}-lane",
        bw_fraction=lanes / FULL_LANES,
        power_fraction=(lanes + 1) / (FULL_LANES + 1),
        serdes_ns=SERDES_FULL_NS,
    )


#: VWL operating points: 16, 8, 4, 1 active lanes (Section IV-C).
VWL_MODES: Tuple[WidthMode, ...] = tuple(_vwl_mode(l) for l in (16, 8, 4, 1))

#: DVFS operating points (Section IV-B): bandwidth 100/80/50/14 % at
#: 0/30/65/92 % power reduction; SERDES latency scales with the I/O clock.
DVFS_MODES: Tuple[WidthMode, ...] = tuple(
    WidthMode(
        name=f"dvfs-{int(bw * 100)}%",
        bw_fraction=bw,
        power_fraction=1.0 - reduction,
        serdes_ns=SERDES_FULL_NS / bw,
    )
    for bw, reduction in ((1.0, 0.0), (0.8, 0.30), (0.5, 0.65), (0.14, 0.92))
)

#: A bare full-power mode for links without VWL/DVFS capability.
FULL_ONLY_MODES: Tuple[WidthMode, ...] = (VWL_MODES[0],)


@dataclass(frozen=True)
class MechanismConfig:
    """The power-control capability set of every link in a network.

    ``width_modes`` are ordered from highest to lowest power;
    ``roo_thresholds`` likewise (longest idleness threshold first).  An
    empty ``roo_thresholds`` means links never power off.
    """

    name: str
    width_modes: Tuple[WidthMode, ...]
    roo_thresholds: Tuple[float, ...] = ()
    wake_ns: float = 14.0
    off_power_fraction: float = 0.01
    width_transition_ns: float = 0.0

    @property
    def has_roo(self) -> bool:
        """Whether links can be turned off when idle."""
        return bool(self.roo_thresholds)

    @property
    def has_width_scaling(self) -> bool:
        """Whether links support more than the full-power width mode."""
        return len(self.width_modes) > 1

    def num_states(self) -> int:
        """Number of distinct (width, roo) mode combinations."""
        return len(self.width_modes) * max(1, len(self.roo_thresholds))


@dataclass(frozen=True)
class LinkModeState:
    """A concrete link operating state: a width mode plus a ROO threshold.

    ``roo_index`` is an index into ``MechanismConfig.roo_thresholds`` or
    ``None`` for mechanisms without ROO.
    """

    width_index: int = 0
    roo_index: Optional[int] = None

    def is_full_power(self) -> bool:
        """True when both dimensions sit at their highest-power setting."""
        return self.width_index == 0 and self.roo_index in (None, 0)


#: Registry of mechanism factories (``(wake_ns) -> MechanismConfig``).
#: Lookups are case-insensitive and ignore spaces; the reversed combo
#: spellings (``ROO+VWL``, ``ROO+DVFS``) are registered as aliases so
#: scenario-override specs may use either order.
MECHANISMS: Registry = Registry(
    "mechanism", canonicalize=lambda s: s.upper().replace(" ", "")
)


@MECHANISMS.register("FP")
def _fp(wake_ns: float) -> MechanismConfig:
    return MechanismConfig(name="FP", width_modes=FULL_ONLY_MODES)


@MECHANISMS.register("VWL")
def _vwl(wake_ns: float) -> MechanismConfig:
    return MechanismConfig(
        name="VWL", width_modes=VWL_MODES, width_transition_ns=1000.0
    )


@MECHANISMS.register("ROO")
def _roo(wake_ns: float) -> MechanismConfig:
    return MechanismConfig(
        name="ROO",
        width_modes=FULL_ONLY_MODES,
        roo_thresholds=ROO_THRESHOLDS_NS,
        wake_ns=wake_ns,
    )


@MECHANISMS.register("DVFS")
def _dvfs(wake_ns: float) -> MechanismConfig:
    return MechanismConfig(
        name="DVFS", width_modes=DVFS_MODES, width_transition_ns=3000.0
    )


@MECHANISMS.register("VWL+ROO", aliases=("ROO+VWL",))
def _vwl_roo(wake_ns: float) -> MechanismConfig:
    return MechanismConfig(
        name="VWL+ROO",
        width_modes=VWL_MODES,
        roo_thresholds=ROO_THRESHOLDS_NS,
        wake_ns=wake_ns,
        width_transition_ns=1000.0,
    )


@MECHANISMS.register("DVFS+ROO", aliases=("ROO+DVFS",))
def _dvfs_roo(wake_ns: float) -> MechanismConfig:
    return MechanismConfig(
        name="DVFS+ROO",
        width_modes=DVFS_MODES,
        roo_thresholds=ROO_THRESHOLDS_NS,
        wake_ns=wake_ns,
        width_transition_ns=3000.0,
    )


def make_mechanism(name: str, wake_ns: float = 14.0) -> MechanismConfig:
    """Build the mechanism configuration for ``name``.

    Supported names: ``FP`` (full power, no control), ``VWL``, ``ROO``,
    ``DVFS``, ``VWL+ROO``, ``DVFS+ROO`` (plus the reversed combo
    aliases).  ``wake_ns`` applies to the ROO component only (the paper
    studies 14 ns and 20 ns).
    """
    return MECHANISMS.get(name)(wake_ns)


def canonical_mechanism(name: str) -> str:
    """Resolve ``name`` (case-insensitive, aliases ok) to its canonical
    spelling, raising ``ValueError`` for unknown names."""
    return MECHANISMS.canonical(name)


#: All recognized mechanism names (canonical spellings).
MECHANISM_NAMES: Tuple[str, ...] = MECHANISMS.names()
