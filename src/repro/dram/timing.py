"""HMC DRAM array timing parameters (Table I of the paper).

Each 4 GB HMC contains 32 vaults.  A vault's DRAM data bus runs at
2 Gbps over a 32-bit interface, so a 64 B line bursts in

    64 B * 8 bit / (32 lanes * 2 Gbps) = 8 ns.

With a close-page policy a read costs tRCD + tCL + burst = 30 ns, the
figure the paper quotes for DRAM access latency, and occupies its bank
for a full row cycle tRAS + tRP = 33 ns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GB

__all__ = ["DramTiming", "DEFAULT_TIMING"]


@dataclass(frozen=True)
class DramTiming:
    """Timing and organization parameters of one HMC's DRAM (Table I)."""

    capacity_bytes: int = 4 * GB
    vaults: int = 32
    banks_per_vault: int = 8
    vault_data_rate_gbps: float = 2.0
    vault_io_width: int = 32
    vault_buffer_entries: int = 16
    line_bytes: int = 64
    #: Row-buffer policy: "close" (Table I's default -- every access
    #: activates and precharges) or "open" (rows stay open; hits skip
    #: tRP + tRCD at the cost of larger miss latency).
    page_policy: str = "close"
    #: DRAM row size per bank; determines open-page hit locality.
    row_bytes: int = 2048
    tCL: float = 11.0
    tRCD: float = 11.0
    tRAS: float = 22.0
    tRP: float = 11.0
    tRRD: float = 5.0
    tWR: float = 12.0

    def __post_init__(self) -> None:
        if self.vaults < 1 or self.banks_per_vault < 1:
            raise ValueError("vaults and banks_per_vault must be positive")
        if self.capacity_bytes % self.vaults:
            raise ValueError("capacity must divide evenly across vaults")
        if self.page_policy not in ("close", "open"):
            raise ValueError(f"unknown page policy {self.page_policy!r}")
        if self.row_bytes < self.line_bytes:
            raise ValueError("a row must hold at least one line")

    @property
    def burst_ns(self) -> float:
        """Time to burst one line over the vault data bus."""
        bits = self.line_bytes * 8
        return bits / (self.vault_io_width * self.vault_data_rate_gbps)

    @property
    def read_latency_ns(self) -> float:
        """Close-page read latency: activate + CAS + burst (= 30 ns)."""
        return self.tRCD + self.tCL + self.burst_ns

    @property
    def read_bank_occupancy_ns(self) -> float:
        """Bank busy time per close-page read: full row cycle tRAS + tRP."""
        return self.tRAS + self.tRP

    @property
    def max_accesses_per_ns(self) -> float:
        """Peak sustainable access rate of the whole HMC.

        Each vault's data bus moves one line per ``burst_ns``; with all
        vaults streaming, the HMC tops out at ``vaults / burst_ns``
        accesses per nanosecond (4/ns = 256 GB/s for default parameters).
        """
        return self.vaults / self.burst_ns


#: The paper's Table I configuration.
DEFAULT_TIMING = DramTiming()
