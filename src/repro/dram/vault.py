"""Vault (DRAM channel) timing model.

A vault is an independent DRAM channel inside an HMC: a handful of banks
sharing one data bus.  We model, per the close-page policy of Table I:

* per-bank row-cycle occupancy (tRAS + tRP per read),
* the tRRD activate-to-activate window within a vault,
* data-bus serialization (one 64 B burst per ``burst_ns``),
* a bounded command queue (``vault_buffer_entries``).

The model is *timeline based*: each resource keeps a "next free" time and
an access reserves the earliest instant satisfying all constraints.  This
reproduces queueing and bank conflicts without simulating individual DRAM
commands, which is all the paper's power study needs (it charges a fixed
30 ns read latency in its slowdown accounting and derives DRAM power from
utilization).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dram.timing import DramTiming

__all__ = ["Vault", "VaultAccess"]


class VaultAccess:
    """Outcome of scheduling one access on a vault.

    ``start`` is when the activate begins, ``data_ready`` when read data
    has fully burst (response packet can depart), ``done`` when the bank
    becomes available again.

    A plain ``__slots__`` class (one is allocated per DRAM access, which
    makes construction cost part of the simulator's hot path).
    """

    __slots__ = ("start", "data_ready", "done")

    def __init__(self, start: float, data_ready: float, done: float) -> None:
        self.start = start
        self.data_ready = data_ready
        self.done = done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VaultAccess(start={self.start}, data_ready={self.data_ready}, "
            f"done={self.done})"
        )


class Vault:
    """One vault: banks plus a shared data bus, close-page policy."""

    __slots__ = (
        "timing",
        "_bank_free",
        "_bus_free",
        "_last_act",
        "_queue_free",
        "_open_rows",
        "busy_ns",
        "bank_busy_ns",
        "reads",
        "writes",
        "row_hits",
        "row_misses",
        "_open_policy",
        "_buf_entries",
        "_n_banks",
        "_burst_ns",
        "_tRRD",
        "_tRCD",
        "_tCL",
        "_tRP",
        "_tWR",
        "_read_occ",
    )

    def __init__(self, timing: DramTiming) -> None:
        self.timing = timing
        self._bank_free: List[float] = [0.0] * timing.banks_per_vault
        self._bus_free: float = 0.0
        self._last_act: float = -1e18
        #: Departure times of queued commands (bounded FIFO occupancy).
        self._queue_free: List[float] = []
        # Cached per-access constants (timing is frozen, so these can
        # never drift from self.timing).
        self._open_policy: bool = timing.page_policy == "open"
        self._buf_entries: int = timing.vault_buffer_entries
        self._n_banks: int = timing.banks_per_vault
        self._burst_ns: float = timing.burst_ns
        self._tRRD: float = timing.tRRD
        self._tRCD: float = timing.tRCD
        self._tCL: float = timing.tCL
        self._tRP: float = timing.tRP
        self._tWR: float = timing.tWR
        self._read_occ: float = timing.read_bank_occupancy_ns
        #: Open row per bank (open-page policy only).
        self._open_rows: List[Optional[int]] = [None] * timing.banks_per_vault
        self.busy_ns: float = 0.0
        #: Per-bank occupied time (activate start to bank free) -- the
        #: bank state residency behind the observability layer's
        #: ``dram`` events and :meth:`bank_residency`.
        self.bank_busy_ns: List[float] = [0.0] * timing.banks_per_vault
        self.reads: int = 0
        self.writes: int = 0
        self.row_hits: int = 0
        self.row_misses: int = 0

    def access(self, now: float, bank: int, is_read: bool, row: int = 0) -> VaultAccess:
        """Schedule an access arriving at ``now`` on ``bank``/``row``.

        Returns the reserved timing and advances the vault state.  If the
        command queue is full the access stalls until an entry frees.
        ``row`` only matters under the open-page policy.
        """
        bank %= self._n_banks

        # Bounded command queue: wait for an entry if all are in flight.
        # Pruning departed entries is amortized: the list only needs a
        # sweep once it reaches capacity, which keeps its length bounded
        # by ``vault_buffer_entries`` + 1 and gives the same stall times
        # as pruning on every access (the stall decision below only ever
        # inspects the pruned list).
        start_earliest = now
        queue_free = self._queue_free
        if len(queue_free) >= self._buf_entries:
            queue_free = [d for d in queue_free if d > now]
            self._queue_free = queue_free
            if len(queue_free) >= self._buf_entries:
                start_earliest = min(queue_free)

        if self._open_policy:
            access = self._access_open(start_earliest, bank, is_read, row)
        else:
            access = self._access_close(start_earliest, bank, is_read)
        self.busy_ns += self._burst_ns
        self.bank_busy_ns[bank] += access.done - access.start
        queue_free.append(access.done)
        if is_read:
            self.reads += 1
        else:
            self.writes += 1
        return access

    def _access_close(self, earliest: float, bank: int, is_read: bool) -> VaultAccess:
        """Close-page: activate + access + precharge every time."""
        # Activate constraints: bank must be precharged, tRRD since the
        # previous activate in this vault.  Timing constants come from
        # the per-access caches; the arithmetic (including evaluation
        # order) matches the uncached original term for term.
        act = max(earliest, self._bank_free[bank], self._last_act + self._tRRD)
        if is_read:
            data_start = act + self._tRCD + self._tCL
            data_start = max(data_start, self._bus_free)
            data_ready = data_start + self._burst_ns
            done = max(act + self._read_occ, data_ready + self._tRP)
        else:
            data_start = max(act + self._tRCD, self._bus_free)
            data_ready = data_start + self._burst_ns
            done = data_ready + self._tWR + self._tRP

        self._last_act = act
        self._bank_free[bank] = done
        self._bus_free = data_ready
        return VaultAccess(start=act, data_ready=data_ready, done=done)

    def _access_open(self, earliest: float, bank: int, is_read: bool, row: int) -> VaultAccess:
        """Open-page: rows stay open; hits skip precharge + activate."""
        t = self.timing
        open_row = self._open_rows[bank]
        start = max(earliest, self._bank_free[bank])
        if open_row == row:
            self.row_hits += 1
            cas = start
        else:
            self.row_misses += 1
            precharge = t.tRP if open_row is not None else 0.0
            act = max(start + precharge, self._last_act + t.tRRD)
            self._last_act = act
            cas = act + t.tRCD
        if is_read:
            data_start = max(cas + t.tCL, self._bus_free)
            data_ready = data_start + t.burst_ns
            done = data_ready
        else:
            data_start = max(cas, self._bus_free)
            data_ready = data_start + t.burst_ns
            done = data_ready + t.tWR
        self._open_rows[bank] = row
        self._bank_free[bank] = done
        self._bus_free = data_ready
        return VaultAccess(start=start, data_ready=data_ready, done=done)

    @property
    def accesses(self) -> int:
        """Total accesses serviced."""
        return self.reads + self.writes

    def bank_residency(self, window_ns: float) -> List[float]:
        """Per-bank occupied fraction of ``window_ns`` (capped at 1.0).

        Occupancy counts activate-to-precharge-done time, so under the
        close-page policy it reflects full row cycles, not just bursts.
        """
        if window_ns <= 0:
            return [0.0] * len(self.bank_busy_ns)
        return [min(1.0, b / window_ns) for b in self.bank_busy_ns]


class VaultSet:
    """The 32 vaults of one HMC plus the line-interleaved address map."""

    __slots__ = (
        "timing",
        "vaults",
        "_line_bytes",
        "_n_vaults",
        "_n_banks",
        "_lines_per_row",
    )

    def __init__(self, timing: DramTiming) -> None:
        self.timing = timing
        self.vaults: List[Vault] = [Vault(timing) for _ in range(timing.vaults)]
        # Address-map constants cached off the frozen timing config so
        # the per-access path decodes vault/bank/row from a single
        # ``line`` division.
        self._line_bytes: int = timing.line_bytes
        self._n_vaults: int = timing.vaults
        self._n_banks: int = timing.banks_per_vault
        self._lines_per_row: int = timing.row_bytes // timing.line_bytes

    def map_address(self, address: int) -> Tuple[int, int]:
        """Line-interleaved mapping: address -> (vault, bank)."""
        line = address // self.timing.line_bytes
        vault = line % self.timing.vaults
        bank = (line // self.timing.vaults) % self.timing.banks_per_vault
        return vault, bank

    def map_row(self, address: int) -> int:
        """Row index within a bank (open-page locality granularity)."""
        line = address // self.timing.line_bytes
        per_bank = line // (self.timing.vaults * self.timing.banks_per_vault)
        return per_bank // (self.timing.row_bytes // self.timing.line_bytes)

    def access(self, now: float, address: int, is_read: bool) -> VaultAccess:
        """Route ``address`` to its vault/bank and schedule the access.

        Decodes the line-interleaved map inline (one ``line`` division
        shared by the vault/bank/row computations) -- equivalent to
        :meth:`map_address` + :meth:`map_row`, which remain the readable
        reference implementations.
        """
        line = address // self._line_bytes
        n_vaults = self._n_vaults
        per_vault = line // n_vaults
        row = (per_vault // self._n_banks) // self._lines_per_row
        return self.vaults[line % n_vaults].access(
            now, per_vault % self._n_banks, is_read, row=row
        )

    @property
    def reads(self) -> int:
        """Reads serviced across all vaults."""
        return sum(v.reads for v in self.vaults)

    @property
    def writes(self) -> int:
        """Writes serviced across all vaults."""
        return sum(v.writes for v in self.vaults)

    @property
    def accesses(self) -> int:
        """Total accesses serviced across all vaults."""
        return sum(v.accesses for v in self.vaults)

    def busy_fraction(self, window_ns: float) -> float:
        """Average data-bus utilization across vaults over ``window_ns``."""
        if window_ns <= 0:
            return 0.0
        total = sum(v.busy_ns for v in self.vaults)
        return min(1.0, total / (len(self.vaults) * window_ns))

    def bank_residency(self, window_ns: float) -> float:
        """Mean bank-occupied fraction across every bank of every vault."""
        if window_ns <= 0:
            return 0.0
        fracs = [f for v in self.vaults for f in v.bank_residency(window_ns)]
        return sum(fracs) / len(fracs) if fracs else 0.0
