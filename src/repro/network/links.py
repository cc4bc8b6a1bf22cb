"""Unidirectional link controllers: queueing, power states, and counters.

Each full HMC link is a pair of unidirectional links (one *request* link
carrying traffic away from the processor, one *response* link carrying it
back).  Every unidirectional link has a controller at its transmitter
with, per the paper's configuration:

* 128 buffer entries with read-over-write priority,
* 3.2 ns SERDES latency (stretched under DVFS),
* 0.64 ns per-flit serialization at full width,
* independent power control (HMC links power-manage per direction).

The controller also carries all the *hardware counters* the paper's
management schemes rely on:

* per-width-mode **delay monitors** (virtual FIFO queues, after Ahn et
  al. DAC'14) that estimate what the aggregate read-packet latency would
  have been in every available width mode, including full power (the FEL
  contribution);
* an **idle-interval histogram** (after RAMZzz SC'12) for predicting ROO
  wakeup counts per idleness threshold;
* a sampled estimate of how many read packets arrive during one wakeup
  window (for ROO latency-overhead prediction, Section V-B);
* queuing-delay (QD) and queued-fraction (QF) statistics on response
  links for the network-aware congestion discount (Section VI-C).

Energy is charged per link *endpoint* (transmitter and receiver side
each burn ``HmcPowerModel.link_endpoint_w()`` scaled by the power state)
and split into the paper's idle-I/O / active-I/O buckets.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.core.mechanisms import (
    LinkModeState,
    MechanismConfig,
    ROO_THRESHOLDS_NS,
)
from repro.network.direction import LinkDir
from repro.network.packets import Packet
from repro.sim.engine import Simulator

__all__ = ["LinkDir", "LinkController", "LinkFaultState", "BUFFER_ENTRIES"]

#: Buffer entries per link controller (Section III-B).
BUFFER_ENTRIES: int = 128

#: Idle-interval histogram bucket lower edges, ascending.
_HIST_EDGES: Tuple[float, ...] = tuple(sorted(ROO_THRESHOLDS_NS))

#: Start a wakeup-arrival sample window every this many read arrivals.
_SAMPLE_PERIOD: int = 32

_M64 = (1 << 64) - 1

#: Module alias: reading a member off an Enum class costs a Python-level
#: lookup, and the epoch counters test the direction on every read.
_RESPONSE = LinkDir.RESPONSE


def _unit_uniform(seed: int, n: int) -> float:
    """Deterministic uniform in [0, 1) for draw ``n`` of stream ``seed``.

    A splitmix64 finalizer over ``seed + n``: stateless, identical in
    every process (unlike builtin ``hash``, which is randomized), and
    independent of how many events other links drew.
    """
    x = (seed * 0x9E3779B97F4A7C15 + n * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return (x >> 11) / float(1 << 53)


class LinkFaultState:
    """Fault windows and retry parameters for one link controller.

    Built by :class:`repro.faults.FaultInjector` from a
    :class:`~repro.faults.plan.FaultPlan`; ``LinkController.faults``
    stays ``None`` on unfaulted links so the fault-free hot path costs
    one attribute test, mirroring the tracing layer.

    CRC error decisions are drawn per transmission attempt from a
    stateless mix of ``seed`` and a per-link attempt counter --
    deterministic for a given plan no matter which executor or process
    runs the experiment, and guaranteed to terminate (each retry is a
    fresh draw, so a sub-1.0 error rate cannot livelock a packet).
    """

    __slots__ = (
        "seed",
        "crc_windows",
        "down_windows",
        "degrade_windows",
        "retry_ns",
        "draws",
        "crc_errors",
        "down_blocks",
        "degraded_tx",
        "trace",
    )

    def __init__(
        self,
        seed: int,
        crc: Optional[List[Tuple[float, float, float]]] = None,
        down: Optional[List[Tuple[float, float]]] = None,
        degrade: Optional[List[Tuple[float, float, float]]] = None,
        retry_ns: float = 48.0,
    ) -> None:
        self.seed = seed
        #: ``(start, end, error_rate)`` CRC burst windows, sorted.
        self.crc_windows = tuple(sorted(crc or ()))
        #: ``(start, end)`` link-down windows, sorted.
        self.down_windows = tuple(sorted(down or ()))
        #: ``(start, end, flit_time_factor)`` degraded-lane windows.
        self.degrade_windows = tuple(sorted(degrade or ()))
        self.retry_ns = retry_ns
        self.draws = 0
        self.crc_errors = 0
        self.down_blocks = 0
        self.degraded_tx = 0
        #: Optional tracer (``fault`` category), set by install_tracer.
        self.trace: Optional[Any] = None

    def crc_error(self, now: float) -> bool:
        """Whether the transmission finishing at ``now`` failed CRC."""
        for start, end, rate in self.crc_windows:
            if start <= now < end:
                self.draws += 1
                if _unit_uniform(self.seed, self.draws) < rate:
                    self.crc_errors += 1
                    return True
                return False
        return False

    def down_until(self, now: float) -> Optional[float]:
        """End of the down window covering ``now``, or ``None``."""
        for start, end in self.down_windows:
            if start <= now < end:
                return end
        return None

    def flit_scale(self, now: float) -> float:
        """Flit-time multiplier at ``now`` (1.0 outside degrade windows)."""
        for start, end, factor in self.degrade_windows:
            if start <= now < end:
                return factor
        return 1.0


class LinkController:
    """One unidirectional link plus its transmitter-side controller."""

    __slots__ = (
        "sim",
        "name",
        "direction",
        "src",
        "dst",
        "mech",
        "endpoint_w",
        "ledger_src",
        "ledger_dst",
        "deliver",
        "next_ctrl",
        "on_violation",
        "can_sleep",
        "roo_enabled",
        # queues / flow control
        "read_q",
        "write_q",
        "reserved",
        "_blocked_upstreams",
        # power / mode state
        "width_idx",
        "roo_idx",
        "is_off",
        "wake_until",
        "_trans_until",
        "_trans_from",
        "_off_gen",
        "_idle_since",
        "transmitting",
        "_seg_start",
        "_sleep_blocked",
        # the packet on the wire, its SERDES delay and the callback
        # that finishes every transmission
        "_tx_pkt",
        "_tx_serdes",
        "_finish_cb",
        # lifetime stats
        "mode_time_ns",
        "off_time_ns",
        "busy_time_ns",
        "flits_tx",
        "packets_tx",
        "wakeups",
        "width_transitions",
        # fault injection (None unless a FaultPlan targets this link)
        "faults",
        "retries",
        "retry_flits",
        "retry_time_ns",
        # epoch counters
        "epoch_counters",
        "ams",
        "violated",
        "grants_used",
        "ep_vfree",
        "ep_vlat",
        "ep_actual_read_lat",
        "ep_reads",
        "ep_flits",
        "ep_busy_ns",
        "ep_mode_time_ns",
        "ep_hist_counts",
        "ep_hist_sums",
        "ep_qd",
        "ep_queued",
        "ep_resp_packets",
        "_sample_end",
        "_sample_arrivals",
        "_samples_total",
        "_samples_n",
        "_arrivals_since_sample",
        # ISP scratch
        "isp_src",
        "isp_dsrc",
        "isp_sel",
        # energy split
        "_ep_start",
        # observability (None unless the "link" trace category is on)
        "trace",
        "_tr_state",
        "_tr_start",
        # cached mode parameter tables (hot path)
        "_flit_times",
        "_serdes_times",
        "_power_fracs",
        "_off_frac",
        "_n_modes",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        direction: LinkDir,
        src: int,
        dst: int,
        mech: MechanismConfig,
        endpoint_w: float,
        ledger_src,
        ledger_dst,
    ) -> None:
        self.sim = sim
        self.name = name
        self.direction = direction
        self.src = src
        self.dst = dst
        self.mech = mech
        self.endpoint_w = endpoint_w
        self.ledger_src = ledger_src
        self.ledger_dst = ledger_dst

        #: Callback ``deliver(pkt, now)`` invoked when the last flit has
        #: crossed the wire and SERDES; wired up by the network.
        self.deliver: Callable[[Packet, float], None] = lambda pkt, now: None
        #: Routing callback: the controller a packet will be forwarded to
        #: after this hop (``None`` when it terminates at a vault or the
        #: processor).  Used for buffer back-pressure.
        self.next_ctrl: Optional[Callable[[Packet], Optional["LinkController"]]] = None
        #: Policy hook fired when this link exceeds its AMS.
        self.on_violation: Optional[Callable[["LinkController"], None]] = None
        #: Network-aware hook: response links may only sleep when this
        #: returns True (no outstanding reads below them).
        self.can_sleep: Optional[Callable[[], bool]] = None
        #: Whether ROO power-off is active this run (full-power baseline
        #: networks never power links off even with a ROO mechanism).
        self.roo_enabled = mech.has_roo

        self.read_q: Deque[Packet] = deque()
        self.write_q: Deque[Packet] = deque()
        self.reserved = 0
        self._blocked_upstreams: List["LinkController"] = []

        self.width_idx = 0
        self.roo_idx: Optional[int] = 0 if mech.has_roo else None
        self.is_off = False
        self.wake_until = 0.0
        self._trans_until = 0.0
        self._trans_from = 0
        self._off_gen = 0
        self._idle_since = 0.0
        self.transmitting = False
        self._seg_start = 0.0
        self._sleep_blocked = False
        self._tx_pkt: Optional[Packet] = None
        self._tx_serdes = 0.0
        #: The one completion callback every transmission schedules.
        self._finish_cb = self._finish_tx

        n_modes = len(mech.width_modes)
        self.mode_time_ns = [0.0] * n_modes
        self.off_time_ns = 0.0
        self.busy_time_ns = 0.0
        self.flits_tx = 0
        self.packets_tx = 0
        self.wakeups = 0
        #: Lifetime count of width/voltage mode changes.  Transitions
        #: are charged at the higher of the two widths' power while
        #: residency is attributed to the new width, so this bounds the
        #: residency-reconstruction slack used by the validation layer.
        self.width_transitions = 0

        #: Optional :class:`LinkFaultState`; installed by
        #: :class:`repro.faults.FaultInjector` when a plan targets this
        #: link.  ``None`` keeps the fault-free path branch-predictable.
        self.faults: Optional[LinkFaultState] = None
        #: CRC retransmissions performed (HMC-style link retry).
        self.retries = 0
        #: Flits of failed transmissions that had to be re-sent.
        self.retry_flits = 0
        #: Wire time spent on retry turnaround + retransmissions (ns).
        self.retry_time_ns = 0.0

        #: Whether arrivals and read completions update the epoch
        #: counters below.  :class:`~repro.harness.builder.SimulationBuilder`
        #: clears it on every link of a run without an epoch policy,
        #: since nothing reads the counters there.
        self.epoch_counters = True
        self.ams = float("inf")
        self.violated = False
        self.grants_used = 0
        self.ep_vfree = [0.0] * n_modes
        self.ep_vlat = [0.0] * n_modes
        self.ep_actual_read_lat = 0.0
        self.ep_reads = 0
        self.ep_flits = 0
        self.ep_busy_ns = 0.0
        self.ep_mode_time_ns = [0.0] * n_modes
        self.ep_hist_counts = [0] * len(_HIST_EDGES)
        self.ep_hist_sums = [0.0] * len(_HIST_EDGES)
        self.ep_qd = 0.0
        self.ep_queued = 0
        self.ep_resp_packets = 0
        self._sample_end = -1.0
        self._sample_arrivals = 0
        self._samples_total = 0
        self._samples_n = 0
        self._arrivals_since_sample = 0

        self.isp_src = False
        self.isp_dsrc = 0
        self.isp_sel = LinkModeState(0, self.roo_idx)
        self._ep_start = 0.0
        #: Optional :class:`repro.obs.Tracer`; installed by
        #: :func:`repro.obs.install_tracer` when link tracing is on.
        self.trace: Optional[Any] = None
        self._tr_state = "w0"
        self._tr_start = 0.0
        self._flit_times = tuple(m.flit_time_ns() for m in mech.width_modes)
        self._serdes_times = tuple(m.serdes_ns for m in mech.width_modes)
        self._power_fracs = tuple(m.power_fraction for m in mech.width_modes)
        self._off_frac = mech.off_power_fraction
        self._n_modes = n_modes

    # ------------------------------------------------------------------
    # Mode parameter helpers
    # ------------------------------------------------------------------
    def _effective_width(self, now: float) -> Tuple[float, float, float]:
        """(flit_time, serdes, power_fraction) given any live transition.

        During a width/voltage transition the link runs at the narrower
        of the old and new widths while being charged the higher power.
        """
        w = self.width_idx
        if now < self._trans_until:
            o = self._trans_from
            return (
                max(self._flit_times[w], self._flit_times[o]),
                max(self._serdes_times[w], self._serdes_times[o]),
                max(self._power_fracs[w], self._power_fracs[o]),
            )
        return self._flit_times[w], self._serdes_times[w], self._power_fracs[w]

    def roo_threshold(self) -> Optional[float]:
        """Current idleness threshold, or ``None`` when ROO is unavailable."""
        if self.roo_idx is None or not self.roo_enabled:
            return None
        return self.mech.roo_thresholds[self.roo_idx]

    @property
    def queue_len(self) -> int:
        """Occupied buffer entries, including reserved in-flight slots."""
        return len(self.read_q) + len(self.write_q) + self.reserved

    def has_space(self) -> bool:
        """Whether another packet may be sent toward this controller."""
        return self.queue_len < BUFFER_ENTRIES

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------
    def accrue(self, now: float) -> None:
        """Charge energy for the segment since the last state change."""
        seg = self._seg_start
        dt = now - seg
        if dt <= 0:
            self._seg_start = now
            return
        # The power fraction at ``seg`` is worked out inline: this runs
        # twice per packet transmission, and a call to _effective_width
        # cost more than the whole energy computation.  The arithmetic is
        # bit-identical: multiplying by 2.0 then 0.5 is an exact no-op
        # in binary floating point, so ``half`` below equals the
        # historical ``(2.0 * endpoint_w * frac * dt * 1e-9) * 0.5``.
        if self.is_off:
            frac = self._off_frac
        elif seg < self._trans_until:
            fracs = self._power_fracs
            frac = max(fracs[self.width_idx], fracs[self._trans_from])
        else:
            frac = self._power_fracs[self.width_idx]
        half = self.endpoint_w * frac * dt * 1e-9
        if self.transmitting:
            self.ledger_src.active_io_j += half
            self.ledger_dst.active_io_j += half
            self.busy_time_ns += dt
            self.ep_busy_ns += dt
        else:
            self.ledger_src.idle_io_j += half
            self.ledger_dst.idle_io_j += half
        if self.is_off:
            self.off_time_ns += dt
        else:
            self.mode_time_ns[self.width_idx] += dt
            self.ep_mode_time_ns[self.width_idx] += dt
        self._seg_start = now

    # ------------------------------------------------------------------
    # Observability (all no-ops while ``self.trace`` is None)
    # ------------------------------------------------------------------
    def _trace_transition(
        self, now: float, new_state: str, name: str, **fields
    ) -> None:
        """Close the open residency segment and record a transition event.

        ``link.state`` segments partition the link's lifetime by power
        state exactly as :meth:`accrue` attributes energy: by
        ``width_idx`` while on, ``"off"`` while off.  Summing their
        durations therefore reproduces ``mode_time_ns``/``off_time_ns``
        (the trace consistency test pins this).
        """
        trace = self.trace
        if now > self._tr_start:
            trace.emit(
                self._tr_start,
                "link",
                "link.state",
                dur_ns=now - self._tr_start,
                link=self.name,
                state=self._tr_state,
            )
        self._tr_start = now
        self._tr_state = new_state
        trace.emit(now, "link", name, link=self.name, **fields)

    def trace_finalize(self, now: float) -> None:
        """Close the final residency segment at the end of the window."""
        if self.trace is not None and now > self._tr_start:
            self.trace.emit(
                self._tr_start,
                "link",
                "link.state",
                dur_ns=now - self._tr_start,
                link=self.name,
                state=self._tr_state,
            )
            self._tr_start = now

    # ------------------------------------------------------------------
    # Packet path
    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet, now: float) -> None:
        """Accept ``pkt`` at the controller at time ``now``."""
        if self.epoch_counters:
            self._count_arrival(pkt, now)
        if pkt.is_read:
            self.read_q.append(pkt)
        else:
            self.write_q.append(pkt)

        if self.is_off:
            self._begin_wake(now)
            self.try_start(now)
        elif not self.transmitting:
            # Inlined try_start's first early-out: while a transmission
            # is in flight the call would return immediately, and
            # _finish_tx re-arms the link anyway.
            self.try_start(now)

    def _count_arrival(self, pkt: Packet, now: float) -> None:
        """Fold an arrival into the epoch counters, before it queues.

        An arrival at an idle link closes an idle interval (RAMZzz
        histogram).  Every packet occupies the per-mode virtual queues
        of the Ahn'14 delay monitor; reads also add their estimated
        latency per mode, the response link's queuing (QD/QF) against
        the full-power monitor, and a wake-window sample.
        """
        pkt.link_arrival = now
        if not self.transmitting and not self.read_q and not self.write_q:
            length = now - self._idle_since
            if length > 0:
                idx = -1
                for i, edge in enumerate(_HIST_EDGES):
                    if length >= edge:
                        idx = i
                    else:
                        break
                if idx >= 0:
                    self.ep_hist_counts[idx] += 1
                    self.ep_hist_sums[idx] += length
        flits = pkt.flits
        vfree = self.ep_vfree
        flit_times = self._flit_times
        if not pkt.is_read:
            for i in range(self._n_modes):
                start = vfree[i] if vfree[i] > now else now
                vfree[i] = start + flits * flit_times[i]
            return
        # Track response-link queuing against the *full power* monitor
        # (a read that is not a request is a read response).
        if self.direction is _RESPONSE and not pkt.kind.is_request:
            self.ep_resp_packets += 1
            backlog = vfree[0] - now
            if backlog > 3 * flits * flit_times[0]:
                self.ep_queued += 1
                self.ep_qd += backlog
        # SERDES latency is pipelined (adds delay, not occupancy): the
        # virtual queue advances by serialization time only.
        serdes = self._serdes_times
        vlat = self.ep_vlat
        for i in range(self._n_modes):
            start = vfree[i] if vfree[i] > now else now
            done = start + flits * flit_times[i]
            vfree[i] = done
            vlat[i] += (done + serdes[i]) - now
        self.ep_reads += 1

        if now <= self._sample_end:
            self._sample_arrivals += 1
            return
        if self._sample_end >= 0:
            self._close_sample()
        self._arrivals_since_sample += 1
        if self._arrivals_since_sample >= _SAMPLE_PERIOD:
            self._arrivals_since_sample = 0
            self._sample_end = now + self.mech.wake_ns

    def _close_sample(self) -> None:
        """Fold the open wake-window sample into the running average."""
        self._samples_total += self._sample_arrivals
        self._samples_n += 1
        self._sample_end = -1.0
        self._sample_arrivals = 0

    # -- transmission --------------------------------------------------
    def try_start(self, now: float) -> None:
        """Begin transmitting the highest-priority queued packet if possible."""
        if self.transmitting:
            return
        # Read-over-write priority: pick the source queue once and reuse
        # it for both the head peek and the eventual popleft.
        head_q = self.read_q or self.write_q
        if not head_q:
            return
        if self.is_off:
            self._begin_wake(now)
            return
        if now < self.wake_until:
            self.sim.schedule_at(self.wake_until, lambda: self.try_start(self.sim.now))
            return
        faults = self.faults
        if faults is not None:
            # Transient link-down window: hold queued traffic (idle
            # power, no reservations) and re-arm at the window's end.
            resume = faults.down_until(now)
            if resume is not None:
                faults.down_blocks += 1
                if faults.trace is not None:
                    faults.trace.emit(
                        now, "fault", "fault.down",
                        link=self.name, until=resume,
                    )
                self.sim.schedule_at(
                    resume, lambda: self.try_start(self.sim.now)
                )
                return
        next_ctrl = self.next_ctrl
        nxt = next_ctrl(head_q[0]) if next_ctrl is not None else None
        if nxt is not None:
            # Inlined nxt.has_space() / queue_len (hot path).
            if len(nxt.read_q) + len(nxt.write_q) + nxt.reserved >= BUFFER_ENTRIES:
                if self not in nxt._blocked_upstreams:
                    nxt._blocked_upstreams.append(self)
                return
            nxt.reserved += 1
        pkt = head_q.popleft()
        self.accrue(now)
        self.transmitting = True
        if now < self._trans_until:
            flit_time, serdes, _power = self._effective_width(now)
        else:
            w = self.width_idx
            flit_time = self._flit_times[w]
            serdes = self._serdes_times[w]
        if faults is not None:
            scale = faults.flit_scale(now)
            if scale != 1.0:
                # Degraded lanes: every flit serializes slower.
                flit_time *= scale
                faults.degraded_tx += 1
        self._tx_pkt = pkt
        self._tx_serdes = serdes
        # Inlined sim.schedule_at (one event per transmitted packet):
        # tx_done >= now by construction, so the past/NaN guard in
        # schedule_at can never fire here.
        sim = self.sim
        heappush(sim._queue, (now + pkt.flits * flit_time, sim._seq, self._finish_cb))
        sim._seq += 1

    def _finish_tx(self) -> None:
        """The last flit of the packet on the wire has been sent."""
        now = self.sim.now
        self.accrue(now)
        pkt = self._tx_pkt
        faults = self.faults
        if faults is not None and faults.crc_error(now):
            # HMC-style link retry: the receiver's CRC check failed, so
            # the packet is replayed from the transmitter's retry
            # buffer after a fixed turnaround (detection + retry
            # request + pointer rollback).  The link stays
            # ``transmitting`` through the whole recovery -- blocking
            # the queue and charging the turnaround as *active* I/O --
            # which is exactly the retry energy/latency cost the power
            # breakdown must show.
            self.retries += 1
            self.retry_flits += pkt.flits
            if faults.trace is not None:
                faults.trace.emit(
                    now, "fault", "link.retry",
                    link=self.name, flits=pkt.flits, retries=self.retries,
                )
            self.sim.schedule_at(now + faults.retry_ns, self._retransmit)
            return
        self.transmitting = False
        flits = pkt.flits
        self.flits_tx += flits
        self.ep_flits += flits
        self.packets_tx += 1
        serdes = self._tx_serdes
        if pkt.is_read and self.epoch_counters:
            self.ep_actual_read_lat += (now + serdes) - pkt.link_arrival
            self._check_violation()
        idle = not self.read_q and not self.write_q
        if idle:
            # Inlined _became_idle's no-ROO early-out (FP and width-only
            # mechanisms never arm a sleep timer).
            if self.roo_idx is None or not self.roo_enabled:
                self._idle_since = now
            else:
                self._became_idle(now)
        # The deliver callback receives the future wire+SERDES arrival
        # time and is responsible for scheduling its own continuation --
        # calling it synchronously here saves one event per hop.
        self.deliver(pkt, now + serdes)
        # Unblock upstream controllers waiting for buffer space.
        if self._blocked_upstreams:
            waiters, self._blocked_upstreams = self._blocked_upstreams, []
            for ctrl in waiters:
                ctrl.try_start(now)
        # An idle link has nothing to start: only enqueue adds packets,
        # and it starts the link itself.
        if not idle:
            self.try_start(now)

    def _retransmit(self) -> None:
        """Replay the packet on the wire from the retry buffer after a CRC error.

        Timing parameters are re-read at retransmission time so a width
        transition or degrade window that began mid-recovery applies to
        the replay.  Down windows do not gate replays: the packet is
        already on the wire from the flow-control point of view.
        """
        now = self.sim.now
        flit_time, serdes, _power = self._effective_width(now)
        faults = self.faults
        scale = faults.flit_scale(now)
        if scale != 1.0:
            flit_time *= scale
            faults.degraded_tx += 1
        tx = self._tx_pkt.flits * flit_time
        self.retry_time_ns += faults.retry_ns + tx
        self._tx_serdes = serdes
        sim = self.sim
        heappush(sim._queue, (now + tx, sim._seq, self._finish_cb))
        sim._seq += 1

    def release_reservation(self) -> None:
        """Downstream handed the packet onward; free the reserved slot."""
        if self.reserved > 0:
            self.reserved -= 1

    # ------------------------------------------------------------------
    # ROO state machine
    # ------------------------------------------------------------------
    def start(self, now: float = 0.0) -> None:
        """Arm the initial idle timer (links begin idle and on)."""
        self._seg_start = now
        self._tr_start = now
        self._tr_state = f"w{self.width_idx}"
        self._became_idle(now)

    def _became_idle(self, now: float) -> None:
        self._idle_since = now
        threshold = self.roo_threshold()
        if threshold is None:
            return
        self._off_gen += 1
        gen = self._off_gen
        self.sim.schedule(threshold, lambda: self._try_sleep(gen))

    def _try_sleep(self, gen: int) -> None:
        if gen != self._off_gen or self.is_off or self.transmitting:
            return
        if self.roo_threshold() is None:
            return
        if self.read_q or self.write_q:
            return
        if self.can_sleep is not None and not self.can_sleep():
            self._sleep_blocked = True
            return
        now = self.sim.now
        self.accrue(now)
        self.is_off = True
        if self.trace is not None:
            self._trace_transition(now, "off", "link.off")

    def retry_sleep(self, now: float) -> None:
        """Re-attempt a sleep that was blocked by the network-aware hook."""
        if not self._sleep_blocked or self.is_off:
            return
        self._sleep_blocked = False
        if self.transmitting or self.read_q or self.write_q:
            return
        threshold = self.roo_threshold()
        if threshold is None:
            return
        if now - self._idle_since >= threshold:
            if self.can_sleep is None or self.can_sleep():
                self.accrue(now)
                self.is_off = True
                if self.trace is not None:
                    self._trace_transition(now, "off", "link.off")
        else:
            self._off_gen += 1
            gen = self._off_gen
            self.sim.schedule_at(
                self._idle_since + threshold, lambda: self._try_sleep(gen)
            )

    def _begin_wake(self, now: float) -> None:
        if not self.is_off:
            return
        self.accrue(now)
        self.is_off = False
        self._sleep_blocked = False
        self.wake_until = now + self.mech.wake_ns
        self.wakeups += 1
        if self.trace is not None:
            self._trace_transition(
                now, f"w{self.width_idx}", "link.wake", wakeups=self.wakeups
            )
        self.sim.schedule_at(self.wake_until, lambda: self.try_start(self.sim.now))

    def wake_proactively(self, now: float) -> None:
        """Start waking without a packet (response-link wakeup hiding)."""
        if self.is_off:
            self._begin_wake(now)

    # ------------------------------------------------------------------
    # Violation detection (feedback control, after Li et al. TOS'05)
    # ------------------------------------------------------------------
    def _check_violation(self) -> None:
        if self.violated or self.on_violation is None:
            return
        overhead = self.ep_actual_read_lat - self.ep_vlat[0]
        if overhead > self.ams:
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "link",
                    "link.violation",
                    link=self.name,
                    ams=self.ams,
                    overhead=overhead,
                )
            self.on_violation(self)

    def force_full_power(self, now: float) -> None:
        """Switch to the full-power mode until the end of the epoch."""
        self.violated = True
        self.set_mode(LinkModeState(0, 0 if self.roo_idx is not None else None), now)

    # ------------------------------------------------------------------
    # Mode control (called by management policies at epoch boundaries)
    # ------------------------------------------------------------------
    def set_mode(self, state: LinkModeState, now: float) -> None:
        """Apply a width/ROO mode, modeling transition latency."""
        self.accrue(now)
        old_width, old_roo = self.width_idx, self.roo_idx
        if state.width_index != self.width_idx:
            self._trans_from = self.width_idx
            self.width_idx = state.width_index
            self.width_transitions += 1
            if self.mech.width_transition_ns > 0:
                self._trans_until = now + self.mech.width_transition_ns
                self.sim.schedule_at(
                    self._trans_until, lambda: self.accrue(self.sim.now)
                )
        if self.mech.has_roo and state.roo_index is not None:
            self.roo_idx = state.roo_index
        if self.trace is not None and (
            self.width_idx != old_width or self.roo_idx != old_roo
        ):
            # Residency is attributed to the new width from this instant
            # (matching accrue) -- unless the link is off, in which case
            # the "off" segment continues and only the mode event fires.
            if self.width_idx != old_width and not self.is_off:
                self._trace_transition(
                    now,
                    f"w{self.width_idx}",
                    "link.mode",
                    from_width=old_width,
                    to_width=self.width_idx,
                    from_roo=old_roo,
                    to_roo=self.roo_idx,
                )
            else:
                self.trace.emit(
                    now,
                    "link",
                    "link.mode",
                    link=self.name,
                    from_width=old_width,
                    to_width=self.width_idx,
                    from_roo=old_roo,
                    to_roo=self.roo_idx,
                )
        # A mode change while idle re-arms the sleep timer with the new
        # threshold; while off the link simply stays off.
        if (
            not self.is_off
            and not self.transmitting
            and not self.read_q
            and not self.write_q
            and self.roo_threshold() is not None
        ):
            self._off_gen += 1
            gen = self._off_gen
            fire_at = max(now, self._idle_since + self.roo_threshold())
            self.sim.schedule_at(fire_at, lambda: self._try_sleep(gen))

    # ------------------------------------------------------------------
    # FLO estimation (Section V-B)
    # ------------------------------------------------------------------
    def flo_width(self, width_index: int) -> float:
        """Predicted latency overhead of running at ``width_index``."""
        return max(0.0, self.ep_vlat[width_index] - self.ep_vlat[0])

    def _avg_arrivals_during_wake(self) -> float:
        if self._samples_n == 0:
            return 0.0
        return self._samples_total / self._samples_n

    def wakeups_for_threshold(self, threshold: float) -> int:
        """Predicted wakeup count for an idleness ``threshold``."""
        return sum(
            c for c, edge in zip(self.ep_hist_counts, _HIST_EDGES) if edge >= threshold
        )

    def predicted_off_ns(self, threshold: float) -> float:
        """Predicted time the link would spend powered off at ``threshold``.

        Includes the idle interval still in progress right now (which
        costs no wakeup but does save power).
        """
        total = 0.0
        for count, total_len, edge in zip(
            self.ep_hist_counts, self.ep_hist_sums, _HIST_EDGES
        ):
            if edge >= threshold:
                total += total_len - count * threshold
        if not self.transmitting and not self.read_q and not self.write_q:
            open_idle = self.sim.now - self._idle_since
            if open_idle > threshold:
                total += open_idle - threshold
        return max(0.0, total)

    def flo_roo(self, roo_index: int) -> float:
        """Predicted latency overhead of ROO mode ``roo_index``.

        wakeups * [wake + wake * arrivals-during-wake], with an extra
        wake * arrivals term on request links to cover the amplified
        queueing that delayed requests inflict on response links
        (Section V-B, last paragraph).
        """
        if not self.mech.has_roo:
            return 0.0
        threshold = self.mech.roo_thresholds[roo_index]
        wakes = self.wakeups_for_threshold(threshold)
        if wakes == 0:
            return 0.0
        wake = self.mech.wake_ns
        arrivals = self._avg_arrivals_during_wake()
        per_wake = wake + wake * arrivals
        if self.direction is LinkDir.REQUEST:
            per_wake += wake * arrivals
        return wakes * per_wake

    def estimate_flo(self, state: LinkModeState) -> float:
        """FLO of a combined width+ROO state (sum of the parts)."""
        flo = self.flo_width(state.width_index)
        if state.roo_index is not None and self.mech.has_roo:
            flo += self.flo_roo(state.roo_index)
        return flo

    def predicted_power_fraction(self, state: LinkModeState, epoch_ns: float) -> float:
        """Predicted average power (fraction of full) in ``state``."""
        width_power = self.mech.width_modes[state.width_index].power_fraction
        if state.roo_index is None or not self.mech.has_roo or epoch_ns <= 0:
            return width_power
        threshold = self.mech.roo_thresholds[state.roo_index]
        off_frac = min(1.0, self.predicted_off_ns(threshold) / epoch_ns)
        return (
            width_power * (1.0 - off_frac) + self.mech.off_power_fraction * off_frac
        )

    def candidate_states(self) -> List[LinkModeState]:
        """All selectable (width, roo) states for this link's mechanism."""
        widths = range(len(self.mech.width_modes))
        if self.mech.has_roo:
            roos = range(len(self.mech.roo_thresholds))
            return [LinkModeState(w, r) for w in widths for r in roos]
        return [LinkModeState(w, None) for w in widths]

    # ------------------------------------------------------------------
    # Epoch bookkeeping
    # ------------------------------------------------------------------
    def current_utilization(self, epoch_ns: float) -> float:
        """Busy fraction of this link over the epoch (Figure 13's x-axis)."""
        if epoch_ns <= 0:
            return 0.0
        return min(1.0, self.ep_busy_ns / epoch_ns)

    def reset_epoch(self, now: float) -> None:
        """Close the epoch: flush energy and zero all epoch counters."""
        self.accrue(now)
        # An idle interval still open at the epoch boundary never ended
        # in a packet arrival this epoch, so it costs no wakeup: it is
        # consumed live by predicted_off_ns, never by the histogram.
        # Restart it so per-epoch idle accounting stays bounded.
        if not self.transmitting and not self.read_q and not self.write_q:
            self._idle_since = now
        if self._sample_end >= 0:
            self._close_sample()
        n = self._n_modes
        self.ep_vfree = [max(self.ep_vfree[0], now)] * n
        self.ep_vlat = [0.0] * n
        self.ep_actual_read_lat = 0.0
        self.ep_reads = 0
        self.ep_flits = 0
        self.ep_busy_ns = 0.0
        self.ep_mode_time_ns = [0.0] * n
        self.ep_hist_counts = [0] * len(_HIST_EDGES)
        self.ep_hist_sums = [0.0] * len(_HIST_EDGES)
        self.ep_qd = 0.0
        self.ep_queued = 0
        self.ep_resp_packets = 0
        self._samples_total = 0
        self._samples_n = 0
        self.violated = False
        self.grants_used = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkController({self.name}, {self.direction.value}, "
            f"{self.src}->{self.dst})"
        )
