"""Memory-network assembly: modules, links, routing, and DRAM hand-off.

:class:`MemoryNetwork` instantiates one :class:`ModuleRuntime` per
topology node, a request/response link-controller pair per connectivity
link, and wires the delivery callbacks that move packets:

    processor --req--> module 0 --req--> ... --req--> destination vault
    destination --resp--> ... --resp--> module 0 --resp--> processor

Every router traversal costs :data:`ROUTER_LATENCY_NS` and charges
dynamic logic energy; every DRAM access charges dynamic DRAM energy and
goes through the vault timing model.  The network also implements the
two response-link wakeup strategies of the paper:

* ``response_wake_mode="module"`` (network-unaware, after MemBlaze):
  the destination module wakes its response link when its DRAM access
  starts, hiding that one link's wakeup under the ~30 ns DRAM latency;
* ``response_wake_mode="path"`` (network-aware, Section VI-B): every
  response link on the path to the processor wakes, staggered by the
  downstream link's router + SERDES + transmission latency, hiding all
  of them.  With ``aware_sleep_gating`` response links refuse to sleep
  while reads are outstanding anywhere in their subtree.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.core.mechanisms import MechanismConfig
from repro.dram.timing import DEFAULT_TIMING, DramTiming
from repro.network.links import LinkController, LinkDir
from repro.network.module import ModuleRuntime
from repro.network.packets import PROCESSOR, Packet, PacketKind
from repro.network.router import ROUTER_LATENCY_NS
from repro.network.topology import Topology
from repro.power.hmc_power import DEFAULT_POWER_MODEL, HmcPowerModel
from repro.sim.engine import Simulator

__all__ = ["MemoryNetwork"]

# Module aliases: reading a member off an Enum class costs a Python-level
# lookup, and the injection and DRAM hand-off paths build a packet per
# access.
_READ_REQ = PacketKind.READ_REQ
_WRITE_REQ = PacketKind.WRITE_REQ
_READ_RESP = PacketKind.READ_RESP


class MemoryNetwork:
    """A simulated network of HMCs behind a single processor channel."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        mechanism: MechanismConfig,
        mapping,
        power_model: HmcPowerModel = DEFAULT_POWER_MODEL,
        timing: DramTiming = DEFAULT_TIMING,
        link_mechanisms: Optional[Mapping[str, MechanismConfig]] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.mechanism = mechanism
        self.mapping = mapping
        self.power_model = power_model
        self.timing = timing
        #: Per-link mechanism overrides keyed by link name
        #: (``req:{parent}->{i}`` / ``resp:{i}->{parent}``); links absent
        #: from the mapping run the network-wide ``mechanism``.  Built
        #: from an ``ExperimentConfig.mechanism_overrides`` spec via
        #: :func:`repro.core.overrides.resolve_link_mechanisms`.
        self.link_mechanisms: Dict[str, MechanismConfig] = dict(
            link_mechanisms or {}
        )

        #: Called in order as ``listener(pkt, now)`` when a read
        #: completes at the processor.  A closed-loop workload appends
        #: itself when it is built; metrics and stats append after it.
        self.read_listeners: List[Callable[[Packet, float], None]] = []
        #: "none" | "module" | "path" (see module docstring).
        self.response_wake_mode: str = "none"
        #: Gate response-link sleep on subtree-outstanding reads.
        self.aware_sleep_gating: bool = False
        #: Optional :class:`repro.obs.Tracer` for ``dram.access`` events;
        #: installed by :func:`repro.obs.install_tracer` when the
        #: ``dram`` category is enabled.
        self.trace: Optional[Any] = None
        #: Optional :class:`repro.faults.VaultFaultTable`; installed by
        #: :class:`repro.faults.FaultInjector` when a plan schedules
        #: vault stalls.  ``None`` keeps the fault-free path to one test.
        self.vault_faults: Optional[Any] = None

        self.completed_reads = 0
        self.completed_writes = 0
        self.injected_reads = 0
        self.injected_writes = 0
        self.sum_read_latency_ns = 0.0
        self.max_read_latency_ns = 0.0
        #: Module traversals summed over injected accesses (reads cross
        #: each path module twice: request in, response out) -- Figure 6.
        self.sum_traversals = 0

        self.modules: List[ModuleRuntime] = [
            ModuleRuntime(i, topology.radix[i], timing)
            for i in range(topology.num_modules)
        ]
        self._route: List[Dict[int, int]] = [
            {} for _ in range(topology.num_modules)
        ]
        self._paths: List[List[int]] = []
        for d in range(topology.num_modules):
            path = topology.path_from_processor(d)
            self._paths.append(path)
            for k in range(len(path) - 1):
                self._route[path[k]][d] = path[k + 1]

        self._e_flit = {
            r: power_model.logic_energy_per_flit_j(r)
            for r in set(topology.radix)
        }
        self._e_access = {
            r: power_model.dram_energy_per_access_j(r)
            for r in set(topology.radix)
        }
        for module in self.modules:
            module.e_flit_j = self._e_flit[module.radix]
            module.e_access_j = self._e_access[module.radix]
        #: Path as ModuleRuntime objects (hot injection/completion path).
        self._path_modules: List[List[ModuleRuntime]] = [
            [self.modules[m] for m in path] for path in self._paths
        ]

        self._build_links()
        self._root_req = self.modules[0].req_in

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_links(self) -> None:
        topo = self.topology
        endpoint_w = self.power_model.link_endpoint_w()
        overrides = self.link_mechanisms
        self._links: List[LinkController] = []
        for i, module in enumerate(self.modules):
            parent = topo.parent[i]
            parent_ledger = (
                self.modules[parent].ledger if parent != PROCESSOR else module.ledger
            )
            req_name = f"req:{parent}->{i}"
            resp_name = f"resp:{i}->{parent}"
            req = LinkController(
                self.sim,
                name=req_name,
                direction=LinkDir.REQUEST,
                src=parent,
                dst=i,
                mech=overrides.get(req_name, self.mechanism),
                endpoint_w=endpoint_w,
                ledger_src=parent_ledger,
                ledger_dst=module.ledger,
            )
            resp = LinkController(
                self.sim,
                name=resp_name,
                direction=LinkDir.RESPONSE,
                src=i,
                dst=parent,
                mech=overrides.get(resp_name, self.mechanism),
                endpoint_w=endpoint_w,
                ledger_src=module.ledger,
                ledger_dst=parent_ledger,
            )
            module.req_in = req
            module.resp_out = resp
            module.children = list(topo.children[i])

            req.deliver = self._make_req_deliver(i)
            resp.deliver = self._make_resp_deliver(i)
            resp.next_ctrl = self._make_resp_next(i)
            self._links.append(req)
            self._links.append(resp)
        # dest -> next-hop request controller, resolved once per module
        # (saves a route lookup plus a modules[] index per forwarded
        # packet).  Request next_ctrl closures bind these dicts, so they
        # are wired in a second pass once every controller exists.
        self._route_req: List[Dict[int, LinkController]] = [
            {dest: self.modules[child].req_in for dest, child in routes.items()}
            for routes in self._route
        ]
        for i, module in enumerate(self.modules):
            module.req_in.next_ctrl = self._make_req_next(i)
        built = {link.name for link in self._links}
        unknown = sorted(set(self.link_mechanisms) - built)
        if unknown:
            raise ValueError(
                f"link_mechanisms names unknown links {unknown}; "
                f"this topology has {sorted(built)}"
            )
        # Mechanism aggregates over the (possibly heterogeneous) link
        # set.  With no overrides these equal the network-wide
        # mechanism's own flags, keeping homogeneous runs bit-identical.
        self._has_roo_links = any(link.mech.has_roo for link in self._links)
        self._has_width_scaling_links = any(
            link.mech.has_width_scaling for link in self._links
        )

    def _make_req_next(self, i: int):
        route = self._route_req[i]

        def next_ctrl(pkt: Packet) -> Optional[LinkController]:
            if pkt.dest == i:
                return None
            return route[pkt.dest]

        return next_ctrl

    def _make_resp_next(self, i: int):
        parent = self.topology.parent[i]
        if parent == PROCESSOR:
            return lambda pkt: None
        resp = lambda pkt: self.modules[parent].resp_out
        return resp

    def _make_req_deliver(self, i: int):
        module = self.modules[i]
        ledger = module.ledger
        sim = self.sim
        after = self._after_req_router

        def deliver(pkt: Packet, now: float) -> None:
            # Router charge and an inlined schedule_at (one router hop
            # per packet per module; ``now`` is a future arrival time,
            # so the past/NaN guard can never fire).
            flits = pkt.flits
            module.flits_routed += flits
            ledger.logic_dyn_j += module.e_flit_j * flits
            heappush(
                sim._queue, (now + ROUTER_LATENCY_NS, sim._seq, lambda: after(i, pkt))
            )
            sim._seq += 1

        return deliver

    def _after_req_router(self, i: int, pkt: Packet) -> None:
        now = self.sim.now
        if pkt.dest == i:
            self._at_destination(i, pkt, now)
            return
        target = self._route_req[i][pkt.dest]
        target.release_reservation()
        target.enqueue(pkt, now)

    def _make_resp_deliver(self, i: int):
        parent = self.topology.parent[i]
        if parent == PROCESSOR:

            def deliver_to_processor(pkt: Packet, now: float) -> None:
                # ``now`` is the future arrival time (deliver fires at
                # transmit-finish); defer completion to that instant.
                self.sim.schedule_at(now, lambda: self._complete_read(pkt, now))

            return deliver_to_processor

        parent_module = self.modules[parent]
        ledger = parent_module.ledger
        sim = self.sim
        after = self._after_resp_router

        def deliver(pkt: Packet, now: float) -> None:
            # Router charge and an inlined schedule_at, as on the
            # request side.
            flits = pkt.flits
            parent_module.flits_routed += flits
            ledger.logic_dyn_j += parent_module.e_flit_j * flits
            heappush(
                sim._queue,
                (now + ROUTER_LATENCY_NS, sim._seq, lambda: after(parent, pkt)),
            )
            sim._seq += 1

        return deliver

    def _after_resp_router(self, parent: int, pkt: Packet) -> None:
        target = self.modules[parent].resp_out
        target.release_reservation()
        target.enqueue(pkt, self.sim.now)

    # ------------------------------------------------------------------
    # DRAM hand-off
    # ------------------------------------------------------------------
    def _at_destination(self, i: int, pkt: Packet, now: float) -> None:
        module = self.modules[i]
        is_read = pkt.is_read
        if is_read:
            module.ep_dram_reads += 1
            module.dram_reads += 1
            # Guard inlined: with wakeup hiding disabled (the common
            # fig5 baseline) _wake_response_path is a no-op per read.
            if self.response_wake_mode != "none" and self._has_roo_links:
                self._wake_response_path(i, now)
        module.ledger.dram_dyn_j += module.e_access_j
        access = module.vaults.access(now, pkt.address, is_read)
        data_ready = access.data_ready
        done = access.done
        vault_faults = self.vault_faults
        if vault_faults is not None:
            # Vault-stall fault window: the access itself proceeds, but
            # its completion (and therefore the response) is delayed.
            stall = vault_faults.stall_ns(i, now)
            if stall > 0.0:
                data_ready += stall
                done += stall
        if self.trace is not None:
            vault, bank = module.vaults.map_address(pkt.address)
            self.trace.emit(
                now,
                "dram",
                "dram.access",
                module=i,
                vault=vault,
                bank=bank,
                read=is_read,
                start=access.start,
                data_ready=access.data_ready,
                done=access.done,
            )
        sim = self.sim
        if is_read:
            resp = Packet(
                _READ_RESP,
                pkt.address,
                PROCESSOR,
                i,
                pkt.issue_time,
                pkt.stream,
            )
            resp.dram_start = access.start
            # Inlined schedule_at: data_ready >= now by construction.
            heappush(
                sim._queue,
                (
                    data_ready,
                    sim._seq,
                    lambda: module.resp_out.enqueue(resp, sim.now),
                ),
            )
        else:
            heappush(sim._queue, (done, sim._seq, self._count_write_done))
        sim._seq += 1

    def _count_write_done(self) -> None:
        self.completed_writes += 1

    # ------------------------------------------------------------------
    # Response-link wakeup strategies (Sections V and VI-B)
    # ------------------------------------------------------------------
    def _wake_response_path(self, dest: int, now: float) -> None:
        mode = self.response_wake_mode
        if mode == "none" or not self._has_roo_links:
            return
        if mode == "module":
            self.modules[dest].resp_out.wake_proactively(now)
            return
        if mode != "path":
            raise ValueError(f"unknown response_wake_mode {mode!r}")
        t = now
        node = dest
        while node != PROCESSOR:
            link = self.modules[node].resp_out
            if t <= now:
                link.wake_proactively(now)
            else:
                self.sim.schedule_at(
                    t, (lambda l: lambda: l.wake_proactively(self.sim.now))(link)
                )
            flit_time, serdes, _power = link._effective_width(t)
            t += ROUTER_LATENCY_NS + serdes + 5 * flit_time
            node = self.topology.parent[node]

    # ------------------------------------------------------------------
    # Injection / completion (the processor side)
    # ------------------------------------------------------------------
    def inject_read(self, address: int, now: float, stream: int = 0) -> None:
        """Issue a read for ``address`` from the processor at ``now``.

        A ``now`` in the simulator's future is scheduled rather than
        injected immediately, so callers may pre-program arrivals.
        """
        if now > self.sim.now:
            self.sim.schedule_at(
                now, lambda: self._inject_read_now(address, stream)
            )
            return
        self._inject_read_now(address, stream)

    def _inject_read_now(self, address: int, stream: int) -> None:
        now = self.sim.now
        dest = self.mapping.module_of(address)
        pkt = Packet(_READ_REQ, address, dest, PROCESSOR, now, stream)
        path = self._path_modules[dest]
        for m in path:
            m.outstanding_subtree_reads += 1
        self.injected_reads += 1
        self.sum_traversals += 2 * len(path)
        self._root_req.enqueue(pkt, now)

    def inject_write(self, address: int, now: float, stream: int = 0) -> None:
        """Issue a posted write for ``address`` at ``now``.

        Future timestamps are scheduled, as with :meth:`inject_read`.
        """
        if now > self.sim.now:
            self.sim.schedule_at(
                now, lambda: self._inject_write_now(address, stream)
            )
            return
        self._inject_write_now(address, stream)

    def _inject_write_now(self, address: int, stream: int) -> None:
        now = self.sim.now
        dest = self.mapping.module_of(address)
        pkt = Packet(_WRITE_REQ, address, dest, PROCESSOR, now, stream)
        self.injected_writes += 1
        self.sum_traversals += len(self._path_modules[dest])
        self._root_req.enqueue(pkt, now)

    def _complete_read(self, pkt: Packet, now: float) -> None:
        latency = now - pkt.issue_time
        self.completed_reads += 1
        self.sum_read_latency_ns += latency
        if latency > self.max_read_latency_ns:
            self.max_read_latency_ns = latency
        gating = self.aware_sleep_gating
        for module in self._path_modules[pkt.src]:
            module.outstanding_subtree_reads -= 1
            if (
                gating
                and module.outstanding_subtree_reads == 0
                and module.resp_out is not None
            ):
                module.resp_out.retry_sleep(now)
        for listener in self.read_listeners:
            listener(pkt, now)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm link idle timers; call once before running the simulator."""
        if self.aware_sleep_gating:
            for module in self.modules:
                link = module.resp_out
                mod = module
                link.can_sleep = (
                    lambda m=mod: m.outstanding_subtree_reads == 0
                )
        for link in self.all_links():
            link.start(self.sim.now)

    @property
    def has_roo_links(self) -> bool:
        """Whether any link's mechanism supports row-open/off (ROO)."""
        return self._has_roo_links

    @property
    def has_width_scaling_links(self) -> bool:
        """Whether any link's mechanism supports width scaling."""
        return self._has_width_scaling_links

    def all_links(self) -> List[LinkController]:
        """Every unidirectional link controller in the network.

        Returns a fresh copy of the list built at construction time
        (request then response per module, in module order) so callers
        may mutate it freely.
        """
        return list(self._links)

    @property
    def channel_req(self) -> LinkController:
        """The processor-to-network request link."""
        return self.modules[0].req_in

    @property
    def channel_resp(self) -> LinkController:
        """The network-to-processor response link."""
        return self.modules[0].resp_out

    @property
    def avg_read_latency_ns(self) -> float:
        """Mean end-to-end read latency so far."""
        if not self.completed_reads:
            return 0.0
        return self.sum_read_latency_ns / self.completed_reads

    def finalize(self, window_ns: float) -> None:
        """Close energy accounting: flush links and charge leakage."""
        now = self.sim.now
        for link in self.all_links():
            link.accrue(now)
            link.trace_finalize(now)
        for module in self.modules:
            leak_dram = self.power_model.dram_leakage_w(module.radix)
            leak_logic = self.power_model.logic_leakage_w(module.radix)
            module.ledger.dram_leak_j += leak_dram * window_ns * 1e-9
            module.ledger.logic_leak_j += leak_logic * window_ns * 1e-9
