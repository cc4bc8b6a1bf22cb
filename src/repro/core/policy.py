"""Management-policy base: the 100 us epoch loop and mode selection.

Both management schemes (network-unaware, Section V; network-aware,
Section VI) share the same skeleton:

1. during an epoch, link controllers accumulate hardware counters;
2. at the epoch boundary the policy computes AMS budgets (Equation 1),
   estimates each candidate mode's future latency overhead (FLO), and
   sets every link to the lowest-power mode whose FLO fits its budget;
3. during the next epoch, links that exceed their budget trip the
   violation hook and fall back to full power (Li et al.'s
   performance-directed feedback control).

Subclasses implement :meth:`_assign_budgets` which maps this epoch's
counters to a per-link AMS (and, for the network-aware scheme, runs
ISP).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

from repro.registry import Registry

if TYPE_CHECKING:  # import-cycle-free type hints only
    from repro.network.links import LinkController
    from repro.network.network import MemoryNetwork

__all__ = [
    "ManagementPolicy",
    "EPOCH_NS",
    "select_lowest_power_mode",
    "ordered_candidates",
    "POLICIES",
    "POLICY_NAMES",
    "make_policy",
]

#: Epoch length (Section V, after Ahn et al. DAC'14).
EPOCH_NS: float = 100_000.0

#: Registry of management-policy factories.  Each factory is called as
#: ``factory(network, alpha, epoch_ns)`` and returns an object with a
#: ``start()`` method, or ``None`` for the unmanaged baseline.  The
#: concrete policy classes are imported lazily inside the factories so
#: this module (which they subclass from) stays import-cycle free.
POLICIES: Registry = Registry("policy")


@POLICIES.register("none")
def _policy_none(network: MemoryNetwork, alpha: float, epoch_ns: float) -> None:
    return None


@POLICIES.register("unaware")
def _policy_unaware(network: MemoryNetwork, alpha: float, epoch_ns: float):
    from repro.core.unaware import NetworkUnawarePolicy

    return NetworkUnawarePolicy(network, alpha, epoch_ns)


@POLICIES.register("aware")
def _policy_aware(network: MemoryNetwork, alpha: float, epoch_ns: float):
    from repro.core.aware import NetworkAwarePolicy

    return NetworkAwarePolicy(network, alpha, epoch_ns)


@POLICIES.register("static")
def _policy_static(network: MemoryNetwork, alpha: float, epoch_ns: float):
    from repro.core.static_baseline import StaticBaselinePolicy

    return StaticBaselinePolicy(network)


#: Recognized management policies (canonical registration order).
POLICY_NAMES = POLICIES.names()


def make_policy(name: str, network: MemoryNetwork, alpha: float, epoch_ns: float):
    """Build policy ``name`` for ``network`` (ValueError when unknown).

    Returns ``None`` for the ``"none"`` policy.
    """
    return POLICIES.get(name)(network, alpha, epoch_ns)


def ordered_candidates(
    link: LinkController, epoch_ns: float, restrict_roo_lowest: bool = False
) -> List[tuple]:
    """Candidate states of ``link`` sorted from highest to lowest power.

    Returns ``(state, predicted_power, flo)`` triples.  With
    ``restrict_roo_lowest`` only the most aggressive idleness threshold
    is considered and the ROO FLO term is dropped -- used by the
    network-aware scheme for response links whose wakeups it hides.
    """
    states = link.candidate_states()
    if restrict_roo_lowest and link.mech.has_roo:
        lowest = len(link.mech.roo_thresholds) - 1
        states = [s for s in states if s.roo_index == lowest]
    out = []
    for state in states:
        power = link.predicted_power_fraction(state, epoch_ns)
        if restrict_roo_lowest:
            flo = link.flo_width(state.width_index)
        else:
            flo = link.estimate_flo(state)
        out.append((state, power, flo))
    out.sort(key=lambda t: (-t[1], t[0].width_index))
    return out


def select_lowest_power_mode(candidates: List[tuple], ams: float) -> tuple:
    """Pick the lowest-power candidate whose FLO fits within ``ams``.

    Falls back to the first (highest-power) candidate when nothing fits.
    Returns ``(state, flo)``.
    """
    best = candidates[0]
    for cand in candidates:
        if cand[2] <= ams:
            best = cand
    return best[0], best[2]


class ManagementPolicy:
    """Skeleton epoch-driven link power management."""

    #: Response-link wakeup strategy configured on the network.
    response_wake_mode = "none"
    #: Whether response links refuse to sleep with subtree reads pending.
    aware_sleep_gating = False

    def __init__(
        self,
        network: MemoryNetwork,
        alpha: float,
        epoch_ns: float = EPOCH_NS,
    ) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.network = network
        self.alpha = alpha
        self.epoch_ns = epoch_ns
        self.sim = network.sim
        self.epochs_run = 0
        self.violations = 0
        self.dram_read_latency_ns = network.timing.read_latency_ns
        #: Hooks ``f(links, epoch_ns)`` called in order at each epoch
        #: boundary *before* counters reset -- the harness appends its
        #: per-epoch link statistics here (e.g. Figure 13 link-hours).
        self.epoch_observers: List[
            Callable[[Sequence["LinkController"], float], None]
        ] = []
        #: Optional :class:`repro.obs.Tracer` for ``epoch`` events;
        #: installed by :func:`repro.obs.install_tracer`.
        self.trace = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install hooks and schedule the first epoch boundary."""
        if self.network.has_roo_links:
            self.network.response_wake_mode = self.response_wake_mode
            self.network.aware_sleep_gating = self.aware_sleep_gating
        for link in self.network.all_links():
            link.on_violation = self._on_violation
            link.ams = 0.0
        self.sim.schedule(self.epoch_ns, self._epoch_tick)

    def _epoch_tick(self) -> None:
        now = self.sim.now
        trace = self.trace
        if trace is not None:
            trace.emit(
                now,
                "epoch",
                "epoch.boundary",
                index=self.epochs_run,
                policy=type(self).__name__,
                violations=self.violations,
            )
        if self.epoch_observers:
            links = self.network.all_links()
            for observer in self.epoch_observers:
                observer(links, self.epoch_ns)
        assignments = self._assign_budgets()
        for link in self.network.all_links():
            budget, state = assignments.get(link, (0.0, None))
            if trace is not None and state is not None:
                trace.emit(
                    now,
                    "epoch",
                    "ams.link",
                    link=link.name,
                    ams=budget,
                    width=state.width_index,
                    roo=state.roo_index,
                )
            link.reset_epoch(now)
            link.ams = budget
            if state is not None:
                link.set_mode(state, now)
        for module in self.network.modules:
            module.reset_epoch()
        self.epochs_run += 1
        self.sim.schedule(self.epoch_ns, self._epoch_tick)

    # ------------------------------------------------------------------
    def _assign_budgets(self) -> Dict[LinkController, tuple]:
        """Map each link to ``(ams_budget, LinkModeState-or-None)``.

        Called at the epoch boundary *before* counters reset; subclasses
        read the epoch counters here.
        """
        raise NotImplementedError

    def _on_violation(self, link: LinkController) -> None:
        """Default violation response: full power until the epoch ends."""
        self.violations += 1
        link.force_full_power(self.sim.now)
