"""Host-speed probe: rescale measured times to a fixed reference host speed.

The benchmark runs on a share of a machine whose speed moves with its
other tenants: a fixed loop of interpreter work reads up to twice as
slow for tens of seconds at a time, much more than any bound
``BENCHMARK.json`` may set.  ``cold_sweep``, ``warm_replay`` and every
workload's set-up therefore run :func:`kernel`, a fixed amount of
interpreter work of the kind the simulator does, between their units of
measured work.  A unit's host time ``t`` is reported as
``t * PROBE_REF_S / p``, where ``p`` is the probe time around it: the
time the unit would have taken on a host on which the kernel takes
``PROBE_REF_S``.  The kernel is this directory's code only and imports
nothing from the program, so a change to the program cannot move it.
Probe time is never part of a timed unit, and the raw host times are
printed beside the rescaled ones.

The kernel has two parts, because the host's slow spells slow
cache-resident dispatch more than work that misses the cache: a small
event loop (heap pushes and pops, bound-method calls, attribute and
dict updates), then a pointer chase over a few megabytes of objects.
On a 2-vCPU Xeon VM, grids of simulations slowed with the loop alone at
a log-log slope of 0.55 to 0.82 (it over-corrects), with a random walk
over 3 to 30 MB of objects alone at 1.1 to 1.5, and with a 70/30 mix of
the two at 0.96 to 0.99.  The chase is that walk made lighter per step,
and the loop takes about 70 % of the kernel's time.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import List, Optional, Sequence

#: Events the kernel's loop dispatches per probe.
PROBE_EVENTS = 3000
#: Cells of the pointer chase and steps taken per probe.
CHASE_CELLS = 30_000
CHASE_STEPS = 18_000
#: Probe time that defines the reference host speed (seconds): about the
#: kernel's time on a quiet 2-vCPU Xeon VM.  Rescaled times read as host
#: seconds on a host where one probe takes this long.
PROBE_REF_S = 0.005


class _Port:
    """A toy event handler: counts, forwards and reschedules."""

    __slots__ = ("loop", "name", "sent", "table", "peer")

    def __init__(self, loop: "_Loop", name: int) -> None:
        self.loop = loop
        self.name = name
        self.sent = 0
        self.table = {}
        self.peer = self

    def fire(self) -> None:
        self.sent += 1
        slot = (self.sent * 7 + self.name) & 31
        self.table[slot] = self.table.get(slot, 0) + 1
        self.loop.schedule(1.0 + (self.sent * 13 + self.name) % 11, self.peer.fire)


class _Loop:
    __slots__ = ("now", "queue", "seq")

    def __init__(self) -> None:
        self.now = 0.0
        self.queue: list = []
        self.seq = 0

    def schedule(self, delay: float, callback) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, self.seq, callback))

    def run(self, events: int) -> None:
        queue = self.queue
        pop = heapq.heappop
        for _ in range(events):
            self.now, _seq, callback = pop(queue)
            callback()


class _Cell:
    __slots__ = ("value", "hits", "next")

    def __init__(self, value: float) -> None:
        self.value = value
        self.hits = 0
        self.next: Optional["_Cell"] = None


def make_chase(cells: int = CHASE_CELLS) -> _Cell:
    """The first of ``cells`` cells linked in a fixed random cycle."""
    made = [_Cell(float(i)) for i in range(cells)]
    order = list(range(cells))
    random.Random(cells).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        made[here].next = made[there]
    return made[0]


def kernel(chase: _Cell, events: int = PROBE_EVENTS, steps: int = CHASE_STEPS) -> int:
    """A fixed, deterministic amount of interpreter work; returns a checksum."""
    loop = _Loop()
    ports = [_Port(loop, i) for i in range(48)]
    for i, port in enumerate(ports):
        port.peer = ports[(i * 5 + 1) % len(ports)]
        loop.schedule(float(i % 7), port.fire)
    loop.run(events)
    cell = chase
    total = 0.0
    for _ in range(steps):
        cell.hits += 1
        total += cell.value
        cell = cell.next
    return sum(port.sent for port in ports) + int(total) % 1000


def rescale(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` of host time at the reference speed, given the probes
    taken around it (their mean stands for the host's speed then)."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)


class Probes:
    """The probe's cells and the probe times of one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._chase = make_chase()

    def take(self) -> float:
        """Time one :func:`kernel` call; remember and return the seconds."""
        start = time.perf_counter()
        kernel(self._chase)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def speed(self) -> float:
        """Median host speed of the run, as reference probe time over probe time."""
        return PROBE_REF_S / statistics.median(self.samples)
