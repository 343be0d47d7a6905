"""Static timing analysis over placed-and-routed netlists.

Section V of the paper proposes "mandatory timing checks on DSP
configurations" as a countermeasure — every delay-sensing circuit
(LeakyDSP, TDC, RDS) works precisely *because* its sampling register
closes a path that violates setup timing.  This module provides the STA
the provider-side check needs:

* longest-path arrival analysis over the combinational cell graph
  (sequential cells are path start/end points);
* per-endpoint slack against a clock constraint;
* a :class:`TimingReport` with the worst paths, consumed by
  :class:`repro.defense.checker.BitstreamChecker`'s timing rule.

The paper also notes the check "can be bypassed using programmable
clock-generating circuits": the tenant, not the provider, declares the
clock each domain runs at.  The report is therefore computed against a
*declared* clock — run the analysis with an honest constraint and
LeakyDSP fails spectacularly; let the attacker declare a slow clock and
the same netlist passes.  The defense study demonstrates both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NetlistError
from repro.fpga.netlist import Cell, Netlist
from repro.fpga.placement import Placement
from repro.fpga.routing import Routing
from repro.timing.paths import ROUTING_DELAY_BASE, cell_through_delay
from repro.timing.sampling import ClockSpec

#: Register setup time budgeted at every sequential endpoint [s].
SETUP_TIME = 50e-12


@dataclass(frozen=True)
class TimingPath:
    """One timed path from a start point to an endpoint."""

    start: str
    end: str
    delay: float
    slack: float

    @property
    def met(self) -> bool:
        """Whether the path meets its constraint."""
        return self.slack >= 0


@dataclass
class TimingReport:
    """STA results for one clock domain."""

    clock: ClockSpec
    paths: List[TimingPath] = field(default_factory=list)
    #: Combinational cycles found (untimeable; always a violation).
    loops: List[List[str]] = field(default_factory=list)

    @property
    def worst_slack(self) -> float:
        """Worst negative slack (WNS); +inf for an empty design."""
        if not self.paths:
            return float("inf")
        return min(p.slack for p in self.paths)

    @property
    def failing_paths(self) -> List[TimingPath]:
        """Paths that violate setup, worst first."""
        return sorted(
            (p for p in self.paths if not p.met), key=lambda p: p.slack
        )

    @property
    def passes(self) -> bool:
        """Whether the design meets timing (and has no loops)."""
        return not self.loops and self.worst_slack >= 0


class TimingAnalyzer:
    """Longest-path STA at cell granularity.

    Parameters
    ----------
    netlist:
        The design.
    placement, routing:
        Optional physical data; with routing present, per-connection
        wire delays are exact, otherwise the base local-interconnect
        delay is assumed for every net.
    """

    def __init__(
        self,
        netlist: Netlist,
        placement: Optional[Placement] = None,
        routing: Optional[Routing] = None,
    ) -> None:
        self.netlist = netlist
        self.placement = placement
        self.routing = routing

    # ------------------------------------------------------------------
    def _wire_delay(self, net_name: str, sink_cell: str) -> float:
        if self.routing is not None and net_name in self.routing.nets:
            try:
                return self.routing.nets[net_name].delay_to(sink_cell)
            except NetlistError:
                return ROUTING_DELAY_BASE
        return ROUTING_DELAY_BASE

    def _is_barrier(self, cell: Cell) -> bool:
        return cell.is_sequential_barrier

    def analyze(self, clock: ClockSpec) -> TimingReport:
        """Run setup analysis against one declared clock."""
        import networkx as nx

        report = TimingReport(clock=clock)
        cells = self.netlist.cells
        ports = self.netlist.ports

        # Build the timing graph: edges carry wire delay, nodes carry
        # through-delay (zero for barriers — their outputs relaunch).
        g = nx.DiGraph()
        for name in cells:
            g.add_node(name)
        for name in ports:
            g.add_node(name)
        for net in self.netlist.nets.values():
            if net.driver is None:
                continue
            src = net.driver[0]
            for sink, _port in net.sinks:
                if src == sink:
                    # Self-loop (e.g. an FF feeding its own D): only a
                    # violation if combinational, handled below.
                    continue
                g.add_edge(src, sink, wire=self._wire_delay(net.name, sink))

        barrier = {
            name
            for name, cell in cells.items()
            if self._is_barrier(cell)
        } | set(ports)

        # Combinational cycles make the design untimeable.
        comb_sub = g.subgraph(n for n in g.nodes if n not in barrier)
        report.loops = [list(c) for c in nx.simple_cycles(comb_sub)]
        if report.loops:
            return report

        def through(name: str) -> float:
            if name in ports:
                return 0.0
            cell = cells[name]
            if self._is_barrier(cell):
                return 0.0
            return cell_through_delay(cell)

        # Longest-path arrivals over the DAG of combinational nodes,
        # launched from barriers/ports.
        order = list(nx.topological_sort(g.subgraph(
            n for n in g.nodes if n not in barrier
        )))
        arrival: Dict[str, Tuple[float, str]] = {}

        def launch_sources(node: str):
            for src, _dst, data in g.in_edges(node, data=True):
                yield src, data["wire"]

        for node in order:
            best = 0.0
            origin = node
            for src, wire in launch_sources(node):
                if src in barrier:
                    cand = wire
                    cand_origin = src
                else:
                    if src not in arrival:
                        continue
                    cand = arrival[src][0] + wire
                    cand_origin = arrival[src][1]
                if cand >= best:
                    best = cand
                    origin = cand_origin
            arrival[node] = (best + through(node), origin)

        # Endpoints: barrier cells receiving combinational fanin.
        period = clock.period
        for name in barrier:
            if name in ports:
                continue
            worst = None
            for src, _dst, data in g.in_edges(name, data=True):
                if src in barrier:
                    delay = data["wire"]
                    origin = src
                else:
                    if src not in arrival:
                        continue
                    delay = arrival[src][0] + data["wire"]
                    origin = arrival[src][1]
                if worst is None or delay > worst[0]:
                    worst = (delay, origin)
            if worst is None:
                continue
            delay, origin = worst
            slack = period - SETUP_TIME - delay
            report.paths.append(
                TimingPath(start=origin, end=name, delay=delay, slack=slack)
            )
        report.paths.sort(key=lambda p: p.slack)
        return report
