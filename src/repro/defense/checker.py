"""Bitstream scrutiny of tenant designs.

Cloud providers screen the final implementation artifact for malicious
structures before loading it ([28], [31] in the paper).  The checker
here operates purely on the pseudo-bitstream
(:class:`~repro.fpga.bitstream.Bitstream`) and implements:

``comb-loop``
    Reject combinational cycles (catches ring oscillators — the AWS F1
    rule).
``carry-sampler``
    Reject long carry chains whose taps feed flip-flop data inputs (the
    TDC signature; deployable-today heuristic from [11]).
``latch``
    Reject transparent-latch configurations ([13]-style TDCs).

These rules catch every *traditional-logic* sensor but are blind to
LeakyDSP — the paper's central evasion claim — because DSP frames are
outside their scope.  The paper then *proposes* DSP-aware rules
(Section V: "enforcing synchronized inputs or mandatory timing checks
on DSP configurations"); enabling ``dsp_rules=True`` adds:

``dsp-async``
    Reject fully-combinational DSP blocks (every pipeline register
    bypassed) cascaded into a registered terminal block — the LeakyDSP
    configuration.

With ``dsp_rules`` the checker flags LeakyDSP too, at the documented
cost of rejecting benign asynchronous DSP usage (the flexibility loss
the paper notes).

Finally, :meth:`BitstreamChecker.check_timing` implements the paper's
other proposed mitigation — mandatory timing checks — by running STA
over the submitted design against the clock the *tenant declares*.
Every delay sensor grossly violates setup at its true sampling clock,
but, exactly as the paper observes, the check "can be bypassed using
programmable clock-generating circuits": declare a slow clock, generate
the fast one on-chip, and the same bitstream passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.fpga.bitstream import Bitstream

if TYPE_CHECKING:
    import networkx as nx

#: Carry chains at least this long that sample into FFs are flagged.
CARRY_CHAIN_THRESHOLD = 8

#: Paths slower than this many declared-clock periods are treated as
#: deliberate timing abuse rather than an implementation miss.
TIMING_ABUSE_FACTOR = 1.05


@dataclass(frozen=True)
class Finding:
    """One rule violation found in a bitstream."""

    rule: str
    severity: str
    cells: Tuple[str, ...]
    message: str


class BitstreamChecker:
    """Static scanner over pseudo-bitstreams.

    Parameters
    ----------
    dsp_rules:
        Enable the paper's proposed DSP-configuration rules (off by
        default: today's checkers do not inspect DSP frames).
    carry_chain_threshold:
        Minimum sampled carry-chain length treated as a TDC.
    """

    def __init__(
        self,
        dsp_rules: bool = False,
        carry_chain_threshold: int = CARRY_CHAIN_THRESHOLD,
    ) -> None:
        self.dsp_rules = dsp_rules
        self.carry_chain_threshold = carry_chain_threshold

    # ------------------------------------------------------------------
    def check(self, bitstream: Bitstream) -> List[Finding]:
        """Scan a bitstream; returns all findings (empty = accepted)."""
        findings: List[Finding] = []
        findings.extend(self._check_comb_loops(bitstream))
        findings.extend(self._check_carry_samplers(bitstream))
        if self.dsp_rules:
            findings.extend(self._check_dsp_async(bitstream))
        return findings

    def accepts(self, bitstream: Bitstream) -> bool:
        """Whether the design would be allowed onto the device."""
        return not self.check(bitstream)

    def check_timing(
        self, bitstream: Bitstream, declared_clock_hz: float
    ) -> List[Finding]:
        """The paper's proposed mandatory timing check.

        Reconstructs the netlist from the artifact and runs setup STA
        against the clock the tenant *declared*.  Paths slower than
        :data:`TIMING_ABUSE_FACTOR` declared periods are flagged — a
        legitimate design never ships with gross setup violations, but
        every delay sensor needs one.

        The catch (Section V): the provider can only check declared
        constraints.  A tenant that declares a slow clock and derives
        the real sampling clock on-chip passes this check with the same
        bitstream — the bypass the defense study demonstrates.
        """
        from repro.fpga.bitstream import reconstruct_netlist
        from repro.timing.sampling import ClockSpec
        from repro.timing.sta import TimingAnalyzer

        netlist = reconstruct_netlist(bitstream)
        report = TimingAnalyzer(netlist).analyze(ClockSpec(declared_clock_hz))
        findings: List[Finding] = []
        for loop in report.loops:
            findings.append(
                Finding(
                    rule="timing-loop",
                    severity="reject",
                    cells=tuple(sorted(loop)),
                    message="combinational cycle is untimeable",
                )
            )
        period = 1.0 / declared_clock_hz
        for path in report.failing_paths:
            if path.delay > TIMING_ABUSE_FACTOR * period:
                findings.append(
                    Finding(
                        rule="timing-abuse",
                        severity="reject",
                        cells=(path.start, path.end),
                        message=(
                            f"path {path.start} -> {path.end} takes "
                            f"{path.delay*1e9:.2f} ns against a declared "
                            f"{period*1e9:.2f} ns period"
                        ),
                    )
                )
        return findings

    # ------------------------------------------------------------------
    def _cell_types(self, bitstream: Bitstream) -> Dict[str, object]:
        return {f.cell: f for f in bitstream.frames}

    def _is_barrier(self, frame) -> bool:
        """Sequential barrier from configuration data alone."""
        if frame.cell_type == "FDRE":
            return True
        if frame.cell_type in ("DSP48E1", "DSP48E2"):
            regs = ("AREG", "ADREG", "MREG", "PREG")
            return any(int(frame.attribute(r, 0)) > 0 for r in regs)
        return False

    def _graph(self, bitstream: Bitstream) -> "nx.DiGraph":
        import networkx as nx

        g = nx.DiGraph()
        frames = self._cell_types(bitstream)
        for cell in frames:
            g.add_node(cell)
        for route in bitstream.routes:
            src = route.driver[0]
            for cell, _port in route.sinks:
                if src in frames and cell in frames:
                    g.add_edge(src, cell, port=_port)
        return g

    def _check_comb_loops(self, bitstream: Bitstream) -> List[Finding]:
        import networkx as nx

        frames = self._cell_types(bitstream)
        g = self._graph(bitstream)
        barriers = {c for c, f in frames.items() if self._is_barrier(f)}
        comb = g.subgraph(n for n in g.nodes if n not in barriers)
        findings = []
        for cycle in nx.simple_cycles(comb):
            findings.append(
                Finding(
                    rule="comb-loop",
                    severity="reject",
                    cells=tuple(sorted(cycle)),
                    message=(
                        f"combinational loop through {len(cycle)} cell(s): "
                        "ring-oscillator structure"
                    ),
                )
            )
        return findings

    def _check_carry_samplers(self, bitstream: Bitstream) -> List[Finding]:
        import networkx as nx

        frames = self._cell_types(bitstream)
        g = self._graph(bitstream)
        carries = {c for c, f in frames.items() if f.cell_type == "CARRY4"}
        if not carries:
            return []
        # Walk CARRY4 -> CARRY4 chains.
        chain_graph = g.subgraph(carries)
        findings = []
        for component in nx.weakly_connected_components(chain_graph):
            # Sampled taps: CARRY4 outputs in this chain feeding FF D pins.
            sampled = 0
            for cell in component:
                for _src, dst, data in g.out_edges(cell, data=True):
                    if frames.get(dst) is not None and frames[dst].cell_type == "FDRE":
                        if data.get("port") == "D":
                            sampled += 1
            chain_stages = len(component) * 4
            if chain_stages >= self.carry_chain_threshold and sampled >= self.carry_chain_threshold:
                findings.append(
                    Finding(
                        rule="carry-sampler",
                        severity="reject",
                        cells=tuple(sorted(component)),
                        message=(
                            f"carry chain of {chain_stages} stages with "
                            f"{sampled} sampled taps: TDC structure"
                        ),
                    )
                )
        return findings

    def _check_dsp_async(self, bitstream: Bitstream) -> List[Finding]:
        frames = self._cell_types(bitstream)
        g = self._graph(bitstream)
        findings = []
        async_regs = ("AREG", "BREG", "CREG", "DREG", "ADREG", "MREG")
        for cell, frame in frames.items():
            if frame.cell_type not in ("DSP48E1", "DSP48E2"):
                continue
            fully_comb = all(int(frame.attribute(r, 1)) == 0 for r in async_regs)
            if not fully_comb:
                continue
            # Cascades into another DSP, or is itself the registered
            # terminal block of a cascade?
            cascaded = any(
                frames.get(dst) is not None
                and frames[dst].cell_type in ("DSP48E1", "DSP48E2")
                for _s, dst in g.out_edges(cell)
            ) or any(
                frames.get(src) is not None
                and frames[src].cell_type in ("DSP48E1", "DSP48E2")
                for src, _d in g.in_edges(cell)
            )
            if cascaded:
                findings.append(
                    Finding(
                        rule="dsp-async",
                        severity="reject",
                        cells=(cell,),
                        message=(
                            "fully-combinational DSP block in a cascade: "
                            "unsynchronized DSP datapath (LeakyDSP structure)"
                        ),
                    )
                )
        return findings
