"""RC-mesh reference model of an FPGA power delivery network.

The on-die PDN is a metal grid tied to the package supply through bump
resistances, with distributed decoupling capacitance.  We model it as an
``nx x ny`` node grid:

* each node connects to its four neighbours through a grid resistance
  ``r_grid``;
* each node connects to the ideal supply ``v_nominal`` through a via/bump
  resistance ``r_via`` (scaled by a per-node supply-strength map to model
  the die's non-uniform power design, the effect the paper observes in
  Fig. 4);
* each node carries a decoupling capacitance ``c_node`` to ground.

Static IR drop solves ``G v = i`` with a sparse conductance matrix;
the transient response uses backward-Euler integration, unconditionally
stable for stiff RC systems.

This solver is O(nodes^1.5) per step and is used for validation and for
calibrating the fast surrogate in :mod:`repro.pdn.coupling` — bulk trace
generation never touches it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import scipy.sparse as sp


class PDNMesh:
    """Sparse RC-mesh PDN solver.

    Parameters
    ----------
    nx, ny:
        Grid extent in nodes.
    r_grid:
        Resistance of one horizontal/vertical grid segment [ohm].
    r_via:
        Resistance from each node to the ideal supply [ohm].
    c_node:
        Decoupling capacitance per node [F].
    v_nominal:
        Ideal supply voltage [V].
    supply_strength:
        Optional ``(ny, nx)`` array of per-node supply-strength
        multipliers; values > 1 stiffen the local supply (less droop).
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        r_grid: float = 0.5,
        r_via: float = 25.0,
        c_node: float = 40e-12,
        v_nominal: float = 1.0,
        supply_strength: Optional[np.ndarray] = None,
    ) -> None:
        if nx < 2 or ny < 2:
            raise ConfigurationError("PDN mesh needs at least 2x2 nodes")
        if r_grid <= 0 or r_via <= 0 or c_node <= 0:
            raise ConfigurationError("PDN mesh element values must be positive")
        self.nx = nx
        self.ny = ny
        self.r_grid = r_grid
        self.r_via = r_via
        self.c_node = c_node
        self.v_nominal = v_nominal
        if supply_strength is None:
            supply_strength = np.ones((ny, nx))
        supply_strength = np.asarray(supply_strength, dtype=float)
        if supply_strength.shape != (ny, nx):
            raise ConfigurationError(
                f"supply_strength must be shaped ({ny}, {nx}), "
                f"got {supply_strength.shape}"
            )
        if np.any(supply_strength <= 0):
            raise ConfigurationError("supply_strength must be positive")
        self.supply_strength = supply_strength
        self._g = self._build_conductance()
        self._lu = None

    # ------------------------------------------------------------------
    def node_index(self, x: int, y: int) -> int:
        """Flattened index of grid node ``(x, y)``."""
        if not (0 <= x < self.nx and 0 <= y < self.ny):
            raise ConfigurationError(f"node ({x}, {y}) outside {self.nx}x{self.ny} mesh")
        return y * self.nx + x

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return self.nx * self.ny

    def _build_conductance(self) -> "sp.csc_matrix":
        # scipy.sparse is imported here, not at module load: campaigns
        # import this module (through the coupling surrogate) but never
        # build a mesh.
        import scipy.sparse as sp

        n = self.num_nodes
        g_grid = 1.0 / self.r_grid
        rows, cols, vals = [], [], []
        diag = np.zeros(n)

        def add(i: int, j: int, g: float) -> None:
            rows.append(i)
            cols.append(j)
            vals.append(-g)
            diag[i] += g

        for y in range(self.ny):
            for x in range(self.nx):
                i = self.node_index(x, y)
                if x + 1 < self.nx:
                    j = self.node_index(x + 1, y)
                    add(i, j, g_grid)
                    add(j, i, g_grid)
                if y + 1 < self.ny:
                    j = self.node_index(x, y + 1)
                    add(i, j, g_grid)
                    add(j, i, g_grid)
                # Via to the ideal supply.
                diag[i] += self.supply_strength[y, x] / self.r_via

        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        return sp.csc_matrix((vals, (rows, cols)), shape=(n, n))

    def _supply_current(self) -> np.ndarray:
        """Current injected by the supply vias when all nodes sit at
        ``v_nominal`` (the RHS contribution of the vias)."""
        return (
            self.supply_strength.reshape(-1) / self.r_via * self.v_nominal
        )

    # ------------------------------------------------------------------
    def solve_static(self, loads: Dict[Tuple[int, int], float]) -> np.ndarray:
        """Static IR-drop solve.

        Parameters
        ----------
        loads:
            Mapping from node ``(x, y)`` to drawn current [A].

        Returns
        -------
        numpy.ndarray
            ``(ny, nx)`` node voltages [V].
        """
        rhs = self._supply_current()
        for (x, y), current in loads.items():
            if current < 0:
                raise ConfigurationError("load currents must be non-negative")
            rhs[self.node_index(x, y)] -= current
        if self._lu is None:
            import scipy.sparse.linalg as spla

            self._lu = spla.splu(self._g)
        v = self._lu.solve(rhs)
        return v.reshape(self.ny, self.nx)

    def transient(
        self,
        load_nodes: Sequence[Tuple[int, int]],
        load_currents: np.ndarray,
        dt: float,
        v0: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Backward-Euler transient solve.

        Parameters
        ----------
        load_nodes:
            The ``(x, y)`` node of each load.
        load_currents:
            ``(n_loads, n_steps)`` drawn current per load per step [A].
        dt:
            Time step [s].
        v0:
            Initial node voltages, ``(ny, nx)``; defaults to the no-load
            static solution.

        Returns
        -------
        numpy.ndarray
            ``(n_steps, ny, nx)`` node voltages.
        """
        load_currents = np.atleast_2d(np.asarray(load_currents, dtype=float))
        if load_currents.shape[0] != len(load_nodes):
            raise ConfigurationError(
                "load_currents must have one row per load node "
                f"({load_currents.shape[0]} rows for {len(load_nodes)} nodes)"
            )
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = self.num_nodes
        n_steps = load_currents.shape[1]
        c_over_dt = self.c_node / dt
        system = (self._g + sp.identity(n, format="csc") * c_over_dt).tocsc()
        lu = spla.splu(system)

        if v0 is None:
            v = self.solve_static({}).reshape(-1)
        else:
            v = np.asarray(v0, dtype=float).reshape(-1).copy()

        supply = self._supply_current()
        indices = [self.node_index(x, y) for x, y in load_nodes]
        out = np.empty((n_steps, n))
        for step in range(n_steps):
            rhs = supply + c_over_dt * v
            for li, node in enumerate(indices):
                rhs[node] -= load_currents[li, step]
            v = lu.solve(rhs)
            out[step] = v
        return out.reshape(n_steps, self.ny, self.nx)

    # ------------------------------------------------------------------
    def coupling_profile(self, load_node: Tuple[int, int], current: float = 1e-3) -> np.ndarray:
        """Static voltage droop at every node for a unit-ish load at one
        node — the empirical kernel the fast surrogate is fitted to.

        Returns a ``(ny, nx)`` array of droops [V] (positive numbers).
        """
        idle = self.solve_static({})
        loaded = self.solve_static({load_node: current})
        return idle - loaded
