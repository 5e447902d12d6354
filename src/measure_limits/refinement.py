"""Common refinements of step functions and measures.

A partition spans the whole shared domain (infinite endpoints included as
edges) and contains every structural breakpoint of every input, so each
input is constant -- or a single analytic piece -- on every partition
cell.  Atom locations are listed separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import PiecewiseFn
from .kernels import union_edges
from .measures import FiniteMeasure
from .xreal import DomainMismatchError, Interval


@dataclass(frozen=True)
class Partition:
    edges: np.ndarray
    atoms: np.ndarray
    domain: Interval

    @property
    def n_cells(self) -> int:
        return max(self.edges.size - 1, 0)


def common_refinement(objs) -> Partition:
    """Minimal ordered partition on which every input object is constant."""
    if not objs:
        raise ValueError("need at least one object")
    domain = objs[0].domain
    pieces = [np.asarray([domain.lo, domain.hi])]
    atom_sets = []
    for obj in objs:
        if obj.domain != domain:
            raise DomainMismatchError(
                f"domain {obj.domain} differs from {domain}")
        if isinstance(obj, PiecewiseFn):
            pieces.append(obj.breakpoints)
        elif isinstance(obj, FiniteMeasure):
            pieces.append(obj.piece_edges())
            atom_sets.append(obj.atom_locs)
        else:
            raise TypeError(f"cannot refine {type(obj).__name__}")
    edges = union_edges(pieces)
    atoms = np.unique(np.concatenate(atom_sets)) if atom_sets else np.empty(0)
    return Partition(edges, atoms, domain)


def fn_cell_values(f: PiecewiseFn, p: Partition) -> np.ndarray:
    """Per-cell values of f; valid when p refines f's breakpoints.

    A partition made of f's own breakpoints and the domain ends copies
    ``f.values`` directly; any other partition evaluates f at each cell's
    left edge (see :meth:`PiecewiseFn.cell_values`).
    """
    return f.cell_values(p.edges)


def measure_cell_masses(m: FiniteMeasure, p: Partition) -> np.ndarray:
    """Per-cell masses of the non-atomic layers of m."""
    if p.n_cells == 0:
        return np.empty(0)
    return m.continuous_cell_masses(p.edges)


def atom_weights_at(m: FiniteMeasure, locs: np.ndarray) -> np.ndarray:
    """Weights of m's atoms at the given sorted locations (0 where absent)."""
    out = np.zeros(locs.size)
    if m.atom_locs.size and locs.size:
        idx = np.searchsorted(locs, m.atom_locs)
        ok = (idx < locs.size) & (locs[np.minimum(idx, locs.size - 1)] == m.atom_locs)
        np.add.at(out, idx[ok], m.atom_weights[ok])
    return out


def refined_values_masses(f: PiecewiseFn, m: FiniteMeasure
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (values, masses) arrays covering cells then atoms.

    One deterministic pairing that integration and tail functionals share;
    reductions over it are exact for piecewise inputs.
    """
    if f.domain != m.domain:
        raise DomainMismatchError("function and measure domains differ")
    p = common_refinement([f, m])
    vals = fn_cell_values(f, p)
    masses = measure_cell_masses(m, p)
    if p.atoms.size:
        vals = np.concatenate([vals, f.values_at(p.atoms)])
        masses = np.concatenate([masses, atom_weights_at(m, p.atoms)])
    return vals, masses
