"""Common refinements of step functions and measures, one index family at
a time.

A partition spans the whole shared domain (infinite endpoints included as
edges) and contains every structural breakpoint of every input, so each
input is constant -- or a single analytic piece -- on every partition
cell.  Atom locations are listed separately.

``family_pairing`` refines the indices of a family together, in ragged
passes over chunks of consecutive indices: every edge is tagged with its
index and its source, the edges are sorted by (index, value) and
deduplicated within each index, and each input's cell values, density
masses and atom weights are read off running counts of the tags.  Each
index keeps its own refinement, and its values and masses are bit for bit
those of refining that index alone (``refined_values_masses`` is the
one-index call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .functions import PiecewiseFn
from .kernels import union_edges
from .measures import FiniteMeasure
from .xreal import DomainMismatchError, Interval

#: A pass refines consecutive indices together while their inputs hold at
#: most this many edges; an index with more is a pass of its own, so the
#: temporaries of a pass stay a few arrays of its largest index.
CHUNK_EDGES = 1 << 16

_EMPTY = np.empty(0)
#: Tags of the edges a measure contributes, offset per measure.
_CELL_LO, _CELL_HI, _SEG_LO, _SEG_HI, _ATOM = range(5)


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


@dataclass(frozen=True)
class FamilyPairing:
    """The refinements of consecutive indices, as ragged arrays.

    Entries ``offsets[i]:offsets[i + 1]`` of every array belong to the
    chunk's i-th index: its ``n_cells[i]`` partition cells in order, then
    its atoms (the union of its measures' atom locations) in order.
    ``atom`` marks the atom entries, ``values[k]`` is the k-th function's
    value on each entry and ``masses[k]`` the k-th measure's mass of it.
    """

    offsets: np.ndarray
    n_cells: np.ndarray
    atom: np.ndarray
    values: tuple[np.ndarray, ...]
    masses: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.offsets.size - 1


def family_pairing(rows: Iterable) -> Iterator[FamilyPairing]:
    """Ragged common refinements of an indexed family, chunk by chunk.

    ``rows`` yields one ``(functions, measures)`` pair of tuples per index,
    of the same lengths at every index, and is read lazily.  A row whose
    objects do not share one domain raises DomainMismatchError, and an
    exception raised while reading a row is raised only after the chunk of
    the indices before it has been yielded, so a caller that reduces the
    chunks index by index raises at the first index that fails, as a loop
    over the indices would.
    """
    chunk, size, error = [], 0, None
    rows = iter(rows)
    while True:
        try:
            fns, measures = next(rows)
            domain = (fns + measures)[0].domain
            for obj in fns + measures:
                if obj.domain != domain:
                    raise DomainMismatchError(
                        f"domain {obj.domain} differs from {domain}")
        except StopIteration:
            break
        except Exception as exc:
            error = exc
            break
        n = (2 + sum(f.breakpoints.size for f in fns)
             + sum(m.piece_edges().size for m in measures))
        if chunk and size + n > CHUNK_EDGES:
            yield _pair_chunk(chunk)
            chunk, size = [], 0
        chunk.append((fns, measures, domain))
        size += n
    if chunk:
        yield _pair_chunk(chunk)
    if error is not None:
        raise error


def _pair_chunk(rows) -> FamilyPairing:
    """One ragged pass over the rows (fns, measures, domain) of a chunk."""
    n = len(rows)
    n_fns, n_measures = len(rows[0][0]), len(rows[0][1])
    # every edge of every index, grouped by source: the domain ends, each
    # function's breakpoints, then per measure its cell ends, segment ends
    # and atoms; each group lists the indices in order, each one sorted
    groups = [[np.asarray([x for _, _, d in rows for x in (d.lo, d.hi)])]]
    counts = [[2] * n]
    for k in range(n_fns):
        groups.append([r[0][k].breakpoints for r in rows])
        counts.append([a.size for a in groups[-1]])
    for k in range(n_measures):
        ms = [r[1][k] for r in rows]
        seg_lo = [np.asarray([s.lo for s in m.segments]) if m.segments
                  else _EMPTY for m in ms]
        seg_hi = [np.asarray([s.hi for s in m.segments]) if m.segments
                  else _EMPTY for m in ms]
        for part in ([m.cell_los for m in ms], [m.cell_his for m in ms],
                     seg_lo, seg_hi, [m.atom_locs for m in ms]):
            groups.append(part)
            counts.append([a.size for a in part])
    sizes = [sum(c) for c in counts]
    first = 1 + n_fns
    if n == 1:
        # one index: its edges are merged as common_refinement merges them
        # and every element is found among them by binary search
        edges = union_edges([g[0] for g in groups])
        edge_row = np.broadcast_to(np.intp(0), edges.shape)
        n_edges = np.asarray([edges.size])
        left, right = slice(None, -1), slice(1, None)
        on = np.searchsorted(edges, np.concatenate(
            [g[0] for g in groups[first:]] + [_EMPTY])).tolist()

        def seen(k):
            return np.searchsorted(groups[1 + k][0], edges, side="right")
    else:
        vals = np.concatenate([a for g in groups for a in g])
        tags = np.repeat(np.arange(len(groups), dtype=np.int16), sizes)
        row_of = np.repeat(np.tile(np.arange(n), len(counts)),
                           [c for cs in counts for c in cs])
        order = np.lexsort((vals, row_of))
        row_of, vals, tags = row_of[order], vals[order], tags[order]
        del order
        # the last element of each run of equal (index, value) stands for
        # one edge of that index
        last = (vals[1:] != vals[:-1]) | (row_of[1:] != row_of[:-1])
        ends = np.flatnonzero(np.append(last, True))
        edges, edge_row = vals[ends], row_of[ends]
        del vals, row_of, last
        n_edges = np.bincount(edge_row, minlength=n)
        left = np.flatnonzero(edge_row[1:] == edge_row[:-1])
        right = left + 1
        # the edge that each measure element sits on, grouped by tag
        at = np.flatnonzero(tags >= first)
        on = np.searchsorted(
            ends, at[np.argsort(tags[at], kind="stable")]).tolist()
        del at

        def seen(k):
            c = np.cumsum(tags == 1 + k, dtype=np.int32)[ends]
            c += edge_row
            return c
    bounds = np.cumsum([0] + sizes[first:]).tolist()
    on = [on[a:b] for a, b in zip(bounds, bounds[1:])]

    cell_lo, cell_hi = edges[left], edges[right]
    n_cells = n_edges - 1
    cell_base = np.concatenate(([0], np.cumsum(n_cells)))
    # the atoms of an index: the edges that hold an atom of any measure
    atom_edges = np.unique(np.asarray(
        [e for k in range(n_measures) for e in on[5 * k + _ATOM]],
        dtype=np.intp))
    n_atoms = np.bincount(edge_row[atom_edges], minlength=n)
    atom_base = np.concatenate(([0], np.cumsum(n_atoms)))
    offsets = cell_base + atom_base
    total = int(offsets[-1])
    if n == 1:
        cell_pos = slice(0, int(n_cells[0]))
        atom_pos = slice(int(n_cells[0]), total)
    else:
        cell_pos = np.arange(cell_lo.size) + atom_base[edge_row[left]]
        atom_pos = (np.arange(atom_edges.size)
                    + cell_base[1:][edge_row[atom_edges]])

    def place(on_cells, on_atoms):
        if not atom_edges.size:
            return on_cells
        out = np.empty(total)
        out[cell_pos] = on_cells
        out[atom_pos] = on_atoms
        return out

    values = []
    for k in range(n_fns):
        # f's value after c of its breakpoints is default for c = 0 and
        # past the last one, values[c - 1] in between, and the last cell's
        # value at a closed domain end; each index's lookup table has one
        # entry per c, so an edge's entry is its running count plus its row
        lut = []
        for fns, _, d in rows:
            f = fns[k]
            lut.append((f.default,))
            if f.breakpoints.size:
                lut.append(f.values)
                lut.append((f.values[-1] if f.breakpoints[-1] == d.hi
                            else f.default,))
        lut = np.concatenate(lut)
        if n == 1 and not atom_edges.size:
            c0, c1 = np.searchsorted(groups[1 + k][0], edges[[0, -2]],
                                     side="right").tolist()
            if c1 - c0 == n_cells[0] - 1:
                # each cell starts at one more breakpoint: a table slice
                values.append(lut[c0:c1 + 1])
                continue
        # f's breakpoints at or left of each edge, plus the edge's row
        c = seen(k)
        values.append(place(lut[c[left]], lut[c[atom_edges]]))
        del c
    del groups, seen

    masses = []
    for k in range(n_measures):
        ms = [r[1][k] for r in rows]
        on_cells = np.zeros(cell_lo.size)
        los = on[5 * k + _CELL_LO]
        if los:
            # a measure cell covers the partition cells from its lo edge up
            # to its hi edge; edge e of row r starts partition cell e - r
            lo = np.asarray(los)
            span = np.asarray(on[5 * k + _CELL_HI]) - lo
            lo -= edge_row[lo]
            where = (np.repeat(lo - np.cumsum(span) + span, span)
                     + np.arange(int(span.sum())))
            rho = np.repeat(np.concatenate([m.cell_densities for m in ms]),
                            span)
            on_cells[where] += rho * (cell_hi[where] - cell_lo[where])
        segments = [s for m in ms for s in m.segments]
        for seg, a, b in zip(segments, on[5 * k + _SEG_LO],
                             on[5 * k + _SEG_HI]):
            r = int(edge_row[a])
            a, b = a - r, b - r
            on_cells[a:b] += seg.mass_inside(cell_lo[a:b], cell_hi[a:b])
        on_atoms = np.zeros(atom_edges.size)
        locs = on[5 * k + _ATOM]
        if locs:
            on_atoms[np.searchsorted(atom_edges, locs)] += np.concatenate(
                [m.atom_weights for m in ms])
        masses.append(place(on_cells, on_atoms))
    atom = np.zeros(total, dtype=bool)
    atom[atom_pos] = True
    return FamilyPairing(offsets, n_cells, atom, tuple(values), tuple(masses))


def reduce_family(rows: Iterable, reduce) -> Iterator:
    """The per-index results of ``reduce(chunk)`` over the chunks of
    ``family_pairing(rows)``, in index order and read lazily; a chunk is
    released before the next one is built."""
    for p in family_pairing(rows):
        results = reduce(p)
        del p
        yield from results


def fn_measure_rows(fns, measures) -> Iterator[tuple[tuple, tuple]]:
    """``family_pairing`` rows of (f_n, mu_n) pairs, read lazily.

    Raises DomainMismatchError at an index whose function and measure
    live on different domains.
    """
    for f, m in zip(fns, measures):
        if f.domain != m.domain:
            raise DomainMismatchError("function and measure domains differ")
        yield (f,), (m,)


def refined_values_masses(f: PiecewiseFn, m: FiniteMeasure
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (values, masses) arrays covering cells then atoms: the
    one-index ``family_pairing`` of f and m."""
    p = next(family_pairing(fn_measure_rows([f], [m])))
    return p.values[0], p.masses[0]
