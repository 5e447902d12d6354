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
masses and atom weights are read off running counts of the tags.  One
index merges its edges with ``kernels.union_edges``, and a function's
cell values are runs of its value table (``PiecewiseFn.table``), one
search per breakpoint, or a slice of it without a copy; an index of a
``BlockedFn`` is refined one cell block at a time.  Each
index keeps its own refinement, and its values and masses are bit for bit
those of refining that index alone (a pass over a one-row family).  The
integral, tail, TV and set-uniform series pair functions with measures;
the dominance check (``functions.dominates``) pairs two functions and no
measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .kernels import union_edges
from .xreal import DomainMismatchError, Interval

#: A pass refines consecutive indices together while their inputs hold at
#: most this many edges; an index with more is a pass of its own, so the
#: temporaries of a pass stay a few arrays of its largest index.
CHUNK_EDGES = 1 << 16

_EMPTY = np.empty(0)
#: Tags of the edges a measure contributes, offset per measure.
_CELL_LO, _CELL_HI, _SEG_LO, _SEG_HI, _ATOM = range(5)


@dataclass(frozen=True)
class FamilyPairing:
    """The refinements of consecutive indices, as ragged arrays.

    Entries ``offsets[i]:offsets[i + 1]`` of every array belong to the
    chunk's i-th index: its ``n_cells[i]`` partition cells in order, then
    its atoms (the union of its measures' atom locations) in order.
    ``values[k]`` is the k-th function's value on each entry and
    ``masses[k]`` the k-th measure's mass of it.
    """

    offsets: np.ndarray
    n_cells: np.ndarray
    values: tuple[np.ndarray, ...]
    masses: tuple[np.ndarray, ...]
    #: an index of a ``BlockedFn``: makes the pairings of its blocks anew
    parts: Optional[Callable[[], Iterator[FamilyPairing]]] = None


class Block(NamedTuple):
    """A step function's breakpoints in [lo, hi), the first at lo, and its
    value table, entry c after c of them; and the masses of its cells by
    the segment rule ``mass_fn``, which the passes read and keep as is."""

    lo: float
    hi: float
    breakpoints: np.ndarray
    table: np.ndarray
    masses: Optional[np.ndarray] = None
    mass_fn: Optional[Callable] = None


class BlockedFn(NamedTuple):
    """A step function of more than CHUNK_EDGES breakpoints that
    ``cell_blocks(masses, size)`` makes anew in ``Block``s of ``size``."""

    domain: Interval
    n_breakpoints: int
    cell_blocks: Callable[[bool, int], Iterator[Block]]


def cut_row(row, member, b: Block) -> tuple:
    """A row (fns, measures, domain) with ``member`` as its block b and the
    rest cut to [b.lo, b.hi), or [b.lo, b.hi] where b ends the domain."""
    fns, measures, dom = row
    side = "right" if b.hi == dom.hi else "left"

    def cut(f):
        if f is member:
            return b
        bp = f.breakpoints
        j, k = bp.searchsorted(b.lo), bp.searchsorted(b.hi, side)
        return Block(b.lo, b.hi, bp[j:k], f.table[j:k + 1])

    ms = []
    for m in measures:
        c = slice(m.cell_his.searchsorted(b.lo, "right"),
                  m.cell_los.searchsorted(b.hi))
        a = slice(m.atom_locs.searchsorted(b.lo),
                  m.atom_locs.searchsorted(b.hi, side))
        ms.append(SimpleNamespace(
            cell_los=np.maximum(m.cell_los[c], b.lo),
            cell_his=np.minimum(m.cell_his[c], b.hi),
            cell_densities=m.cell_densities[c], atom_locs=m.atom_locs[a],
            atom_weights=m.atom_weights[a],
            segments=[SimpleNamespace(lo=max(s.lo, b.lo), hi=min(s.hi, b.hi),
                                      mass_fn=s.mass_fn)
                      for s in m.segments if s.lo < b.hi and s.hi > b.lo]))
    return tuple(map(cut, fns)), tuple(ms), b


def family_pairing(rows: Iterable) -> Iterator[FamilyPairing]:
    """Ragged common refinements of an indexed family, chunk by chunk.

    ``rows`` yields one ``(functions, measures)`` pair of tuples per index,
    of the same lengths at every index, and is read lazily.  Either tuple
    may be empty, but not both; a row without measures has no atom
    entries, so each index is its cells alone.  A row whose
    objects do not share one domain raises DomainMismatchError, and an
    exception raised while reading a row is raised only after the chunk of
    the indices before it has been yielded, so a caller that reduces the
    chunks index by index raises at the first index that fails, as a loop
    over the indices would.  The index of a row with a ``BlockedFn`` is
    a chunk of its own, whose ``parts()`` are its ``block_pairings``.
    """
    for chunk in blocks(map(_domain_row, rows), row_edges):
        f = next((f for f in chunk[0][0] if isinstance(f, BlockedFn)), None)
        yield _pair_chunk(chunk) if f is None else FamilyPairing(
            _EMPTY, _EMPTY, (), (), lambda row=chunk[0], f=f: (
                ps[0] for ps in block_pairings([row], f)))


def block_pairings(rows: list, f: BlockedFn) -> Iterator[list]:
    """Per block of f, the pairings of the rows (fns, measures, domain) of
    f's index, each cut to the block (``cut_row``) and refined apart; the
    block's masses are made when a row has measures."""
    for b in f.cell_blocks(any(r[1] for r in rows), CHUNK_EDGES):
        yield [_pair_chunk([cut_row(r, f, b)], b) for r in rows]


def _domain_row(row) -> tuple:
    """(fns, measures, domain) of a row whose objects share one domain."""
    fns, measures = row
    domain = (fns + measures)[0].domain
    for obj in fns + measures:
        if obj.domain != domain:
            raise DomainMismatchError(
                f"domain {obj.domain} differs from {domain}")
    return fns, measures, domain


def row_edges(row) -> int:
    """The edges of a row ``(fns, measures, ...)``, by which chunks are
    cut: the domain ends, the functions' breakpoints and the measures'
    piece edges."""
    fns, measures, *_ = row
    return (2 + sum(f.n_breakpoints for f in fns)
            + sum(m.piece_edges().size for m in measures))


def blocks(items: Iterable, size) -> Iterator[list]:
    """Consecutive items in the blocks that ``family_pairing`` makes its
    chunks of: a block takes items while their ``size`` adds up to at most
    CHUNK_EDGES, and an item of more is a block of its own.  An exception
    raised while reading an item is raised after the block before it."""
    block, total, error = [], 0, None
    try:
        for item in items:
            n = size(item)
            if block and total + n > CHUNK_EDGES:
                yield block
                block, total = [], 0
            block.append(item)
            total += n
    except Exception as exc:
        error = exc
    if block:
        yield block
    if error is not None:
        raise error


def _pair_chunk(rows, block: Optional[Block] = None) -> FamilyPairing:
    """One ragged pass over the rows (fns, measures, domain) of a chunk,
    or over one row cut to ``block``, whose masses it reads."""
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
        # one index: its edges are merged by one union_edges call
        # and every measure element is found among them by binary search
        edges = union_edges([g[0] for g in groups])
        edge_row = np.broadcast_to(np.intp(0), edges.shape)
        n_edges = np.asarray([edges.size])
        left, right = slice(None, -1), slice(1, None)
        on = np.searchsorted(edges, np.concatenate(
            [g[0] for g in groups[first:]] + [_EMPTY])).tolist()
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
        # f's value after c of its breakpoints is its table's entry c, so
        # an edge's entry in the rows' tables is its running count plus
        # its row
        if n > 1:
            table = np.concatenate([r[0][k].table for r in rows])
            c = np.cumsum(tags == 1 + k, dtype=np.int32)[ends]
            c += edge_row
            values.append(place(table[c[left]], table[c[atom_edges]]))
            continue
        bp, table = groups[1 + k][0], rows[0][0][k].table
        if not atom_edges.size and n_cells[0]:
            c0, c1 = np.searchsorted(bp, edges[[0, -2]],
                                     side="right").tolist()
            if c1 - c0 == n_cells[0] - 1:
                # each cell starts at one more breakpoint: a table slice
                values.append(table[c0:c1 + 1])
                continue
        # every breakpoint is an edge, so the cells take the table's
        # entries in runs that end where the breakpoints sit
        runs = np.diff(np.concatenate(
            ([0], np.searchsorted(edges, bp), n_cells)))
        values.append(place(np.repeat(table, runs), table[np.searchsorted(
            bp, edges[atom_edges], side="right")]))
    del groups

    masses = []
    for k in range(n_measures):
        ms = [r[1][k] for r in rows]
        # one mass_fn call per run of segments that share mass_fn over
        # adjacent cells; a lone run over all cells gives the cell masses
        runs = []
        for seg, a, b in zip([s for m in ms for s in m.segments],
                             on[5 * k + _SEG_LO], on[5 * k + _SEG_HI]):
            a, b = a - edge_row[a], b - edge_row[a]
            if runs and (runs[-1][0].mass_fn, runs[-1][2]) == (seg.mass_fn, a):
                runs[-1][2] = b
            else:
                runs.append([seg, a, b])
        if [r[1:] for r in runs] == [[0, cell_lo.size]]:
            rule = runs.pop()[0].mass_fn
            # the block's own cells when they are as many; no density cell
            # shares them with the segment, so nothing adds into its masses
            on_cells = (block.masses if block and block.mass_fn is rule
                        and block.masses.size == cell_lo.size
                        else rule(cell_lo, cell_hi))
        else:
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
        for seg, a, b in runs:
            on_cells[a:b] += seg.mass_fn(cell_lo[a:b], cell_hi[a:b])
        on_atoms = np.zeros(atom_edges.size)
        locs = on[5 * k + _ATOM]
        if locs:
            on_atoms[np.searchsorted(atom_edges, locs)] += np.concatenate(
                [m.atom_weights for m in ms])
        masses.append(place(on_cells, on_atoms))
    return FamilyPairing(offsets, n_cells, tuple(values), tuple(masses))


def reduce_family(rows: Iterable, *reduces) -> list[list]:
    """Reductions of the chunks of one ``family_pairing(rows)`` pass, each
    chunk released before the next one is built: per reduction, its
    per-index results, ended by its first error if any (``replay`` reads
    them back).  A failing reduction does not stop the others; an error
    of the pass itself ends every one that has not failed."""
    out: list[list] = [[] for _ in reduces]
    live = list(range(len(reduces)))
    try:
        for p in family_pairing(rows):
            for k in list(live):
                try:
                    for result in reduces[k](p):
                        out[k].append(result)
                except Exception as exc:
                    out[k].append(exc)
                    live.remove(k)
            del p
    except Exception as exc:
        for k in live:
            out[k].append(exc)
    return out


def replay(results: list) -> Iterator:
    """``reduce_family`` results, raising an error at its index."""
    for result in results:
        if isinstance(result, Exception):
            raise result
        yield result
