"""Seeded generator of explicit scenario documents for the `docs` workload.

Each document follows the randomized Fatou construction of the acceptance
suite (criterion 4): a base measure of density cells plus an optional
atom is the limit measure, and mu_n adds one atom of weight <= 1/n at a
point where f_n is nonnegative.  Total-variation distances then vanish and
the per-index integrals can only move up from the base value, so the
Fatou inequality must hold and no Fatou verdict may read `violated`.

On top of that every document carries a minorant family g_n = f_n - c
(c >= 0, so dominance holds exactly in floating point) and the zero limit
function, so all eleven checks apply.  The timed stream holds only finite
values.  Each run also writes INF_PROBE documents that carry a single +inf
or -inf cell value, which the format allows; where it lands is random and
whatever it triggers is kept.  They are checked once, untimed, because a
-inf cell in the trailing window makes the report emit a bare `nan` gap
(not strict JSON), and the timed workload must be one on which no op fails.

The same (seed, index, inf) always gives the same document bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

N_MAX = 12
MAX_CELLS = 8
# the infinite cell value of each probe document, in order
INF_PROBE = ("inf", "-inf", "inf", "-inf")
CHECKS = ("ui", "aui", "shift", "fatou", "minorant", "weakened_minorant",
          "majorant", "dct", "uniform_fatou", "uniform_dct", "weak_gap")


def _step_fn(rng: np.random.Generator) -> tuple[list[float], list[float]]:
    """Random step function on [0, 1] with 1..MAX_CELLS cells, values in
    [-8, 8) and at least one nonnegative cell."""
    n_cells = int(rng.integers(1, MAX_CELLS + 1))
    bps = np.sort(rng.uniform(0.0, 1.0, size=n_cells + 1))
    while np.any(np.diff(bps) <= 1e-12):
        bps = np.sort(rng.uniform(0.0, 1.0, size=n_cells + 1))
    vals = rng.uniform(-8.0, 8.0, size=n_cells)
    if np.all(vals < 0):
        vals[int(rng.integers(0, n_cells))] = abs(vals[0])
    return [float(x) for x in bps], [float(v) for v in vals]


def _base_measure(rng: np.random.Generator) -> tuple[list, list]:
    """Density cells partitioning [0, 1] plus, half the time, one atom."""
    cuts = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 4))))
    edges = np.concatenate([[0.0], cuts, [1.0]])
    cells = [[float(a), float(b), float(rng.uniform(0.0, 2.0))]
             for a, b in zip(edges, edges[1:]) if b - a > 1e-9]
    atoms = []
    if rng.random() < 0.5:
        atoms = [[float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))]]
    return atoms, cells


def _encode(v: float):
    # the scenario format spells infinities as strings
    if v == float("inf"):
        return "inf"
    if v == float("-inf"):
        return "-inf"
    return v


def generate(seed: int, index: int, inf: str | None = None) -> dict:
    """Document number `index` of the stream for `seed`; with `inf` set to
    "inf" or "-inf", a probe document from a stream of its own whose one
    random cell value is that infinity."""
    seed %= 2 ** 64                      # any integer seed, same stream
    rng = np.random.default_rng([seed, index] if inf is None
                                else [seed, index, 2])
    base_atoms, cells = _base_measure(rng)
    fns = [_step_fn(rng) for _ in range(N_MAX)]
    measures = []
    for n, (bps, vals) in enumerate(fns, start=1):
        nonneg = [i for i, v in enumerate(vals) if v >= 0.0]
        i = nonneg[int(rng.integers(0, len(nonneg)))]
        loc = (bps[i] + bps[i + 1]) / 2.0
        w = float(rng.uniform(0.0, 1.0 / n))
        atoms = [list(a) for a in base_atoms]
        for a in atoms:
            if a[0] == loc:
                a[1] += w
                break
        else:
            atoms.append([loc, w])
        measures.append({"atoms": atoms, "cells": cells})
    if inf is not None:
        n = int(rng.integers(0, N_MAX))
        cell = int(rng.integers(0, len(fns[n][1])))
        fns[n][1][cell] = float(inf)
    shift = float(rng.uniform(0.0, 1.0))
    functions = [{"breakpoints": bps, "values": [_encode(v) for v in vals],
                  "default": 0.0} for bps, vals in fns]
    minorants = [{"breakpoints": bps,
                  "values": [_encode(v - shift) for v in vals],
                  "default": -shift} for bps, vals in fns]
    return {
        "name": f"docs-{seed}-{index}" + (f"-{inf}" if inf else ""),
        "space": {"lo": 0.0, "hi": 1.0},
        "n_max": N_MAX,
        "measures": {"explicit": measures},
        "limit_measure": {"atoms": base_atoms, "cells": cells},
        "functions": {"explicit": functions},
        "g_functions": {"explicit": minorants},
        "limit_function": {"breakpoints": [], "values": [], "default": 0.0},
        "checks": list(CHECKS),
        "convergence_certificate": {"kind": "tv"},
    }


def write_pool(directory: Path, seed: int, count: int) -> list[Path]:
    """Write documents 0..count-1 of the seed's stream as `doc*.json`, and
    the INF_PROBE documents as `inf*.json`."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        path = directory / f"doc{i:05d}.json"
        path.write_text(json.dumps(generate(seed, i)), encoding="utf-8")
        paths.append(path)
    for i, inf in enumerate(INF_PROBE):
        path = directory / f"inf{i:02d}.json"
        path.write_text(json.dumps(generate(seed, i, inf)), encoding="utf-8")
        paths.append(path)
    return paths
