"""Shared test oracles, independent of the package's own linear algebra."""

from __future__ import annotations

import numpy as np

from hamtg.timegraph import Graph, TimeGraph, edge_space_size, incident_mask


def to_matrix(rows: list[int], ncols: int) -> np.ndarray:
    m = np.zeros((len(rows), ncols), dtype=np.uint8)
    for r, bits in enumerate(rows):
        for c in range(ncols):
            m[r, c] = (bits >> c) & 1
    return m


def rank_oracle(rows: list[int], ncols: int) -> int:
    """GF(2) rank by textbook elimination on a numpy uint8 matrix."""
    m = to_matrix(rows, ncols)
    rank = 0
    row = 0
    nrows = m.shape[0]
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[row, pivot]] = m[[pivot, row]]
        for r in range(nrows):
            if r != row and m[r, col]:
                m[r] ^= m[row]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def in_span_oracle(vec: int, rows: list[int], ncols: int) -> bool:
    """Membership via rank comparison, independent of the incremental basis."""
    return rank_oracle(rows + [vec], ncols) == rank_oracle(rows, ncols)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(1, n)])


def cycle_graph(n: int) -> Graph:
    edges = [(v, v + 1) for v in range(1, n)] + [(n, 1)]
    return Graph.from_edges(n, edges)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


def petersen() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph.from_edges(10, outer + spokes + inner)


def assemble_rows_reference(G: TimeGraph, perms) -> list[int]:
    """The feasibility rows by the full loop: the value row, then the AND of
    the incidence columns of every (missing edge, edge) pair, zero rows
    dropped and duplicates kept once, in first-seen order."""
    size = edge_space_size(G.n)
    masks = [incident_mask(p) for p in perms]
    cols = [
        sum(1 << i for i, m in enumerate(masks) if (m >> e) & 1) for e in range(size)
    ]
    rows = [(1 << len(perms)) - 1]
    seen = set()
    for e in range(size):
        if G.has_index(e):
            continue
        for e2 in range(size):
            m = cols[e] & cols[e2]
            if m and m not in seen:
                seen.add(m)
                rows.append(m)
    return rows
