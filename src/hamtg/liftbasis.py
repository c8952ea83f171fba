"""Recursive pair-indicator basis construction via anchored permutation lifts.

A lift with anchor i embeds the permutations of 1..n-1 into the
permutations of 1..n that start with i, by relabeling through a bijection
from 1..n-1 onto {1..n} minus the anchor.  Edges transport the same way,
shifted one layer up.  Lifting a basis of the order-(n-1) pair span under
every anchor yields a spanning set of the order-n pair span, from which a
greedy pass extracts a basis.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .gf2 import Gf2Basis
from .permvec import pair_indicator
from .timegraph import (
    Edge,
    OracleScaleError,
    Permutation,
    all_permutations,
    check_edge,
    edge_space_size,
)

CACHE_ENV = "HAMTG_CACHE_DIR"
DEFAULT_ORDER_CAP = 6  # full pair vectors at order 7+ get expensive


@dataclass(frozen=True)
class Lift:
    """Anchor vertex plus a bijection 1..n-1 -> {1..n} minus the anchor."""

    n: int
    anchor: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.anchor <= self.n:
            raise ValueError(f"anchor {self.anchor} out of range for order {self.n}")
        expected = set(range(1, self.n + 1)) - {self.anchor}
        if len(self.table) != self.n - 1 or set(self.table) != expected:
            raise ValueError("table is not a bijection onto the non-anchor labels")

    @classmethod
    def canonical(cls, n: int, anchor: int) -> "Lift":
        """The order-preserving bijection that skips the anchor."""
        return cls(n, anchor, tuple(j if j < anchor else j + 1 for j in range(1, n)))

    def apply(self, j: int) -> int:
        return self.table[j - 1]


def lift_perm(lift: Lift, p: Permutation) -> Permutation:
    """Embed a permutation of 1..n-1 as one of 1..n starting at the anchor."""
    if len(p) != lift.n - 1:
        raise ValueError(f"expected a permutation of 1..{lift.n - 1}")
    return (lift.anchor,) + tuple(lift.apply(x) for x in p)


def lift_edge(lift: Lift, e: Edge) -> Edge:
    """Transport an edge of the order-(n-1) space one layer up, relabeled."""
    check_edge(e, lift.n - 1)
    return Edge(lift.apply(e.i), lift.apply(e.j), e.t + 1)


def base_basis(n: int) -> list[Permutation]:
    """Direct greedy basis of the pair span for orders up to 3.

    At order 1 the edge space is empty and the single permutation is kept
    as the recursion seed even though its indicator is the empty vector.
    """
    if not 1 <= n <= 3:
        raise ValueError(f"direct construction only covers orders 1..3, got {n}")
    if n == 1:
        return [(1,)]
    basis = Gf2Basis(edge_space_size(n) ** 2)
    out = []
    for p in all_permutations(n):
        if basis.insert(pair_indicator(p)).extended:
            out.append(p)
    return out


def _cache_path(cache_dir: str, n: int) -> Path:
    return Path(cache_dir) / f"pair_basis_n{n}.json"


def _resolve_cache_dir(cache_dir: Optional[str]) -> Optional[str]:
    if cache_dir is not None:
        return cache_dir
    return os.environ.get(CACHE_ENV) or None


def build_basis(
    n: int,
    cache_dir: Optional[str] = None,
    cap: Optional[int] = None,
) -> list[Permutation]:
    """Basis of the order-n pair span consisting of permutation indicators.

    Recursion: lift a basis of the order-(n-1) span under every anchor in
    1..n and keep the greedy maximal independent subset, visiting the
    candidates in (anchor, previous-basis) order.  Per-order results are
    cached on disk as JSON when a cache directory is configured.
    """
    limit = DEFAULT_ORDER_CAP if cap is None else cap
    if n > limit:
        raise OracleScaleError(f"basis scale exceeded: n={n} > cap={limit}")
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    cache_dir = _resolve_cache_dir(cache_dir)
    if cache_dir is not None:
        path = _cache_path(cache_dir, n)
        if path.exists():
            data = json.loads(path.read_text())
            if data["n"] != n:
                raise ValueError(f"cache file {path} is for order {data['n']}")
            return [tuple(p) for p in data["permutations"]]
    if n <= 3:
        result = base_basis(n)
    else:
        prev = build_basis(n - 1, cache_dir=cache_dir, cap=limit)
        basis = Gf2Basis(edge_space_size(n) ** 2)
        result = []
        for anchor in range(1, n + 1):
            lift = Lift.canonical(n, anchor)
            for pk in prev:
                q = lift_perm(lift, pk)
                if basis.insert(pair_indicator(q)).extended:
                    result.append(q)
    if cache_dir is not None:
        path = _cache_path(cache_dir, n)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"n": n, "permutations": [list(p) for p in result]}
        # a temp file of its own per writer, so overlapping writers never
        # publish or remove each other's file
        tmp = path.with_suffix(f".{uuid.uuid4().hex}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        tmp.replace(path)
    return result
