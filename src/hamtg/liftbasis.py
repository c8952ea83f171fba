"""Recursive pair-indicator basis construction via anchored permutation lifts.

A lift with anchor i embeds the permutations of 1..n-1 into the
permutations of 1..n that start with i, by the order-preserving relabeling
that skips i (labels from i up move one step higher).  Edges transport the
same way, shifted one layer up.  Lifting a basis of the order-(n-1) pair
span under every anchor yields a spanning set of the order-n pair span,
from which a greedy pass (one lift step) extracts a basis.  The recursion
starts from the order-1 seed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from .gf2 import column_echelon
from .permvec import _pair_row, pair_coordinates
from .timegraph import Edge, OracleScaleError, Permutation, check_edge

CACHE_ENV = "HAMTG_CACHE_DIR"
# a cold build takes about a quarter of a second at order 7 and about 25 s
# at order 8, so orders above 6 are asked for with an explicit cap
DEFAULT_ORDER_CAP = 6
# the order-n pair span's dimension (results/dimensions.json; at order 8 the
# rank of all 40,320 pair indicators); order 1 keeps its seed permutation
PAIR_SPAN_DIMENSIONS = {1: 1, 2: 2, 3: 6, 4: 24, 5: 120, 6: 719, 7: 4320, 8: 15947}


def lift_perm(anchor: int, p: Permutation) -> Permutation:
    """Embed a permutation of 1..n-1 as one of 1..n starting at the anchor,
    relabeling each label from the anchor up one step higher."""
    if not 1 <= anchor <= len(p) + 1:
        raise ValueError(f"anchor {anchor} out of range for order {len(p) + 1}")
    return (anchor, *(x + (x >= anchor) for x in p))


def lift_edge(anchor: int, e: Edge, n: int) -> Edge:
    """Transport an edge of the order-(n-1) space one layer up, relabeled
    as lift_perm relabels."""
    if not 1 <= anchor <= n:
        raise ValueError(f"anchor {anchor} out of range for order {n}")
    check_edge(e, n - 1)
    return Edge(e.i + (e.i >= anchor), e.j + (e.j >= anchor), e.t + 1)


def _lift_step(n: int, prev: list[Permutation]) -> list[Permutation]:
    """Greedy maximal independent subset of the lifts of a basis of the
    order-(n-1) pair span under every anchor in 1..n, visiting the
    candidates in (anchor, previous-basis) order.

    Each candidate is a column of one column_echelon, its pair indicator in
    the compact coordinates of pair_coordinates(n), with no tag.  A sum of
    pair indicators is symmetric, g(e, e') = g(e', e), and zero at every
    pair no permutation meets, so keeping only its entries at those
    coordinates is a linear map that is injective on the pair span.  A
    candidate therefore extends the span of the earlier ones exactly when
    its compact column extends theirs, and the selection is the one full
    pair vectors would give.
    """
    coords = pair_coordinates(n)
    candidates = [lift_perm(anchor, pk) for anchor in range(1, n + 1) for pk in prev]
    _, deps = column_echelon(((_pair_row(coords, q), 0) for q in candidates), len(coords))
    return [q for q, d in zip(candidates, deps) if d is None]


def base_basis(n: int) -> list[Permutation]:
    """Basis of the pair span for orders up to 3, by lift steps from the
    order-1 seed.

    At order 1 the edge space is empty and the single permutation is kept
    as the recursion seed even though its indicator is the empty vector.
    """
    if not 1 <= n <= 3:
        raise ValueError(f"base_basis only covers orders 1..3, got {n}")
    basis = [(1,)]
    for m in range(2, n + 1):
        basis = _lift_step(m, basis)
    return basis


def _cache_path(cache_dir: str, n: int) -> Path:
    return Path(cache_dir) / f"pair_basis_n{n}.json"


def _resolve_cache_dir(cache_dir: Optional[str]) -> Optional[str]:
    if cache_dir is not None:
        return cache_dir
    return os.environ.get(CACHE_ENV) or None


def _load_cache(path: Path, n: int) -> Optional[list[Permutation]]:
    """The order-n basis cached at path, or None for a missing, unparsable or
    untrusted file.  A file is trusted when its order is n and it lists
    distinct permutations of 1..n, as many as the pair span's dimension
    (any number beyond order 8): a check without elimination, blind to a
    dependent set of the right size."""
    try:
        data = json.loads(path.read_text())
        perms = [tuple(p) for p in data["permutations"]]
        labels = list(range(1, n + 1))
        trusted = (
            data["n"] == n
            and len(perms) == PAIR_SPAN_DIMENSIONS.get(n, len(perms))
            and len(set(perms)) == len(perms)
            and all(sorted(p) == labels for p in perms)
            and {type(x) for p in perms for x in p} == {int}
        )
    except (OSError, ValueError, LookupError, TypeError):
        return None
    return perms if trusted else None


def build_basis(
    n: int,
    cache_dir: Optional[str] = None,
    cap: Optional[int] = None,
) -> list[Permutation]:
    """Basis of the order-n pair span consisting of permutation indicators.

    Recursion: one lift step from build_basis(n - 1), ending at
    base_basis for orders up to 3.  Per-order results are cached on disk
    as JSON when a cache directory is configured (see _order_basis).
    """
    limit = DEFAULT_ORDER_CAP if cap is None else cap
    if n > limit:
        raise OracleScaleError(f"basis scale exceeded: n={n} > cap={limit}")
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return _order_basis(n, cache_dir, limit)


def _order_basis(
    n: int,
    cache_dir: Optional[str],
    cap: int,
    prev: Optional[list[Permutation]] = None,
) -> list[Permutation]:
    """The order-n basis: read from the cache, else one lift step from prev,
    the order-(n - 1) basis, then written to the cache.

    Without prev, the order-(n - 1) basis comes from build_basis under cap,
    or the whole recursion from base_basis for orders up to 3.  A cache file
    _load_cache does not trust is rebuilt and replaced.
    """
    cache_dir = _resolve_cache_dir(cache_dir)
    if cache_dir is not None:
        cached = _load_cache(_cache_path(cache_dir, n), n)
        if cached is not None:
            return cached
    if prev is not None:
        result = _lift_step(n, prev)
    elif n <= 3:
        result = base_basis(n)
    else:
        result = _lift_step(n, build_basis(n - 1, cache_dir=cache_dir, cap=cap))
    if cache_dir is not None:
        path = _cache_path(cache_dir, n)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"n": n, "permutations": [list(p) for p in result]}
        # a temp file of its own per writer, so overlapping writers never
        # publish or remove each other's file
        tmp = path.with_suffix(f".{os.urandom(16).hex()}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        tmp.replace(path)
    return result
