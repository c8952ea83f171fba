"""Exact linear algebra over the two-element field.

Vectors are arbitrary-precision Python integers of a fixed length (a
``BitVec`` here, an indicator vector in ``permvec``): addition is integer
xor.  Every elimination in the package keeps an echelon keyed by the index
of each row's lowest set bit and reduces a row only at the pivots it hits,
in one loop, ``_keep``.  A row keeps its tags in the bits above the pivot
range, where they ride along with every xor and are never pivots.  Three
front-ends share the loop: ``Gf2Basis`` for incremental membership, its
rows tagged with the originals they combine; ``solve_system`` for rows
with an rhs, the tag; and ``column_echelon`` for the columns of a matrix
taken in order, each with a tag of the caller's choosing.  All results
are bit-exact.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, Sequence


class LengthMismatchError(ValueError):
    """Operands of a GF(2) operation disagree on bit length."""


class Vector(Protocol):
    """A fixed-length GF(2) vector: ``bits`` has no set bit at or beyond ``length``."""

    @property
    def length(self) -> int: ...

    @property
    def bits(self) -> int: ...


def bit_indices(x: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


# sets a field of a _Value in its __init__
_set = object.__setattr__


class _Value:
    """Base of the package's immutable value types.

    A subclass keeps its fields in ``__slots__`` and sets each once, in
    ``__init__``, with ``_set``.  A subclass that inherits no ``__init__``
    is given one that takes the slots in order, by position or keyword, and
    sets each; a type that checks or defaults its values writes its own.
    ``_fields`` names the compared ones, in order: a value equals one of
    the same type whose compared fields are equal, hashes as their tuple
    and shows them in its repr.  Other slots are hidden state.  Assigning
    or deleting any attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls.__init__ is not object.__init__:
            return
        # written out and compiled once per class, as namedtuple writes its
        # __new__, so construction runs one _set call per slot and no loop
        slots = cls.__slots__
        body = "; ".join(f"_set(self, {f!r}, {f})" for f in slots)
        namespace = {"_set": _set}
        exec(f"def __init__(self, {', '.join(slots)}): {body}", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle restore the slots, as (None, {name: value}), here
        for name, value in state[1].items():
            _set(self, name, value)


class BitVec(_Value):
    """Fixed-length bit vector; bits at or beyond ``length`` are always zero."""

    __slots__ = _fields = ("length", "bits")

    def __init__(self, length: int, bits: int = 0) -> None:
        if length < 0:
            raise ValueError(f"negative length {length}")
        if bits < 0 or bits >> length:
            raise ValueError("set bits beyond declared length")
        _set(self, "length", length)
        _set(self, "bits", bits)

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "BitVec":
        bits = 0
        for i in indices:
            if not 0 <= i < length:
                raise ValueError(f"bit index {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if not isinstance(other, BitVec):
            return NotImplemented
        if self.length != other.length:
            raise LengthMismatchError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        return BitVec(self.length, self.bits ^ other.bits)


class InsertResult(_Value):
    """Outcome of a basis insertion: whether the vector extended the span."""

    __slots__ = _fields = ("extended",)


_EXTENDED = InsertResult(True)
_DEPENDENT = InsertResult(False)


def _keep(pivots: dict[int, int], r: int, below: int) -> Optional[int]:
    """Reduce r at the pivots it hits of an echelon keyed by the index of
    each row's lowest set bit.  When what is left has its lowest set bit
    under index below, store it there and return None; else return it.

    Callers keep a row's tags above every pivot, so the loop stops at the
    first tag bit it meets; a query passes below=0 and stores nothing.
    """
    while r:
        p = (r & -r).bit_length() - 1
        hit = pivots.get(p)
        if hit is None:
            if p < below:
                pivots[p] = r
                return None
            break
        r ^= hit
    return r


class Gf2Basis:
    """Incremental GF(2) basis kept as an echelon keyed by pivot.

    Each stored row has a distinct pivot, its lowest set bit, and carries
    its expression over the successfully inserted originals above bit
    length (the k-th vector that extended the span at bit length + k), so
    that membership queries also report the combination over the original
    vectors.  Rows are never back-substituted: which vectors extend the
    span depends only on the span, not on the echelon form.
    """

    def __init__(self, length: int):
        if length < 0:
            raise ValueError(f"negative length {length}")
        self.length = length
        # pivot -> row, with its expression over the originals above length
        self._rows: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _check(self, v: Vector) -> None:
        if v.length != self.length:
            raise LengthMismatchError(
                f"length mismatch: basis {self.length} vs vector {v.length}"
            )

    def _check_raw(self, bits: int) -> None:
        # a set bit at or beyond length would be read as an original
        if bits < 0 or bits >> self.length:
            raise ValueError(f"set bits beyond basis length {self.length}")

    def insert(self, v: Vector) -> InsertResult:
        """Insert v; reports not extended when v is already in the span."""
        self._check(v)
        return self.insert_raw(v.bits)

    def insert_raw(self, bits: int) -> InsertResult:
        self._check_raw(bits)
        # one row per original, so the new original's index is the rank
        tag = 1 << (self.length + len(self._rows))
        if _keep(self._rows, bits | tag, self.length) is None:
            return _EXTENDED
        return _DEPENDENT

    def coords(self, v: Vector) -> Optional[tuple[int, ...]]:
        """Indices of originals whose xor equals v, or None when v is outside the span."""
        self._check(v)
        return self.coords_raw(v.bits)

    def coords_raw(self, bits: int) -> Optional[tuple[int, ...]]:
        self._check_raw(bits)
        r = _keep(self._rows, bits, 0)
        if r & ((1 << self.length) - 1):
            return None
        return tuple(bit_indices(r >> self.length))

    def contains(self, v: Vector) -> bool:
        self._check(v)
        return not (_keep(self._rows, v.bits, 0) & ((1 << self.length) - 1))


def rank(vectors: Sequence[Vector]) -> int:
    """GF(2) rank of a list of equal-length vectors."""
    if not vectors:
        return 0
    basis = Gf2Basis(vectors[0].length)
    for v in vectors:
        basis.insert(v)
    return basis.rank


def column_echelon(
    cols: Iterable[tuple[int, int]], nrows: int
) -> tuple[dict[int, int], list[Optional[int]]]:
    """One pass over (column, tag) pairs of a matrix given by its columns
    (bit i of each is row i), each reduced through _keep with its tag above
    bit nrows, as (pivots, deps).

    pivots is the echelon of the columns that extended the span of the ones
    before them, keyed by lowest set bit: its sorted keys are the matrix's
    rank profile, the rows that extend the span of the rows before them.
    deps holds per pair, in order, None when its column extended the span,
    else the xor of its tag and the tags of the earlier columns that sum to
    it.  With tags 1 << v on columns v = 0, 1, ..., that is the one
    nullspace vector with a one at v and its other ones only at columns
    that extended the span.
    """
    pivots: dict[int, int] = {}
    deps: list[Optional[int]] = []
    for col, tag in cols:
        if col < 0 or col >> nrows:
            raise ValueError(f"column has set bits beyond {nrows} rows")
        left = _keep(pivots, col | tag << nrows, nrows)
        deps.append(None if left is None else left >> nrows)
    return pivots, deps


class LinearSolveResult(_Value):
    """Raw elimination outcome over int-encoded equation rows: x is the
    particular solution, free variables zero, or None when inconsistent,
    and rank the coefficient rank of the rows processed."""

    __slots__ = _fields = ("consistent", "x", "rank")


def solve_system(
    rows: Iterable[int], rhs: Iterable[int], nvars: int
) -> LinearSolveResult:
    """Solve the system given by equation rows (variable masks) and rhs bits.

    Each augmented row, the rhs a tag at bit nvars, is reduced at the pivots
    it hits of an echelon keyed by lowest set bit.  Stops at the first row
    that reduces to 0 = 1; the reported rank then covers only the rows seen
    up to that witness.
    """
    inconsistent = 1 << nvars
    pivots: dict[int, int] = {}
    for row, b in zip(rows, rhs):
        if row < 0 or row >> nvars:
            raise ValueError(f"row has coefficients beyond {nvars} variables")
        if _keep(pivots, row | (b & 1) << nvars, nvars) == inconsistent:
            return LinearSolveResult(False, None, len(pivots))
    # with free variables zero, each pivot variable is its row's rhs plus the
    # parity of the already-solved higher pivots the row meets
    x = 0
    for p in sorted(pivots, reverse=True):
        r = pivots[p]
        x |= ((r >> nvars) ^ (r & x).bit_count() & 1) << p
    return LinearSolveResult(True, x, len(pivots))
