"""Exact linear algebra over the two-element field.

Vectors are arbitrary-precision Python integers wrapped in a fixed-length
``BitVec``: addition is integer xor.  ``Gf2Basis`` is the one elimination
kernel: an echelon keyed by lowest-set-bit pivot, against which a vector is
reduced only at the pivots it hits.  All results are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class LengthMismatchError(ValueError):
    """Operands of a GF(2) operation disagree on bit length."""


def bit_indices(x: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


@dataclass(frozen=True)
class BitVec:
    """Fixed-length bit vector; bits at or beyond ``length`` are always zero."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("set bits beyond declared length")

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "BitVec":
        bits = 0
        for i in indices:
            if not 0 <= i < length:
                raise ValueError(f"bit index {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    @classmethod
    def from_hex(cls, length: int, text: str) -> "BitVec":
        return cls(length, int(text, 16) if text else 0)

    def to_hex(self) -> str:
        return format(self.bits, "x")

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def with_bit(self, i: int, value: int = 1) -> "BitVec":
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        if value:
            return BitVec(self.length, self.bits | (1 << i))
        return BitVec(self.length, self.bits & ~(1 << i))

    def popcount(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.bits))

    def _check_length(self, other: "BitVec") -> None:
        if self.length != other.length:
            raise LengthMismatchError(
                f"length mismatch: {self.length} vs {other.length}"
            )

    def __xor__(self, other: "BitVec") -> "BitVec":
        if not isinstance(other, BitVec):
            return NotImplemented
        self._check_length(other)
        return BitVec(self.length, self.bits ^ other.bits)

    def __and__(self, other: "BitVec") -> "BitVec":
        if not isinstance(other, BitVec):
            return NotImplemented
        self._check_length(other)
        return BitVec(self.length, self.bits & other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0


@dataclass(frozen=True)
class InsertResult:
    """Outcome of a basis insertion.

    ``combination`` is the set of original indices whose xor equals the
    offered vector; it is None exactly when the vector extended the span.
    """

    extended: bool
    combination: Optional[tuple[int, ...]] = None


class Gf2Basis:
    """Incremental GF(2) basis kept as an echelon keyed by pivot.

    Each stored row has a distinct pivot, its lowest set bit, and carries
    its expression over the successfully inserted originals, so that
    membership queries also report the combination over the original
    vectors.  Rows are never back-substituted: which vectors extend the
    span depends only on the span, not on the echelon form.
    """

    def __init__(self, length: int):
        if length < 0:
            raise ValueError(f"negative length {length}")
        self.length = length
        # pivot -> (row, row expression over originals as a bitmask)
        self._rows: dict[int, tuple[int, int]] = {}
        self._originals: list[int] = []  # raw vectors that extended the span

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def originals(self) -> list[BitVec]:
        return [BitVec(self.length, o) for o in self._originals]

    def _reduce(self, r: int) -> tuple[int, int]:
        """Clear r's low bits while they are pivots; returns (residual, combo).

        The residual is zero exactly when r lies in the span; otherwise its
        lowest set bit is not a pivot.
        """
        c = 0
        rows = self._rows
        while r:
            hit = rows.get((r & -r).bit_length() - 1)
            if hit is None:
                break
            r ^= hit[0]
            c ^= hit[1]
        return r, c

    def _check(self, v: BitVec) -> None:
        if v.length != self.length:
            raise LengthMismatchError(
                f"length mismatch: basis {self.length} vs vector {v.length}"
            )

    def insert(self, v: BitVec) -> InsertResult:
        """Insert v; reports Dependent(combination) when v is already in the span."""
        self._check(v)
        return self.insert_raw(v.bits)

    def insert_raw(self, bits: int) -> InsertResult:
        r, c = self._reduce(bits)
        if r == 0:
            return InsertResult(False, tuple(bit_indices(c)))
        self._rows[(r & -r).bit_length() - 1] = (r, c ^ (1 << len(self._originals)))
        self._originals.append(bits)
        return InsertResult(True)

    def coords(self, v: BitVec) -> Optional[tuple[int, ...]]:
        """Indices of originals whose xor equals v, or None when v is outside the span."""
        self._check(v)
        return self.coords_raw(v.bits)

    def coords_raw(self, bits: int) -> Optional[tuple[int, ...]]:
        r, c = self._reduce(bits)
        if r:
            return None
        return tuple(bit_indices(c))

    def contains(self, v: BitVec) -> bool:
        self._check(v)
        r, _ = self._reduce(v.bits)
        return r == 0


def rank(vectors: Sequence[BitVec]) -> int:
    """GF(2) rank of a list of equal-length vectors."""
    if not vectors:
        return 0
    basis = Gf2Basis(vectors[0].length)
    for v in vectors:
        basis.insert(v)
    return basis.rank


@dataclass(frozen=True)
class LinearSolveResult:
    """Raw elimination outcome over int-encoded equation rows."""

    consistent: bool
    x: Optional[int]  # particular solution (free variables zero)
    nullspace: tuple[int, ...]  # basis of the homogeneous solutions
    rank: int  # coefficient-matrix rank of the rows processed


def solve_system(
    rows: Iterable[int], rhs: Iterable[int], nvars: int
) -> LinearSolveResult:
    """Solve the system given by equation rows (variable masks) and rhs bits.

    Stops at the first row that reduces to 0 = 1; the reported rank then
    covers only the rows seen up to that witness.
    """
    basis = Gf2Basis(nvars + 1)  # augmented rows, rhs at bit position nvars
    inconsistent = 1 << nvars
    for row, b in zip(rows, rhs):
        if row < 0 or row >> nvars:
            raise ValueError(f"row has coefficients beyond {nvars} variables")
        # rows go in without combos or originals: solving reads only the rows
        r, _ = basis._reduce(row | (b & 1) << nvars)
        if r == inconsistent:
            return LinearSolveResult(False, None, (), basis.rank)
        if r:
            basis._rows[(r & -r).bit_length() - 1] = (r, 0)
    # back-substitute once, highest pivot first; what remains above each
    # pivot is free variables and the rhs, read off with free variables zero
    x = 0
    null = {f: 1 << f for f in range(nvars) if f not in basis._rows}
    done: dict[int, int] = {}
    for p in sorted(basis._rows, reverse=True):
        r = basis._rows[p][0]
        for q in bit_indices(r)[1:]:
            if q in done:
                r ^= done[q]
        done[p] = r
        for f in bit_indices(r)[1:]:
            if f == nvars:
                x |= 1 << p
            else:
                null[f] |= 1 << p
    return LinearSolveResult(True, x, tuple(null.values()), len(done))
