"""Semantics of the package's value types.

Each type is equal only to a value of the same type with equal fields
(hidden state such as a cached echelon is left out), equal values hash
equal, fields cannot be assigned or deleted, copies and pickles are
equal, ``repr`` shows the type and its fields, construction is positional
in field order, and the checks on construction raise as documented.  The
plain records, whose constructor ``_Value`` writes, take their slots by
position or keyword and name themselves in an arity error.
"""

import copy
import inspect
import pickle

import pytest

from hamtg.canonical import BasisElement, Decomposition, build_canonical_basis
from hamtg.gf2 import BitVec, InsertResult, LinearSolveResult
from hamtg.lab import ConjectureReport
from hamtg.permvec import EdgeVector, PairVector
from hamtg.solver import Decision, LinearSystem
from hamtg.timegraph import Graph, TimeGraph

G3 = TimeGraph(3, (1 << 18) - 1 - 0b1010)

# per type: a value, an equal one that differs only in hidden state, one
# that differs in a compared field, and its repr (None: too long to pin)
CASES = {
    "BitVec": (BitVec(3, 5), BitVec(3, 5), BitVec(3, 4), "BitVec(length=3, bits=5)"),
    "InsertResult": (
        InsertResult(True), InsertResult(True), InsertResult(False),
        "InsertResult(extended=True)",
    ),
    "LinearSolveResult": (
        LinearSolveResult(True, 1, 1),
        LinearSolveResult(True, 1, 1),
        LinearSolveResult(True, 0, 1),
        "LinearSolveResult(consistent=True, x=1, rank=1)",
    ),
    "TimeGraph": (TimeGraph(2, 5), TimeGraph(2, 5), TimeGraph(2, 4), "TimeGraph(n=2, edges=5)"),
    "Graph": (
        Graph(3, frozenset({(1, 2)})), Graph(3, frozenset({(1, 2)})), Graph(3),
        "Graph(n=3, pairs=frozenset({(1, 2)}))",
    ),
    "EdgeVector": (EdgeVector(2, 3), EdgeVector(2, 3), EdgeVector(3, 3), "EdgeVector(n=2, bits=3)"),
    "PairVector": (PairVector(2, 3), PairVector(2, 3), PairVector(2, 1), "PairVector(n=2, bits=3)"),
    "BasisElement": (
        BasisElement(0, 1, (1, 2)), BasisElement(0, 1, (1, 2)), BasisElement(1, 1, (1, 2)),
        "BasisElement(layer=0, slot=1, perm=(1, 2))",
    ),
    "CanonicalBasis": (
        build_canonical_basis(G3),
        build_canonical_basis(G3),
        build_canonical_basis(G3, perm_seed=1),
        None,
    ),
    "Decomposition": (
        Decomposition(((0, 0),), PairVector(2, 0), (EdgeVector(2, 1),)),
        Decomposition(((0, 0),), PairVector(2, 0), (EdgeVector(2, 1),)),
        Decomposition((), PairVector(2, 0), (EdgeVector(2, 1),)),
        "Decomposition(alpha=((0, 0),), gc=PairVector(n=2, bits=0), "
        "layer_sums=(EdgeVector(n=2, bits=1),))",
    ),
    "LinearSystem": (
        LinearSystem(2, 2, (3,), 9, 0, {1: 3}, ((), (), 0, [])),
        LinearSystem(2, 2, (3,), 9, 0, {}, None),
        LinearSystem(2, 2, (1,), 9, 0, {1: 3}, ((), (), 0, [])),
        "LinearSystem(n=2, nvars=2, rows=(3,), raw_rows=9, contracted=0)",
    ),
    "Decision": (
        Decision(True, (0,), 2, 1, 9, 1), Decision(True, (0,), 2, 1, 9, 1),
        Decision(False, None, 2, 1, 9, 1),
        "Decision(answer=True, witness=(0,), nvars=2, rows=1, raw_rows=9, rank=1)",
    ),
    "ConjectureReport": (
        ConjectureReport("a", 2, (1,), (0,), None, 1, "holds", {"j": 1}),
        ConjectureReport("a", 2, (1,), (0,), None, 1, "holds", {"j": 1}),
        ConjectureReport("a", 2, (1,), (0,), None, 1, "holds", {"j": 2}),
        "ConjectureReport(instance_id='a', n=2, graph_edges=(1,), complement_order=(0,), "
        "basis_seed=None, conjecture=1, verdict='holds', witness={'j': 1})",
    ),
}
# per type, its compared fields in positional order
FIELDS = {
    "BitVec": ("length", "bits"),
    "InsertResult": ("extended",),
    "LinearSolveResult": ("consistent", "x", "rank"),
    "TimeGraph": ("n", "edges"),
    "Graph": ("n", "pairs"),
    "EdgeVector": ("n", "bits"),
    "PairVector": ("n", "bits"),
    "BasisElement": ("layer", "slot", "perm"),
    "CanonicalBasis": ("G", "order", "layers", "perm_seed"),
    "Decomposition": ("alpha", "gc", "layer_sums"),
    "LinearSystem": ("n", "nvars", "rows", "raw_rows", "contracted"),
    "Decision": ("answer", "witness", "nvars", "rows", "raw_rows", "rank"),
    "ConjectureReport": (
        "instance_id", "n", "graph_edges", "complement_order", "basis_seed",
        "conjecture", "verdict", "witness",
    ),
}
# the types that neither check nor default their values
PLAIN = [
    "BasisElement", "CanonicalBasis", "ConjectureReport", "Decision",
    "Decomposition", "InsertResult", "LinearSolveResult", "LinearSystem",
]
# the immutable, hashable types; a report's witness is a dict that the
# campaign extends in place
FROZEN = sorted(set(CASES) - {"ConjectureReport"})


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_is_by_type_and_compared_fields(name):
    a, same, other, _ = CASES[name]
    assert a == same and not a != same
    assert a != other and not a == other
    assert a != object()
    # nor to the tuple of its fields
    assert a != tuple(getattr(a, f) for f in FIELDS[name])


def test_indicator_kinds_never_compare_equal():
    assert EdgeVector(2, 3) != PairVector(2, 3)
    assert PairVector(2, 3) != EdgeVector(2, 3)
    assert EdgeVector(2, 0) != TimeGraph(2, 0)
    assert BitVec(12, 3) != EdgeVector(2, 3)


@pytest.mark.parametrize("name", FROZEN)
def test_equal_values_hash_equal(name):
    a, same, _, _ = CASES[name]
    assert hash(a) == hash(same)
    assert len({a, same}) == 1


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    a, _, other, _ = CASES[name]
    before = repr(a)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert repr(a) == before


@pytest.mark.parametrize("name", sorted(CASES))
def test_copies_and_pickles_are_equal(name):
    a = CASES[name][0]
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a) and clone == a and repr(clone) == repr(a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_shows_the_type_and_its_compared_fields(name):
    a, _, _, text = CASES[name]
    if text is not None:
        assert repr(a) == text
    assert repr(a).startswith(f"{name}(")
    assert "_pivots" not in repr(a) and "_echelon" not in repr(a)


def test_canonical_basis_repr_names_its_fields():
    text = repr(CASES["CanonicalBasis"][0])
    assert text.startswith("CanonicalBasis(G=TimeGraph(n=3, edges=")
    for field in ("order=", "layers=((BasisElement(layer=0, slot=0, ", "perm_seed=None"):
        assert field in text


def test_positional_construction_and_defaults():
    assert BitVec(4).bits == 0 and TimeGraph(3).edges == 0
    assert Graph(3).pairs == frozenset()
    assert EdgeVector(2).bits == 0 and PairVector(2).bits == 0
    res = LinearSolveResult(False, None, 2)
    assert (res.consistent, res.x, res.rank) == (False, None, 2)
    d = Decision(False, None, 5, 4, 3, 2)
    assert (d.answer, d.witness, d.nvars, d.rows, d.raw_rows, d.rank) == (False, None, 5, 4, 3, 2)
    r = ConjectureReport("i", 3, (1, 2), (0,), 7, 2, "violated", {})
    assert (r.instance_id, r.n, r.basis_seed, r.conjecture, r.verdict) == ("i", 3, 7, 2, "violated")
    assert r.to_dict()["id"] == "i"
    cb = CASES["CanonicalBasis"][0]
    assert cb.k == len(cb.order) and sum(cb.d) == cb.rank == len(cb.elements)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TimeGraph(0), "order must be positive, got 0"),
        (lambda: TimeGraph(2, 1 << 4), "edge bits out of range for order"),
        (lambda: TimeGraph(2, -1), "edge bits out of range for order"),
        (lambda: Graph(0), "vertex count must be positive, got 0"),
        (lambda: Graph(3, frozenset({(2, 2)})), "self-loops are not allowed"),
        (lambda: Graph(3, frozenset({(2, 1)})), r"edge \(2, 1\) out of range or unordered"),
        (lambda: Graph(3, frozenset({(1, 4)})), r"edge \(1, 4\) out of range or unordered"),
        (lambda: EdgeVector(2, 1 << 4), "EdgeVector of order 2 has set bits beyond its length 4"),
        (lambda: PairVector(2, 1 << 16), "PairVector of order 2 has set bits beyond its length 16"),
        (lambda: PairVector(2, -1), "PairVector of order 2 has set bits beyond its length 16"),
        (lambda: BitVec(-1), "negative length -1"),
        (lambda: BitVec(4, 1 << 4), "set bits beyond declared length"),
        (lambda: BitVec(4, -2), "set bits beyond declared length"),
    ],
)
def test_construction_checks_raise(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()



@pytest.mark.parametrize("name", PLAIN)
def test_plain_records_take_their_slots_by_position_or_keyword(name):
    a = CASES[name][0]
    cls = type(a)
    values = [getattr(a, f) for f in cls.__slots__]
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    assert by_keyword == cls(*values) == a
    assert [getattr(by_keyword, f) for f in cls.__slots__] == values


@pytest.mark.parametrize("name", PLAIN)
def test_plain_record_arity_errors_name_the_class(name):
    a = CASES[name][0]
    cls = type(a)
    values = [getattr(a, f) for f in cls.__slots__]
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing 1 required"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) takes"):
        cls(*values, None)
