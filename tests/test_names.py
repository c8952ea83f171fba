"""Every global name the package's code reads is defined somewhere, every
name a module imports is read, and the package exports what it binds.

A misspelled or stale name in a branch that no other test reaches would
otherwise surface only as a NameError in the field.  The check is static:
each module's source is compiled (not run) and every code object in it is
walked with ``dis``.  An import left behind by a deletion is found on the
module's syntax tree, and so is an ``assert`` statement: ``python -O``
strips those, so no check in the package may rely on one.  So is a value
type's ``__init__`` that only stores its arguments: ``gf2._Value`` writes
that one for every subclass that leaves it out.  And so is a loop that
reduces a row at lowest-set-bit pivots: every echelon in the package
reduces through ``gf2._keep``, the only such loop, and no module but
``gf2`` names it.
"""

import ast
import builtins
import dis
from pathlib import Path
from types import CodeType, ModuleType

import hamtg

PACKAGE_DIR = Path(hamtg.__file__).parent
# set by the import system, or by SETUP_ANNOTATIONS in an annotated class body
IMPLICIT = {"__file__", "__cached__", "__path__", "__annotations__"}


def _code_objects(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def _stored(code: CodeType, opnames: set[str]) -> set[str]:
    return {ins.argval for ins in dis.get_instructions(code) if ins.opname in opnames}


def undefined_globals(path: Path) -> list[str]:
    """'module.qualname: name, ...' per code object reading an undefined global."""
    module_code = compile(path.read_text(), str(path), "exec")
    codes = list(_code_objects(module_code))
    defined = set(dir(builtins)) | IMPLICIT | _stored(module_code, {"STORE_NAME"})
    for code in codes:
        defined |= _stored(code, {"STORE_GLOBAL"})
    out = []
    for code in codes:
        # a class body reads its own earlier names with LOAD_NAME too
        local = _stored(code, {"STORE_NAME"})
        missing = sorted(
            {
                ins.argval
                for ins in dis.get_instructions(code)
                if (ins.opname == "LOAD_GLOBAL" and ins.argval not in defined)
                or (ins.opname == "LOAD_NAME" and ins.argval not in defined | local)
            }
        )
        if missing:
            out.append(f"{path.stem}.{code.co_qualname}: {', '.join(missing)}")
    return out


def test_every_global_name_resolves():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 9
    assert [msg for path in paths for msg in undefined_globals(path)] == []


def test_check_reports_an_undefined_name(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import os\n"
        "class C:\n"
        "    x = 1\n"
        "    y = x + len(os.sep)\n"
        "def f():\n"
        "    return [z for z in missing_name]\n"
        "def g():\n"
        "    global h\n"
        "    h = 1\n"
        "    return h + C.y\n"
    )
    assert undefined_globals(src) == ["sample.f: missing_name"]


def unused_imports(path: Path) -> list[str]:
    """'module: name' per module-level import that no ast.Name reads.

    Annotations count as reads; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.stem}: {name}" for name in imported if name not in read]


def test_every_import_is_read():
    # __init__ imports only to re-export
    paths = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 8
    assert [msg for path in paths for msg in unused_imports(path)] == []


def test_check_reports_an_unused_import(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json as js\n"
        "import xml.dom\n"
        "from typing import Optional, Sequence\n"
        "from . import sibling\n"
        "def f(x: Optional[int]) -> None:\n"
        "    js = 1  # rebinds, never reads\n"
        "    return os.sep, sibling.name\n"
    )
    assert unused_imports(src) == ["sample: js", "sample: xml", "sample: Sequence"]


def assert_statements(path: Path) -> list[str]:
    """'module:line' per assert statement in the module."""
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.stem}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_package_has_no_assert_statement():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 9
    assert [msg for path in paths for msg in assert_statements(path)] == []


def test_check_reports_an_assert_statement(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return x  # assert in a comment\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
        "s = 'assert False'\n"
    )
    assert assert_statements(src) == ["sample:3", "sample:7"]


def _stores_its_argument(stmt: ast.stmt) -> bool:
    """Whether stmt is _set(self, "f", f) for some field f."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return False
    call = stmt.value
    args = call.args
    return (
        isinstance(call.func, ast.Name) and call.func.id == "_set"
        and not call.keywords and len(args) == 3
        and isinstance(args[0], ast.Name) and args[0].id == "self"
        and isinstance(args[1], ast.Constant) and isinstance(args[2], ast.Name)
        and args[1].value == args[2].id
    )


def storing_constructors(path: Path) -> list[str]:
    """'module.Class' per _Value subclass (in the module, directly or through
    another of its classes) whose __init__ has no default and whose body
    only stores its arguments."""
    tree = ast.parse(path.read_text(), str(path))
    values = {"_Value"}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(isinstance(b, ast.Name) and b.id in values for b in node.bases):
            continue
        values.add(node.name)
        for item in node.body:
            if (
                isinstance(item, ast.FunctionDef) and item.name == "__init__"
                and not item.args.defaults
                and all(map(_stores_its_argument, item.body))
            ):
                out.append(f"{path.stem}.{node.name}")
    return out


def test_no_value_type_writes_the_constructor_it_is_given():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 9
    assert [msg for path in paths for msg in storing_constructors(path)] == []


def test_check_reports_a_constructor_that_only_stores(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "class Plain(_Value):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        _set(self, 'a', a)\n"
        "        _set(self, 'b', b)\n"
        "class Derived(Plain):\n"
        "    def __init__(self, a, b):\n"
        "        _set(self, 'a', a)\n"
        "class Checked(_Value):\n"
        "    def __init__(self, a):\n"
        "        if a < 0:\n"
        "            raise ValueError(a)\n"
        "        _set(self, 'a', a)\n"
        "class Defaulted(_Value):\n"
        "    def __init__(self, a, b=0):\n"
        "        _set(self, 'a', a)\n"
        "        _set(self, 'b', b)\n"
        "class Computed(_Value):\n"
        "    def __init__(self, a):\n"
        "        _set(self, 'a', a or 0)\n"
        "class Renamed(_Value):\n"
        "    def __init__(self, a):\n"
        "        _set(self, 'b', a)\n"
        "class Other:\n"
        "    def __init__(self, a):\n"
        "        _set(self, 'a', a)\n"
    )
    assert storing_constructors(src) == ["sample.Plain", "sample.Derived"]


def _own_nodes(loop: ast.AST):
    """The nodes of a loop's body, not entering nested loops or functions."""
    nested = (ast.For, ast.While, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    todo = [*loop.body, *loop.orelse]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, nested):
            todo += ast.iter_child_nodes(node)


def _is_lookup(node: ast.AST, looked_up: set[str]) -> bool:
    """Whether node is m[k], m.get(k), or a name bound to either."""
    if isinstance(node, ast.Name):
        return node.id in looked_up
    return isinstance(node, ast.Subscript) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
    )


def _reduces_at_lowest_bit(loop: ast.AST) -> bool:
    """Whether the loop takes some r's lowest set bit, r & -r, and xors into
    r a row it looked up: one step of reduction against an echelon."""
    nodes = list(_own_nodes(loop))
    lowest = {
        node.left.id
        for node in nodes
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
        and isinstance(node.left, ast.Name)
        and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
        and isinstance(node.right.operand, ast.Name)
        and node.right.operand.id == node.left.id
    }
    looked_up = {
        target.id
        for node in nodes
        if isinstance(node, ast.Assign) and _is_lookup(node.value, set())
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return any(
        isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitXor)
        and isinstance(node.target, ast.Name) and node.target.id in lowest
        and _is_lookup(node.value, looked_up)
        for node in nodes
    )


def reduction_loops(path: Path) -> list[str]:
    """'module.function' per loop that reduces at lowest-set-bit pivots."""
    tree = ast.parse(path.read_text(), str(path))
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # ast.walk goes outside in, so a nested function names its nodes last
            owner.update(dict.fromkeys(ast.walk(func), func.name))
    return [
        f"{path.stem}.{owner.get(node, '<module>')}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.While)) and _reduces_at_lowest_bit(node)
    ]


def test_one_loop_reduces_at_lowest_bit_pivots():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 9
    assert [msg for path in paths for msg in reduction_loops(path)] == ["gf2._keep"]


def references_keep(path: Path) -> bool:
    """Whether the module's code names _keep: imports, reads or attributes."""
    return any(
        isinstance(node, ast.alias) and node.name == "_keep"
        or isinstance(node, ast.Name) and node.id == "_keep"
        or isinstance(node, ast.Attribute) and node.attr == "_keep"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
    )


def test_only_gf2_references_its_reduction_loop():
    # every other module eliminates through a gf2 front-end: Gf2Basis,
    # solve_system or column_echelon
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert [path.stem for path in paths if references_keep(path)] == ["gf2"]


def test_check_reports_a_reference_to_keep(tmp_path):
    for line in ("from .gf2 import _keep\n", "from . import gf2\nr = gf2._keep({}, 1, 2)\n"):
        src = tmp_path / "sample.py"
        src.write_text(line)
        assert references_keep(src)
    src.write_text("keep = 1\n")
    assert not references_keep(src)


def test_check_reports_a_second_reduction_loop(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def keep(pivots, r):\n"
        "    while r:\n"
        "        p = (r & -r).bit_length() - 1\n"
        "        hit = pivots.get(p)\n"
        "        if hit is None:\n"
        "            break\n"
        "        r ^= hit\n"
        "    return r\n"
        "class Basis:\n"
        "    def reduce(self, r):\n"
        "        c = 0\n"
        "        for _ in range(len(self.rows)):\n"
        "            low = r & -r\n"
        "            if low not in self.rows:\n"
        "                break\n"
        "            r ^= self.rows[low][0]\n"
        "            c ^= self.rows[low][1]\n"
        "        return r, c\n"
        "def bits(x):\n"
        "    out = []\n"
        "    while x:\n"
        "        low = x & -x\n"
        "        out.append(low)\n"
        "        x ^= low\n"
        "    return out\n"
        "def fold(table, m):\n"
        "    acc = 0\n"
        "    while m:\n"
        "        low = m & -m\n"
        "        acc ^= table[low.bit_length() - 1]\n"
        "        m ^= low\n"
        "    return acc\n"
    )
    assert reduction_loops(src) == ["sample.keep", "sample.reduce"]


def test_exports_match_the_package():
    # a stale entry in __all__ breaks `from hamtg import *`; a public name
    # left out of it is missing from the star import
    assert [name for name in hamtg.__all__ if not hasattr(hamtg, name)] == []
    assert len(set(hamtg.__all__)) == len(hamtg.__all__)
    public = {
        name
        for name, obj in vars(hamtg).items()
        if not name.startswith("_") and not isinstance(obj, ModuleType)
    }
    assert sorted(public - set(hamtg.__all__)) == []
    namespace: dict = {}
    exec("from hamtg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hamtg.__all__)


def shuffle_calls(path: Path) -> list[str]:
    """'module:line' per call of a .shuffle method in the module."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{path.stem}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "shuffle"
    ]


def test_package_has_no_shuffle_call():
    # every seeded shuffle goes through canonical._shuffle
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 9
    assert [msg for path in paths for msg in shuffle_calls(path)] == []


def test_check_reports_a_shuffle_call(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import random\n"
        "def f(x, rng):\n"
        "    random.Random(1).shuffle(x)\n"
        "    rng.shuffle(\n"
        "        x)\n"
        "    _shuffle(x, 1)  # .shuffle( in a comment\n"
        "s = 'x.shuffle(y)'\n"
    )
    assert shuffle_calls(src) == ["sample:3", "sample:4"]
