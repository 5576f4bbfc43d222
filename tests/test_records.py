"""The record types: value semantics, the frozen guard, a light import and
the declared Python floor."""

import ast
import copy
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lf_forge import (
    AdmissibilityReport,
    Checkerboard,
    CurveOnSurface,
    DivideFiberModel,
    FibrationIso,
    FinAbGroup,
    HomologyClass,
    LefschetzFibration,
    PlumbingPattern,
    SurfaceInvariants,
    divide_fiber_model,
    sphere_planar_fibration,
    standard_divide,
)
from lf_forge.ribbon import Record

SRC = Path(__file__).resolve().parent.parent / "src"

SPHERE = sphere_planar_fibration()
MODEL = divide_fiber_model(standard_divide(0))

# Each record type with field values; two records built from one tuple have
# equal fields.
RECORDS = {
    "SurfaceInvariants": (SurfaceInvariants, (-2, 2, 1)),
    "CurveOnSurface": (CurveOnSurface, (SPHERE.fiber, "core", (("c", 1), ("t", -1)))),
    "HomologyClass": (HomologyClass, (SPHERE.fiber, (1,))),
    "FinAbGroup": (FinAbGroup, (2, (3,))),
    "PlumbingPattern": (PlumbingPattern, ((("s0", "s1"),), (("s0",), ("s1",)))),
    "DivideFiberModel": (DivideFiberModel, (MODEL.divide, MODEL.fiber, MODEL.white_cycles,
                                            MODEL.crossing_cycles, MODEL.black_cycles)),
    "LefschetzFibration": (LefschetzFibration, ("sphere", 0, SPHERE.fiber, SPHERE.word)),
    "Checkerboard": (Checkerboard, ((0, 2), (1, 3))),
    "AdmissibilityReport": (AdmissibilityReport, (True, 2, 4, 4, 2, 0, Checkerboard((0, 2), (1, 3)), None)),
    "FibrationIso": (FibrationIso, (SPHERE, SPHERE, {"p": "p"}, {"c": ("c", 1)}, True, {"core0": "core0"})),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    cls, fields = RECORDS[name]
    a, b = cls(*fields), cls(*fields)
    if cls is FibrationIso:
        # compared by identity: equal fields do not make equal isomorphisms
        assert a != b and a == a
    else:
        assert a == b and hash(a) == hash(b)
    other = type(f"Other{name}", (cls,), {"__slots__": ()})(*fields)
    assert other != a and a != other
    field = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert [getattr(copy.copy(a), f) for f in cls.__slots__] == [getattr(a, f) for f in cls.__slots__]
    assert repr(a).startswith(f"{name}({field}=")


def test_record_repr_lists_the_fields_by_name():
    assert repr(FinAbGroup(2, (3,))) == "FinAbGroup(free_rank=2, torsion=(3,))"
    assert repr(AdmissibilityReport(False, 0, 0, 0, 0, None, None, "divide is not connected")) == (
        "AdmissibilityReport(connected=False, crossings=0, arcs=0, faces=0, euler=0, "
        "ambient_genus=None, coloring=None, problem='divide is not connected')"
    )


def test_a_record_subclass_keeps_its_parents_fields():
    sub = type("Sub", (FinAbGroup,), {"__slots__": ()})
    assert sub(1) != sub(5, (2,))
    assert repr(sub(5, (2,))) == "Sub(free_rank=5, torsion=(2,))"


@pytest.mark.parametrize("cls", [SurfaceInvariants, Checkerboard, AdmissibilityReport, DivideFiberModel, FibrationIso],
                         ids=lambda cls: cls.__name__)
def test_a_record_without_checks_takes_one_value_per_field(cls):
    with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(cls.__slots__)} field values, got 1$"):
        cls(0)


def test_cli_import_loads_no_unused_standard_modules():
    """Every lf-forge process imports the CLI; the modules named here cost
    it start-up time that no command without --stamp or JSON output uses,
    and the command line is read without argparse.  The package loads no
    layer of its own, and the CLI only the layers that generate and export
    need: verify and compare import theirs when they run."""
    code = ("import sys; import lf_forge; "
            "print(sorted(m for m in sys.modules if m.startswith('lf_forge.'))); "
            "import lf_forge.cli; "
            "print(sorted({'dataclasses', 'inspect', 'datetime', 'argparse', 'gettext', 'json'} & set(sys.modules))); "
            "print(sorted({'lf_forge.certify', 'lf_forge.equivalence', 'lf_forge.invariants', "
            "'lf_forge.homology'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n") == ["[]", "[]", "[]", ""]


def test_every_module_parses_at_the_declared_python_floor():
    """``pyproject.toml`` declares Python 3.10 as the floor, so every module
    of the package must parse as 3.10; 3.11-only syntax such as ``except*``
    does not."""
    assert 'requires-python = ">=3.10"' in (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    modules = sorted((SRC / "lf_forge").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_module_level_import_is_read():
    """Each name a module of the package imports at module level is read in
    that module.  An unread import costs its load and hides a dependency
    that is gone: in ``cli`` or ``ribbon`` it would load a layer in every
    lf-forge process."""
    unread = []
    for path in sorted((SRC / "lf_forge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update({a.asname or a.name.partition(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({a.asname or a.name: node.lineno for a in node.names})
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]
    assert unread == []



def test_every_record_type_has_a_semantics_case():
    """A record type defined in the package is a key of ``RECORDS``, so
    ``test_record_semantics`` covers it."""
    for path in (SRC / "lf_forge").glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"lf_forge.{path.stem}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("lf_forge."):
                found.add(cls.__name__)
                todo.append(cls)
    assert found == set(RECORDS)


def test_only_the_record_constructors_write_past_the_frozen_setattr():
    """``object.__setattr__`` appears only in ``Record.__init__``, the one
    constructor, and in the two entries of ``CurveOnSurface``, its
    constructor and ``curve_on_darts``, which write its three fields
    directly because a curve is built thousands of times per comparison."""
    writers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                writers.append(".".join(scope))
            visit(child, scope)

    for path in sorted((SRC / "lf_forge").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), (path.stem,))
    assert sorted(set(writers)) == ["curves.CurveOnSurface.__init__", "curves.curve_on_darts", "ribbon.Record.__init__"]


def test_only_check_walk_looks_up_a_walks_steps():
    """Inside the package only ``curves.check_walk`` reads
    ``RibbonGraph.head_darts``; every other layer reads the darts a curve
    keeps, so no change can quietly translate walks from edge ids again."""
    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "head_darts"
                    or isinstance(child, ast.Name) and child.id == "head_darts"):
                readers.append(".".join(scope))
            visit(child, scope)

    for path in sorted((SRC / "lf_forge").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), (path.stem,))
    assert readers == ["curves.check_walk"]


def test_only_ribbon_pads_and_numbers_ids():
    """Inside the package the width of a zero-padded id (``len(str(...))``)
    is computed only in ``ribbon.padded_ids``, and an id numbering
    (``{e: k for k, e in enumerate(...)}``) only in ``ribbon.numbered_ids``,
    so every producer pads and numbers ids as the parser does; and only
    ``homology.class_from_steps`` reads pairs outside ``ribbon``, as
    ``curves`` leaves a walk's steps to ``RibbonGraph.head_darts``."""
    widths, numberings, pair_readers = [], [], []

    def is_call(node, name):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name

    def is_numbering(node):
        if not isinstance(node, ast.DictComp) or len(node.generators) != 1:
            return False
        gen = node.generators[0]
        names = [x.id for x in getattr(gen.target, "elts", ()) if isinstance(x, ast.Name)]
        return (is_call(gen.iter, "enumerate") and len(names) == 2 and isinstance(node.key, ast.Name)
                and isinstance(node.value, ast.Name) and [node.value.id, node.key.id] == names)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if is_call(child, "len") and child.args and is_call(child.args[0], "str"):
                widths.append(".".join(scope))
            if is_numbering(child):
                numberings.append(".".join(scope))
            if isinstance(child, ast.ImportFrom) and any(a.name == "as_pairs" for a in child.names):
                pair_readers.append(".".join(scope))
            visit(child, scope)

    for path in sorted((SRC / "lf_forge").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), (path.stem,))
    assert widths == ["ribbon.padded_ids"]
    assert numberings == ["ribbon.numbered_ids"]
    assert pair_readers == ["homology"]


def test_only_checked_curves_compares_a_curves_host():
    """Inside the package a ``.host`` is compared by identity only in
    ``curves.checked_curves``, the one host test of a word, family or curve
    argument, and in ``HomologyClass.__add__``, which compares two classes;
    every layer behind a checked argument trusts its host."""
    comparers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in child.ops)
                    and any(isinstance(side, ast.Attribute) and side.attr == "host"
                            for side in (child.left, *child.comparators))):
                comparers.append(".".join(scope))
            visit(child, scope)

    for path in sorted((SRC / "lf_forge").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), (path.stem,))
    assert comparers == ["curves.checked_curves", "homology.HomologyClass.__add__"]


def test_every_private_name_is_read():
    """Each private function, method, class or module-level assignment of
    the package (a name starting with ``_`` that is not a dunder) is read
    somewhere in the package, as a name or an attribute.  A helper whose
    last caller is deleted must go with it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted((SRC / "lf_forge").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    defined = []
    for module, tree in trees.items():
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((module, node.lineno, node.name))
                elif scope is tree and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined += [(module, node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    unread = [f"{module}:{line} {name}" for module, line, name in defined if private(name) and name not in read]
    assert unread == []


def test_every_boolean_flag_is_set_by_the_package():
    """Each parameter of a package function whose default is ``True`` or
    ``False`` is passed by keyword in some call of that function inside the
    package.  A flag that only the tests set keeps a code path that no
    production run takes."""
    flags, passed = [], set()
    for path in sorted((SRC / "lf_forge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args
                defaults = [*zip(params[len(params) - len(a.defaults):], a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
                flags += [(f"{path.stem}:{node.lineno}", node.name, p.arg) for p, d in defaults
                          if isinstance(d, ast.Constant) and isinstance(d.value, bool)]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed.update((name, k.arg) for k in node.keywords)
    assert [f"{where} {fn}({arg}=)" for where, fn, arg in flags if (fn, arg) not in passed] == []

# The layers that check a build; building imports none of them.
_CHECKING_LAYERS = ["lf_forge.certify", "lf_forge.equivalence", "lf_forge.invariants", "lf_forge.homology"]


@pytest.mark.parametrize("argv, exit_code, unused", [
    (["compare", "--genus", "0..2"], 0, ["lf_forge.homology", "lf_forge.invariants"]),
    (["compare", "--genus", "0", "--against", "johns:3"], 1, ["lf_forge.homology", "lf_forge.invariants"]),
    (["export", "divide", "--genus", "0..2"], 0, ["lf_forge.builders", "lf_forge.curves"]),
    (["generate", "both", "--genus", "0..2"], 0, _CHECKING_LAYERS),
    (["export", "fiber", "--genus", "0..2"], 0, _CHECKING_LAYERS),
    (["export", "divide", "--genus", "2", "--format", "text"], 0, ["lf_forge.builders", "json"]),
    (["generate", "johns", "--genus", "2", "--format", "dot"], 0, [*_CHECKING_LAYERS, "json"]),
], ids=["compare", "compare-against", "export-divide", "generate", "export-fiber", "export-divide-text",
        "generate-dot"])
def test_each_command_loads_only_the_layers_it_runs(argv, exit_code, unused):
    """A compare that needs no triple product never pairs curves, an
    exported divide needs no fiber, and a build checks nothing: none of
    them loads those layers."""
    code = ("import contextlib, io, sys\n"
            "from lf_forge.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            f"print(code, sorted(set({unused!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == f"{exit_code} []\n"
