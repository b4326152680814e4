"""The package keeps zero runtime dependencies: the standard library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nambu").glob("*.py"))


def _foreign_imports(path: Path) -> list[str]:
    """Top-level names of the absolute imports outside the standard library."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_package_imports_only_the_standard_library(path):
    assert _foreign_imports(path) == []


def test_foreign_imports_are_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport numpy.linalg\nfrom sympy import QQ\n"
                     "from . import algebra\nfrom fractions import Fraction\n")
    assert _foreign_imports(probe) == ["numpy.linalg", "sympy"]


def _unused_imports(path: Path) -> list[str]:
    """Every name that a module imports and then never names; ``__future__``
    imports are compiler directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in named]


MODULES = [path for path in SOURCES if path.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_unused_imports_are_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os.path\nimport sys as system\nimport json\n"
                     "from math import gcd, lcm\nfrom . import algebra as alg\n\n"
                     "VALUE = gcd(1, 2) + len(os.path.sep) + len(system.argv)\n")
    assert _unused_imports(probe) == ["json", "lcm", "alg"]


def test_project_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


# Definitions that no command reaches but that stay, with the reason.
KEEP = {
    "check_basic": "independent verifier of a basic volume, used by the acceptance gates",
    "is_tangent": "independent verifier of tangency, used by the acceptance gates",
    "conservation_report": "the benchmark's tracer wraps it and the acceptance gates import it",
    "to_coordinates": "public API of the exported TruncatedBasis; the tests' oracles use it "
                      "and the benchmark's tracer wraps it",
    "lie_mv": "the one-field form of lie_mv_of, as conservation_report is of "
              "conservation_check; the benchmark's tracer wraps it and the tests use it",
}


def _definitions(node: ast.AST, prefix: str):
    """``(qualified name, node)`` of every non-dunder function, class and method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield name, child
            yield from _definitions(child, name)
        else:
            yield from _definitions(child, prefix)


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _unreferenced(sources: list[Path]) -> list[str]:
    """Qualified name of every definition that no code in ``sources`` names
    outside the definition itself; ``__init__.py`` re-exports count for nothing.

    The match is on names alone, so a definition that shares its name with
    another referenced one passes: this is a lower bound on unused code.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sources if path.name != "__init__.py"}
    references = {module: list(_references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree, module):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (where != module or line not in inside)
                       for where, refs in references.items() for name, line in refs):
                unused.append(qualified)
    return sorted(unused)


def test_every_definition_is_reached_from_the_package():
    unused = [name for name in _unreferenced(SOURCES) if name != "cli.main"]
    assert [name for name in unused if name.rpartition(".")[2] not in KEEP] == []
    assert sorted(name.rpartition(".")[2] for name in unused) == sorted(KEEP)


def test_unreferenced_definitions_are_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n\n\n"
        "class Box:\n    def method(self):\n        return self.method\n\n"
        "    def __len__(self):\n        return 0\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nVALUE = used()\n")
    (tmp_path / "__init__.py").write_text("from .a import Box\nBox\n")
    assert _unreferenced(sorted(tmp_path.glob("*.py"))) == \
        ["a.Box", "a.Box.method", "a.recursive"]


# Dataclass fields that no code in the package reads but that stay, with the reason.
KEEP_FIELDS = {
    "modular.BasicVolumeViolation.condition":
        "check_basic is an independent verifier, and the tests read its report",
}


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _unread_fields(sources: list[Path]) -> list[str]:
    """``module.Class.field`` of every dataclass field that no code in
    ``sources`` reads as an attribute; a store is not a read.

    The match is on names alone, so a field that shares its name with
    another attribute that is read passes: this is a lower bound on unread
    fields.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sources}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                unread += [f"{module}.{node.name}.{statement.target.id}"
                           for statement in node.body
                           if isinstance(statement, ast.AnnAssign)
                           and isinstance(statement.target, ast.Name)
                           and statement.target.id not in read]
    return sorted(unread)


def test_every_dataclass_field_is_read():
    assert _unread_fields(SOURCES) == sorted(KEEP_FIELDS)


def test_unread_fields_are_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Point:\n    x: int\n    y: int\n"
        "    label: str = ''\n\n\n"
        "@dataclasses.dataclass\nclass Pair:\n    left: int\n    right: int\n\n\n"
        "class Plain:\n    hidden: int\n\n\n"
        "def use(p, q):\n    q.right = 1\n    return p.x + q.left\n")
    (tmp_path / "b.py").write_text("from .a import Point\n\nVALUE = Point(1, 2).y\n")
    assert _unread_fields(sorted(tmp_path.glob("*.py"))) == ["a.Pair.right", "a.Point.label"]


# Functions that divide with ``/``, with the reason.  An exact coefficient is
# an int when integral, and ``/`` on two ints gives a float, so every
# coefficient division goes through ``algebra._quotient``, which has none.
DIVIDES = {
    "flows.integrate_hamiltonian": "the float integrator's step h / 6",
    "modular.flat_inverse": "each component of the contraction into e_1 ^ ... ^ e_m over "
                            "the volume's polynomial coefficient, by Polynomial.__truediv__",
    "modular.divergence": "X(u) / u on polynomials, by Polynomial.__truediv__",
}


def _enclosing(sources: list[Path], matches) -> list[str]:
    """Qualified name of the innermost function or class around every node
    that ``matches``; one outside any of them is named by its module."""
    found = set()

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.add(name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
            else:
                visit(child, name)

    for path in sources:
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return sorted(found)


def _dividers(sources: list[Path]) -> list[str]:
    """Where every ``/`` and ``/=`` is, as ``_enclosing`` names it."""
    return _enclosing(sources, lambda node: isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, ast.Div))


def test_every_division_is_float_code_or_polynomial():
    assert _dividers(SOURCES) == sorted(DIVIDES)


def test_stray_divisions_are_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "RATIO = 1 / 3\n\n\n"
        "def half(a, b):\n    return a // 2 + b % 2\n\n\n"
        "def mean(values):\n    return sum(values) / len(values)\n\n\n"
        "class Box:\n    def __truediv__(self, other):\n        return self\n\n"
        "    def scale(self, k):\n        k /= 2\n        return lambda v: v * k\n")
    assert _dividers(sorted(tmp_path.glob("*.py"))) == ["a", "a.Box.scale", "a.mean"]


def _callers(sources: list[Path], name: str) -> list[str]:
    """Where every call of ``name`` is, as a bare name or an attribute, as
    ``_enclosing`` names it."""
    return _enclosing(sources, lambda node: isinstance(node, ast.Call) and
                      getattr(node.func, "id", getattr(node.func, "attr", None)) == name)


def test_every_quotient_goes_through_one_builder():
    # a hand-written quotient would call _complement_kernel on its own
    assert _callers(SOURCES, "_complement_kernel") == ["cohomology._quotient"]


def test_no_quotient_assembles_the_boundary():
    # canonical homology runs through flat, on forms under d; only the
    # modular tensor and the delta command take the boundary itself
    assert _callers(SOURCES, "delta") == ["cli._cmd_delta", "modular.modular_tensor"]


def test_only_the_tensor_kernels_merge_indices():
    # every other signed index loop is composed from these three kernels
    assert _callers(SOURCES, "merge_indices") == \
        ["exterior._front_contract", "exterior.ext_d", "exterior.wedge"]


def test_only_clear_denominators_takes_an_lcm():
    # the elimination and the containment check clear denominators through
    # the one helper, not by hand
    assert _callers(SOURCES, "lcm") == ["algebra.clear_denominators"]


def test_only_the_elimination_helpers_take_a_gcd():
    # content removal stays inside the exact elimination: no other layer
    # normalizes rows or coefficients by a gcd of its own
    assert _callers(SOURCES, "gcd") == \
        ["algebra.ExactMatrix._echelon", "algebra._back_substitute", "algebra._remove_content"]


def test_stray_gcd_callers_are_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "import math\nfrom math import gcd\n\nUNIT = gcd(4, 6)\nREDUCE = gcd\n\n\n"
        "def content(row):\n    return math.gcd(*row.values())\n\n\n"
        "class Row:\n    def gcd(self):\n        return self\n\n"
        "    def normalize(self, p):\n        return [v // gcd(p, v) for v in self]\n")
    assert _callers(sorted(tmp_path.glob("*.py")), "gcd") == ["a", "a.Row.normalize", "a.content"]


def _first_holder_eliminations(sources: list[Path]) -> list[str]:
    """Where every call of ``_echelon`` without ``sparsest=True`` is, as
    ``_enclosing`` names it: those keep the first-holder row rule."""
    return _enclosing(sources, lambda node: isinstance(node, ast.Call) and
                      getattr(node.func, "id", getattr(node.func, "attr", None)) == "_echelon"
                      and not any(keyword.arg == "sparsest" and
                                  getattr(keyword.value, "value", None) is True
                                  for keyword in node.keywords))


def test_only_solve_keeps_the_first_holder_row_rule():
    # a certificate is read off the leftover-row order of Gauss-Jordan; every
    # other elimination pivots on the sparsest holder row
    assert _first_holder_eliminations(SOURCES) == ["algebra.ExactMatrix.solve"]


def test_first_holder_eliminations_are_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "FIRST = M._echelon()\n\n\n"
        "def rank(m):\n    return len(m._echelon(sparsest=True)[0])\n\n\n"
        "def kernel(m, rule):\n    return _echelon(m, sparsest=rule)\n\n\n"
        "class Matrix:\n    def _echelon(self, *, sparsest=False):\n        return self\n\n"
        "    def solve(self):\n        return self._echelon(sparsest=False)\n\n"
        "    def pivots(self, **options):\n        return self._echelon(**options)\n")
    assert _first_holder_eliminations(sorted(tmp_path.glob("*.py"))) == \
        ["a", "a.Matrix.pivots", "a.Matrix.solve", "a.kernel"]


def _code_builders(sources: list[Path]) -> list[str]:
    """Where every call of the builtins that turn text into code is, as
    ``_enclosing`` names it; ``re.compile`` and other methods do not count."""
    return _enclosing(sources, lambda node: isinstance(node, ast.Call) and
                      getattr(node.func, "id", None) in ("compile", "exec", "eval"))


def test_only_the_float_emitter_compiles_source():
    # every float kernel, the flow's step included, is written and compiled
    # by the one emitter
    assert _code_builders(SOURCES) == ["algebra.FloatKernel.finish"]


def test_stray_code_builders_are_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "import re\n\nTOKEN = re.compile('x')\nVALUE = eval('1')\n\n\n"
        "def run(source):\n    exec(source, {})\n\n\n"
        "class Kernel:\n    def compile(self):\n        return self\n\n"
        "    def finish(self, text):\n        return compile(text, '<k>', 'exec')\n")
    assert _code_builders(sorted(tmp_path.glob("*.py"))) == ["a", "a.Kernel.finish", "a.run"]


def test_no_engine_path_converts_tensors_to_coordinates():
    # a sharp kernel stays a list of coordinate vectors inside every quotient;
    # tensors are built from coordinates only where tensor arithmetic needs them
    assert _callers(SOURCES, "to_coordinates") == []


def test_stray_quotients_are_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\n\nTOP = b._complement_kernel(1, [])\n\n\n"
        "def _quotient(c, bs):\n    return _complement_kernel(c, bs)\n\n\n"
        "class Complex:\n    def cycles(self):\n        return _complement_kernel\n\n"
        "    def by_hand(self):\n        return [_complement_kernel(x, []) for x in self]\n")
    (tmp_path / "b.py").write_text("def _complement_kernel(c, bs):\n    return c, bs\n")
    assert _callers(sorted(tmp_path.glob("*.py")), "_complement_kernel") == \
        ["a", "a.Complex.by_hand", "a._quotient"]


def _label_readers(sources: list[Path]) -> list[str]:
    """Where every read of an attribute named ``labels`` is, outside
    ``truncation.py``, as ``_enclosing`` names it."""
    return _enclosing([path for path in sources if path.name != "truncation.py"],
                      lambda node: isinstance(node, ast.Attribute) and node.attr == "labels"
                      and isinstance(node.ctx, ast.Load))


def test_only_truncation_decodes_operator_labels():
    # an operator keeps integer row keys; decoding every row back into a
    # (component, monomial) label is for the tests and the certificates only
    assert _label_readers(SOURCES) == []


def test_label_readers_are_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "ROWS = OPERATOR.labels\n\n\n"
        "def rows(operator):\n    return dict(zip(operator.labels, operator.matrix))\n\n\n"
        "class Report:\n    labels = ()\n\n"
        "    def store(self, operator):\n        self.labels = operator.keys\n")
    (tmp_path / "truncation.py").write_text(
        "def certificate(operator):\n    return operator.labels[0]\n")
    assert _label_readers(sorted(tmp_path.glob("*.py"))) == ["a", "a.rows"]
