"""Outside-in tracer: wraps public nambu functions from the benchmark's files.

Spans are kept in memory as ``(id, name, start, end, parent, command, attrs)``
and written out when the run ends; the per-layer metrics are derived from
them afterwards.  Construction of ``Polynomial`` and ``RationalFunction``
objects is only counted: a timing span at that level would swamp the numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict

# span group -> (defining module, qualified names wrapped in it)
TARGETS = {
    "elim": ("nambu.algebra", ("ExactMatrix.rank", "ExactMatrix.nullspace",
                               "ExactMatrix.solve")),
    "matvec": ("nambu.algebra", ("ExactMatrix.apply",)),
    "from_columns": ("nambu.algebra", ("matrix_from_columns",)),
    "exterior": ("nambu.exterior", ("wedge", "contract_form", "interior_form", "ext_d",
                                    "apply_vector", "pair", "lie_form", "lie_mv")),
    "structures": ("nambu.structures", ("sharp", "hamiltonian_vf", "nambu_bracket",
                                        "check_fundamental_identity",
                                        "check_decomposability")),
    "assembly": ("nambu.truncation", ("TruncatedOperator.build", "solve_in_span")),
    "truncation": ("nambu.truncation", ("TruncatedBasis.build",
                                        "TruncatedBasis.to_coordinates",
                                        "TruncatedBasis.from_coordinates",
                                        "ker_sharp_basis")),
    "cohomology": ("nambu.cohomology", ("np_h1_top", "duality_report",
                                        "foliated_cohomology_dim",
                                        "canonical_homology_dim", "subcomplex_check")),
    "modular": ("nambu.modular", ("modular_tensor", "modular_potential", "delta")),
    "flows": ("nambu.flows", ("integrate_hamiltonian", "conservation_report")),
    "model": ("nambu.model", ("parse_model",)),
    "cli": ("nambu.cli", ("main",)),
}
GROUP_OF = {name: group for group, (_, names) in TARGETS.items() for name in names}
# groups that are part of a wider layer; every other group is a layer itself
LAYER_OF = {"elim": "algebra", "matvec": "algebra", "from_columns": "algebra",
            "assembly": "truncation"}
REPEAT_CHECKED = {"TruncatedBasis.build", "ker_sharp_basis"}
COUNTED_CLASSES = {"poly": ("nambu.algebra", "Polynomial"),
                   "ratfunc": ("nambu.algebra", "RationalFunction")}


def _nnz(matrix) -> int:
    rows = getattr(matrix, "_rows", None)
    if rows is None:
        rows = matrix.row_dicts()
    return sum(len(row) for row in rows)


def _observe(name, args, kwargs, result) -> dict | None:
    """Sizes recorded on a finished span, outside its timed interval."""
    if name in ("ExactMatrix.rank", "ExactMatrix.nullspace", "ExactMatrix.solve"):
        attrs = {"nnz": _nnz(args[0])}
        if name == "ExactMatrix.rank":
            attrs["rank"] = result
        elif name == "ExactMatrix.nullspace":
            attrs["rank"] = args[0].cols - len(result)
        return attrs
    if name == "TruncatedOperator.build":
        return {"nnz": _nnz(result.matrix)}
    if name == "integrate_hamiltonian":
        config = args[2] if len(args) > 2 else kwargs["config"]
        return {"steps": config.steps}
    return None


def _repeat_key(args, kwargs):
    parts = []
    for value in list(args) + sorted(kwargs.items()):
        try:
            hash(value)
        except TypeError:
            value = ("id", id(value))
        parts.append(value)
    return tuple(parts)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = {key: 0 for key in COUNTED_CLASSES}
        self.command: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._seen: dict[int | None, set] = defaultdict(set)

    def _wrap(self, name: str, fn):
        spans, stack, clock, ids = self.spans, self._stack, time.perf_counter, self._ids
        seen = self._seen
        repeat_checked = name in REPEAT_CHECKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, start, clock(), parent, self.command, None))
                raise
            end = clock()
            stack.pop()
            attrs = _observe(name, args, kwargs, result)
            if repeat_checked:
                key = (name, _repeat_key(args, kwargs))
                keys = seen[self.command]
                attrs = {"repeat": key in keys}
                keys.add(key)
            spans.append((sid, name, start, end, parent, self.command, attrs))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in its home module and every nambu namespace holding it.

        A module-level function is looked up by name in the namespace of the
        caller, and callers that did ``from .x import f`` hold their own
        binding, so each ``nambu.*`` module that holds the original is patched.
        Methods are looked up on the class, which all callers share.
        """
        import nambu.cli  # noqa: F401  -- loads every module that cli uses

        namespaces = [module for key, module in sorted(sys.modules.items())
                      if key == "nambu" or key.startswith("nambu.")]
        for module_name, names in TARGETS.values():
            home = sys.modules[module_name]
            for qualified in names:
                owner_name, _, attr = qualified.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{module_name}.{qualified}")
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(qualified, raw.__func__)))
                    continue
                wrapped = self._wrap(qualified, raw)
                setattr(owner, attr, wrapped)
                if not owner_name:
                    for module in namespaces:
                        if vars(module).get(attr) is raw:
                            setattr(module, attr, wrapped)
        for key, (module_name, class_name) in COUNTED_CLASSES.items():
            self._count_constructions(key, getattr(sys.modules[module_name], class_name))

    def _count_constructions(self, key: str, cls) -> None:
        # __new__ rather than __init__: the arithmetic fast paths build results
        # with cls.__new__(cls) and never call __init__.
        counts = self.counts
        own_new = vars(cls).get("__new__")

        def counting_new(klass, *args, **kwargs):
            counts[key] += 1
            if own_new is None:
                return object.__new__(klass)
            return own_new(klass, *args, **kwargs)

        cls.__new__ = staticmethod(counting_new)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[tuple], counts: dict[str, int], passes: int) -> dict[str, float]:
    """Per-layer metrics, as means per traced pass, derived from the spans."""
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def ancestors(span):
        parent = span[4]
        while parent is not None:
            span = by_id[parent]
            yield span
            parent = span[4]

    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    max_nnz = 0
    repeats = repeat_checked = 0
    for span in spans:
        sid, name, start, end, parent, _, attrs = span
        attrs = attrs or {}
        duration = end - start
        group = GROUP_OF[name]
        own_layer = LAYER_OF.get(group, group)
        calls[group] += 1
        total[own_layer + ".self_s"] += duration - child_time[sid]
        lineage = list(ancestors(span))
        if not any(GROUP_OF[a[1]] == group for a in lineage):
            total[group + ".busy_s"] += duration
        if group == "elim":
            nnz = attrs.get("nnz", 0)
            total["elim.nnz_in"] += nnz
            total["elim.rank_sum"] += attrs.get("rank", 0)
            max_nnz = max(max_nnz, nnz)
            if any(GROUP_OF[a[1]] == "assembly" for a in lineage):
                total["assembly.busy_s"] -= duration
            if parent is not None and by_id[parent][1] == "solve_in_span":
                total["assembly.nnz"] += nnz
        elif name == "TruncatedOperator.build":
            total["assembly.nnz"] += attrs.get("nnz", 0)
        elif name == "integrate_hamiltonian":
            total["flows.steps"] += attrs.get("steps", 0)
        if name in REPEAT_CHECKED:
            repeat_checked += 1
            repeats += attrs.get("repeat", False)

    per_pass = max(passes, 1)

    def mean(value: float) -> float:
        return value / per_pass

    return {
        "algebra.elim.calls": mean(calls["elim"]),
        "algebra.elim.busy_s": mean(total["elim.busy_s"]),
        "algebra.elim.nnz_in": mean(total["elim.nnz_in"]),
        "algebra.elim.rank_sum": mean(total["elim.rank_sum"]),
        "algebra.elim.max_nnz": max_nnz,
        "algebra.matvec.calls": mean(calls["matvec"]),
        "algebra.matvec.busy_s": mean(total["matvec.busy_s"]),
        "algebra.from_columns.busy_s": mean(total["from_columns.busy_s"]),
        "algebra.poly.constructed": mean(counts["poly"]),
        "algebra.ratfunc.constructed": mean(counts["ratfunc"]),
        "exterior.calls": mean(calls["exterior"]),
        "exterior.busy_s": mean(total["exterior.busy_s"]),
        "exterior.self_s": mean(total["exterior.self_s"]),
        "structures.calls": mean(calls["structures"]),
        "structures.busy_s": mean(total["structures.busy_s"]),
        "structures.self_s": mean(total["structures.self_s"]),
        "truncation.assembly.calls": mean(calls["assembly"]),
        "truncation.assembly.busy_s": mean(total["assembly.busy_s"]),
        "truncation.assembly.nnz": mean(total["assembly.nnz"]),
        "truncation.self_s": mean(total["truncation.self_s"]),
        "truncation.repeat_frac": repeats / repeat_checked if repeat_checked else 0.0,
        "cohomology.busy_s": mean(total["cohomology.busy_s"]),
        "cohomology.self_s": mean(total["cohomology.self_s"]),
        "modular.busy_s": mean(total["modular.busy_s"]),
        "modular.self_s": mean(total["modular.self_s"]),
        "flows.busy_s": mean(total["flows.busy_s"]),
        "flows.steps": mean(total["flows.steps"]),
        "model.parse_s": mean(total["model.busy_s"]),
        "cli.self_s": mean(total["cli.self_s"]),
    }
