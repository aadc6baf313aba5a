"""Per-layer tracing of `pemb` from outside the package.

`install` wraps public functions and methods of each `pemb` layer so
that every call records a span (name, start, end, parent, job) or bumps
a counter.  Module functions are patched in every `pemb.*` namespace
that bound them with `from .x import f`, methods on their class, so no
call is missed.  `pemb.fields` is not wrapped: it runs once per scalar
operation, and a wrapper there would distort the run; its cost shows in
the callers' self time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute, span name).  Several attributes may share one
# span name; nested spans of one name count once in its inclusive time.
SPANS = (
    ("pemb.parser", "parse_file", "parser.parse"),
    ("pemb.parser", "parse", "parser.parse"),
    ("pemb.algebra", "materialize_free_cdga", "algebra.materialize"),
    ("pemb.algebra", "Cdga.validate", "algebra.cdga_validate"),
    ("pemb.algebra", "CdgaMorphism.validate", "algebra.morphism_validate"),
    ("pemb.algebra", "direct_sum_cdga", "algebra.direct_sum"),
    ("pemb.modules", "direct_sum_modules", "algebra.direct_sum"),
    ("pemb.algebra", "quotient_cdga", "algebra.quotient"),
    ("pemb.algebra", "quotient_by_acyclic_ideal", "algebra.quotient"),
    ("pemb.algebra", "cohomology_algebra", "algebra.cohomology_algebra"),
    ("pemb.algebra", "check_poincare_duality", "algebra.poincare_duality"),
    ("pemb.linalg", "Matrix.rref", "linalg.rref"),
    ("pemb.linalg", "Matrix.solve", "linalg.solve"),
    ("pemb.graded", "cohomology", "graded.cohomology"),
    ("pemb.graded", "mapping_cone", "graded.mapping_cone"),
    ("pemb.modules", "DgModule.validate", "modules.dgmodule_validate"),
    ("pemb.modules", "semifree_resolution", "modules.semifree_resolution"),
    ("pemb.modules", "solve_chain_maps", "modules.solve_chain_maps"),
    ("pemb.modules", "shifted_dual", "modules.shifted_dual"),
    ("pemb.modules", "restrict_scalars", "modules.restrict_scalars"),
    ("pemb.cones", "semi_trivial_cone", "cones.semi_trivial_cone"),
    ("pemb.cones", "leibniz_report", "cones.leibniz_report"),
    ("pemb.cones", "build_acyclic_truncation", "cones.truncation"),
    ("pemb.cones", "truncated_cone", "cones.truncation"),
    ("pemb.duality", "construct_top_degree", "duality.top_degree"),
    ("pemb.duality", "gysin_map", "duality.gysin_map"),
    ("pemb.pipeline", "analyze", "pipeline.analyze"),
    ("pemb.pipeline", "complement_model", "pipeline.complement_model"),
    ("pemb.pipeline", "stable_square", "pipeline.stable_square"),
    ("pemb.pipeline", "dgmodule_square", "pipeline.dgmodule_square"),
    ("pemb.pipeline", "lefschetz", "pipeline.lefschetz"),
    ("pemb.pipeline", "gysin", "pipeline.gysin"),
    ("pemb.pipeline", "oracle_complement_dims", "pipeline.oracle"),
)

# Hot inner calls get a counter only; a span each would swamp the run.
COUNTERS = (
    ("pemb.algebra", "Cdga.mul_vec", "algebra.mul_vec_calls"),
    ("pemb.modules", "DgModule.act_vec", "modules.act_vec_calls"),
)


def _rref_sizes(rec, args, result):
    m = args[0]
    rec.counts["linalg.rref_cells"] += m.nrows * m.ncols
    rec.counts["linalg.rref_nnz"] += sum(
        1 for row in m.entries for x in row if x != 0)


def _materialized_dim(rec, args, result):
    rec.counts["algebra.materialized_dim"] += result.space.total_dim()


# Counts read off a wrapped call's arguments or result, after its span ends.
AFTER = {"linalg.rref": _rref_sizes, "algebra.materialize": _materialized_dim}


class Recorder:
    """Spans and counts of one traced pass, kept in memory.

    A span is [name, start, end, parent index or -1, job id]; spans are
    stored in the order they start.
    """

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(
            [c for _, _, c in COUNTERS]
            + ["linalg.rref_cells", "linalg.rref_nnz", "algebra.materialized_dim"],
            0)
        self.stack = []
        self.job = None


def span_wrapper(rec, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.job]
        stack.append(len(rec.spans))
        rec.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if after is not None:
            after(rec, args, result)
        return result
    return wrapper


def count_wrapper(rec, name, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _patch(module_name, attr, make, undo):
    """Replace module_name.attr by make(original); log how to undo it."""
    mod = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, make(original))
        undo.append((cls, meth, original))
        return
    original = getattr(mod, attr)
    wrapped = make(original)
    for name, other in list(sys.modules.items()):
        if other is None or not (name == "pemb" or name.startswith("pemb.")):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapped)
                undo.append((other, key, original))


def install(rec):
    """Wrap every traced entry point; return the undo log for `uninstall`."""
    undo = []
    for module_name, attr, name in SPANS:
        _patch(module_name, attr,
               lambda fn, name=name: span_wrapper(rec, name, fn, AFTER.get(name)),
               undo)
    for module_name, attr, name in COUNTERS:
        _patch(module_name, attr,
               lambda fn, name=name: count_wrapper(rec, name, fn), undo)
    return undo


def uninstall(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def span_totals(spans):
    """{name: (inclusive seconds, self seconds, calls)}.

    Self time is a span's duration minus its direct children's.
    Inclusive time sums only the spans with no ancestor of the same name,
    so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        inc, own, calls = totals.get(name, (0.0, 0.0, 0))
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inc += end - start
        totals[name] = (inc, own + (end - start) - child[i], calls + 1)
    return totals


# Per-layer metric -> (unit, what is read, span or counter name).  "inc",
# "self" and "calls" read span_totals; "count" reads a counter.
LAYER_METRICS = {
    "parser.parse_s": ("s", "inc", "parser.parse"),
    "algebra.materialize_self_s": ("s", "self", "algebra.materialize"),
    "algebra.materialized_dim": ("count", "count", "algebra.materialized_dim"),
    "algebra.cdga_validate_s": ("s", "inc", "algebra.cdga_validate"),
    "algebra.cdga_validate_calls": ("count", "calls", "algebra.cdga_validate"),
    "algebra.morphism_validate_s": ("s", "inc", "algebra.morphism_validate"),
    "algebra.mul_vec_calls": ("count", "count", "algebra.mul_vec_calls"),
    "algebra.direct_sum_s": ("s", "inc", "algebra.direct_sum"),
    "algebra.quotient_s": ("s", "inc", "algebra.quotient"),
    "algebra.cohomology_algebra_s": ("s", "inc", "algebra.cohomology_algebra"),
    "algebra.poincare_duality_s": ("s", "inc", "algebra.poincare_duality"),
    "linalg.rref_s": ("s", "inc", "linalg.rref"),
    "linalg.rref_self_s": ("s", "self", "linalg.rref"),
    "linalg.rref_calls": ("count", "calls", "linalg.rref"),
    "linalg.rref_cells": ("count", "count", "linalg.rref_cells"),
    "linalg.rref_nnz_ratio": ("ratio", "nnz/cells", None),
    "linalg.solve_s": ("s", "inc", "linalg.solve"),
    "graded.cohomology_s": ("s", "inc", "graded.cohomology"),
    "graded.cohomology_calls": ("count", "calls", "graded.cohomology"),
    "graded.mapping_cone_s": ("s", "inc", "graded.mapping_cone"),
    "modules.dgmodule_validate_s": ("s", "inc", "modules.dgmodule_validate"),
    "modules.dgmodule_validate_calls": ("count", "calls", "modules.dgmodule_validate"),
    "modules.act_vec_calls": ("count", "count", "modules.act_vec_calls"),
    "modules.semifree_resolution_s": ("s", "inc", "modules.semifree_resolution"),
    "modules.solve_chain_maps_s": ("s", "inc", "modules.solve_chain_maps"),
    "modules.shifted_dual_s": ("s", "inc", "modules.shifted_dual"),
    "modules.restrict_scalars_s": ("s", "inc", "modules.restrict_scalars"),
    "cones.semi_trivial_cone_s": ("s", "inc", "cones.semi_trivial_cone"),
    "cones.leibniz_report_s": ("s", "inc", "cones.leibniz_report"),
    "cones.truncation_s": ("s", "inc", "cones.truncation"),
    "duality.top_degree_s": ("s", "inc", "duality.top_degree"),
    "duality.gysin_map_s": ("s", "inc", "duality.gysin_map"),
    "pipeline.analyze_s": ("s", "inc", "pipeline.analyze"),
    "pipeline.complement_model_s": ("s", "inc", "pipeline.complement_model"),
    "pipeline.stable_square_s": ("s", "inc", "pipeline.stable_square"),
    "pipeline.dgmodule_square_s": ("s", "inc", "pipeline.dgmodule_square"),
    "pipeline.lefschetz_s": ("s", "inc", "pipeline.lefschetz"),
    "pipeline.gysin_s": ("s", "inc", "pipeline.gysin"),
    "pipeline.oracle_s": ("s", "inc", "pipeline.oracle"),
}

_TOTALS = ("inc", "self", "calls")


def layer_metrics(rec):
    """Every per-layer metric of one traced pass (0 where a layer was
    not reached)."""
    totals = span_totals(rec.spans)
    counts = rec.counts
    out = {}
    for name, (_, what, source) in LAYER_METRICS.items():
        if what == "count":
            out[name] = counts[source]
        elif what == "nnz/cells":
            cells = counts["linalg.rref_cells"]
            out[name] = counts["linalg.rref_nnz"] / cells if cells else 0.0
        else:
            out[name] = totals.get(source, (0.0, 0.0, 0))[_TOTALS.index(what)]
    return out
