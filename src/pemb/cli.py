"""Command line front end: problem files in, deterministic reports out.

Exit codes: 0 success, 1 named hypothesis failure, 2 parse or
validation error, 3 internal error: a construction broke what its own
argument guarantees (`graded.InternalError`), a fault of `pemb` and not
of the input.
"""

from __future__ import annotations

import argparse
import functools
import sys
from importlib import resources

from .algebra import AlgebraError, cohomology_algebra
from .cones import ConeError
from .duality import DualityError
from .fields import FieldError, PrimeField, QQ
from .graded import GradedError, InternalError
from .linalg import dense
from .modules import ModuleError
from .parser import ParseError, emit_explicit, parse_file
from .pipeline import (HypothesisError, PipelineError, analyze,
                       complement_model, dgmodule_square, format_dims, gysin,
                       lefschetz, all_positive_products_zero,
                       oracle_complement_dims, punctured_square, stable_square)

EXAMPLES = {
    "s2_in_s6": "complement",
    "wedge_in_s8": "complement",
    "cp2_in_s8": "complement",
    "two_s7_in_s15": "lefschetz",
    "cp1_in_cp2_gysin": "gysin",
    "s2_in_s9_stable": "stable-square",
    "point_in_sn": "complement",
    "hopf_torus": "complement",
}

_INPUT_ERRORS = (ParseError, AlgebraError, GradedError, ModuleError,
                 ConeError, DualityError, FieldError, OSError)


def _field_line(field):
    if field == QQ:
        return "field rational"
    return "field prime %d" % field.p


def _machine_doc(field, algebras):
    """Serialize named CDGAs as a reparseable document."""
    hi = max(a.space.window.hi for _, a in algebras)
    out = [_field_line(field), "window 0 %d" % hi]
    for name, a in algebras:
        out.append(emit_explicit(name, a))
    return "\n".join(out)


def _deg_table(dims):
    return ", ".join("deg %d:%d" % (d, dims[d]) for d in sorted(dims))


def _print(lines):
    for line in lines:
        print(line)


def cmd_validate(pf, args):
    lines = []
    for name in sorted(pf.algebras):
        a = pf.algebras[name].cdga
        dims = {d: a.space.dim(d) for d in a.space.degrees()}
        lines.append("algebra %s: validated, dims %s" % (name, format_dims(dims)))
    for name in sorted(pf.morphisms):
        lines.append("morphism %s: validated" % name)
    if pf.problem is not None:
        ambient, n, branches = pf.problem
        lines.append("problem: ambient %s dim %d, %d embedded component%s"
                     % (ambient, n, len(branches),
                        "" if len(branches) == 1 else "s"))
    _print(lines)
    return 0


def cmd_cohomology(pf, args):
    if args.object not in pf.algebras:
        raise ParseError(0, "no algebra named %r in this file" % args.object)
    a = pf.algebras[args.object].cdga
    halg, coh = cohomology_algebra(a)
    halg.validate()
    if args.format == "machine":
        print(_machine_doc(a.field, [("H_%s" % args.object, halg)]))
        return 0
    print("H^*(%s): %s" % (args.object, _deg_table(dict(coh.dims))))
    if all_positive_products_zero(halg):
        print("all positive products zero")
    else:
        for (d1, i1, d2, i2) in sorted(halg.product):
            if d1 == 0 or d2 == 0:
                continue
            v = dense(halg.field, halg.product[(d1, i1, d2, i2)],
                      halg.space.dim(d1 + d2))
            print("product h%d_%d . h%d_%d = %s"
                  % (d1, i1, d2, i2, [str(c) for c in v]))
    return 0


def cmd_analyze(pf, args):
    problem = pf.embedding_problem()
    _print(analyze(problem).lines())
    return 0


def _algebra_summary(out):
    lines = ["H^*(C): %s" % _deg_table(out.h_dims)]
    if all_positive_products_zero(out.h_algebra):
        lines.append("all positive products zero")
    lines.append("quotient CDGA validated; map from ambient model validated")
    # complement_model returns only a quotient whose projection from the
    # cone `truncated_cone` certified a quasi-isomorphism
    lines.append("truncation ideal acyclic: True")
    lines.append("duality certificate: PASS (dimension %d)" % out.analysis.n)
    return lines


def cmd_complement(pf, args):
    problem = pf.embedding_problem()
    out = complement_model(problem)
    if args.format == "machine":
        print(_machine_doc(problem.field, [("C", out.quotient)]))
        return 0
    _print(_algebra_summary(out))
    oracle = oracle_complement_dims(problem)
    if oracle is None:
        print("independent dimension oracle: not applicable "
              "(ambient is not a cohomology n-sphere)")
    else:
        print("independent dimension oracle: %s : %s"
              % (format_dims(oracle), "MATCH" if oracle == out.h_dims else "MISMATCH"))
    return 0


def _square_report(sq, args, field):
    if args.format == "machine" and sq.kind in ("stable", "punctured"):
        print(_machine_doc(field, [("BL", sq.bottom_left),
                                   ("BR", sq.bottom_right)]))
        return 0
    lines = ["%s square" % sq.kind,
             "bottom-left H: %s" % _deg_table(sq.h_bottom_left),
             "bottom-right H: %s" % _deg_table(sq.h_bottom_right),
             "square commutes: %s" % sq.commutes]
    for k in sorted(sq.notes):
        lines.append("%s: %s" % (k, sq.notes[k]))
    _print(lines)
    return 0


def cmd_stable(pf, args):
    problem = pf.embedding_problem()
    return _square_report(stable_square(problem), args, problem.field)


def cmd_dgmodule(pf, args):
    problem = pf.embedding_problem()
    return _square_report(dgmodule_square(problem), args, problem.field)


def cmd_lefschetz(pf, args):
    problem = pf.embedding_problem()
    out = lefschetz(problem)
    if args.format == "machine" and not out.algebra_undetermined:
        print(_machine_doc(problem.field, [("HC", out.h_algebra)]))
        return 0
    lines = ["H^*(C): %s" % _deg_table(out.h_dims)]
    if out.algebra_undetermined:
        lines.append("algebra undetermined (unknotting fails)")
    else:
        lines.append("algebra determined")
        if all_positive_products_zero(out.h_algebra):
            lines.append("all positive products zero")
    acted = sorted({(dw, dc) for (dw, _, dc, _) in out.action if dw > 0})
    lines.append("nontrivial ambient action degrees: %s"
                 % (["%d on %d" % p for p in acted] if acted else "none"))
    if args.format == "machine":
        # no algebra to emit: a document that declares none, the report
        # in its comments
        lines = [_field_line(problem.field),
                 "window 0 %d" % max(out.h_dims, default=0)] + ["# " + ln for ln in lines]
    _print(lines)
    return 0


def cmd_punctured(pf, args):
    problem = pf.embedding_problem()
    sq = punctured_square(
        problem,
        attest_boundary_simply_connected=args.attest_boundary_simply_connected)
    return _square_report(sq, args, problem.field)


def cmd_gysin(pf, args):
    problem = pf.embedding_problem()
    out = gysin(problem)
    _print(out.lines())
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "analyze": cmd_analyze,
    "complement": cmd_complement,
    "stable-square": cmd_stable,
    "dgmodule-square": cmd_dgmodule,
    "lefschetz": cmd_lefschetz,
    "punctured-square": cmd_punctured,
    "gysin": cmd_gysin,
}


def example_path(name):
    ref = resources.files("pemb").joinpath("data", name + ".pemb")
    if not ref.is_file():
        raise ParseError(0, "no example named %r" % name)
    return ref


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as
    it was, and each call returns a new namespace."""
    ap = argparse.ArgumentParser(
        prog="pemb",
        description="Exact-arithmetic models of embedding complements.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_path=True):
        if with_path:
            p.add_argument("path", help="problem file")
        p.add_argument("--format", choices=["table", "machine"],
                       default="table")

    for name in ("validate", "analyze", "complement", "stable-square",
                 "lefschetz", "gysin"):
        common(sub.add_parser(name))
    p = sub.add_parser("cohomology")
    common(p)
    p.add_argument("--object", required=True, help="algebra name")
    p = sub.add_parser("dgmodule-square")
    common(p)
    p.add_argument("--field", type=int, default=None,
                   help="rerun over the prime field F_p")
    p = sub.add_parser("punctured-square")
    common(p)
    p.add_argument("--attest-boundary-simply-connected", action="store_true")
    p = sub.add_parser("examples")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("name", nargs="?")
    p.add_argument("--format", choices=["table", "machine"], default="table")
    p.add_argument("--attest-boundary-simply-connected", action="store_true")
    return ap


def _run(args):
    if args.command == "examples":
        if args.action == "list":
            for name in sorted(EXAMPLES):
                print("%s (%s)" % (name, EXAMPLES[name]))
            return 0
        if not args.name:
            raise ParseError(0, "examples run needs a name")
        path = example_path(args.name)
        args.command = EXAMPLES[args.name]
        args.path = str(path)
        print("# %s -> %s" % (args.name, args.command))

    override = None
    if getattr(args, "field", None) is not None:
        override = PrimeField(args.field)
    pf = parse_file(args.path, field_override=override)
    return COMMANDS[args.command](pf, args)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except HypothesisError as e:
        print("hypothesis failure: %s" % e, file=sys.stderr)
        return 1
    except PipelineError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except _INPUT_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except InternalError as e:
        print("error: internal: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
