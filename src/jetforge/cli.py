"""Command-line interface: batch computations over DSL input documents.

Exit codes: 0 success, 1 check-suite failure, 2 usage or parse error, 141
when the reader closes standard output early (as ``| head`` does).
The JETFORGE_FIELD environment variable sets the default coefficient
field for documents whose ring declaration omits one.
"""

import argparse
import json
import os
import sys

from .checks import SUITE_NAMES, CheckConfig, run_suite
from .dsl import parse_document, print_document
from .errors import JetforgeError, ParseError
from .hsmodules import (hs_module_presentation, kaehler_presentation,
                        sym_presentation, upper_triangle)
from .jets import bijet_presentation, induced_morphism, jet_presentation
from .p1 import _cocycle_holds, global_sections, transition_series
from .scalars import field_by_name


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell gives a writer the pipe killed


def _int_at_least(low):
    """argparse type: an int >= low; anything else is a usage error (exit 2)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    return parse


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _load_document(args):
    if args.input and args.input != "-":
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise JetforgeError("cannot read %s: %s" % (args.input, e.strerror))
    else:
        text = sys.stdin.read()
    default_field = None
    env = os.environ.get("JETFORGE_FIELD")
    if env:
        try:
            default_field = field_by_name(env)
        except ValueError as e:
            raise JetforgeError("JETFORGE_FIELD: %s" % e)
    return parse_document(text, default_field=default_field)


def cmd_jet(args):
    doc = _load_document(args)
    jp = jet_presentation(doc.algebra, args.n)
    if args.format == "json":
        _emit_json(jp.to_json_dict())
        return 0
    print("level %d" % jp.level)
    print("vars %s" % " ".join(v.render() for v in jp.jet_vars))
    for r, g in enumerate(jp.relations):
        k, i = divmod(r, args.n + 1)
        print("relation %s.%d = %s" % (doc.ideal_names[k], i, g.render()))
    return 0


def cmd_jet2(args):
    doc = _load_document(args)
    bp = bijet_presentation(doc.algebra, args.n, args.m)
    if args.format == "json":
        _emit_json(bp.to_json_dict())
        return 0
    print("levels %d %d" % bp.levels)
    print("vars %s" % " ".join(v.render() for v in bp.jet_vars))
    for r, g in enumerate(bp.relations):
        k, ij = divmod(r, (args.n + 1) * (args.m + 1))
        i, j = divmod(ij, args.m + 1)
        print("relation %s.%d.%d = %s" % (doc.ideal_names[k], i, j, g.render()))
    return 0


def cmd_module(args):
    doc = _load_document(args)
    if doc.module is None:
        raise JetforgeError("document declares no module")
    hm = hs_module_presentation(doc.module, args.n)
    basis = ["e%d_%d" % divmod(c, args.n + 1) for c in range(hm.rank)]
    if args.format == "json":
        _emit_json({
            "level": args.n,
            "rank": doc.module.rank,
            "basis": basis,
            "rows": [[p.render() for p in row] for row in hm.relation_matrix],
        })
        return 0
    print("level %d" % args.n)
    print("basis %s" % " ".join(basis))
    for r, row in enumerate(hm.relation_matrix):
        k, i = divmod(r, args.n + 1)
        print("row %d.%d : %s" % (k, i, " ; ".join(p.render() for p in row)))
    return 0


def cmd_omega(args):
    doc = _load_document(args)
    target = doc.algebra if args.n is None else jet_presentation(doc.algebra, args.n)
    kp = kaehler_presentation(target)
    gens = doc.algebra.base_vars() if args.n is None else target.jet_vars
    basis = ["d" + v.render(base_plain=args.n is None) for v in gens]
    if args.format == "json":
        _emit_json({
            "level": args.n,
            "basis": basis,
            "rows": [[p.render() for p in row] for row in kp.relation_matrix],
        })
        return 0
    print("basis %s" % " ".join(basis))
    for k, row in enumerate(kp.relation_matrix):
        print("row %d : %s" % (k, " ; ".join(p.render() for p in row)))
    return 0


def cmd_sym(args):
    doc = _load_document(args)
    if doc.module is None:
        raise JetforgeError("document declares no module")
    sp = sym_presentation(doc.module)
    if args.format == "json":
        _emit_json({
            "vars": sp.vars,
            "grading": sp.grading,
            "relations": [f.render(base_plain=True) for f in sp.relations],
        })
        return 0
    sys.stdout.write(print_document(sp))
    return 0


def cmd_morphism(args):
    doc = _load_document(args)
    if doc.morphism is None:
        raise JetforgeError("document declares no morphism")
    fn = induced_morphism(doc.morphism, args.n)
    images = sorted(fn.images.items(), key=lambda vi: vi[0].sort_key())
    if args.format == "json":
        _emit_json({"level": args.n,
                    "images": {v.render(): p.render() for v, p in images}})
        return 0
    for v, p in images:
        print("%s -> %s" % (v.render(), p.render()))
    return 0


def cmd_check(args):
    suites = SUITE_NAMES if args.suite == "all" else tuple(args.suite.split(","))
    config = CheckConfig(seed=args.seed, trials=args.trials, suites=suites)
    report = run_suite(config)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def cmd_p1(args):
    series = transition_series(args.d, args.n, "overlap")
    rows = upper_triangle(series.coeffs, series.coeffs[0] * 0)
    out = {
        "d": args.d,
        "n": args.n,
        "transition": [[p.render() for p in row] for row in rows],
        "cocycle_ok": _cocycle_holds(series, args.d, args.n) if args.cocycle else None,
        "global_sections": None,
    }
    if args.sections:
        secs = global_sections(args.d, args.n)
        out["global_sections"] = [label for label, _ in secs]
        all_global = all(regular for _, regular in secs)
    if args.format == "json":
        _emit_json(out)
        return 0
    print("d %d, level %d" % (args.d, args.n))
    for j, row in enumerate(out["transition"]):
        print("transition row %d : %s" % (j, " ; ".join(row)))
    if args.cocycle:
        print("cocycle %s" % ("ok" if out["cocycle_ok"] else "FAILED"))
    if args.sections:
        print("global sections (%d): %s" % (len(out["global_sections"]),
                                            " ".join(out["global_sections"])))
        print("all global: %s" % ("yes" if all_global else "no"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jetforge",
        description="Exact jet-algebra and Hasse-Schmidt-module computations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_input:
            p.add_argument("input", nargs="?", default="-",
                           help="DSL input file ('-' or omitted for stdin)")

    p = sub.add_parser("jet", help="level-n jet presentation")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    common(p)

    p = sub.add_parser("jet2", help="bivariate jet presentation")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    common(p)

    p = sub.add_parser("module", help="Hasse-Schmidt module presentation")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    common(p)

    p = sub.add_parser("omega", help="Kaehler differentials (base or jet level)")
    p.add_argument("--n", type=_int_at_least(0), default=None)
    common(p)

    p = sub.add_parser("sym", help="symmetric algebra of the declared module")
    common(p)

    p = sub.add_parser("morphism", help="induced morphism on jet presentations")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    common(p)

    p = sub.add_parser("check", help="run the randomized theorem suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=42)
    common(p, with_input=False)

    p = sub.add_parser("p1", help="jet line bundles on the projective line")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--cocycle", action="store_true")
    p.add_argument("--sections", action="store_true")
    common(p, with_input=False)

    return parser


_parser = None  # built by the first main() call; it depends on no input


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up per call, so the kept parser holds no reference to a command
    command = globals()["cmd_" + args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe then shows up here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can be written; send what is still buffered, and the
        # interpreter's final flush, to /dev/null instead of a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except JetforgeError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
