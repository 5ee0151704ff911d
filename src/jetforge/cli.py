"""Command-line interface: batch computations over DSL input documents.

Exit codes: 0 success, 1 check-suite failure, 2 usage or parse error, 141
when the reader closes standard output early (as ``| head`` does).
Output depends only on the document and the flags.  A document, a file
or standard input, is UTF-8 in every locale; a byte that is not UTF-8 is
an error located by line and column.

Only what the document subcommands run is imported here.  ``check``
imports ``checks`` and ``p1`` imports ``p1`` when they run, and ``json``
is imported for the first ``--format json`` output, so start-up does not
pay for modules a subcommand does not use.
"""

import argparse
import os
import sys

from .dsl import InputDocument, parse_document, print_document
from .errors import JetforgeError, ParseError
from .hsmodules import (hs_module_presentation, kaehler_presentation, map_entries,
                        sym_presentation, upper_triangle)
from .jets import _grades, induced_morphism, jet_presentation
from .poly import Poly


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell gives a writer the pipe killed


def _int_arg(low=None):
    """argparse type: an optionally signed run of ASCII digits, at least low
    when low is given; anything else is a usage error (exit 2).  int() alone
    would also take other scripts' digits, underscores and spaces."""
    def parse(text):
        digits = text[1:] if text[:1] in ("+", "-") else text
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(text)
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    return parse


def _emit_json(obj):
    import json

    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _load_document(args):
    """Parse the input's bytes, decoded in one call, so that an error's
    offsets count from the first byte.  A text stream put in place of
    sys.stdin (io.StringIO) has no buffer, and its text is used as it is."""
    path = "" if args.input == "-" else args.input
    name = path or "standard input"
    try:
        if path:
            with open(path, "rb") as fh:
                data = fh.read()
        elif sys.stdin is None:  # closed when the interpreter started
            raise JetforgeError("cannot read standard input: it is closed")
        else:
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        text = data if isinstance(data, str) else data.decode("utf-8")
    except OSError as e:
        raise JetforgeError("cannot read %s: %s" % (name, e.strerror))
    except UnicodeDecodeError as e:
        # lines counted as the parser counts them, up to the first bad byte
        lines = (e.object[:e.start].decode("utf-8") + "?").splitlines()
        raise JetforgeError("cannot decode %s: line %d, col %d: byte 0x%02x is not UTF-8"
                            % (name, len(lines), len(lines[-1]), e.object[e.start]))
    return parse_document(text)


def cmd_jet(args):
    """jet and jet2: the jet presentation over the grade box (n,) or (n, m);
    relation r is component box[i] of ideal k, (k, i) = divmod(r, len(box))."""
    doc = _load_document(args)
    levels = (args.n, args.m) if args.command == "jet2" else (args.n,)
    jp = jet_presentation(doc.algebra, *levels)
    names = [v.render() for v in jp.generators]
    if args.format == "json":
        out = {"levels": list(levels)} if len(levels) > 1 else {"level": args.n}
        out.update(vars=names, relations=[g.render() for g in jp.relations])
        if len(levels) == 1:
            grading, pairs = doc.algebra.grading, list(zip(names, jp.generators))
            out["structural_degrees"] = {s: v.order1 for s, v in pairs}
            out["induced_degrees"] = {s: grading[v.name] for s, v in pairs} if grading else {}
        _emit_json(out)
        return 0
    print("level%s %s" % ("s" if len(levels) > 1 else "", " ".join(map(str, levels))))
    print("vars %s" % " ".join(names))
    labels = [".".join(map(str, g)) for g in _grades(levels)[0]]
    for r, g in enumerate(jp.relations):
        k, i = divmod(r, len(labels))
        print("relation %s.%s = %s" % (doc.ideal_names[k], labels[i], g.render()))
    return 0


def cmd_module(args):
    doc = _load_document(args)
    if doc.module is None:
        raise JetforgeError("document declares no module")
    hm = hs_module_presentation(doc.module, args.n)
    basis = ["e%d_%d" % divmod(c, args.n + 1) for c in range(hm.rank)]
    rows = map_entries(Poly.render, hm.relation_matrix)
    if args.format == "json":
        _emit_json({"level": args.n, "rank": doc.module.rank, "basis": basis, "rows": rows})
        return 0
    print("level %d" % args.n)
    print("basis %s" % " ".join(basis))
    for r, row in enumerate(rows):
        k, i = divmod(r, args.n + 1)
        print("row %d.%d : %s" % (k, i, " ; ".join(row)))
    return 0


def cmd_omega(args):
    """Kaehler differentials of the algebra A, or with --n N of its level-N
    jets, printed as HS^N(Omega_A): by de Fernex and Docampo, the module of
    differentials of the jet algebra, which the ``cotangent_theorem`` suite
    checks against the jet algebra's Jacobian."""
    doc = _load_document(args)
    omega = kaehler_presentation(doc.algebra)
    if args.n is not None:
        omega = hs_module_presentation(omega, args.n)
    basis = ["d" + v.render(base_plain=args.n is None) for v in omega.over.generators]
    rows = map_entries(Poly.render, omega.relation_matrix)
    if args.format == "json":
        _emit_json({"level": args.n, "basis": basis, "rows": rows})
        return 0
    print("basis %s" % " ".join(basis))
    for k, row in enumerate(rows):
        print("row %d : %s" % (k, " ; ".join(row)))
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
    sys.stdout.write(print_document(InputDocument(sp, None)))
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
    from .checks import report_text, run_suite

    suites = None if args.suite == "all" else args.suite.split(",")
    report = run_suite(args.seed, args.trials, suites)
    if args.format == "json":
        _emit_json(report)
    else:
        print(report_text(report))
    return 0 if report["passed"] else 1


def cmd_p1(args):
    from .p1 import _cocycle_holds, global_sections, transition_series

    jets = transition_series(args.d, args.n)
    out = {
        "d": args.d,
        "n": args.n,
        "transition": upper_triangle([p.render() for p in jets], "0"),
        "cocycle_ok": _cocycle_holds(jets, args.d, args.n) if args.cocycle else None,
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

    parser.commands = sub.choices  # each command's subparser, by name, for main

    p = sub.add_parser("jet", help="level-n jet presentation")
    p.add_argument("--n", type=_int_arg(0), required=True)
    common(p)

    p = sub.add_parser("jet2", help="bivariate jet presentation")
    p.add_argument("--n", type=_int_arg(0), required=True)
    p.add_argument("--m", type=_int_arg(0), required=True)
    common(p)

    p = sub.add_parser("module", help="Hasse-Schmidt module presentation")
    p.add_argument("--n", type=_int_arg(0), required=True)
    common(p)

    p = sub.add_parser("omega", help="Kaehler differentials (base or jet level)")
    p.add_argument("--n", type=_int_arg(0), default=None)
    common(p)

    p = sub.add_parser("sym", help="symmetric algebra of the declared module")
    common(p)

    p = sub.add_parser("morphism", help="induced morphism on jet presentations")
    p.add_argument("--n", type=_int_arg(0), required=True)
    common(p)

    p = sub.add_parser("check", help="run the randomized theorem suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--trials", type=_int_arg(1), default=100)
    p.add_argument("--seed", type=_int_arg(), default=42)
    common(p, with_input=False)

    p = sub.add_parser("p1", help="jet line bundles on the projective line")
    p.add_argument("--d", type=_int_arg(), required=True)
    p.add_argument("--n", type=_int_arg(0), required=True)
    p.add_argument("--cocycle", action="store_true")
    p.add_argument("--sections", action="store_true")
    common(p, with_input=False)

    return parser


_parser = None  # built by the first main() call; it depends on no input


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _parser.commands.get(argv[0]) if argv else None
    if sub is not None:  # one pass, with the command's own subparser
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if sub is None or rest:  # the full parser, for its usage and error texts
        args = _parser.parse_args(argv)
    # looked up by name per call (jet2 runs cmd_jet): the kept parser holds no command
    command = globals()["cmd_" + ("jet" if args.command == "jet2" else args.command)]
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
