import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jetforge import checks, cli
from jetforge.cli import build_parser, main
from jetforge.dsl import parse_document
from jetforge.hsmodules import hs_module_presentation, kaehler_presentation
from jetforge.jets import jet_presentation
from jetforge.poly import Poly

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_jet_golden(capsys):
    code, out, _ = run(capsys, "jet", "--n", "2", str(GOLDEN / "cusp.jf"))
    assert code == 0
    assert out == (GOLDEN / "cusp_jet2.txt").read_text()


def test_omega_golden(capsys):
    """Level-12 differentials of a cubic surface: the Jacobian of 26
    relations in 39 jet variables, as printed before Jacobian rows were
    built in one pass."""
    code, out, _ = run(capsys, "omega", "--n", "12", str(GOLDEN / "surface.jf"))
    assert code == 0
    assert out == (GOLDEN / "surface_omega12.txt").read_text()


def test_jet_json_byte_stable(capsys):
    code, out1, _ = run(capsys, "jet", "--n", "1", "--format", "json", str(GOLDEN / "cusp.jf"))
    code2, out2, _ = run(capsys, "jet", "--n", "1", "--format", "json", str(GOLDEN / "cusp.jf"))
    assert code == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["relations"] == ["-x_0^3 + y_0^2", "-3*x_0^2*x_1 + 2*y_0*y_1"]


@pytest.mark.parametrize("golden, argv", [
    ("jet_hs_f7_n2", ["jet", "--n", "2", "hs_f7.jf"]),  # graded: induced degrees
    ("jet_cusp_n2", ["jet", "--n", "2", "cusp.jf"]),  # ungraded: no induced degrees
    ("jet2_full_n1_m2", ["jet2", "--n", "1", "--m", "2", "full.jf"]),
    ("module_full_n1", ["module", "--n", "1", "full.jf"]),
    ("omega_full", ["omega", "full.jf"]),
    ("omega_full_n1", ["omega", "--n", "1", "full.jf"]),
    ("sym_full", ["sym", "full.jf"]),
    ("morphism_full_n1", ["morphism", "--n", "1", "full.jf"]),
], ids=lambda x: x if isinstance(x, str) else None)
def test_json_golden(golden, argv, capsys):
    """The --format json output of every document subcommand, byte for byte."""
    code, out, _ = run(capsys, *argv[:-1], "--format", "json", str(GOLDEN / argv[-1]))
    assert code == 0
    assert out == (GOLDEN / "json" / (golden + ".json")).read_text()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jf"
    bad.write_text("ring Q[x]\nideal f = x + z\n")
    code, _, err = run(capsys, "jet", "--n", "1", str(bad))
    assert code == 2
    assert "z" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["jet"])  # missing required --n
    assert ei.value.code == 2


def test_module_command(capsys):
    code, out, _ = run(capsys, "module", "--n", "1", str(GOLDEN / "full.jf"))
    assert code == 0
    assert "row 0.0 : x_0 ; 0 ; y_0 ; 0" in out
    assert "row 0.1 : x_1 ; x_0 ; y_1 ; y_0" in out


def test_module_renders_each_entry_once(monkeypatch, capsys):
    """upper_triangle repeats each jet component down a diagonal of its
    block; module renders each entry object once and prints each row as the
    entries rendered one by one."""
    n, path = 3, GOLDEN / "full.jf"
    hm = hs_module_presentation(parse_document(path.read_text()).module, n)
    want = ["row %d.%d : %s" % (*divmod(r, n + 1), " ; ".join(p.render() for p in row))
            for r, row in enumerate(hm.relation_matrix)]
    render, rendered = Poly.render, []

    def counted(self, *args):
        rendered.append(id(self))
        return render(self, *args)

    monkeypatch.setattr(Poly, "render", counted)
    code, out, _ = run(capsys, "module", "--n", str(n), str(path))
    assert code == 0
    assert out.splitlines()[2:] == want
    assert len(rendered) == len(set(rendered)) < sum(map(len, hm.relation_matrix))


def test_omega_renders_each_entry_once(monkeypatch, capsys):
    """omega --n prints a Hasse-Schmidt module too, and renders each entry
    object of its rows once."""
    render, rendered = Poly.render, []

    def counted(self, *args):
        rendered.append(id(self))
        return render(self, *args)

    monkeypatch.setattr(Poly, "render", counted)
    code, out, _ = run(capsys, "omega", "--n", "3", str(GOLDEN / "surface.jf"))
    assert code == 0
    entries = sum(len(line.split(" ; ")) for line in out.splitlines()[1:])
    assert entries == 8 * 12  # 2 relations by 3 variables, each a 4 x 4 block
    assert len(rendered) == len(set(rendered)) < entries


def test_module_without_declaration(tmp_path, capsys):
    doc = tmp_path / "plain.jf"
    doc.write_text("ring Q[x]\n")
    code, _, err = run(capsys, "module", "--n", "1", str(doc))
    assert code == 2


def test_omega_base_and_jet(capsys):
    code, out, _ = run(capsys, "omega", str(GOLDEN / "cusp.jf"))
    assert code == 0
    assert "basis dx dy" in out
    assert "-3*x_0^2 ; 2*y_0" in out
    code, out, _ = run(capsys, "omega", "--n", "1", str(GOLDEN / "cusp.jf"))
    assert "-6*x_0*x_1 ; -3*x_0^2 ; 2*y_1 ; 2*y_0" in out


def _seeded_document(rng, field):
    """A ring over ``field`` on one to three of x, y, z with one or two
    relations, each up to four terms of exponents up to 3 (a term may be a
    constant); over Q a coefficient may be a fraction."""
    names = ["x", "y", "z"][:rng.randint(1, 3)]
    lines = ["ring %s[%s]" % (field, ",".join(names))]
    for k in range(rng.randint(1, 2)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            c = "%d" % rng.choice([-9, -3, -1, 1, 2, 5, 6])
            if field == "Q" and rng.random() < 0.3:
                c += "/%d" % rng.randint(2, 7)
            factors = ["%s^%d" % (v, e) for v in names for e in [rng.randint(0, 3)] if e]
            terms.append("*".join(["(%s)" % c] + factors))
        lines.append("ideal f%d = %s" % (k, " + ".join(terms)))
    return "\n".join(lines) + "\n"


OMEGA_DOCUMENTS = [
    "ring Q[x,y]\n",  # no relations
    "ring F2[x,y,z]\n",
    "ring Q[x,y,z]\nideal f = x^2 - 3*y\n",  # misses z
    "ring F7[x,y]\nideal f = y^3 + 2\n",  # misses x
    "ring Q[x]\nideal f = 5\n",  # a constant
    "ring F3[x,y]\nideal f = 4\nideal g = x*y\n",
    "ring F2[x,y]\nideal f = x^2 + y\n",  # x^p over F_p
    "ring F3[x,y]\nideal f = x^3 - y^2\nideal g = x^3*y^3\n",
    "ring F7[x,y]\nideal f = x^7 + x^8 + 3*x*y\n",
] + [_seeded_document(random.Random("omega:%s:%d" % (field, k)), field)
     for field in ("Q", "F2", "F3", "F7") for k in range(4)]


def _jacobian_output(A, n, fmt):
    """What omega --n prints, built as the Jacobian of the jet algebra."""
    kp = kaehler_presentation(jet_presentation(A, n))
    basis = ["d" + v.render() for v in kp.over.generators]
    rows = [[p.render() for p in row] for row in kp.relation_matrix]
    if fmt == "json":
        return json.dumps({"level": n, "basis": basis, "rows": rows}, indent=2) + "\n"
    return "".join(["basis %s\n" % " ".join(basis)]
                   + ["row %d : %s\n" % (k, " ; ".join(row)) for k, row in enumerate(rows)])


@pytest.mark.parametrize("text", OMEGA_DOCUMENTS,
                         ids=["doc%d" % k for k in range(len(OMEGA_DOCUMENTS))])
def test_omega_is_the_jacobian_of_the_jet_algebra(text, tmp_path, capsys):
    """omega --n prints HS^n(Omega_A); by de Fernex and Docampo that is the
    module of differentials of the jet algebra, its Jacobian, entry for
    entry and byte for byte, in small characteristic too."""
    doc = tmp_path / "doc.jf"
    doc.write_text(text)
    A = parse_document(text).algebra
    for n in range(5):
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "omega", "--n", str(n), "--format", fmt, str(doc))
            assert code == 0
            assert out == _jacobian_output(A, n, fmt), (n, fmt)


def test_omega_surface_is_the_jacobian_at_level_20(capsys):
    A = parse_document((GOLDEN / "surface.jf").read_text()).algebra
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "omega", "--n", "20", "--format", fmt,
                           str(GOLDEN / "surface.jf"))
        assert code == 0
        assert out == _jacobian_output(A, 20, fmt)


def test_sym_command(capsys):
    code, out, _ = run(capsys, "sym", str(GOLDEN / "full.jf"))
    assert code == 0
    assert "grade e1 = 1" in out
    assert "ideal f1 = x*e1 + y*e2" in out


def test_morphism_command(capsys):
    code, out, _ = run(capsys, "morphism", "--n", "1", str(GOLDEN / "full.jf"))
    assert code == 0
    assert "x_1 -> 2*u_0*u_1" in out
    assert "y_1 -> 3*u_0^2*u_1" in out


def test_jet2_command(capsys):
    code, out, _ = run(capsys, "jet2", "--n", "1", "--m", "1", str(GOLDEN / "cusp.jf"))
    assert code == 0
    assert "relation f.1.1 =" in out


def test_p1_command(capsys):
    code, out, _ = run(capsys, "p1", "--d", "1", "--n", "2", "--cocycle", "--sections")
    assert code == 0
    assert "cocycle ok" in out
    assert "global sections (6): e0_0 e0_1 e0_2 e1_0 e1_1 e1_2" in out


def test_p1_json(capsys):
    code, out, _ = run(capsys, "p1", "--d", "1", "--n", "1", "--cocycle",
                       "--sections", "--format", "json")
    data = json.loads(out)
    assert data["cocycle_ok"] is True
    assert data["transition"][0] == ["(1)/t0_0", "(-t0_1)/t0_0^2"]


def test_check_command_small(capsys):
    code, out, _ = run(capsys, "check", "--suite", "zigzag,p1_cocycle",
                       "--trials", "3", "--seed", "1")
    assert code == 0
    assert "overall: PASS" in out


@pytest.mark.parametrize("seed", [42, 7])
def test_check_golden(seed, capsys, monkeypatch):
    """The full check report, text and JSON, with the timings masked: pins
    every suite's verdict and the oracle's agreement counts."""
    reports = {}

    def run_once(seed, trials, suites):  # one run serves both formats
        if seed not in reports:
            reports[seed] = run_suite(seed, trials, suites)
        return reports[seed]

    run_suite = checks.run_suite
    monkeypatch.setattr(checks, "run_suite", run_once)  # cmd_check reads it per call
    code, text, _ = run(capsys, "check", "--seed", str(seed))
    code_json, js, _ = run(capsys, "check", "--seed", str(seed), "--format", "json")
    assert code == code_json == 0
    assert re.sub(r"\d+\.\d\ds\)$", "X.XXs)", text, flags=re.M) == (
        GOLDEN / ("check_seed%d.txt" % seed)).read_text()
    assert re.sub(r'"seconds": [0-9.e-]+', '"seconds": null', js) == (
        GOLDEN / ("check_seed%d.json" % seed)).read_text()


def test_check_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "--suite", "nosuch", "--trials", "1")
    assert code == 2


def test_missing_input_file_is_located_error(tmp_path, capsys):
    missing = tmp_path / "missing.jf"
    code, out, err = run(capsys, "jet", "--n", "1", str(missing))
    assert code == 2 and out == ""
    assert err == "error: cannot read %s: No such file or directory\n" % missing


def _cli_env(env=()):
    """This process's environment with this checkout's source on the path,
    env's variables set, and those that env maps to None removed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    full = {**os.environ, "PYTHONPATH": path, **dict(env)}
    return {k: v for k, v in full.items() if v is not None}


def _cli(*argv, env=(), **kwargs):
    """Run jetforge in a fresh interpreter, in the environment _cli_env(env)."""
    return subprocess.run([sys.executable, "-m", "jetforge.cli", *argv], capture_output=True,
                          env=_cli_env(env), timeout=60, **kwargs)


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_document_not_utf8_is_located_error(via, tmp_path):
    """A byte that is not UTF-8 exits 2 with the input, line and column
    named (columns count characters), not with a traceback and exit 1;
    standard input is decoded as a file is, whatever the locale."""
    doc = tmp_path / "bad.jf"
    doc.write_bytes("ring Q[x]\nideal f = x\u00e9".encode() + b"\xff\n")
    if via == "file":
        proc = _cli("jet", "--n", "1", str(doc))
        name = str(doc)
    else:
        proc = _cli("jet", "--n", "1", input=doc.read_bytes())
        name = "standard input"
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == (
        "error: cannot decode %s: line 2, col 13: byte 0xff is not UTF-8\n" % name)


@pytest.mark.parametrize("setup", [
    {"PYTHONIOENCODING": None},
    {"PYTHONIOENCODING": None, "LC_ALL": "C"},
    {"PYTHONIOENCODING": "latin-1"},
], ids=["default", "LC_ALL=C", "latin-1"])
@pytest.mark.parametrize("line, col", [("ideal f = x # caf\xff", 18), ("ideal f = x\xff", 12)],
                         ids=["in-comment", "in-expression"])
def test_stdin_is_utf8_in_every_locale(setup, line, col):
    """Standard input is read as bytes and decoded as UTF-8, so the locale
    neither lets a bad byte through (in a comment, where the parser never
    looks) nor turns it into a character the parser reports instead."""
    proc = _cli("jet", "--n", "0", env=setup,
                input=b"ring Q[x]\n" + line.encode("latin-1") + b"\n")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == (
        "error: cannot decode standard input: line 2, col %d: byte 0xff is not UTF-8\n" % col)


def test_closed_stdin_is_error():
    """With standard input closed, Python sets sys.stdin to None: the read
    is an input error (exit 2), not an AttributeError traceback (exit 1)."""
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m jetforge.cli jet --n 1 <&-',
                           sys.executable], capture_output=True, env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == "error: cannot read standard input: it is closed\n"


def test_duplicate_ring_variable_exit_code(tmp_path, capsys):
    doc = tmp_path / "dup.jf"
    doc.write_text("ring Q[x,x]\nideal f = x\n")
    code, out, err = run(capsys, "jet", "--n", "1", str(doc))
    assert code == 2 and out == ""
    assert err.startswith("parse error: line 1, col 10: duplicate ring variable")


@pytest.mark.parametrize("argv, flag", [
    (["jet", "--n", "-1"], "--n"),
    (["jet2", "--n", "-1", "--m", "1"], "--n"),
    (["jet2", "--n", "1", "--m", "-1"], "--m"),
    (["module", "--n", "-1"], "--n"),
    (["omega", "--n", "-1"], "--n"),
    (["morphism", "--n", "-1"], "--n"),
    (["p1", "--d", "1", "--n", "-1"], "--n"),
    (["check", "--trials", "0"], "--trials"),
])
def test_out_of_range_level_is_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert "argument %s: must be at least" % flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["jet", "--n", "\u0662"], "--n"),  # an Arabic-Indic two
    (["jet", "--n", "1_0"], "--n"),
    (["jet", "--n", " 2"], "--n"),
    (["jet", "--n", "+"], "--n"),
    (["jet2", "--n", "1", "--m", "\uff12"], "--m"),  # a fullwidth two
    (["module", "--n", "\u00b2"], "--n"),  # a superscript two
    (["check", "--trials", "1_0"], "--trials"),
    (["check", "--seed", "\u0667"], "--seed"),
    (["check", "--seed", "4_2"], "--seed"),
    (["p1", "--d", "-\u0661", "--n", "1"], "--d"),
    (["p1", "--d", "1", "--n", "1.0"], "--n"),
])
def test_int_flag_takes_ascii_digits_only(argv, flag, capsys):
    """Integer flags take an optional sign and ASCII digits, as the DSL
    does; int() alone would read these as numbers."""
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    value = argv[argv.index(flag) + 1]
    assert "argument %s: invalid int value: %r" % (flag, value) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["p1", "--d", "-2", "--n", "+1"],
                                  ["check", "--suite", "zigzag", "--trials", "+1", "--seed", "-3"]])
def test_int_flag_takes_a_sign(argv, capsys):
    assert main(argv) == 0


@pytest.mark.parametrize("text, located", [
    ("ring Q[x]\nideal f = 1/0*x\n", "line 2, col 13: denominator 0 is zero in Q"),
    ("ring F7[x]\nideal f = 1/7\n", "line 2, col 13: denominator 7 is zero in F7"),
    ("ring F7[x]\nideal f = x + 1/0\n", "line 2, col 17: denominator 0 is zero in F7"),
    ("ring Q[x]\ngrade x = 1\n  grade y = 2\n", "line 3, col 9: grade for undeclared variable 'y'"),
    ("ring Q[x,y]\nideal f = x +  \n", "line 2, col 14: unexpected end of expression"),
    ("ring Q[x]\nideal f =\n", "line 2, col 10: unexpected end of expression"),
    ("ring Q[x]\nideal f = (x + 12\n", "line 2, col 18: unexpected end of expression"),
    ("ring Q[x]\nmorphism [u] : x -> (u\n", "line 2, col 23: unexpected end of expression"),
    ("ring Q[x]\nmorphism [u] : x -> u, x -> u^2\n", "line 2, col 24: duplicate image for 'x'"),
    # the 101st "(" is at column 111, however deep the nesting goes
    *[pytest.param("ring Q[x]\nideal f = %sx%s\n" % ("(" * depth, ")" * depth),
                   "line 2, col 111: parentheses nested deeper than 100",
                   id="paren-depth-%d" % depth) for depth in (101, 300)],
    # an exponent above dsl.MAX_EXPONENT is located at the exponent token,
    # also when it is too long for int()
    ("ring Q[x]\nideal f = x^1001\n", "line 2, col 13: exponent larger than 1000"),
    ("ring Q[x]\nideal f = x^99999999999999999999\n",
     "line 2, col 13: exponent larger than 1000"),
    pytest.param("ring Q[x]\nideal f = 2*x^%s + 1\n" % ("9" * 5000),
                 "line 2, col 15: exponent larger than 1000", id="exponent-5000-digits"),
    # a literal longer than dsl.MAX_LITERAL_DIGITS is located at its token
    pytest.param("ring Q[x]\nideal f = %s*x\n" % ("9" * 5000),
                 "line 2, col 11: literal longer than 4300 digits", id="coefficient-5000-digits"),
    pytest.param("ring Q[x]\nideal f = x + 1/%s\n" % ("9" * 5000),
                 "line 2, col 17: literal longer than 4300 digits", id="denominator-5000-digits"),
    # so are the numbers of the grade and module declarations, and a field
    # name too long for int() is located at the name
    pytest.param("ring Q[x]\ngrade x = %s\n" % ("9" * 5000),
                 "line 2, col 11: literal longer than 4300 digits", id="grade-5000-digits"),
    pytest.param("ring Q[x]\nmodule rank %s\n" % ("9" * 5000),
                 "line 2, col 13: literal longer than 4300 digits", id="module-rank-5000-digits"),
    pytest.param("ring F%s[x]\nideal f = x\n" % ("9" * 5001),
                 "line 1, col 6: field name longer than 4300 characters", id="field-5001-digits"),
])
def test_dsl_errors_are_located(text, located, tmp_path, capsys):
    doc = tmp_path / "bad.jf"
    doc.write_text(text)
    code, out, err = run(capsys, "jet", "--n", "1", str(doc))
    assert code == 2 and out == ""
    assert err == "parse error: %s\n" % located


@pytest.mark.parametrize("argv, missing", [
    (["module", "--n", "1"], "module"),
    (["sym"], "module"),
    (["morphism", "--n", "1"], "morphism"),
])
def test_missing_declaration_is_error(argv, missing, capsys):
    code, out, err = run(capsys, *argv, str(GOLDEN / "cusp.jf"))
    assert (code, out, err) == (2, "", "error: document declares no %s\n" % missing)


def test_coefficient_longer_than_int_string_limit_prints(tmp_path, capsys):
    """99999^1000 has 5000 digits, more than int() converts to a string by
    default; the coefficient is printed in full."""
    doc = tmp_path / "big.jf"
    doc.write_text("ring Q[x]\nideal f = 99999^1000*x\n")
    code, out, err = run(capsys, "jet", "--n", "0", str(doc))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        coefficient = str(99999 ** 1000)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert len(coefficient) == 5000
    assert (code, err) == (0, "")
    assert out == "level 0\nvars x_0\nrelation f.0 = %s*x_0\n" % coefficient


def test_paren_depth_100_parses(tmp_path, capsys):
    doc = tmp_path / "deep.jf"
    doc.write_text("ring Q[x]\nideal f = %sx%s\n" % ("(" * 100, ")" * 100))
    assert run(capsys, "jet", "--n", "0", str(doc)) == (
        0, "level 0\nvars x_0\nrelation f.0 = x_0\n", "")


def test_exponent_1000_parses(tmp_path, capsys):
    doc = tmp_path / "power.jf"
    doc.write_text("ring Q[x]\nideal f = x^01000\n")
    assert run(capsys, "jet", "--n", "1", str(doc)) == (
        0, "level 1\nvars x_0 x_1\nrelation f.0 = x_0^1000\n"
           "relation f.1 = 1000*x_0^999*x_1\n", "")


def _fresh_output(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        build_parser().parse_args(argv)
    out = capsys.readouterr()
    return ei.value.code, out.out, out.err


def test_main_reuses_one_parser(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    # a usage error leaves the next call's output untouched
    with pytest.raises(SystemExit) as ei:
        main(["jet"])
    assert ei.value.code == 2
    first_usage = capsys.readouterr().err
    assert run(capsys, "jet", "--n", "2", str(GOLDEN / "cusp.jf")) == (
        0, (GOLDEN / "cusp_jet2.txt").read_text(), "")
    # help and usage texts are those of a freshly built parser, whether a
    # command's own subparser or the full parser reports them
    for argv in (["--help"], ["jet", "--help"], ["jet"], ["check", "--trials", "0"], [],
                 ["nosuch"], ["jet", "--n", "1", "a", "b"], ["check", "--bogus"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        out = capsys.readouterr()
        assert (ei.value.code, out.out, out.err) == _fresh_output(argv, capsys)
    assert _fresh_output(["jet"], capsys)[2] == first_usage
    assert built == [1]


def test_closed_output_pipe_exits_quietly(tmp_path):
    """A reader that stops early, as ``| head -c 50`` does, ends the command
    with status 141 and nothing on stderr; 1 stays reserved for check
    failures."""
    doc = tmp_path / "long.jf"
    doc.write_text("ring Q[x,y]\nideal f = x*y\n")  # jet --n 400 prints about 1 MB
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "jetforge.cli", "jet", "--n", "400", str(doc)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""
    assert head == b"level 400\nvars x_0 x_1 x_2 x_3 x_4 x_5 x_6 x_7 x_8"


def test_output_does_not_depend_on_hashes():
    """Jet variables hash by address and strings by PYTHONHASHSEED: two
    processes with different hash seeds print the same bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    commands = [["check", "--suite", "leibniz,jacobian_identity", "--trials", "3", "--seed", "7",
                 "--format", "json"],
                ["jet2", "--n", "1", "--m", "1", str(GOLDEN / "full.jf")]]
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = [subprocess.run([sys.executable, "-m", "jetforge.cli", *argv], env=env,
                               capture_output=True, text=True, check=True).stdout
                for argv in commands]
        runs[0] = re.sub(r'"seconds": [0-9.e-]+', '"seconds": null', runs[0])
        outputs.append(runs)
    assert json.loads(outputs[0][0])["passed"] and outputs[0][1].startswith("levels 1 1\n")
    assert outputs[0] == outputs[1]
