import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jetforge import checks, cli
from jetforge.cli import build_parser, main

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


def test_field_env_default(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "nofld.jf"
    doc.write_text("ring [x]\nideal f = x^2 + 9\n")
    monkeypatch.setenv("JETFORGE_FIELD", "F7")
    code, out, _ = run(capsys, "jet", "--n", "0", str(doc))
    assert code == 0
    assert "relation f.0 = x_0^2 + 2" in out


def test_missing_input_file_is_located_error(tmp_path, capsys):
    missing = tmp_path / "missing.jf"
    code, out, err = run(capsys, "jet", "--n", "1", str(missing))
    assert code == 2 and out == ""
    assert err == "error: cannot read %s: No such file or directory\n" % missing


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_document_not_utf8_is_located_error(via, tmp_path):
    """A byte that is not UTF-8 exits 2 with the input, line and column
    named (columns count characters), not with a traceback and exit 1;
    standard input is decoded strictly, as under a C locale it may not be."""
    doc = tmp_path / "bad.jf"
    doc.write_bytes("ring Q[x]\nideal f = x\u00e9".encode() + b"\xff\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "jetforge.cli", "jet", "--n", "1"]
    if via == "file":
        proc = subprocess.run(argv + [str(doc)], capture_output=True, env=env, timeout=60)
        name = str(doc)
    else:
        proc = subprocess.run(argv, input=doc.read_bytes(), capture_output=True, env=env,
                              timeout=60)
        name = "standard input"
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == (
        "error: cannot decode %s: line 2, col 13: byte 0xff is not UTF-8\n" % name)


def test_bad_field_env_is_error(capsys, monkeypatch):
    monkeypatch.setenv("JETFORGE_FIELD", "F4")
    code, out, err = run(capsys, "jet", "--n", "1", str(GOLDEN / "cusp.jf"))
    assert code == 2 and out == ""
    assert err == "error: JETFORGE_FIELD: modulus is not prime: 4\n"


def test_field_env_longer_than_int_conversion_is_error(capsys, monkeypatch):
    """The DSL's bound on a field name holds for the environment variable
    too: a name longer than 4300 characters is refused before int() sees
    its digits, and one of 4300 characters still reaches the modulus check."""
    monkeypatch.setenv("JETFORGE_FIELD", "F" + "7" * 5000)
    code, out, err = run(capsys, "jet", "--n", "0", str(GOLDEN / "cusp.jf"))
    assert (code, out) == (2, "")
    assert err == "error: JETFORGE_FIELD: field name longer than 4300 characters\n"
    monkeypatch.setenv("JETFORGE_FIELD", "F" + "7" * 4299)
    code, out, err = run(capsys, "jet", "--n", "0", str(GOLDEN / "cusp.jf"))
    assert (code, out) == (2, "")
    assert err == "error: JETFORGE_FIELD: modulus out of range: %s\n" % ("7" * 4299)


@pytest.mark.parametrize("name", ["F\u0667", "F\uff17", "F7\u0663", "F\u00b2", "F", "F-7"])
def test_field_env_takes_ascii_digits_only(name, capsys, monkeypatch):
    """F followed by an Arabic-Indic or a fullwidth seven, or by a
    superscript two, names no field."""
    monkeypatch.setenv("JETFORGE_FIELD", name)
    code, out, err = run(capsys, "jet", "--n", "1", str(GOLDEN / "cusp.jf"))
    assert code == 2 and out == ""
    assert err == "error: JETFORGE_FIELD: unknown field name: %r\n" % name


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
    """Integer flags take an optional sign and ASCII digits, as the DSL and
    JETFORGE_FIELD do; int() alone would read these as numbers."""
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


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
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
    # JETFORGE_FIELD is read on every call
    doc = tmp_path / "nofld.jf"
    doc.write_text("ring [x]\nideal f = x^2 + 9\n")
    monkeypatch.setenv("JETFORGE_FIELD", "F7")
    assert run(capsys, "jet", "--n", "0", str(doc))[1].endswith("relation f.0 = x_0^2 + 2\n")
    monkeypatch.setenv("JETFORGE_FIELD", "F5")
    assert run(capsys, "jet", "--n", "0", str(doc))[1].endswith("relation f.0 = x_0^2 + 4\n")
    monkeypatch.delenv("JETFORGE_FIELD")
    assert run(capsys, "jet", "--n", "0", str(doc))[1].endswith("relation f.0 = x_0^2 + 9\n")
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
