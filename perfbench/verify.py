"""Independent verification of jetforge outputs.

Nothing here imports jetforge.  Printed polynomials are parsed by a tiny
tokenizer and evaluated at seeded random points; the expected values come
from expanding the *input* relations (the structured ``Doc`` the
generator kept) as truncated power series with scalar coefficients.
Over Q the scalars are ``Fraction``; over F_p they are ints mod p.

Each ``check_*`` function returns None when the output is right and a
one-line reason when it is not.
"""

import re
from fractions import Fraction
from itertools import product

from workloads import TARGET_VARS, VARS

SAMPLED_LINES = 3

_TERM = re.compile(r"\s*([+-])?\s*(\d+(?:/\d+)?)?\s*\*?\s*([A-Za-z][A-Za-z0-9_^*]*)?")


class Scalars:
    """Arithmetic in Q (p = 0) or F_p, on Fraction or int values."""

    def __init__(self, p):
        self.p = p

    def of(self, c):
        c = Fraction(c)
        if not self.p:
            return c
        return c.numerator * pow(c.denominator, -1, self.p) % self.p

    def norm(self, c):
        return c % self.p if self.p else c

    def random(self, rng):
        if self.p:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 5))

    def inv(self, c):
        return pow(c, -1, self.p) if self.p else 1 / c


# -- printed polynomials ----------------------------------------------------


def parse_poly(text):
    """Printed polynomial -> list of (coefficient, [(var name, exponent)])."""
    text = text.strip()
    if text == "0":
        return []
    terms = []
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError("cannot parse polynomial near %r" % text[pos:pos + 20])
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        factors = []
        for piece in (m.group(3) or "").split("*"):
            if piece:
                name, _, exp = piece.partition("^")
                factors.append((name, int(exp) if exp else 1))
        terms.append((sign * coeff, factors))
        pos = m.end()
    return terms


def eval_printed(terms, point, F):
    total = 0
    for c, factors in terms:
        val = F.of(c)
        for name, e in factors:
            val = val * point[name] ** e
        total = F.norm(total + val)
    return total


# -- truncated series with scalar coefficients -------------------------------


def series_mul(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
    return out


def series_pow(a, e, n):
    out = [1] + [0] * n
    for _ in range(e):
        out = series_mul(out, a, n)
    return out


def series_inv(a, n, F):
    b0 = F.inv(a[0])
    out = [b0]
    for i in range(1, n + 1):
        out.append(F.norm(-b0 * sum(a[j] * out[i - j] for j in range(1, i + 1))))
    return out


def expand(poly, series, n, F):
    """Coefficients t^0..t^n of poly with each variable replaced by a series."""
    total = [0] * (n + 1)
    for exps, c in poly.items():
        term = [F.of(c)] + [0] * n
        for s, e in zip(series, exps):
            term = series_mul(term, series_pow(s, e, n), n)
        total = [F.norm(x + y) for x, y in zip(total, term)]
    return total


def expand2(poly, grids, n, m, F):
    """Bivariate version: grids are (n+1) x (m+1), flattened row-major."""
    size = (n + 1) * (m + 1)

    def mul(a, b):
        out = [0] * size
        for (i1, j1), x in zip(product(range(n + 1), range(m + 1)), a):
            if x:
                for i2 in range(n + 1 - i1):
                    for j2 in range(m + 1 - j1):
                        out[(i1 + i2) * (m + 1) + j1 + j2] += x * b[i2 * (m + 1) + j2]
        return out

    total = [0] * size
    for exps, c in poly.items():
        term = [F.of(c)] + [0] * (size - 1)
        for g, e in zip(grids, exps):
            for _ in range(e):
                term = mul(term, g)
        total = [F.norm(x + y) for x, y in zip(total, term)]
    return total


def partial(poly, v):
    out = {}
    for exps, c in poly.items():
        if exps[v]:
            lower = list(exps)
            lower[v] -= 1
            out[tuple(lower)] = out.get(tuple(lower), 0) + c * exps[v]
    return out


# -- per-subcommand checks ----------------------------------------------------


def _jet_point(names, n, F, rng):
    point = {"%s_%d" % (x, i): F.random(rng) for x in names for i in range(n + 1)}
    series = [[point["%s_%d" % (x, i)] for i in range(n + 1)] for x in names]
    return point, series


def _sample(rng, items):
    return rng.sample(items, min(SAMPLED_LINES, len(items)))


def _split(line, sep):
    head, found, body = line.partition(sep)
    if not found:
        raise ValueError("missing %r in %r" % (sep, line[:40]))
    return head, body


def _level_arg(argv, flag):
    return int(argv[argv.index(flag) + 1])


def check_jet(op, out, rng):
    n = _level_arg(op.argv, "--n")
    doc, F = op.doc, Scalars(op.doc.p)
    lines = out.splitlines()
    want_vars = " ".join("%s_%d" % (x, i) for x in VARS for i in range(n + 1))
    if lines[:2] != ["level %d" % n, "vars " + want_vars]:
        return "jet header differs"
    rels = lines[2:]
    names = ["%s.%d" % (k, i) for k in "fg"[:len(doc.relations)] for i in range(n + 1)]
    if [_split(r, " = ")[0] for r in rels] != ["relation " + x for x in names]:
        return "jet relation index differs"
    point, series = _jet_point(VARS, n, F, rng)
    expected = [expand(f, series, n, F) for f in doc.relations]
    for r in _sample(rng, range(len(rels))):
        if eval_printed(parse_poly(_split(rels[r], " = ")[1]), point, F) \
                != expected[r // (n + 1)][r % (n + 1)]:
            return "jet relation %s wrong at a random point" % names[r]
    return None


def check_jet2(op, out, rng):
    n, m = _level_arg(op.argv, "--n"), _level_arg(op.argv, "--m")
    doc, F = op.doc, Scalars(op.doc.p)
    lines = out.splitlines()
    cells = list(product(range(n + 1), range(m + 1)))
    want_vars = " ".join("%s_%d_%d" % (x, i, j) for x in VARS for i, j in cells)
    if lines[:2] != ["levels %d %d" % (n, m), "vars " + want_vars]:
        return "jet2 header differs"
    rels = lines[2:]
    if len(rels) != len(doc.relations) * len(cells):
        return "jet2 relation count differs"
    point = {"%s_%d_%d" % (x, i, j): F.random(rng) for x in VARS for i, j in cells}
    grids = [[point["%s_%d_%d" % (x, i, j)] for i, j in cells] for x in VARS]
    expected = [expand2(f, grids, n, m, F) for f in doc.relations]
    for r in _sample(rng, range(len(rels))):
        k, c = divmod(r, len(cells))
        label, body = _split(rels[r], " = ")
        if label != "relation %s.%d.%d" % ("fg"[k], *cells[c]):
            return "jet2 relation index differs"
        if eval_printed(parse_poly(body), point, F) != expected[k][c]:
            return "jet2 %s wrong at a random point" % label
    return None


def check_module(op, out, rng):
    n = _level_arg(op.argv, "--n")
    doc, F = op.doc, Scalars(op.doc.p)
    rank = len(doc.module_rows[0])
    lines = out.splitlines()
    if lines[:2] != ["level %d" % n,
                     "basis " + " ".join("e%d_%d" % (l, i) for l in range(rank)
                                         for i in range(n + 1))]:
        return "module header differs"
    rows = lines[2:]
    if len(rows) != len(doc.module_rows) * (n + 1):
        return "module row count differs"
    point, series = _jet_point(VARS, n, F, rng)
    for r in _sample(rng, range(len(rows))):
        k, i = divmod(r, n + 1)
        label, body = _split(rows[r], " : ")
        entries = body.split(" ; ")
        if label != "row %d.%d" % (k, i) or len(entries) != rank * (n + 1):
            return "module row %d.%d layout differs" % (k, i)
        for col, text in enumerate(entries):
            l, j = divmod(col, n + 1)
            want = expand(doc.module_rows[k][l], series, n, F)[i - j] if j <= i else 0
            if eval_printed(parse_poly(text), point, F) != want:
                return "module entry (%d.%d, e%d_%d) wrong at a random point" % (k, i, l, j)
    return None


def check_omega(op, out, rng):
    n = _level_arg(op.argv, "--n")
    doc, F = op.doc, Scalars(op.doc.p)
    lines = out.splitlines()
    if lines[0] != "basis " + " ".join("d%s_%d" % (x, i) for x in VARS for i in range(n + 1)):
        return "omega basis differs"
    rows = lines[1:]
    if len(rows) != len(doc.relations) * (n + 1):
        return "omega row count differs"
    point, series = _jet_point(VARS, n, F, rng)
    for r in _sample(rng, range(len(rows))):
        k, i = divmod(r, n + 1)
        label, body = _split(rows[r], " : ")
        entries = body.split(" ; ")
        if label != "row %d" % r or len(entries) != len(VARS) * (n + 1):
            return "omega row %d layout differs" % r
        for col, text in enumerate(entries):
            v, j = divmod(col, n + 1)
            want = expand(partial(doc.relations[k], v), series, n, F)[i - j] if j <= i else 0
            if eval_printed(parse_poly(text), point, F) != want:
                return "omega entry (row %d, d%s_%d) wrong at a random point" % (r, VARS[v], j)
    return None


def check_morphism(op, out, rng):
    n = _level_arg(op.argv, "--n")
    doc, F = op.doc, Scalars(op.doc.p)
    lines = out.splitlines()
    if len(lines) != len(VARS) * (n + 1):
        return "morphism line count differs"
    point, series = _jet_point(TARGET_VARS, n, F, rng)
    for r in _sample(rng, range(len(lines))):
        v, i = divmod(r, n + 1)
        label, body = _split(lines[r], " -> ")
        if label != "%s_%d" % (VARS[v], i):
            return "morphism line %d names %s" % (r, label)
        if eval_printed(parse_poly(body), point, F) != expand(doc.images[v], series, n, F)[i]:
            return "morphism image of %s wrong at a random point" % label
    return None


_SUITE_LINE = re.compile(r"(\w+)\s+(PASS|FAIL)  \((\d+) trials, (\d+) failures"
                         r"(?:, oracle (\d+)/(\d+) agree)?, [\d.]+s\)$")
ORACLE_SUITES = ("leibniz", "jacobian_identity")


def check_check(op, out, rng):
    lines = out.splitlines()
    if len(lines) != 2 or lines[1] != "overall: PASS":
        return "check did not pass"
    m = _SUITE_LINE.match(lines[0])
    if not m:
        return "check report line malformed"
    name, status, trials, failures, agree, oracle = m.groups()
    if name != op.meta["suite"] or status != "PASS" or failures != "0":
        return "suite %s reported %s with %s failures" % (name, status, failures)
    if trials != op.argv[op.argv.index("--trials") + 1]:
        return "suite %s ran %s trials" % (name, trials)
    if (oracle is not None) != (name in ORACLE_SUITES) or agree != oracle:
        return "suite %s oracle disagreements" % name
    return None


def check_p1(op, out, rng):
    d, n = op.meta["d"], op.meta["n"]
    F = Scalars(0)
    lines = out.splitlines()
    if lines[0] != "d %d, level %d" % (d, n) or len(lines) < n + 3:
        return "p1 header differs"
    if lines[n + 2] != "cocycle ok":
        return "p1 cocycle not ok"
    if d == 1:
        want = " ".join("e%d_%d" % (c, j) for c in (0, 1) for j in range(n + 1))
        if lines[n + 3:] != ["global sections (%d): %s" % (2 * (n + 1), want),
                             "all global: yes"]:
            return "p1 global sections differ"
    elif len(lines) != n + 3:
        return "p1 output has extra lines"
    # Row i, column j is the t^(j-i) coefficient of the jets of t1^d = t0^-d.
    t0 = [F.random(rng) or Fraction(1) for _ in range(n + 1)]
    s = series_pow(series_inv(t0, n, F) if d >= 0 else t0, abs(d), n)
    point = {"t0_%d" % j: t0[j] for j in range(n + 1)}
    for i in _sample(rng, range(n + 1)):
        label, body = _split(lines[1 + i], " : ")
        entries = body.split(" ; ")
        if label != "transition row %d" % i or len(entries) != n + 1:
            return "p1 transition row %d layout differs" % i
        for j, text in enumerate(entries):
            num, den = text, 0
            m = re.fullmatch(r"\((.*)\)/t0_0(?:\^(\d+))?", text)
            if m:
                num, den = m.group(1), int(m.group(2) or 1)
            got = eval_printed(parse_poly(num), point, F) / t0[0] ** den
            if got != (s[j - i] if j >= i else 0):
                return "p1 transition entry (%d, %d) wrong at a random point" % (i, j)
    return None


CHECKS = {"jet": check_jet, "jet2": check_jet2, "module": check_module, "omega": check_omega,
          "morphism": check_morphism, "check": check_check, "p1": check_p1}


def canonical(op, out):
    """Text whose digest is compared with the recorded one: check reports
    lose their wall-clock timings, everything else is kept byte for byte."""
    if op.kind == "check":
        return re.sub(r", [\d.]+s\)$", ")", out, flags=re.M)
    return out


def verify(op, rc, out, rng):
    if rc != 0:
        return "exit code %r" % (rc,)
    try:
        return CHECKS[op.kind](op, out, rng)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as e:
        return "unparseable output: %s" % e
