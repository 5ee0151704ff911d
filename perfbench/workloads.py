"""Seeded workload generators for the jetforge benchmark.

Every workload is a list of ops; one op is one ``jetforge`` subcommand
invocation (an argv list plus the document fed on stdin).  The generators
use only the standard library and share no code with jetforge: the
structured form of each generated document travels with its ops so that
``verify.py`` can check outputs independently.

Costs are kept nearly independent of the seed on purpose.  The seed picks
coefficients, which variable carries which exponent, signs and check seeds;
the shapes that set the amount of work (degree patterns, levels, sweep
grid) are fixed per document slot.  That keeps run-to-run spread of the
end-to-end timings small enough for the bounds in BENCHMARK.json.
"""

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

WORKLOADS = ("jets-Q", "jets-Fp", "check", "p1-bundles")

VARS = ("x", "y", "z")
TARGET_VARS = ("u", "v")
FP_PRIMES = (2, 3, 7, 2147483647)

SUITES = (
    "leibniz", "structural_grading", "induced_grading", "jacobian_identity",
    "bigrade_commute", "cotruncation", "functoriality", "twisted_ring_hom",
    "sym_theorem", "cotangent_theorem", "base_change", "zigzag", "p1_cocycle",
)

# Exponent patterns of the two ideal relations, one template per document
# slot (slot k uses template k mod 4).  A pattern such as (2, 1, 1) is a
# monomial whose variables the seed chooses; () is the constant term.
RELATION_TEMPLATES = (
    (((2, 1, 1), (3,), (1, 1), ()), ((2, 2), (1, 1), (1,))),
    (((4,), (2, 1), (1,)), ((3, 1), (1, 1, 1), ())),
    (((2, 2), (2, 1), (1, 1), ()), ((2, 1, 1), (2,), (1,))),
    (((3, 1), (1, 1, 1), (2,)), ((4,), (1, 1), ())),
)
MODULE_ROWS = ((((1, 1), ()), ((2,),)), (((1,),), ((1,), (1,))))
MORPHISM_IMAGES = (((2,), (1,)), ((1, 1),), ((2,), ()))

# Subcommands run on every jets document, with their levels.
JET_COMMANDS = (
    ("jet", ("--n", "4")),
    ("jet2", ("--n", "2", "--m", "1")),
    ("module", ("--n", "3")),
    ("omega", ("--n", "2")),
    ("morphism", ("--n", "3")),
)
JETS_DOCUMENTS = 20

CHECK_SEEDS = 32
CHECK_TRIALS = 6

P1_LEVELS = tuple(range(1, 10))
P1_MAGNITUDES = (1, 2, 3)


@dataclass
class Doc:
    """A generated DSL document in structured form.

    Polynomials are dicts mapping exponent tuples (over ``VARS``, or over
    ``TARGET_VARS`` for morphism images) to ``Fraction`` coefficients.
    """

    p: int  # field characteristic, 0 for Q
    relations: list
    module_rows: list
    images: list

    @property
    def field_name(self):
        return "Q" if self.p == 0 else "F%d" % self.p

    def text(self):
        lines = ["ring %s[%s]" % (self.field_name, ",".join(VARS))]
        for name, f in zip("fg", self.relations):
            lines.append("ideal %s = %s" % (name, poly_text(f, VARS)))
        lines.append("module rank %d" % len(self.module_rows[0]))
        for row in self.module_rows:
            lines.append("relation " + " + ".join(
                "(%s)*e%d" % (poly_text(p, VARS), l + 1) for l, p in enumerate(row)))
        lines.append("morphism [%s] : %s" % (",".join(TARGET_VARS), ", ".join(
            "%s -> %s" % (x, poly_text(p, TARGET_VARS)) for x, p in zip(VARS, self.images))))
        return "\n".join(lines) + "\n"


@dataclass
class Op:
    kind: str
    argv: list
    stdin: str = ""
    doc: Doc | None = None
    meta: dict = dc_field(default_factory=dict)


def poly_text(poly, names):
    parts = []
    for exps, c in sorted(poly.items(), reverse=True):
        mono = "*".join(n if e == 1 else "%s^%d" % (n, e)
                        for n, e in zip(names, exps) if e)
        mag = abs(c)
        coeff = str(mag.numerator) if mag.denominator == 1 else "%d/%d" % (
            mag.numerator, mag.denominator)
        body = mono if mono and mag == 1 else (coeff + "*" + mono if mono else coeff)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _coefficient(rng, p):
    """A nonzero a/q; over F_p the numerator and denominator are units."""
    while True:
        a = rng.choice((-1, 1)) * rng.randint(1, 9)
        if p == 0 or a % p:
            break
    q = rng.choice((1, 1, 1, 11, 13))
    return Fraction(a, q)


def _random_poly(rng, patterns, nvars, p):
    """One term per pattern, on distinct monomials chosen by the seed."""
    while True:
        poly = {}
        for pattern in patterns:
            slots = rng.sample(range(nvars), len(pattern))
            exps = [0] * nvars
            for slot, e in zip(slots, pattern):
                exps[slot] = e
            poly[tuple(exps)] = _coefficient(rng, p)
        if len(poly) == len(patterns):
            return poly


def make_doc(rng, slot, p):
    relations = [_random_poly(rng, pats, len(VARS), p)
                 for pats in RELATION_TEMPLATES[slot % len(RELATION_TEMPLATES)]]
    rows = [[_random_poly(rng, pats, len(VARS), p) for pats in row] for row in MODULE_ROWS]
    images = [_random_poly(rng, pats, len(TARGET_VARS), p) for pats in MORPHISM_IMAGES]
    return Doc(p, relations, rows, images)


def jets_ops(seed, fields, documents=JETS_DOCUMENTS, commands=JET_COMMANDS):
    rng = random.Random("jets:%d" % seed)
    ops = []
    for slot in range(documents):
        doc = make_doc(rng, slot, fields[slot % len(fields)])
        text = doc.text()
        for cmd, args in commands:
            ops.append(Op(cmd, [cmd, *args], text, doc))
    return ops


def check_ops(seed, seeds=CHECK_SEEDS, trials=CHECK_TRIALS, suites=SUITES):
    rng = random.Random("check:%d" % seed)
    check_seeds = [rng.randrange(10**6) for _ in range(seeds)]
    return [Op("check", ["check", "--suite", suite, "--trials", str(trials), "--seed", str(s)],
               meta={"suite": suite})
            for s in check_seeds for suite in suites]


def p1_ops(seed, levels=P1_LEVELS, magnitudes=P1_MAGNITUDES):
    """The whole grid of d = 0, +-magnitudes and n = levels, in seeded
    order.  A p1 op's only inputs are d and n, so the grid is the same for
    every seed: seeded signs made the few slowest ops, which set op_p90_ms,
    differ from seed to seed."""
    rng = random.Random("p1:%d" % seed)
    pairs = [(d, n) for n in levels for d in (0,) + magnitudes + tuple(-m for m in magnitudes)]
    rng.shuffle(pairs)
    ops = []
    for d, n in pairs:
        argv = ["p1", "--d", str(d), "--n", str(n), "--cocycle"]
        if d == 1:
            argv.append("--sections")
        ops.append(Op("p1", argv, meta={"d": d, "n": n}))
    return ops


def make_ops(workload, seed):
    if workload == "jets-Q":
        return jets_ops(seed, (0,))
    if workload == "jets-Fp":
        return jets_ops(seed, FP_PRIMES)
    if workload == "check":
        return check_ops(seed)
    if workload == "p1-bundles":
        return p1_ops(seed)
    raise ValueError("unknown workload: %r" % workload)


def documents(ops):
    """The distinct input documents of a workload, in first-use order."""
    return list(dict.fromkeys(op.stdin for op in ops if op.stdin))
