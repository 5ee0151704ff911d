"""
The input DSL and the randomized check harness
==============================================

Documents describe a ring, ideal generators, optionally a module and a
morphism, in a small line-oriented language (see docs/grammar.ebnf).
Everything here is also reachable from the command line, e.g.

    jetforge jet --n 2 cusp.jf
    jetforge check --trials 100 --seed 42

The check harness replays every structural theorem on seeded random
instances; two of the suites additionally compare the jet-component
engine against numeric evaluation at random rational points.
"""
from jetforge import document_text, parse_document, report_text, run_suite

doc = parse_document("""
ring Q[x,y]
ideal f = y^2 - x^3
module rank 2
relation x*e1 + y*e2
morphism [u] : x -> u^2, y -> u^3
""")
print("canonical form round-trips:")
print(document_text(doc))

print(report_text(run_suite(seed=42, trials=25)))
