"""Host-speed reference that the benchmark's timings are calibrated against.

The shared 2-vCPU hosts this benchmark was written on change speed in
spells: the same jetforge op takes up to 2.6x longer in a slow spell than in
a fast one, and a spell lasts from seconds to minutes, so raw timings of
runs minutes apart disagree by far more than any regression bound.  A fixed
piece of pure-Python work that does what jetforge's inner loops do (sparse
polynomial products on dicts of exponent tuples with ``Fraction``
coefficients) slows down in step with jetforge: over a minute of jets-Q
passes with a chunk after every op, pass times varied 1.7x while pass time
over chunk time stayed within +-4%.  A pure integer loop did not track it
(see perfbench/README.md, Calibration).

So the benchmark times one reference chunk right after every op and
reports each op's time multiplied by ``REF_CHUNK_S / t_ref``, where
``t_ref`` is the mean chunk time around that op.  The results are
*calibrated seconds*: seconds on a host where one chunk takes exactly
``REF_CHUNK_S``, which is about its time in a fast spell on the host
above.  The reference shares no code with jetforge and never changes with
it, so a change that makes jetforge faster lowers the calibrated times by
the same share as the raw ones.
"""

import time
from fractions import Fraction

REF_CHUNK_S = 0.001

_A = [((1, 0, 3), Fraction(3)), ((0, 2, 1), Fraction(-5, 11)), ((2, 2, 0), Fraction(7, 13)),
      ((3, 1, 1), Fraction(1)), ((0, 0, 2), Fraction(-2)), ((1, 3, 0), Fraction(9, 11)),
      ((2, 0, 1), Fraction(4)), ((0, 1, 0), Fraction(-8, 13)), ((3, 0, 0), Fraction(6)),
      ((1, 1, 1), Fraction(-1, 11)), ((0, 3, 3), Fraction(5)), ((2, 1, 2), Fraction(-7))]
_B = [((0, 1, 2), Fraction(2, 7)), ((1, 0, 0), Fraction(-3)), ((2, 3, 1), Fraction(1)),
      ((0, 0, 1), Fraction(-9, 7)), ((3, 2, 0), Fraction(5)), ((1, 2, 3), Fraction(4, 7)),
      ((0, 2, 0), Fraction(-6)), ((2, 0, 2), Fraction(8)), ((1, 1, 0), Fraction(-1, 7)),
      ((3, 3, 1), Fraction(3)), ((0, 0, 0), Fraction(-2)), ((1, 0, 3), Fraction(6, 7))]


def _product(a, b):
    out = {}
    for (a0, a1, a2), ca in a:
        for (b0, b1, b2), cb in b:
            e = (a0 + b0, a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + ca * cb
    return out


def chunk():
    """One reference chunk: two fixed 12 x 12-term products over Q."""
    _product(_A, _B)
    return _product(_B, _A)


def timed_chunk():
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


def scales(chunk_times, half_window=10):
    """Calibration factor REF_CHUNK_S / t_ref for each position of a run's
    chunk sequence, t_ref being the mean over the chunks within
    `half_window` places of it."""
    n = len(chunk_times)
    prefix = [0.0]
    for t in chunk_times:
        prefix.append(prefix[-1] + t)
    out = []
    for i in range(n):
        lo, hi = max(0, i - half_window), min(n, i + half_window + 1)
        out.append(REF_CHUNK_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out
