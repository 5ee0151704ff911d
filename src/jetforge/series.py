"""Truncated power series C[[t]]_n = C[[t]]/(t^(n+1)).

Coefficients may be any exact ring elements supporting +, -, * and a
``unit_inverse`` hook on the leading coefficient (Poly and LocalPoly
both qualify).  A level-0 series is a plain ring element.

Every coefficient is built with the coefficient ring's own +, - and *, so
a LocalPoly coefficient is in lowest terms whenever its operands are (see
``localized``).  A product is ``poly.convolve`` of the coefficient lists
(for a doubly truncated series, of its rows, each a series in t), which
starts each coefficient from its first term product, not from a zero.
"""

from .errors import NonUnitLeadingCoefficient
from .poly import binary_power, convolve


class TruncSeries:
    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != level + 1:
            raise ValueError("expected %d coefficients, got %d" % (level + 1, len(coeffs)))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def _zero_coeff(self):
        return self.coeffs[0] * 0

    def _check(self, other):
        if not isinstance(other, TruncSeries) or other.level != self.level:
            raise ValueError("series level mismatch")

    def __add__(self, other):
        self._check(other)
        return TruncSeries(self.level, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return TruncSeries(self.level, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncSeries(self.level, [-a for a in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        return TruncSeries(self.level, convolve(self.coeffs, other.coeffs))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power; invert first")
        return binary_power(self, e, self.one_like)

    def one_like(self):
        z = self._zero_coeff()
        one = None
        try:
            one = self.coeffs[0].unit_one()
        except AttributeError:
            pass
        if one is None:
            raise TypeError("coefficient ring does not expose a unit")
        return TruncSeries(self.level, [one] + [z] * self.level)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and other.level == self.level
                and list(other.coeffs) == list(self.coeffs))

    def __repr__(self):
        return "TruncSeries(%d, %r)" % (self.level, list(self.coeffs))


def series_invert(s):
    """Multiplicative inverse in the truncated ring, exact.

    Requires the leading coefficient to be invertible: an invertible
    scalar, or a unit monomial in the distinguished variable of a
    localized ring.
    """
    n = s.level
    try:
        b0 = s.coeffs[0].unit_inverse()
    except AttributeError:
        raise NonUnitLeadingCoefficient("coefficient has no unit_inverse: %r" % (s.coeffs[0],))
    out = [b0]
    for i in range(1, n + 1):
        acc = None
        for j in range(1, i + 1):
            piece = s.coeffs[j] * out[i - j]
            acc = piece if acc is None else acc + piece
        out.append(-(b0 * acc))
    return TruncSeries(n, out)


class BiSeries:
    """Doubly truncated series C[[s,t]]/(s^(n+1), t^(m+1)); grid row i, at s^i, is a series in t."""

    __slots__ = ("n", "m", "grid")

    def __init__(self, n, m, grid):
        grid = [list(row) for row in grid]
        if len(grid) != n + 1 or any(len(row) != m + 1 for row in grid):
            raise ValueError("grid shape must be (n+1) x (m+1)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "grid", grid)

    def __setattr__(self, name, value):
        raise AttributeError("BiSeries is immutable")

    def __add__(self, other):
        return BiSeries(self.n, self.m, [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.grid, other.grid)])

    def __mul__(self, other):
        rows = convolve(*[[TruncSeries(s.m, row) for row in s.grid] for s in (self, other)])
        return BiSeries(self.n, self.m, [row.coeffs for row in rows])

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a BiSeries")
        return binary_power(self, e, self.one_like)

    def one_like(self):
        z = self.grid[0][0] * 0
        one = self.grid[0][0].unit_one()
        return BiSeries(self.n, self.m, [[one if (i, j) == (0, 0) else z
                                          for j in range(self.m + 1)] for i in range(self.n + 1)])
