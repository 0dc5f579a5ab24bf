"""Reparametrization action on jets of curves and the invariant minors.

A k-jet of a curve in C^n is stored through the normalized coefficients
v_i = f^(i)/i!.  Entries may be exact rationals or symbolic scalars
(:class:`~equiloc.algebra.Polynomial`); all operations only add and
multiply, so both work.

The embedding matrix and its minors run on integers.  With L the least
common multiple of a rational jet's denominators, the jet u_i = L^i·v_i
has integer entries; row j of the embedding matrix is homogeneous of
weight j in the v_i, so it scales by L^j, and every k x k minor by
L^(k(k+1)/2).  :func:`rho` and :func:`invariant_minors` build everything
from u and divide each nonzero entry once at the end.  A jet with a
Polynomial entry takes the same path with L = 1.

Basis order of Sym^<=k C^n is normative for the embedding matrix and its
minors: degree-major, and inside each degree the monomials in decreasing
lexicographic order (e1^p first, en^p last).  Composition acts on the
right through the upper-triangular coefficient matrix of the
reparametrization; empirically (and then asserted in the tests) the matrix
map is multiplicative: matrix(f o g) = matrix(f) * matrix(g) on row
vectors of curve coefficients.

The maximal minors of the embedding matrix, the Plücker coordinates of its
row span, are computed together by wedging on one row at a time (Laplace
expansion, no division) and dropping zero sub-minors.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .algebra import Polynomial, _add_into, compositions, mul_dense
from .errors import SingularLinearPart, SizeLimitExceeded, TooFewColumns

#: Most sub-minors :func:`kxk_minors` may hold in one level (its widest
#: level has C(M, min(k, M // 2)) of them), checked before any is computed.
MAX_MINORS = 100_000

#: Most work :func:`rho` may do, (k^2 + n) per column: n basis exponents,
#: k entries, and term products that reach k^3 / 6 in all at n = 1.
MAX_RHO_WORK = 1_000_000


def _value(x):
    """Normalize a scalar entry: an int stays an int, a Fraction a Fraction
    and a Polynomial passes; anything else becomes a Fraction.  So an
    integer jet keeps :func:`rho` and :func:`invariant_minors` on ints."""
    if isinstance(x, (int, Fraction, Polynomial)):
        return x
    return Fraction(x)


def _is_zero(x) -> bool:
    return x.is_zero if isinstance(x, Polynomial) else x == 0


class ReparamJet(namedtuple("ReparamJet", "alphas")):
    """Jet of a reparametrization of (C, 0): t -> a1 t + a2 t^2 + ...,
    with invertible linear part a1 != 0."""

    __slots__ = ()

    def __new__(cls, alphas):
        alphas = tuple(_value(a) for a in alphas)
        if not alphas or _is_zero(alphas[0]):
            raise SingularLinearPart(
                "reparametrization must have a nonzero linear part")
        return super().__new__(cls, alphas)

    @property
    def k(self) -> int:
        return len(self.alphas)


class JetCurve(namedtuple("JetCurve", "coefficients n")):
    """k-jet of a curve germ in C^n: coefficient vectors v_1..v_k with
    v_i = f^(i)/i!, as k tuples of length n."""

    __slots__ = ()

    def __new__(cls, coefficients, n=None):
        rows = tuple(tuple(_value(x) for x in row) for row in coefficients)
        if n is None:
            n = len(rows[0]) if rows else 0
        if any(len(row) != n for row in rows):
            raise ValueError("coefficient rows must all have length n")
        return super().__new__(cls, rows, n)

    @property
    def k(self) -> int:
        return len(self.coefficients)

    @classmethod
    def from_derivatives(cls, derivatives) -> "JetCurve":
        """Build from raw derivative vectors f', f'', ...: v_i = f^(i)/i!."""
        rows = []
        fact = 1
        for i, row in enumerate(derivatives, start=1):
            fact *= i
            rows.append(tuple(_value(x) * Fraction(1, fact) for x in row))
        return cls(tuple(rows))


def gk_matrix(phi: ReparamJet):
    """k x k coefficient matrix of composition with phi: entry (i, j) is
    the sum over compositions of j into i positive parts of the products
    of the alphas.  Upper triangular with diagonal a1^i."""
    k = phi.k
    al = phi.alphas
    rows = [list(al)]
    for _ in range(1, k):
        prev = rows[-1]
        row = []
        for j in range(1, k + 1):
            acc = 0
            for a in range(1, j + 1):
                if j - a >= 1:
                    acc = acc + al[a - 1] * prev[j - a - 1]
            row.append(acc)
        rows.append(row)
    return [[_value(x) for x in row] for row in rows]


def compose(curve: JetCurve, phi: ReparamJet) -> JetCurve:
    """The jet of curve o phi: coefficient rows times the matrix of phi."""
    if curve.k != phi.k:
        raise ValueError("jet orders must match")
    g = gk_matrix(phi)
    k, n = curve.k, curve.n
    rows = []
    for j in range(k):
        row = []
        for c in range(n):
            acc = 0
            for i in range(k):
                acc = acc + curve.coefficients[i][c] * g[i][j]
            row.append(acc)
        rows.append(tuple(row))
    return JetCurve(tuple(rows), n)


def sym_basis(n: int, k: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomial basis of Sym^<=k C^n: degree-major,
    decreasing lex within each degree."""
    return [e for degree in range(1, k + 1)
            for e in sorted(compositions(degree, n), reverse=True)]


def sym_dimension(n: int, k: int) -> int:
    return math.comb(n + k, k) - 1


def _linear_form(vector):
    """A length-n vector as {exponent tuple: value} of a degree-1 form."""
    n = len(vector)
    out = {}
    for c, x in enumerate(vector):
        if not _is_zero(x):
            e = tuple(1 if i == c else 0 for i in range(n))
            out[e] = x
    return out


def _integer_jet(curve: JetCurve) -> tuple[JetCurve, int]:
    """The jet u_i = L^i·v_i and L, the least common multiple of the
    denominators of the entries; u has int entries.  A jet with a
    Polynomial entry is its own u, with L = 1."""
    entries = [x for row in curve.coefficients for x in row]
    if any(isinstance(x, Polynomial) for x in entries):
        return curve, 1
    scale = math.lcm(*(x.denominator for x in entries))
    rows = [[x.numerator * (scale ** i // x.denominator) for x in row]
            for i, row in enumerate(curve.coefficients, start=1)]
    return JetCurve(rows, curve.n), scale


def _unscale(values, den) -> list:
    """Each nonzero value divided by ``den`` once; ``den = 1`` divides
    nothing, so ints stay ints and Polynomials pass."""
    if den == 1:
        return list(values)
    return [Fraction(x, den) if x else 0 for x in values]


def _integer_rho(curve: JetCurve) -> tuple[list, int]:
    """The rows of :func:`rho` built from the integer jet u_i = L^i·v_i,
    not yet divided, and L."""
    k, n = curve.k, curve.n
    work = (k * k + n) * sym_dimension(n, k)
    if work > MAX_RHO_WORK:
        raise SizeLimitExceeded(
            f"rho of a {k}-jet in C^{n}: (k^2 + n) * columns = {work}, over "
            f"the limit of {MAX_RHO_WORK}")
    scaled, scale = _integer_jet(curve)
    vs = [_linear_form(row) for row in scaled.coefficients]
    # rows[j - 1] = g_j, the sum over all compositions of j; split off the
    # first part a: g_j = v_j + sum_(a<j) v_a g_(j-a)
    rows: list[dict] = []
    for j in range(1, k + 1):
        acc = dict(vs[j - 1])
        for a in range(1, j):
            _add_into(acc, mul_dense(vs[a - 1], rows[j - a - 1]))
        rows.append(acc)
    basis = sym_basis(n, k)
    return [[row.get(e, 0) for e in basis] for row in rows], scale


def rho(curve: JetCurve):
    """The k x dim(Sym^<=k C^n) embedding matrix: row j collects, over all
    ordered compositions j = a_1 + ... + a_i, the polynomial products
    v_(a_1) ... v_(a_i), written in the documented monomial basis.  The
    products run on the integer jet u_i = L^i·v_i, and each nonzero entry
    of row j is divided by L^j once at the end."""
    rows, scale = _integer_rho(curve)
    return [_unscale(row, scale ** j) for j, row in enumerate(rows, start=1)]


def _check_minor_count(k: int, cols: int) -> None:
    """Bound the widest level :func:`kxk_minors` can hold for a k x cols
    matrix, C(cols, min(k, cols // 2)) sub-minors, by MAX_MINORS."""
    widest = math.comb(cols, min(k, cols // 2))
    if widest > MAX_MINORS:
        raise SizeLimitExceeded(
            f"{widest} minors of a {k} x {cols} matrix exceed the limit "
            f"of {MAX_MINORS}")


def _wedge_row(level: dict, row) -> dict:
    """The next level of :func:`kxk_minors`: Laplace expansion along the
    new row gives minor(S + {j}) the term (-1)^#{s in S : s > j} *
    minor(S) * row[j]; zero minors are dropped."""
    entries = [(j, x) for j, x in enumerate(row) if not _is_zero(x)]
    wider: dict = {}
    for subset, minor in level.items():
        for j, x in entries:
            p = bisect.bisect_left(subset, j)
            if p < len(subset) and subset[p] == j:
                continue
            term = minor * x if (len(subset) - p) % 2 == 0 else -(minor * x)
            key = subset[:p] + (j,) + subset[p:]
            wider[key] = wider[key] + term if key in wider else term
    return {s: m for s, m in wider.items() if not _is_zero(m)}


def kxk_minors(matrix) -> list:
    """All maximal minors of a k x M matrix (M >= k), over column subsets
    in lexicographic order.  Each level of the row wedge maps i-subsets
    of columns to the nonzero minors of the first i rows on them."""
    k = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    if cols < k:
        raise TooFewColumns(f"need at least {k} columns, matrix has {cols}")
    _check_minor_count(k, cols)
    level = {(): 1}
    for row in matrix:
        level = _wedge_row(level, row)
    return [level.get(s, 0) for s in itertools.combinations(range(cols), k)]


def invariant_minors(curve: JetCurve) -> list:
    """The k x k minors of the embedding matrix, lexicographic in the
    column subsets; invariant under unipotent reparametrization.  The
    size limit is checked from n and k before the matrix is built.  The
    minors are those of the integer jet u_i = L^i·v_i, each nonzero one
    divided by L^(k(k+1)/2) once at the end."""
    k = curve.k
    _check_minor_count(k, sym_dimension(curve.n, k))
    rows, scale = _integer_rho(curve)
    return _unscale(kxk_minors(rows), scale ** (k * (k + 1) // 2))
