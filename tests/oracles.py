"""Independent brute-force oracles used to cross-check the residue engine
and the product kernel.

The residue oracle expands every denominator factor as a geometric series
up to a fixed order, multiplies everything out as plain string-keyed
dictionaries (no sharing with the engine's slate, kernel or peel logic),
and reads off the requested Laurent coefficient.  With a large enough
order the result is exact, and enlarging the order must never change it.

:func:`sparse_product` is the reference for the product kernel: the
pairwise merge of monomials the package multiplied with before it had
one dense kernel.  :func:`hypersurface_class` and
:func:`hypersurface_tail` are the references for the coefficient lists of
the hyperbolicity module: every product multiplied out in a plain scalar
``H``, with no cut at H^n, and coefficients read by
``Polynomial.coefficient``.  :func:`tower_form` is the reference for the
tower residues: the one form the package once built for
sum_j x_j Z^(n^2-j) T_(n-j) (z_1...z_n)^-n, with the powers of
Z = z_1 + ... + z_n (:func:`zsum`), the x_j and the degree multiplied out
in the numerator, where the package now reads one orbit table and
weighs its entries by multinomials.  :func:`leading_form` is
the same reference for the leading constant, Z^(n^2) (z_1...z_n)^-(n+1).
:func:`thom_form` is the reference for the Thom body: the form the
package once built for (k, codim), each body term with its Chern
monomial, where the package now reads one orbit table and maps each
orbit to its Chern monomial.
:func:`orbits` is the reference for the enumerator of S_k-orbits: every
composition built, shifted, and the sorted ones in bounds kept.
:func:`tower_orbits` is the reference for the tower's orbits: the list
the package built before its one enumerator, from the compositions of
2n^2 - n, cut to those the tower body reaches.
:func:`permutation_det` is the reference for the
jet minors: the k!-term Leibniz expansion, with no sub-minor shared.
:func:`fraction_rho` is the reference for the jet embedding matrix: the
composition sum of the jet's own entries in ``Fraction`` arithmetic, with
no integer scaling.
:func:`flag_fixed_sum` and :func:`grass_sum_at` are the references for the
integer fixed-point kernels: each fixed point's value by
``Polynomial.evaluate`` at the rational weights, summed in ``Fraction``
arithmetic.  :func:`subset_numerators` is the reference for the flag sum's
per-subset numerators: Q by ``Polynomial.evaluate`` at every ordering of
each subset, with the ordering's sign, with no alternant and no state
shared between orderings.
:func:`multiplied_out_job` is the reference for ``residue_job``, which
keeps a product numerator factored: the whole numerator text multiplied
out by ``parse_polynomial`` and given to the engine with prefactor 1.
:func:`reference_parse_polynomial` and :func:`reference_parse_factored`
are the references for the text grammar: the token-tuple recursive
descent the package parsed with before its one-term factors folded.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import add

from equiloc.algebra import (MAX_NESTING, MAX_POWER_TERMS,
                             MAX_PRODUCT_WORK, Monomial,
                             Polynomial, Slate, Var, _add_into, _check_bits,
                             _coefficient_bits, _height_bits, _literal,
                             _num, _power, _var_key, compositions, cvar,
                             mul_dense, parse_polynomial, svar, zvar)
from equiloc.errors import InputError, SizeLimitExceeded
from equiloc.residue import ResidueForm, iterated_residue
from equiloc.thom import QTable, check_tail_size, curvilinear_form

H = svar("h")


def _merged(pairs) -> Monomial:
    """The monomial of (var, exp) pairs, a variable's exponents added up."""
    acc: dict = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return Monomial(tuple((v, e) for v, e in sorted(
        acc.items(), key=lambda p: p[0].sort_key) if e))


def sparse_product(a: Polynomial, b: Polynomial) -> dict:
    """Terms of ``a * b``, one :func:`_merged` merge per pair of terms."""
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = _merged(ma.exps + mb.exps)
            nc = out.get(m, 0) + ca * cb
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
    return out


def hypersurface_class(n: int, g, d_poly: Polynomial) -> Polynomial:
    """g(d H) * (sum_(j<=n) (1 - g(H))^j)^(n+2), multiplied out in full.
    The sum agrees with 1/g(H) up to H^n, so the coefficients of H^0..H^n
    are those of g(d H) / g(H)^(n+2); the higher ones are not."""
    s = sd = Polynomial.zero()  # g(H) - 1 and g(d H) - 1
    for i, c in enumerate(g[1:n + 1], 1):
        s = s + c * Polynomial.var(H, i)
        sd = sd + c * d_poly ** i * Polynomial.var(H, i)
    inverse = sum(((-s) ** j for j in range(n + 1)), Polynomial.zero())
    return (1 + sd) * inverse ** (n + 2)


def hypersurface_tail(n: int, d_poly: Polynomial) -> Polynomial:
    """prod_l (1 + d y_l) / (1 + y_l)^(n+2) at y_l = H/z_l, with each factor
    the H^0..H^n part of :func:`hypersurface_class` (the higher powers
    cannot reach the H^n coefficient of the product) and the product of
    the n factors multiplied out in full."""
    cls = hypersurface_class(n, (1, 1), d_poly)
    acc = Polynomial.one()
    for l in range(1, n + 1):
        y = Polynomial.from_terms([(1, [(H, 1), (zvar(l), -1)])])
        acc = acc * sum((cls.coefficient(H, i) * y ** i
                         for i in range(n + 1)), Polynomial.zero())
    return acc


def zshift(n: int, power: int) -> Polynomial:
    """(z_1...z_n)^-power."""
    return Polynomial.from_terms([(1, [(zvar(l), -power)
                                       for l in range(1, n + 1)])])


def zsum(n: int) -> Polynomial:
    """Z = z_1 + ... + z_n."""
    return sum((Polynomial.var(zvar(l)) for l in range(1, n + 1)),
               Polynomial.zero())


def tower_form(n: int, qn: Polynomial, xs, d_poly: Polynomial):
    """The order-n form of sum_j xs[j] Z^(n^2-j) T_(n-j) (z_1...z_n)^-n:
    the part of (sum_j xs[j] h^j Z^(n^2-j)) times the tail that the residue
    reads, since T_i, its h^i coefficient, has z-degree -i."""
    full = hypersurface_tail(n, d_poly)
    tail = [full.coefficient(H, i) for i in range(n + 1)]
    top, power = Polynomial.zero(), zsum(n) ** (n * n - n)
    for j in range(n, -1, -1):
        top = top + xs[j] * power * tail[n - j]
        power = power * zsum(n)
    return curvilinear_form(n, qn, zshift(n, n) * top)


def leading_form(n: int, qn: Polynomial):
    """The order-n form of Z^(n^2) (z_1...z_n)^-(n+1), multiplied out."""
    return curvilinear_form(n, qn, zsum(n) ** (n * n) * zshift(n, n + 1))


def thom_form(k: int, codim: int, q: QTable) -> ResidueForm:
    """The calibrated residue form for (k, codim) with the Chern classes in
    the body: one term ``prod_l c_(a_l) z_l^(codim - a_l)`` (c_0 = 1) per
    composition (a_1..a_k) of cmax = k(codim+1)."""
    qk = q.get(k)
    check_tail_size(k, codim)
    cmax = k * (codim + 1)
    terms = []
    for parts in compositions(cmax, k):
        pairs = [(zvar(l), codim - a) for l, a in enumerate(parts, 1)]
        terms.append((1, pairs + [(cvar(a), 1) for a in parts if a]))
    return curvilinear_form(k, qk, Polynomial.from_terms(terms))


def orbits(k: int, low: int, high: int) -> list[tuple[int, ...]]:
    """Reference for :func:`equiloc.thom.orbits`: low plus each composition
    of -k - k low into k parts, in the order :func:`compositions` yields
    them, kept when it is nondecreasing with no entry above high."""
    shifted = (tuple(low + a for a in parts)
               for parts in compositions(-k - k * low, k))
    return [v for v in shifted if list(v) == sorted(v) and v[-1] <= high]


def tower_orbits(n: int) -> list[tuple[int, ...]]:
    """The S_n-orbits the tower body reaches, as the package once listed
    them: w - 2n for each nondecreasing composition w of 2n^2 - n into n
    parts with sum_l max(n - w_l, 0) <= n."""
    return [tuple(w - 2 * n for w in parts)
            for parts in compositions(2 * n * n - n, n)
            if list(parts) == sorted(parts)
            and sum(max(n - w, 0) for w in parts) <= n]


def permutation_det(rows):
    """Determinant by permutation expansion; entries need + and * only."""
    k = len(rows)
    acc = 0
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(k):
            term = rows[i][perm[i]] * term
        acc = acc + term
    return acc


def fraction_rho(curve):
    """Reference for :func:`equiloc.jets.rho`: g_j = v_j + Σ_(a<j) v_a·g_(j−a)
    over exponent-tuple dictionaries of ``Fraction`` coefficients, read in
    the degree-major, decreasing-lex basis of Sym^<=k C^n."""
    n, k = curve.n, curve.k
    vs = [{tuple(int(i == c) for i in range(n)): Fraction(x)
           for c, x in enumerate(row) if x} for row in curve.coefficients]
    rows: list[dict] = []
    for j in range(1, k + 1):
        acc = dict(vs[j - 1])
        for a in range(1, j):
            for ea, ca in vs[a - 1].items():
                for eb, cb in rows[j - a - 1].items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    acc[e] = acc.get(e, Fraction(0)) + ca * cb
        rows.append(acc)
    basis = sorted((e for e in itertools.product(range(k + 1), repeat=n)
                    if 1 <= sum(e) <= k),
                   key=lambda e: (sum(e), tuple(-x for x in e)))
    return [[row.get(e, Fraction(0)) for e in basis] for row in rows]


def _to_terms(p: Polynomial) -> dict:
    out = {}
    for m, c in p.terms.items():
        key = tuple(sorted((v.name, e) for v, e in m.exps))
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {k: v for k, v in out.items() if v}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = dict(ka)
            for name, e in kb:
                exps[name] = exps.get(name, 0) + e
            key = tuple(sorted((n, e) for n, e in exps.items() if e))
            nc = out.get(key, Fraction(0)) + ca * cb
            if nc:
                out[key] = nc
            else:
                out.pop(key, None)
    return out


def _expand_factor(form: Polynomial, order: list[str], J: int) -> dict:
    """Geometric expansion of 1/form to order J in the dominance regime."""
    terms = _to_terms(form)
    rank = {name: i for i, name in enumerate(order)}
    znames = [k[0][0] for k in terms
              if len(k) == 1 and k[0][1] == 1 and k[0][0] in rank]
    dom = max(znames, key=lambda n: rank[n])
    a = terms[((dom, 1),)]
    base = {k: c for k, c in terms.items() if k != ((dom, 1),)}
    inv_a = Fraction(1) / a
    out: dict = {}
    power: dict = {(): Fraction(1)}
    coeff = inv_a
    for j in range(J + 1):
        zkey = ((dom, -1 - j),)
        for k, c in _mul(power, {zkey: Fraction(1)}).items():
            out[k] = out.get(k, Fraction(0)) + c * coeff
        power = _mul(power, base)
        coeff = -coeff * inv_a
    return out


def brute_residue(numerator, den_polys, order_names: list[str],
                  J: int) -> Polynomial:
    """(-1)^d times the z_1^-1...z_d^-1 coefficient of the product of the
    truncated expansions with the numerator; exact once J is large enough."""
    prod = _to_terms(numerator) if isinstance(numerator, Polynomial) else {
        tuple(sorted((v.name, e) for v, e in m.exps)): Fraction(c)
        for m, c in numerator.terms.items()}
    for den in den_polys:
        prod = _mul(prod, _expand_factor(den, order_names, J))
    want = {name: -1 for name in order_names}
    acc: dict = {}
    for key, c in prod.items():
        exps = dict(key)
        if all(exps.pop(name, 0) == want[name] for name in order_names):
            rest = tuple(sorted(exps.items()))
            acc[rest] = acc.get(rest, Fraction(0)) + c
    sign = -1 if len(order_names) % 2 else 1
    out = Polynomial.zero()
    for key, c in acc.items():
        if not c:
            continue
        text = "*".join(f"{n}^{e}" if e != 1 else n for n, e in key) or "1"
        out = out + Polynomial.rational(sign * c) * parse_polynomial(text)
    return out


def multiplied_out_job(job: dict) -> dict:
    """``residue_job``'s answer with the numerator multiplied out."""
    form = ResidueForm(parse_polynomial(job["numerator"]),
                       tuple(map(parse_polynomial, job["denominators"])),
                       tuple(zvar(int(name[1:])) for name in job["order"]))
    return {"residue": str(iterated_residue(form))}


def brute_thom(k: int, codim: int, J: int) -> Polynomial:
    """Brute-force singularity polynomial: same formula as the engine's,
    evaluated through the global truncated expansion."""
    from equiloc.algebra import zvar

    P = Polynomial
    order = [f"z{l}" for l in range(1, k + 1)]
    cmax = k * (codim + 1)
    numerator_terms: dict = {(): Fraction(1)}
    qk = {1: P.one(), 2: P.one(), 3: P.one(),
          4: 2 * P.var(zvar(1)) + P.var(zvar(2)) - P.var(zvar(4))}[k]
    numerator_terms = _mul(numerator_terms, _to_terms(qk))
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            numerator_terms = _mul(numerator_terms, _to_terms(
                P.var(zvar(a)) - P.var(zvar(b))))
    for l in range(1, k + 1):
        tail = {}
        for a in range(cmax + 1):
            key = []
            if codim - a:
                key.append((f"z{l}", codim - a))
            if a:
                key.append((f"c{a}", 1))
            tail[tuple(sorted(key))] = Fraction(1)
        numerator_terms = _mul(numerator_terms, tail)
    dens = [P.var(zvar(i)) + P.var(zvar(j)) - P.var(zvar(l))
            for i in range(1, k + 1) for j in range(i, k + 1)
            for l in range(i + j, k + 1)]
    prod = dict(numerator_terms)
    for den in dens:
        prod = _mul(prod, _expand_factor(den, order, J))
    want = {name: -1 for name in order}
    acc: dict = {}
    for key, c in prod.items():
        exps = dict(key)
        if all(exps.pop(name, 0) == want[name] for name in order):
            rest = tuple(sorted(exps.items()))
            acc[rest] = acc.get(rest, Fraction(0)) + c
    # engine sign times the global calibration sign is +1
    out = Polynomial.zero()
    for key, c in acc.items():
        if not c:
            continue
        text = "*".join(f"{n}^{e}" if e != 1 else n for n, e in key) or "1"
        out = out + Polynomial.rational(c) * parse_polynomial(text)
    return out


def flag_fixed_sum(n: int, d: int, Q: Polynomial, weights) -> Fraction:
    """Reference for :func:`equiloc.localization.flag_fixed_sum`: Q
    evaluated at each fixed flag's rational weights, over the product of
    its tangent weights, summed in ``Fraction`` arithmetic."""
    from equiloc.algebra import zvar

    weights = [Fraction(w) for w in weights]
    total = Fraction(0)
    for head in itertools.permutations(range(n), d):
        seq = [weights[i] for i in head] + [w for i, w in enumerate(weights)
                                            if i not in head]
        num = Q.evaluate({zvar(l + 1): seq[l]
                          for l in range(d)}).constant_value()
        den = Fraction(1)
        for m in range(d):
            for i in range(m + 1, n):
                den *= seq[i] - seq[m]
        total += num / den
    return total


def subset_numerators(n: int, d: int, Q: Polynomial, weights) -> dict:
    """Reference for ``equiloc.localization._subset_numerators`` at the
    rational weights: for each d-subset H of range(n), keyed by its
    bitmask, Σ_σ (−1)^inv(σ)·Q(w_σ(1), ..., w_σ(d)) over the orderings σ
    of H, zero values included."""
    from equiloc.algebra import zvar

    weights = [Fraction(w) for w in weights]
    sums = {}
    for subset in itertools.combinations(range(n), d):
        total = Fraction(0)
        for head in itertools.permutations(subset):
            inversions = sum(a > b for a, b in itertools.combinations(head, 2))
            value = Q.evaluate({zvar(l + 1): weights[h]
                                for l, h in enumerate(head)}).constant_value()
            total += -value if inversions % 2 else value
        sums[sum(1 << h for h in subset)] = total
    return sums


def grass_sum_at(n: int, k: int, cls: Polynomial, mu) -> Fraction:
    """Reference for :func:`equiloc.localization.grass_sum_at`: cls
    evaluated at the elementary symmetric functions of each subset's
    rational weights, over its tangent weights, times k!."""
    from equiloc.algebra import cvar

    mu = [Fraction(w) for w in mu]
    orderings = math.factorial(k)
    total = Fraction(0)
    for subset in itertools.combinations(range(n), k):
        chosen = [mu[i] for i in subset]
        assignment = {cvar(i): sum(map(math.prod,
                                       itertools.combinations(chosen, i)),
                                   Fraction(0))
                      for i in range(1, k + 1)}
        num = cls.evaluate(assignment).constant_value()
        den = math.prod(mu[s] - mu[i] for i in subset
                        for s in range(n) if s not in subset)
        total += orderings * num / den
    return total


# -- the reference parser ----------------------------------------------------
#
# The recursive descent the package parsed polynomial text with before its
# tokens carried resolved values and its products folded one-term factors
# into one coefficient and exponent list; copied verbatim.  A name that no
# variable can take (a 4,301-digit index) counts as one variable of its own,
# and no limit bounds the variables of one text.

#: One token per match, after any whitespace: a run of ASCII digits, a
#: run of word characters (a name; :func:`_tokenize` checks that it starts
#: with a letter or ``_``), an operator, or any other character.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(\w+)|([-+*^()/])|(\S))")


def _tokenize(text: str) -> list:
    tokens = []
    for digits, name, op, other in _TOKEN.findall(text):
        if digits:
            tokens.append(("int", _literal(digits)))
        elif op:
            tokens.append((op, op))
        elif name[:1].isalpha() or name[:1] == "_":
            tokens.append(("var", name))
        else:  # a stray character, or a name led by a numeric one like ²
            raise InputError(f"unexpected character {(name or other)[0]!r} "
                             "in polynomial text")
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Evaluates the text on term dicts keyed by dense exponent tuples over
    one :class:`Slate` of the text's variables, built once after
    tokenizing; the :class:`Polynomial` is built once, at the end."""

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise InputError(f"polynomial text must be a string, not "
                             f"{type(text).__name__}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        found, unknown = {}, 0
        for name in {v for kind, v in self.tokens if kind == "var"}:
            try:
                found[name] = Var(*_var_key(name))
            except InputError:  # raised where the parser reaches the name
                unknown += 1
        slate = self.slate = Slate(found.values())
        n = len(slate.vars)
        self.zero = (0,) * n
        self.units = {}
        for name, v in found.items():
            key = [0] * n
            key[slate.index[v]] = 1
            self.units[name] = tuple(key)
        # a name that no variable can take counts as one of its own
        self.width = max(n + unknown, 1)

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise InputError(f"expected {kind!r}, found {tok[1]!r}")
        return tok

    def parse(self) -> Polynomial:
        terms = self.expr()
        self.finish()
        return self.slate.polynomial(terms)

    def parse_factored(self) -> tuple[Polynomial, Polynomial]:
        """``(prefactor, body)``: for a product, the factors before the last
        one, multiplied in text order with any leading sign, and the last
        factor; the last product is checked but not formed.  Otherwise, a
        sum or one factor, ``(1, the text's polynomial)``."""
        sign = self.sign()
        pre, body = self.term(split=True)
        if not (pre and body) or self.peek() in "+-":
            # one factor, a zero product, or a sum: formed as parse forms it
            acc = body if pre is None else mul_dense(pre, body)
            pre, body = {self.zero: 1}, self.sum(sign, acc)
        elif sign == "-":
            pre = {m: -c for m, c in pre.items()}
        self.finish()
        return self.slate.polynomial(pre), self.slate.polynomial(body)

    def finish(self) -> None:
        if self.peek() != "end":
            raise InputError(f"trailing input at {self.tokens[self.pos][1]!r}")

    def check(self, a: dict, b: dict) -> None:
        """The limits on the product of ``a`` and ``b``, before it is
        formed."""
        pairs = len(a) * len(b)
        if pairs * self.width > MAX_PRODUCT_WORK:
            raise SizeLimitExceeded(
                f"a product of {pairs} term pairs in a {self.width}-variable "
                f"text exceeds the limit of {MAX_PRODUCT_WORK} pairs times "
                "variables")
        _check_bits(_height_bits(a) + _height_bits(b))

    def product(self, a: dict, b: dict) -> dict:
        """The checked product.  Two one-term operands fold here: their
        pair is under the work limit unless the text has more variables
        than :data:`MAX_PRODUCT_WORK`, and their height is their
        coefficients'."""
        if len(a) == 1 == len(b) and self.width <= MAX_PRODUCT_WORK:
            (ma, ca), = a.items()
            (mb, cb), = b.items()
            _check_bits(_coefficient_bits(ca) + _coefficient_bits(cb))
            return {tuple(map(add, ma, mb)): ca * cb}
        self.check(a, b)
        return mul_dense(a, b)

    def sign(self) -> str:
        """Consume a leading ``+`` or ``-`` and return the token kind."""
        sign = self.peek()
        if sign in "+-":
            self.next()
        return sign

    def expr(self) -> dict:
        sign = self.sign()
        return self.sum(sign, self.term())

    def sum(self, sign: str, acc: dict) -> dict:
        """The sum of ``acc``, the first term (negated after a ``-``
        sign), and the terms that follow it."""
        if sign == "-":
            acc = {m: -c for m, c in acc.items()}
        while self.peek() in "+-":  # every value formed is a new dict
            op = self.next()[0]
            _add_into(acc, self.term(), 1 if op == "+" else -1)
        return acc

    def term(self, split: bool = False):
        """The product of the factors; with ``split``, the pair of the
        product of all but the last factor (None for one factor) and the
        last factor, their product checked but not formed."""
        acc = self.power()
        while self.peek() == "*":
            self.next()
            b = self.power()
            if split and self.peek() != "*":
                self.check(acc, b)
                return acc, b
            acc = self.product(acc, b)
        return (None, acc) if split else acc

    def power(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            exp = self.expect("int")[1]
            if len(base) == 1:  # one term, C(exp, 0) = 1: scale its key
                (m, c), = base.items()
                _check_bits(exp * _coefficient_bits(c))
                return {tuple([e * exp for e in m]): c ** exp}
            t = max(len(base), 1)
            bound = math.comb(exp + t - 1, t - 1)
            if bound > MAX_POWER_TERMS:
                raise SizeLimitExceeded(
                    f"a {t}-term polynomial to the power {exp} may have "
                    f"{bound} terms, over the limit of {MAX_POWER_TERMS}")
            _check_bits(exp * _height_bits(base))
            return _power(base, exp, self.product, {self.zero: 1})
        return base

    def atom(self) -> dict:
        kind, value = self.next()
        if kind == "int":
            if self.peek() == "/":
                self.next()
                den = self.expect("int")[1]
                if den == 0:
                    raise InputError("zero denominator in rational literal")
                value = _num(Fraction(value, den))
            return {self.zero: value} if value else {}
        if kind == "var":
            if value not in self.units:
                _var_key(value)  # raises what it raised in __init__
            return {self.units[value]: 1}
        if kind not in ("-", "("):
            raise InputError(f"unexpected token {value!r} in polynomial text")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise InputError(
                f"polynomial text nests deeper than {MAX_NESTING} levels")
        if kind == "-":
            p = {m: -c for m, c in self.atom().items()}
        else:
            p = self.expr()
            self.expect(")")
        self.depth -= 1
        return p


def reference_parse_polynomial(text):
    """``parse_polynomial`` by the reference parser."""
    return _Parser(text).parse()


def reference_parse_factored(text):
    """``parse_factored`` by the reference parser."""
    return _Parser(text).parse_factored()
