"""Exact multivariate polynomials over partitioned variable alphabets.

Variables come in four disjoint alphabets:

* residue variables ``z1, z2, ...`` (the only ones that may carry negative
  exponents, and only inside :class:`LaurentSeries`, the polynomial
  subclass that allows them),
* weight variables ``l1, l2, ...`` (torus weights),
* Chern symbols ``c1, c2, ...`` (graded: ``ci`` counts with degree ``i``),
* named scalars (``h``, ``d``, ``delta``, ``m``, jet coordinates, ...).

Terms are stored sparsely, keyed by :class:`Monomial`.  Every product of
two polynomials goes through :func:`_mul_terms`: a one-term operand is
merged into each term of the other, and any other pair goes to one
kernel, :func:`mul_dense`, on terms keyed by dense exponent tuples over a
:class:`Slate` of variables (the residue engine and the jet composition
call the kernel directly).  The text grammar, :func:`parse_polynomial`,
evaluates on dense exponent tuples over one slate per text: a one-term
``*`` adds tuples, a one-term ``^`` scales one, any other product goes to
:func:`mul_dense`, and the monomials are built once, at the end.

Coefficients are exact rationals (stored as ``int`` when the denominator
is 1).  The canonical term order used for serialization is graded
lexicographic over the fixed variable order, largest first, which makes
all printed output byte-stable.
"""

from __future__ import annotations

import decimal
import itertools
import math
import re
from fractions import Fraction
from operator import add, attrgetter, mul

from .errors import InputError, SizeLimitExceeded

RESIDUE, WEIGHT, CHERN, SCALAR = 0, 1, 2, 3


class Var:
    """Interned variable; identity equality and hash, fixed total order."""

    __slots__ = ("kind", "index", "name", "sort_key")
    _registry: dict[tuple, "Var"] = {}
    nilpotency = None  # nothing is nilpotent; perfbench/tracing.py reads it

    def __new__(cls, kind, index, name):
        key = (kind, index, name)
        v = cls._registry.get(key)
        if v is None:
            v = object.__new__(cls)
            v.kind = kind
            v.index = index
            v.name = name
            v.sort_key = (kind, index if index is not None else 0, name)
            cls._registry[key] = v
        return v

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return f"Var({self.name})"


_SORT_KEY = attrgetter("sort_key")


def zvar(i: int) -> Var:
    return Var(RESIDUE, i, f"z{i}")


def wvar(i: int) -> Var:
    return Var(WEIGHT, i, f"l{i}")


def cvar(i: int) -> Var:
    return Var(CHERN, i, f"c{i}")


def svar(name: str) -> Var:
    return Var(SCALAR, None, name)


def _num(c):
    """Normalize a coefficient to int (when integral) or Fraction."""
    if type(c) is int:
        return c
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


class Monomial:
    """Product of variable powers; exponents nonzero, sorted by variable."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps):
        self.exps = exps  # sorted tuple of (Var, exp)
        self._hash = hash(exps)

    @classmethod
    def make(cls, pairs) -> "Monomial":
        """Build from (var, exp) pairs; a variable's exponents add up."""
        acc: dict[Var, int] = {}
        for v, e in pairs:
            acc[v] = acc.get(v, 0) + e
        return cls(tuple((v, e) for v, e in sorted(
            acc.items(), key=lambda p: p[0].sort_key) if e))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.exps == other.exps

    def exponent(self, v: Var) -> int:
        for w, e in self.exps:
            if w is v:
                return e
        return 0

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def weighted_degree(self, weight) -> int:
        return sum(e * weight(v) for v, e in self.exps)

    def variables(self):
        return [v for v, _ in self.exps]

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in self.exps)


ONE_MONO = Monomial(())


def _grlex_key(m: Monomial, var_order: list[Var]):
    exp = dict(m.exps)
    return (m.degree, tuple(exp.get(v, 0) for v in var_order))


def _sorted_terms(terms):
    """Terms in canonical graded-lex order, largest monomial first."""
    var_order = sorted({v for m in terms for v in m.variables()},
                       key=lambda v: v.sort_key)
    return sorted(terms.items(), key=lambda t: _grlex_key(t[0], var_order),
                  reverse=True)


def format_rational(x) -> str:
    """``a`` or ``a/b`` in lowest terms, as ``str`` of a ``Fraction`` prints
    it, also for numbers longer than the int-to-str digit limit.  An int or
    a Fraction is read as it is; anything else goes through ``Fraction``."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    n, d = x.numerator, x.denominator
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # past the limit; decimal prints ints exactly
        parts = (n,) if d == 1 else (n, d)
        return "/".join(str(decimal.Decimal(i)) for i in parts)


def _format_terms(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for m, c in _sorted_terms(terms):
        sign = "-" if (c < 0) else "+"
        a = format_rational(-c if c < 0 else c)
        if not m.exps:
            body = a
        elif a == "1":
            body = repr(m)
        else:
            body = f"{a}*{m!r}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _add_into(acc: dict, terms, scale=1):
    if scale != 1:
        terms = {m: c * scale for m, c in terms.items()}
    for m, c in terms.items():
        nc = acc.get(m, 0) + c
        if nc:
            acc[m] = nc
        elif m in acc:
            del acc[m]


# -- the product kernel ------------------------------------------------

class Slate:
    """A fixed variable list: ``first`` in the given order, then the other
    variables sorted; over it a term is keyed by its dense exponent tuple.
    :meth:`sparse` lists exponents in slate order, so its monomials are
    canonical as long as the nonzero ``first`` slots of each key are in
    sorted order."""

    __slots__ = ("vars", "index")

    def __init__(self, variables, first=()):
        rest = set(variables).difference(first)
        self.vars = (*first, *sorted(rest, key=_SORT_KEY))
        self.index = {v: i for i, v in enumerate(self.vars)}

    def dense(self, terms: dict) -> dict:
        out = {}
        n = len(self.vars)
        for m, c in terms.items():
            key = [0] * n
            for v, e in m.exps:
                key[self.index[v]] = e
            out[tuple(key)] = c
        return out

    def sparse(self, dense: dict) -> dict:
        vs = self.vars
        return {Monomial(tuple(itertools.compress(zip(vs, key), key))): c
                for key, c in dense.items()}


def mul_dense(a: dict, b: dict) -> dict:
    """The product of two term dicts keyed by exponent tuples of one length;
    coefficients need only ``+`` and ``*``.  Every product of polynomials
    with more than one term each comes here."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            nc = get(m, 0) + ca * cb
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of Monomial-keyed terms, by :func:`mul_dense` over the slate
    of the variables of both.  A one-term operand is merged into each term
    of the other by :meth:`Monomial.make` instead: exponents add, so
    distinct terms stay distinct."""
    if len(a) != 1:
        a, b = b, a
    if len(a) == 1:
        (m0, c0), = a.items()
        if not m0.exps:
            return {m: _num(c * c0) for m, c in b.items()}
        return {Monomial.make(m0.exps + m.exps): _num(c * c0)
                for m, c in b.items()}
    slate = Slate({v for m in itertools.chain(a, b) for v, _ in m.exps})
    return slate.sparse(mul_dense(slate.dense(a), slate.dense(b)))


class Polynomial:
    """Immutable exact polynomial; no negative exponents, no zero terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        for m in terms:
            if any(e < 0 for _, e in m.exps):
                raise ValueError(f"negative exponent in polynomial term {m!r}")
        self.terms = terms

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({ONE_MONO: 1})

    @classmethod
    def rational(cls, c) -> "Polynomial":
        c = _num(c)
        return cls({ONE_MONO: c} if c else {})

    @classmethod
    def var(cls, v: Var, exp: int = 1) -> "Polynomial":
        return cls({Monomial.make([(v, exp)]): 1})

    @classmethod
    def from_terms(cls, pairs) -> "Polynomial":
        """pairs: iterable of (coefficient, [(var, exp), ...])."""
        acc: dict = {}
        for c, mexps in pairs:
            _add_into(acc, {Monomial.make(mexps): _num(c)})
        return cls(acc)

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        acc = dict(self.terms)
        _add_into(acc, other.terms)
        return type(self)(acc)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        acc = dict(self.terms)
        _add_into(acc, other.terms, -1)
        return type(self)(acc)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = _coerce(other)
        return Polynomial(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, mul, Polynomial.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.rational(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not m.exps for m in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.terms[ONE_MONO])

    def variables(self) -> set[Var]:
        return {v for m in self.terms for v in m.variables()}

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def degree_in(self, v: Var) -> int:
        return max((m.exponent(v) for m in self.terms), default=0)

    def weighted_degrees(self, weight) -> set[int]:
        return {m.weighted_degree(weight) for m in self.terms}

    def coefficient(self, v: Var, k: int) -> "Polynomial":
        """The coefficient of ``v^k``, as a polynomial without ``v``."""
        acc: dict = {}
        for m, c in self.terms.items():
            if m.exponent(v) == k:
                rest = Monomial(tuple(p for p in m.exps if p[0] is not v))
                acc[rest] = acc.get(rest, 0) + c
        return type(self)({m: c for m, c in acc.items() if c})

    def evaluate(self, assignment) -> "Polynomial":
        """Partial evaluation at rational values; other variables stay."""
        values = {v: _num(x) for v, x in assignment.items()}
        out: dict = {}
        for m, c in self.terms.items():
            keep = []
            for v, e in m.exps:
                if v in values:
                    c = c * values[v] ** e
                else:
                    keep.append((v, e))
            rest = Monomial(tuple(keep))
            nc = out.get(rest, 0) + c
            if nc:
                out[rest] = nc
            elif rest in out:
                del out[rest]
        return type(self)(out)

    def __str__(self):
        return _format_terms(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def _power(base, n: int, product, out):
    """``out * base ** n`` by squaring and multiplying, each product formed
    by ``product(a, b)``; ``out`` is the one of ``base``'s ring."""
    while n:
        if n & 1:
            out = product(out, base)
        base = product(base, base) if n > 1 else base
        n >>= 1
    return out


def _coerce(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.rational(x)
    raise TypeError(f"cannot coerce {x!r} to Polynomial")


class LaurentSeries(Polynomial):
    """Laurent polynomial: residue variables may carry negative exponents,
    every other alphabet stays polynomial.  Sums, differences, negation and
    coefficients stay Laurent series; sums, differences and products with a
    plain polynomial on either side come here first (a subclass's reflected
    operator wins)."""

    __slots__ = ()

    def __init__(self, terms: dict):
        for m in terms:
            for v, e in m.exps:
                if e < 0 and v.kind != RESIDUE:
                    raise ValueError(
                        f"negative exponent on non-residue variable {v.name}")
        self.terms = terms

    def __mul__(self, other):
        return LaurentSeries(_mul_terms(self.terms, _coerce(other).terms))

    __rmul__ = __mul__

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return -self + other


def vandermonde(vs) -> Polynomial:
    """prod_{i<j} (v_i - v_j) over the variables in the given order."""
    ps = [Polynomial.var(v) for v in vs]
    out = Polynomial.one()
    for i, a in enumerate(ps):
        for b in ps[i + 1:]:
            out = out * (a - b)
    return out


def compositions(total: int, parts: int):
    """Every tuple of ``parts >= 1`` nonnegative integers summing to
    ``total``, in lexicographic order: stars and bars, with the bars at
    each (parts - 1)-subset of the total + parts - 1 slots in turn.  One
    part is ``(total,)`` itself, with no slots to choose from."""
    if parts == 1:
        yield (total,)
        return
    end = total + parts - 1
    for bars in itertools.combinations(range(end), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (end,)))


# -- text grammar -------------------------------------------------------

_VAR_KINDS = {"z": zvar, "l": wvar, "c": cvar}

#: One token per match, after any whitespace: a run of decimal digits, a
#: run of word characters (a name; :func:`_tokenize` checks that it starts
#: with a letter or ``_``), an operator, or any other character.
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|([-+*^()/])|(\S))")


def _literal(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise InputError(f"a {len(digits)}-digit number is too long") from exc


def _classify(name: str) -> Var:
    head, tail = name[0], name[1:]
    if head in _VAR_KINDS and tail.isdecimal():
        return _VAR_KINDS[head](_literal(tail))
    return svar(name)


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


#: Deepest nesting of parentheses and unary minus signs the grammar
#: accepts; the parser recurses once per level.
MAX_NESTING = 100

#: Most terms a ``^`` in polynomial text may produce: a base of t terms to
#: the power e has at most C(e + t - 1, t - 1) terms, checked before the
#: power is expanded.
MAX_POWER_TERMS = 100_000

#: Most work one product in polynomial text may cost, counted as its term
#: pairs times the number of variables in the text (the exponents added
#: per pair; ``z1`` and ``z01`` are one variable).  Each product a ``*``,
#: or the expansion of a ``^``, forms is checked before it is formed.
MAX_PRODUCT_WORK = 200_000

#: Most bits a coefficient in polynomial text may reach, numerator or
#: denominator.  With L the common denominator of a polynomial's
#: coefficients and N the sum of their absolute values times L, no
#: coefficient of a product exceeds the product of the factors' heights
#: max(N, L); each ``*`` and each ``^`` is checked against these bounds
#: before it is formed.
MAX_COEFFICIENT_BITS = 100_000


def _height_bits(terms: dict) -> int:
    """ceil(log2 max(N, L)), the bits of the height that bounds products
    (see :data:`MAX_COEFFICIENT_BITS`) of the polynomial with these terms;
    for one term c, max(N, L) is max(|numerator|, denominator) of c."""
    if len(terms) == 1:
        c, = terms.values()
        return (max(abs(c.numerator), c.denominator) - 1).bit_length()
    cs = terms.values()
    den = math.lcm(*map(attrgetter("denominator"), cs))
    return (max(int(sum(map(abs, cs)) * den), den) - 1).bit_length()


def _check_bits(bits: int) -> None:
    if bits > MAX_COEFFICIENT_BITS:
        raise SizeLimitExceeded(
            f"a coefficient of up to {bits} bits exceeds the limit of "
            f"{MAX_COEFFICIENT_BITS} bits")


class _Parser:
    """Evaluates the text on term dicts keyed by dense exponent tuples over
    one :class:`Slate` of the text's variables, built once after
    tokenizing; the :class:`Polynomial` is built once, at the end."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        found, unknown = {}, 0
        for name in {v for kind, v in self.tokens if kind == "var"}:
            try:
                found[name] = _classify(name)
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
        if self.peek() != "end":
            raise InputError(f"trailing input at {self.tokens[self.pos][1]!r}")
        for m, c in terms.items():
            if type(c) is not int:
                terms[m] = _num(c)
        return Polynomial(self.slate.sparse(terms))

    def product(self, a: dict, b: dict) -> dict:
        pairs = len(a) * len(b)
        if pairs * self.width > MAX_PRODUCT_WORK:
            raise SizeLimitExceeded(
                f"a product of {pairs} term pairs in a {self.width}-variable "
                f"text exceeds the limit of {MAX_PRODUCT_WORK} pairs times "
                "variables")
        _check_bits(_height_bits(a) + _height_bits(b))
        if len(a) != 1:
            a, b = b, a
        if len(a) != 1:
            return mul_dense(a, b)
        (m0, c0), = a.items()  # exponents add, so distinct keys stay so
        if m0 == self.zero:
            return {m: c * c0 for m, c in b.items()}
        return {tuple(map(add, m, m0)): c * c0 for m, c in b.items()}

    def expr(self) -> dict:
        sign = self.peek()
        if sign in "+-":
            self.next()
        acc = self.term()  # every value the parser forms is a new dict
        if sign == "-":
            acc = {m: -c for m, c in acc.items()}
        while self.peek() in "+-":
            op = self.next()[0]
            _add_into(acc, self.term(), 1 if op == "+" else -1)
        return acc

    def term(self) -> dict:
        acc = self.power()
        while self.peek() == "*":
            self.next()
            acc = self.product(acc, self.power())
        return acc

    def power(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            exp = self.expect("int")[1]
            t = max(len(base), 1)
            bound = math.comb(exp + t - 1, t - 1)
            if bound > MAX_POWER_TERMS:
                raise SizeLimitExceeded(
                    f"a {t}-term polynomial to the power {exp} may have "
                    f"{bound} terms, over the limit of {MAX_POWER_TERMS}")
            _check_bits(exp * _height_bits(base))
            if len(base) == 1:
                (m, c), = base.items()
                return {tuple([e * exp for e in m]): c ** exp}
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
                _classify(value)  # raises what it raised in __init__
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


def parse_polynomial(text: str) -> Polynomial:
    """Parse the CLI/JSON polynomial grammar: rationals ``a`` or ``a/b``,
    variables ``z1.. l1.. c1.. h d delta m``, operators ``+ - * ^`` and
    parentheses; whitespace is insignificant."""
    if not isinstance(text, str):
        raise InputError(f"polynomial text must be a string, not "
                         f"{type(text).__name__}")
    return _Parser(text).parse()


def term_list(p: Polynomial) -> list[tuple[str, Fraction]]:
    """(monomial, coefficient) pairs in the canonical serialization order."""
    return [(repr(m), Fraction(c)) for m, c in _sorted_terms(p.terms)]
