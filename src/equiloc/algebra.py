"""Exact multivariate polynomials over partitioned variable alphabets.

Variables come in four disjoint alphabets:

* residue variables ``z1, z2, ...`` (the only ones that may carry negative
  exponents: the residue reads coefficients of Laurent expansions in them),
* weight variables ``l1, l2, ...`` (torus weights),
* Chern symbols ``c1, c2, ...`` (graded: ``ci`` counts with degree ``i``),
* named scalars (``h``, ``d``, ``delta``, ``m``, jet coordinates, ...).

Terms are stored sparsely, keyed by :class:`Monomial`, which is only a
key: no other module names one, and in this module a :class:`Slate` of
variables is the only reader and builder of a term's key.
:meth:`Slate.dense` reads a polynomial's terms as dense exponent tuples
over the slate, and :meth:`Slate.polynomial` makes such terms a
polynomial; every query of a :class:`Polynomial` (printing, a
coefficient, a degree, an evaluation) and every constructor but the
constant ones goes through them.  Beyond a slate only the
:class:`Polynomial` constructor, which checks the exponents, and
:meth:`Polynomial.variables` read a key.  Every product of two
polynomials goes to one kernel, :func:`mul_dense`, on such terms; the
residue engine and the jet embedding matrix (:func:`equiloc.jets.rho`)
call it directly.  The
text grammar, :func:`parse_polynomial`, is a recursive descent over the
text's tokens, each distinct word read once: a number becomes its int and a
name its slot in one slate of the text's variables (at most
:data:`MAX_TEXT_VARIABLES`).  It evaluates on dense exponent tuples over
that slate: a run of number and variable factors, each maybe to a power,
folds into one coefficient and one exponent list, a one-term ``^`` scales
one key, every other product goes to :func:`mul_dense`, and the monomials
are built once, at the end.
:func:`parse_factored` reads a text that is one product as its prefactor
and its last factor, and does not form the last product.

Coefficients are exact rationals, and an integral one is always an
``int``: the :class:`Polynomial` constructor makes every integral
``Fraction`` it is given an ``int``, so no other code normalizes one.  The
canonical term order used for serialization is graded lexicographic over
the fixed variable order, largest first, which makes all printed output
byte-stable.
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
    f = c if type(c) is Fraction else Fraction(c)
    return f.numerator if f.denominator == 1 else f


class Monomial:
    """A term's key and nothing else: the tuple ``exps`` of its (variable,
    exponent) pairs, exponents nonzero, sorted by variable.  A
    :class:`Slate` is its only reader and builder (see the module
    docstring)."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps):
        self.exps = exps
        self._hash = hash(exps)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.exps == other.exps


ONE_MONO = Monomial(())


def _sorted_terms(p: "Polynomial"):
    """``(monomial text, coefficient)`` of each term of ``p``, the text
    empty for the constant term, in canonical graded-lex order over the
    sorted variables, largest monomial first."""
    slate = Slate(p.variables())
    dense = slate.dense(p)
    names = [v.name for v in slate.vars]
    return [("*".join(n if e == 1 else f"{n}^{e}"
                      for n, e in zip(names, key) if e), dense[key])
            for key in sorted(dense, key=lambda k: (sum(k), k), reverse=True)]


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


def _format_terms(p: "Polynomial") -> str:
    if not p.terms:
        return "0"
    parts = []
    for text, c in _sorted_terms(p):
        sign = "-" if (c < 0) else "+"
        a = format_rational(-c if c < 0 else c)
        if not text:
            body = a
        elif a == "1":
            body = text
        else:
            body = f"{a}*{text}"
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
    A slate is the only reader (:meth:`dense`) and builder
    (:meth:`polynomial`) of a :class:`Monomial`.  :meth:`polynomial` lists
    exponents in slate order, so its monomials are canonical as long as
    the nonzero ``first`` slots of each key are in sorted order."""

    __slots__ = ("vars", "index")

    def __init__(self, variables, first=()):
        rest = set(variables).difference(first)
        self.vars = (*first, *sorted(rest, key=_SORT_KEY))
        self.index = {v: i for i, v in enumerate(self.vars)}

    def dense(self, p: "Polynomial") -> dict:
        """The terms of ``p``, whose variables are all on the slate, keyed
        by their exponent tuples."""
        out = {}
        index, zero = self.index, [0] * len(self.vars)
        for m, c in p.terms.items():
            key = zero.copy()
            for v, e in m.exps:
                key[index[v]] = e
            out[tuple(key)] = c
        return out

    def polynomial(self, dense: dict) -> "Polynomial":
        """The polynomial of the terms keyed by exponent tuples over the
        slate; the constructor makes each integral coefficient an int."""
        vs = self.vars
        return Polynomial({
            Monomial(tuple(itertools.compress(zip(vs, key), key))): c
            for key, c in dense.items()})


def mul_dense(a: dict, b: dict) -> dict:
    """The product of two term dicts keyed by exponent tuples of one length;
    coefficients need only ``+`` and ``*``.  Every product of polynomials
    comes here.  A one-term operand's key is added to each key of the
    other, which keeps the keys distinct; an all-zero key only scales."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (m0, c0), = a.items()
        if not any(m0):
            return {m: c * c0 for m, c in b.items()}
        return {tuple(map(add, m, m0)): c * c0 for m, c in b.items()}
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


class Polynomial:
    """Immutable exact polynomial, Laurent in the residue variables: only
    they may carry negative exponents.  No zero terms.  The constructor
    takes ``terms`` as its own and makes each integral coefficient in it an
    int; the hash is computed on first use and kept."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        for m, c in terms.items():
            for v, e in m.exps:
                if e < 0 and v.kind != RESIDUE:
                    raise ValueError(
                        f"negative exponent on non-residue variable {v.name}")
            if type(c) is not int:
                terms[m] = _num(c)
        self.terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({ONE_MONO: 1})

    @classmethod
    def rational(cls, c) -> "Polynomial":
        return cls({ONE_MONO: c} if c else {})

    @classmethod
    def var(cls, v: Var, exp: int = 1) -> "Polynomial":
        return Slate([v]).polynomial({(exp,): 1})

    @classmethod
    def from_terms(cls, pairs) -> "Polynomial":
        """pairs: iterable of (coefficient, [(var, exp), ...]); a variable's
        exponents in one list add up."""
        pairs = [(c, tuple(mexps)) for c, mexps in pairs]
        slate = Slate({v for _, mexps in pairs for v, _ in mexps})
        acc: dict = {}
        for c, mexps in pairs:
            key = [0] * len(slate.vars)
            for v, e in mexps:
                key[slate.index[v]] += e
            _add_into(acc, {tuple(key): c})
        return slate.polynomial(acc)

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        acc = dict(self.terms)
        _add_into(acc, other.terms)
        return Polynomial(acc)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        acc = dict(self.terms)
        _add_into(acc, other.terms, -1)
        return Polynomial(acc)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        """By :func:`mul_dense` over the slate of the variables of both; as
        everywhere, an integral coefficient is an int."""
        other = _coerce(other)
        slate = Slate(self.variables() | other.variables())
        return slate.polynomial(
            mul_dense(slate.dense(self), slate.dense(other)))

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
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- structure ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return self.terms.keys() <= {ONE_MONO}

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.terms[ONE_MONO])

    def variables(self) -> set[Var]:
        return {v for m in self.terms for v, _ in m.exps}

    def degree_in(self, v: Var) -> int:
        slate = Slate(self.variables(), [v])
        return max((key[0] for key in slate.dense(self)), default=0)

    def weighted_degrees(self, weight) -> set[int]:
        slate = Slate(self.variables())
        weights = [weight(v) for v in slate.vars]
        return {sum(map(mul, key, weights)) for key in slate.dense(self)}

    def coefficient(self, v: Var, k: int) -> "Polynomial":
        """The coefficient of ``v^k``, as a polynomial without ``v``."""
        slate = Slate(self.variables(), [v])
        return Slate(slate.vars[1:]).polynomial({
            key[1:]: c for key, c in slate.dense(self).items() if key[0] == k})

    def evaluate(self, assignment) -> "Polynomial":
        """Partial evaluation at rational values; other variables stay."""
        values = [_num(x) for x in assignment.values()]
        slate = Slate(self.variables(), assignment)
        s = len(values)
        out: dict = {}
        for key, c in slate.dense(self).items():
            for x, e in zip(values, key):
                if e:  # an int to a negative power is a float
                    c = c * x ** e if e > 0 else c * Fraction(x) ** e
            rest = key[s:]
            nc = out.get(rest, 0) + c
            if nc:
                out[rest] = nc
            elif rest in out:
                del out[rest]
        return Slate(slate.vars[s:]).polynomial(out)

    def __str__(self):
        return _format_terms(self)

    def __repr__(self):
        return f"Polynomial({self})"


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


# An old name of Polynomial, kept only because the benchmark harness's
# tracer wraps its ``__mul__``; it goes when that patch point moves to the
# product kernel.
LaurentSeries = Polynomial


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

_VAR_KINDS = {"z": RESIDUE, "l": WEIGHT, "c": CHERN}

#: One token per match: a run of ASCII digits, a run of word characters
#: (a name; :func:`_tokenize` checks that it starts with a letter or
#: ``_``), or any other character but whitespace, which only separates.
_TOKEN = re.compile(r"[0-9]+|\w+|\S")

_OPERATORS = frozenset("-+*^()/")


#: The token of a name that no variable can take; the parser raises the
#: name's error where it reaches it.
_UNKNOWN = object()


def _literal(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise InputError(f"a {len(digits)}-digit number is too long") from exc


def _var_key(name: str) -> tuple:
    """The registry key of the variable a name in text takes, found
    without interning it: ``z01`` takes ``z1``'s.  A ``z``, ``l`` or ``c``
    index is read in ASCII digits only: ``z\u0665`` is an InputError, not
    ``z5``."""
    head, tail = name[0], name[1:]
    if head in _VAR_KINDS and tail.isdecimal():
        if not tail.isascii():
            raise InputError(f"the index of {name!r} is not in ASCII digits")
        i = _literal(tail)
        return (_VAR_KINDS[head], i, f"{head}{i}")
    return (SCALAR, None, name)


#: Most distinct variables one polynomial text may hold (``z1`` and
#: ``z01`` are one variable, and a name that no variable can take counts
#: as one of its own), checked after tokenizing and before any variable
#: is interned: every term of the text is a key of one slot per variable.
MAX_TEXT_VARIABLES = 1_000


def _tokenize(text: str):
    """``(tokens, words, slate, width)`` of the text.  ``words`` are its
    tokens as written, ``tokens`` their values: an ``int`` for a number,
    the character for an operator, ``(1, slot)`` for a variable's name
    (the coefficient and the ``slate`` slot of the variable as a factor)
    and :data:`_UNKNOWN` for a name no variable can take; both lists end
    in ``None``.  ``width`` counts the variables and the unknown names, at
    least 1.  Each distinct word is read once, in the order of the text,
    so the first bad one in the text is the error."""
    words = _TOKEN.findall(text)
    values = dict.fromkeys(words)
    found = {}
    for word in values:
        head = word[0]
        if word in _OPERATORS:
            values[word] = word
        elif head in "0123456789":
            values[word] = _literal(word)
        elif head.isalpha() or head == "_":
            try:
                found[word] = _var_key(word)
            except InputError:  # raised where the parser reaches the name
                values[word] = _UNKNOWN
        else:  # a stray character, or a word led by a digit like ² or ٥
            raise InputError(f"unexpected character {head!r} "
                             "in polynomial text")
    width = (len(set(found.values()))
             + sum(v is _UNKNOWN for v in values.values()))
    if width > MAX_TEXT_VARIABLES:
        raise SizeLimitExceeded(
            f"a text of {width} variables exceeds the limit of "
            f"{MAX_TEXT_VARIABLES} variables")
    found = {word: Var(*key) for word, key in found.items()}
    slate = Slate(found.values())
    for word, v in found.items():
        values[word] = (1, slate.index[v])
    tokens = list(map(values.__getitem__, words))
    tokens.append(None)
    words.append(None)
    return tokens, words, slate, max(width, 1)


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
#: or the expansion of a ``^``, forms is checked before it is formed; the
#: last one of :func:`parse_factored` is checked and not formed.
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
        return _coefficient_bits(c)
    cs = terms.values()
    den = math.lcm(*map(attrgetter("denominator"), cs))
    return (max(int(sum(map(abs, cs)) * den), den) - 1).bit_length()


def _coefficient_bits(c) -> int:
    """:func:`_height_bits` of the one term ``c``."""
    n, d = abs(c.numerator), c.denominator
    return ((n if n > d else d) - 1).bit_length()


def _check_bits(bits: int) -> None:
    if bits > MAX_COEFFICIENT_BITS:
        raise SizeLimitExceeded(
            f"a coefficient of up to {bits} bits exceeds the limit of "
            f"{MAX_COEFFICIENT_BITS} bits")


def _raised(c, e: int):
    """``c ** e`` for a coefficient, checked as a one-term power is."""
    _check_bits(e * _coefficient_bits(c))
    return c ** e


class _Parser:
    """Recursive descent over the tokens of :func:`_tokenize`, evaluating
    on term dicts keyed by dense exponent tuples over the text's
    :class:`Slate`; the :class:`Polynomial` is built once, at the end."""

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise InputError(f"polynomial text must be a string, not "
                             f"{type(text).__name__}")
        self.tokens, self.words, self.slate, self.width = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.zero = (0,) * len(self.slate.vars)

    def value(self, pos: int):
        """The token at ``pos`` as errors name it: a number's int, else
        the text (``None`` at the end)."""
        tok = self.tokens[pos]
        return tok if type(tok) is int else self.words[pos]

    def expect_int(self, pos: int) -> int:
        tok = self.tokens[pos]
        if type(tok) is not int:
            raise InputError(f"expected 'int', found {self.value(pos)!r}")
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
        negative = self.sign()
        pre, body = self.term(split=True)
        if not (pre and body) or self.tokens[self.pos] in ("+", "-"):
            # one factor, a zero product, or a sum: formed as parse forms it
            acc = body if pre is None else mul_dense(pre, body)
            pre, body = {self.zero: 1}, self.sum(negative, acc)
        elif negative:
            pre = {m: -c for m, c in pre.items()}
        self.finish()
        return self.slate.polynomial(pre), self.slate.polynomial(body)

    def finish(self) -> None:
        if self.tokens[self.pos] is not None:
            raise InputError(f"trailing input at {self.value(self.pos)!r}")

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
        """The checked product."""
        self.check(a, b)
        return mul_dense(a, b)

    def monomial(self, c, key) -> dict:
        """The terms of ``c`` times the monomial of the exponent list
        ``key`` (``None`` for 1): none when ``c`` is 0."""
        if not c:
            return {}
        return {self.zero if key is None else tuple(key): c}

    def sign(self) -> bool:
        """Consume a leading ``+`` or ``-``; whether it was ``-``."""
        tok = self.tokens[self.pos]
        if tok == "+" or tok == "-":
            self.pos += 1
        return tok == "-"

    def expr(self) -> dict:
        negative = self.sign()
        return self.sum(negative, self.term())

    def sum(self, negative: bool, acc: dict) -> dict:
        """The sum of ``acc``, the first term (negated when ``negative``),
        and the terms that follow it."""
        if negative:
            acc = {m: -c for m, c in acc.items()}
        tokens = self.tokens
        while True:  # every value formed is a new dict
            op = tokens[self.pos]
            if op != "+" and op != "-":
                return acc
            self.pos += 1
            _add_into(acc, self.term(), -1 if op == "-" else 1)

    def term(self, split: bool = False):
        """The product of the factors; with ``split``, the pair of the
        product of all but the last factor (None for one factor) and the
        last factor, their product checked but not formed."""
        tokens = self.tokens
        acc = self.power() if split else self.run()
        while tokens[self.pos] == "*":
            self.pos += 1
            b = self.power()
            if split and tokens[self.pos] != "*":
                self.check(acc, b)
                return acc, b
            acc = self.product(acc, b)
        return (None, acc) if split else acc

    def run(self) -> dict:
        """The product of the factors from here while they are numbers and
        variables, each maybe to a power, or :meth:`power` at a factor of
        another kind; it stops before a ``*`` that leads to a factor of
        another kind.  The product is held as one coefficient and one
        exponent list, and each factor is folded in with the bits check of
        :meth:`check` on one-term operands: a text has at most
        :data:`MAX_TEXT_VARIABLES` variables, so their pair is under the
        work limit."""
        tokens = self.tokens
        pos = self.pos
        coef = key = None
        while True:
            tok = tokens[pos]
            if type(tok) is tuple:
                c, slot = tok
                pos += 1
            elif type(tok) is int:
                c, pos = self.number(pos)
                slot = None
            else:
                break
            e = 1
            if tokens[pos] == "^":
                e = self.expect_int(pos + 1)
                pos += 2
                if slot is None:  # a variable's 1 is 1 to any power
                    c = _raised(c, e)
            if coef is None:
                coef, bits = c, _coefficient_bits(c)
            elif slot is None:
                _check_bits(bits + _coefficient_bits(c))
                coef *= c
                bits = _coefficient_bits(coef)
            elif bits > MAX_COEFFICIENT_BITS:  # times 1, of 0 bits
                _check_bits(bits)
            if slot is not None:
                if key is None:
                    key = [0] * len(self.zero)
                key[slot] += e
            self.pos = pos
            if tokens[pos] != "*":
                break
            pos += 1
        if coef is None:
            return self.power()
        return self.monomial(coef, key)

    def number(self, pos: int):
        """The number ``a`` or ``a/b`` at ``pos``, whose token is an int,
        and the position after it."""
        tokens = self.tokens
        if tokens[pos + 1] != "/":
            return tokens[pos], pos + 1
        den = self.expect_int(pos + 2)
        if den == 0:
            raise InputError("zero denominator in rational literal")
        return _num(Fraction(tokens[pos], den)), pos + 3

    def power(self) -> dict:
        base = self.atom()
        if self.tokens[self.pos] == "^":
            exp = self.expect_int(self.pos + 1)
            self.pos += 2
            if len(base) == 1:  # one term, C(exp, 0) = 1: scale its key
                (m, c), = base.items()
                c = _raised(c, exp)
                return {tuple([e * exp for e in m]): c}
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
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        self.pos = pos + 1
        if type(tok) is tuple:  # a variable
            key = [0] * len(self.zero)
            key[tok[1]] = 1
            return {tuple(key): 1}
        if type(tok) is int:
            c, self.pos = self.number(pos)
            return self.monomial(c, None)
        if tok is _UNKNOWN:
            _var_key(self.words[pos])  # raises what it raised in _tokenize
        if tok != "-" and tok != "(":
            raise InputError(f"unexpected token {self.value(pos)!r} in "
                             "polynomial text")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise InputError(
                f"polynomial text nests deeper than {MAX_NESTING} levels")
        if tok == "-":
            p = {m: -c for m, c in self.atom().items()}
        else:
            p = self.expr()
            if tokens[self.pos] != ")":
                raise InputError(
                    f"expected ')', found {self.value(self.pos)!r}")
            self.pos += 1
        self.depth -= 1
        return p


def parse_polynomial(text: str) -> Polynomial:
    """Parse the CLI/JSON polynomial grammar: rationals ``a`` or ``a/b``,
    variables ``z1.. l1.. c1.. h d delta m``, operators ``+ - * ^`` and
    parentheses; whitespace is insignificant."""
    return _Parser(text).parse()


def parse_factored(text: str) -> tuple[Polynomial, Polynomial]:
    """:func:`parse_polynomial` of the text, kept factored when it is one
    product: ``(prefactor, body)``, with the last top-level factor the
    body and the factors before it, with any leading sign, the prefactor.
    The last product is checked against the limits but not formed.  A
    sum, a single factor or a zero product gives ``(1, polynomial)``."""
    return _Parser(text).parse_factored()


def term_list(p: Polynomial) -> list[tuple[str, Fraction]]:
    """(monomial, coefficient) pairs in the canonical serialization order."""
    return [(text or "1", Fraction(c)) for text, c in _sorted_terms(p)]
