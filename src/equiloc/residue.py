"""Iterated residues at infinity of rational forms with affine denominators.

Conventions
-----------
A :class:`ResidueForm` carries an explicit dominance order of its residue
variables, least dominant first (contour radii grow along the order); the
order is never inferred from variable names.  Its denominator factors are
plain polynomials, each affine in the residue variables: every term is a
rational multiple of one residue variable or free of them (a factor that
is not is an InputError, one without a residue variable a
NoDominantVariable).  Each factor is expanded as a geometric series in its
dominant variable (the highest-ranked residue variable it contains):

    1/w = sum_j (-1)^j (w - a*z_q)^j / (a*z_q)^(j+1)

and the residue is ``(-1)^d`` times the coefficient of ``z_1^-1 ... z_d^-1``
of the product of these expansions with the numerator, so that the residue
of ``dz/(z_1...z_d)`` is ``(-1)^d``.

Evaluation peels variables from the most dominant down: at each step the
form is held as a Laurent expansion in one variable whose coefficients are
exact polynomials in everything below, the ``z^-1`` coefficient is
extracted, and the remaining factors are processed recursively.  A form's
numerator is ``prefactor * numerator``; the residue is linear, so the
first peel, of ``z_k``, is ``sum_e P_e * peel(z_k^e * B)`` over the
``z_k^e`` slices ``P_e`` of the prefactor ``P`` (``B`` is the numerator).
It is taken as ``sum_t B_t * sum_e P_e * E_(t+e+1-s_k)``, with ``B_t``
the ``z_k^t`` slices of ``B`` and ``E_j`` the order-j part of the
expansions: the small factors meet first, and ``P * B`` is never formed.
The expansion order needed at each step is read off the numerator slices
that can still reach ``z_1^-1 ... z_d^-1`` (the degree budget below), so
results are exact; :data:`MAX_EXPANSION_ORDER` bounds it, checked before
each variable is expanded.

Degree budget
-------------
Let ``s_p`` be the number of factors dominated by ``z_p``.  Every term of
the rest ``b = w - a*z_p`` of such a factor is a rational multiple of a
lower residue variable or free of them, so the tail
``(-b)^j / (a*z_p)^(j+1)`` lowers a term's total degree in the residue
variables by at least 1: its ``z_p``-degree is ``-(j+1)`` and its degree in
the lower variables at most ``j``.  Reading the ``z_p^-1`` coefficient
raises that degree by 1 again, so the peel of ``z_p`` lowers it by at
least ``s_p - 1``, and the degree of every term that survives the last peel
is 0.  Hence, when ``z_q`` is peeled, a numerator term of ``z_q``-degree
``t`` and degree ``D`` in ``z_1 .. z_(q-1)`` can contribute only if

    D + reach >= need_q = sum over p < q of (s_p - 1),

where ``reach = t + 1 - s_q``, the total expansion order the term calls
for, when some factor's rest holds a lower residue variable, and 0 when
none does.  Terms that fail are dropped before any expansion is built.
The residue variables take the first slots of the :class:`Slate`, in
contour order, so ``D`` is the sum of a term's leading exponents.

At the first peel a term of ``P_e`` adds ``e`` to the ``z_k``-degree of
a term of ``B`` and its own degree ``D'`` in the lower variables to
``D``.  So ``need`` is lowered by the gain of ``P``, the largest ``D'``,
plus ``e`` when the reach counts, over its terms; a smaller one, such as
the first term's, would drop terms that the largest lifts to the residue
when ``P`` is not homogeneous (a q-file entry ``Q_k`` need not be).  Each
``B_t`` left meets every ``P_e``, to the largest order of a ``B_t`` and
a term of ``P`` that pass together.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .algebra import (MAX_COEFFICIENT_BITS, RESIDUE, Polynomial, Slate,
                      _add_into, _height_bits, _num, _var_key, mul_dense,
                      parse_factored, parse_polynomial, zvar)
from .errors import (InputError, NoDominantVariable, SizeLimitExceeded,
                     WindowOverflow)

#: Highest geometric expansion order :func:`iterated_residue` builds for
#: one peeled variable, checked before that variable is expanded.
MAX_EXPANSION_ORDER = 256


class ResidueForm(namedtuple("ResidueForm", "numerator denominators order "
                                             "prefactor variables")):
    """Numerator with a multiset of denominator factors, each affine in the
    residue variables, and the dominance order of the residue variables,
    least dominant first: ``ResidueForm(numerator, denominators, order,
    prefactor=None)``.  The numerator is ``prefactor * numerator``, the
    prefactor 1 when left out; the engine multiplies the prefactor's slices
    into the denominator expansions at the first peel, so a small factor of
    a large numerator belongs there.  ``variables``, the order's and every
    part's variables, is collected once, when the form is made."""

    __slots__ = ()

    def __new__(cls, numerator, denominators, order, prefactor=None):
        if prefactor is None:
            prefactor = Polynomial.one()
        bad = [v.name for v in order if v.kind != RESIDUE]
        if bad:  # the engine reads the order's slots as residue variables
            raise InputError("order entries must be residue variables, got "
                             + ", ".join(bad))
        allowed = set(order)
        if len(allowed) != len(order):
            names = ", ".join(v.name for v in order)
            raise InputError(f"repeated residue variable in the order: {names}")
        parts = (prefactor, numerator, *denominators)
        seen = frozenset(allowed.union(*(p.variables() for p in parts)))
        missing = {v for v in seen - allowed if v.kind == RESIDUE}
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise InputError(f"residue variables not in the order: {names}")
        return super().__new__(cls, numerator, denominators, order, prefactor,
                               seen)

    def __getnewargs__(self):  # copy.copy rebuilds a form from its four parts
        return self[:4]

    # _replace calls _make: a copy is checked like a new form and collects
    # its variables anew from the four parts; _replace(variables=...) is a
    # ValueError, as _make takes no more of the fields than the parts
    _make = classmethod(lambda cls, fields: cls(*itertools.islice(fields, 4)))


def _split(ws: Slate, w: Polynomial, d: int):
    """``(zi, (rest, a, bits))`` for the factor ``w = a*z + rest`` of
    height ``bits``, on dense keys over ``ws``, whose first ``d`` slots are
    the order and hold every residue variable of the form: ``z`` is the
    variable of the highest slot ``zi`` that a linear term of ``w`` holds,
    and ``rest`` the other terms.  A term is linear when its first ``d``
    exponents are a unit vector and its others are 0.  InputError when a
    term of ``w`` is neither linear nor free of residue variables;
    NoDominantVariable when ``w`` has no residue variable."""
    terms = ws.dense(w)
    linear = {}
    for key in terms:
        head = key[:d]
        if any(head):
            if head.count(0) != d - 1 or 1 not in head or any(key[d:]):
                raise InputError(f"denominator factor is not affine: {w}")
            linear[head.index(1)] = key
    if not linear:
        raise NoDominantVariable(
            f"pure parameter factor has no residue variable: {w}")
    zi = max(linear)
    rest = dict(terms)
    a = rest.pop(linear[zi])
    return zi, (rest, a, _height_bits(terms))


def _peel(ws: Slate, num: dict, factors, zi: int, need: int,
          pre: dict) -> dict:
    """Coefficient of ``z^-1`` (variable slot ``zi``) of ``pre * num``
    times the expansions of the factors dominated by that variable, each
    given as ``(b, a, bits)`` for the factor w = a z + b of height ``bits``.
    The slots below ``zi`` hold the less dominant residue variables.

    With ``num_t`` and ``pre_e`` the ``z^t`` and ``z^e`` slices of ``num``
    and ``pre`` and ``E_j`` the order-j part of the product of the factor
    expansions, the peel is ``sum_t num_t * sum_e pre_e * E_(t+e+1-s)``:
    the small factors meet first and ``pre * num`` is never formed.  A
    term of ``num`` is dropped first unless its degree in the lower slots
    plus its reach plus the gain of ``pre`` is at least ``need`` (the
    degree budget of the module docstring).  With a lower residue variable
    in some ``b`` the reach is the expansion order, so the test reads the
    degree in slots ``0..zi``; the gain is the largest such degree among
    the terms of ``pre``.  The expansions are built once, to the largest
    order of a ``num_t`` and a term of ``pre`` that pass together."""
    s = len(factors)
    lifts = any(any(m[:zi]) for b, _, _ in factors for m in b)
    upto, low = (zi + 1, need + s - 1) if lifts else (zi, need)
    pres: dict[int, dict] = {}
    for m, c in pre.items():
        pres.setdefault(m[zi], {})[m[:zi] + (0,) + m[zi + 1:]] = c
    gains = {(m[zi], sum(m[:upto])) for m in pre}
    top, emax = max((g for _, g in gains), default=0), max(pres, default=0)
    slices: dict[int, dict] = {}
    for m, c in num.items():
        t = m[zi]
        if t + 1 + emax < s or sum(m[:upto]) + top < low:
            continue
        slices.setdefault(t, {})[m[:zi] + (0,) + m[zi + 1:]] = c
    # the largest order j = t + e + 1 - s of a num_t and a term of pre_e
    # that pass the budget together (each term kept passes with the top
    # gain); with no factor, the expansion is 1, and with no rest in any
    # factor (w = a z) it is 1/a^s, empty past order 0
    jtot = max((t + e + 1 - s for t, sl in slices.items() for e, g in gains
                if g == top or any(sum(k[:zi]) + (t if lifts else 0) + g
                                   >= low for k in sl)),
               default=-1) if s else 0
    if not any(b for b, _, _ in factors):
        jtot = min(jtot, 0)
    if jtot < 0:
        return {}
    if jtot > MAX_EXPANSION_ORDER:
        raise WindowOverflow(
            f"expansion order {jtot} in {ws.vars[zi].name} exceeds the "
            f"limit {MAX_EXPANSION_ORDER}")
    # tail j = (-b)^j / a^(j+1) has height at most H(w)^(2j+1), since
    # H(a), H(b) <= H(w) and the height H is submultiplicative
    bits = sum((2 * jtot + 1) * wbits for _, _, wbits in factors)
    if bits > MAX_COEFFICIENT_BITS:
        raise SizeLimitExceeded(
            f"expansion in {ws.vars[zi].name} may reach coefficients of "
            f"{bits} bits, over the limit of {MAX_COEFFICIENT_BITS} bits")
    # running product of the factor expansions, graded by total geometric
    # order; tails[j] of one factor is (-1)^j (w - a z)^j / a^(j+1)
    zero = (0,) * len(ws.vars)
    one = {zero: 1}
    prod = [one]
    for base, a, _ in factors:
        inv_a = _num(Fraction(1) / a)
        step = {m: c * -inv_a for m, c in base.items()}
        tails = [{zero: inv_a}]
        for _ in range(jtot):
            tails.append(mul_dense(tails[-1], step) if step else {})
        new = [dict() for _ in range(jtot + 1)]
        for t_old, pterms in enumerate(prod):
            if not pterms:
                continue
            for j in range(jtot + 1 - t_old):
                if tails[j]:
                    _add_into(new[t_old + j],
                              mul_dense(pterms, tails[j]))
        prod = new
    # the small factors meet first: num_t times sum_e pre_e * prod[j],
    # j = t + e + 1 - s; a pair above jtot cannot reach the residue
    out: dict = {}
    for t, sl in slices.items():
        near = _sum([prod[j] if pe == one else mul_dense(pe, prod[j])
                     for e, pe in pres.items()
                     if 0 <= (j := t + e + 1 - s) <= jtot and prod[j]])
        if near:
            _add_into(out, sl if near == one else mul_dense(sl, near))
    return out


def _sum(parts: list) -> dict:
    """The sum of term dicts; a single one is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    out: dict = {}
    for p in parts:
        _add_into(out, p)
    return out


def iterated_residue(form: ResidueForm) -> Polynomial:
    """The iterated residue at infinity of the form under its dominance
    order: ``(-1)^d`` times the ``z_1^-1 ... z_d^-1`` coefficient of the
    expanded product.  The result contains no residue variables.  The
    prefactor is multiplied in slice by slice at the first peel."""
    d = len(form.order)
    ws = Slate(form.variables, first=form.order)
    groups: list[list] = [[] for _ in range(d)]
    for w in form.denominators:
        zi, factor = _split(ws, w, d)
        groups[zi].append(factor)
    if not d:  # nothing to peel
        return form.prefactor * form.numerator
    pre, num = ws.dense(form.prefactor), ws.dense(form.numerator)
    need = sum(len(factors) - 1 for factors in groups)
    for zi in reversed(range(d)):
        need -= len(groups[zi]) - 1
        num = _peel(ws, num, groups[zi], zi, need, pre)
        pre = {(0,) * len(ws.vars): 1}
    return ws.polynomial({m: -c for m, c in num.items()} if d % 2 else num)


def residue_job(job: dict) -> dict:
    """Run a JSON residue job
    ``{"numerator": str, "denominators": [str, ...], "order": [names]}``
    (order least to most dominant) and return ``{"residue": str}``.  A
    numerator that is one product is kept factored (:func:`parse_factored`):
    its last top-level factor is the form's numerator and the factors
    before it the prefactor, so their product is never formed."""
    try:
        num_text = job["numerator"]
        den_texts = job["denominators"]
        order_names = job["order"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed residue job: {exc}") from exc
    if not (isinstance(den_texts, list) and isinstance(order_names, list)):
        raise InputError("malformed residue job: denominators and order "
                         "must be lists")
    order = []
    for name in order_names:  # read as polynomial text reads a name
        key = _var_key(name) if isinstance(name, str) and name else None
        if key is None or key[0] != RESIDUE:
            raise InputError(
                f"order entries must be residue variables, got {name!r}")
        order.append(zvar(key[1]))
    prefactor, body = parse_factored(num_text)
    dens = tuple(parse_polynomial(t) for t in den_texts)
    result = iterated_residue(ResidueForm(body, dens, tuple(order),
                                          prefactor=prefactor))
    return {"residue": str(result)}
