"""Lowest-weight modules for the supported families.

A module vector is a finite linear combination of basis monomials.  Each
monomial is a product of creation generators applied to a lowest-weight
vector that every annihilator kills and on which the diagonal generators
act by scalars drawn from the family's parameters.  The slots, shape and
grades of the factors are the basis layout of ``algebra._family``.

Two independent implementations of the generator action are provided:

* ``act_generic`` normal-orders products of generators using only the
  structure constants (works for every family), and
* ``act_closed_form`` evaluates explicit per-generator formulas for every
  extended family, written once over the creation strings of the module.

Their agreement on a shared domain is one of the package's core checks.

The generic images are free of parameters and cached per family: the
normal-ordered product of a generator x and a basis monomial f m' (f its
leading factor) follows from x f m' = f (x m') + [x, f] m' with integer
coefficients, a trailing diagonal generator leaving an exponent of its
eigenvalue.  Each call instantiates the cached images, turning the
exponents into products of eigenvalues; the nullspace search of
``singular`` reads the same images directly, in the ring of its linear
system, without going through ``act_generic``.  The closed forms take ``int``
coefficients too, and a Scalar enters only where a parameter does.  In both
actions the input coefficient multiplies each term of an image once (not
at all when it is 1), and the result is assembled in one map.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial
from operator import add, itemgetter, mul
from types import MappingProxyType

from .algebra import (
    Gen,
    UnknownGenerator,
    _family,
    _structure,
    central_element,
    creation_data,
    enumerate_generators,
    normal_position,
    parse_gen,
    weight_table,
)
from .scalars import Scalar, UnsupportedFamily, _Sparse


# the diagonal generators the weight bookkeeping reads, built once
_D, _J, _P1 = Gen("D"), Gen("J"), Gen("P", 1)


class MissingParameter(KeyError):
    """A family parameter needed for the computation was not supplied."""


class InfiniteSelection(ValueError):
    """The requested constraint selects infinitely many basis monomials."""


class PbwMonomial(tuple):
    """Exponent vector of one basis monomial.

    ``h`` counts the leftmost factor (H, or C for the centerless family);
    ``a`` and ``b`` hold the exponents of the two creation strings in
    ascending index order (``b`` is empty when the family has a single
    string).  The monomial is the tuple ``(h, a, b)``, so it hashes and
    compares at C level.
    """

    __slots__ = ()

    def __new__(cls, h, a, b):
        if h < 0 or any(e < 0 for e in a + b):
            raise ValueError("negative exponent in %s" % (_mono_repr((h, a, b)),))
        return tuple.__new__(cls, (h, a, b))

    h = property(itemgetter(0))
    a = property(itemgetter(1))
    b = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return _mono_repr(self)

    def __str__(self):
        parts = [str(self.h)]
        parts.append(",".join(str(e) for e in self.a))
        parts.append(",".join(str(e) for e in self.b))
        return "|%s>" % ";".join(parts)


def _mono_repr(hab):
    return "PbwMonomial(h=%r, a=%r, b=%r)" % tuple(hab)


# A PbwMonomial from an (h, a, b) tuple known to hold no negative exponent.
_mono = partial(tuple.__new__, PbwMonomial)


def check_monomial(spec, m):
    """Validate that ``m`` has the exponent shape of ``spec``'s module."""
    shape = _family(spec)["shape"]
    if (len(m.a), len(m.b)) != shape:
        raise ValueError("monomial %s does not fit %r (want %d+%d exponents)"
                         % ((m, spec) + shape))
    return m


def _monomial(shape, expo):
    """The basis monomial of a flat exponent sequence in slot order."""
    n = 1 + shape[0]
    return _mono((expo[0], tuple(expo[1:n]), tuple(expo[n:])))


def _bump(t, i, step):
    out = list(t)
    out[i] += step
    return tuple(out)


class ModuleVector(_Sparse):
    """Finite linear combination of PbwMonomials with Scalar coefficients;
    ``items()`` lists the monomials in ascending (h, a, b) order."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = self._coerced(terms)

    def coefficient(self, mono):
        return self.terms.get(mono, Scalar.zero())


class Weight:
    """Joint eigenvalue record: maps diagonal generators to Scalars."""

    __slots__ = ("eigen",)

    def __init__(self, eigen):
        self.eigen = {g: (v if isinstance(v, Scalar) else Scalar.const(v))
                      for g, v in eigen.items()}

    def __getitem__(self, gen):
        return self.eigen[gen]

    def __contains__(self, gen):
        return gen in self.eigen

    def __eq__(self, other):
        return isinstance(other, Weight) and self.eigen == other.eigen

    def __repr__(self):
        body = ", ".join(
            "%s: %s" % (g, v) for g, v in sorted(self.eigen.items(), key=lambda kv: str(kv[0]))
        )
        return "Weight{%s}" % body


def required_parameters(spec):
    """Names of the family parameters entering this module's weights."""
    return tuple(sorted({sym for sym, _ in weight_table(spec).values()}))


def symbolic_params(spec):
    """Parameter assignment leaving every family parameter symbolic."""
    return {name: Scalar.symbol(name) for name in required_parameters(spec)}


@lru_cache(maxsize=None)
def _symbolic_view(spec):
    """symbolic_params(spec), built once per family and read-only."""
    return MappingProxyType(symbolic_params(spec))


def resolve_params(spec, params):
    """Coerce a user assignment to Scalars; default is fully symbolic.

    The result is read-only to callers: the fully symbolic default is one
    shared mapping per family.  Raises MissingParameter if a required name
    is absent (extra names are ignored so one dict can serve several
    families).
    """
    if params is None:
        return _symbolic_view(spec)
    out = {}
    for name in required_parameters(spec):
        if name not in params:
            raise MissingParameter(
                "parameter %r is required for %r" % (name, spec)
            )
        val = params[name]
        if isinstance(val, (int, Fraction)):
            val = Scalar.const(val)
        out[name] = val
    return out


def vacuum(spec, params=None):
    """The lowest-weight vector as a ModuleVector (single unit monomial)."""
    resolve_params(spec, params)
    n_a, n_b = _family(spec)["shape"]
    return ModuleVector.of(PbwMonomial(0, (0,) * n_a, (0,) * n_b))


# --- gradings, read from the basis layout of algebra._family --------------

def _dot(grades, expo):
    """The grade of a flat exponent tuple under one per-slot table."""
    return sum(map(mul, grades, expo))


def d_grade(spec, word):
    """The D-grade g of a word w of basis factors: [D, w] = g w."""
    fam = _family(spec)
    return sum(fam["d"][fam["slot"][g]] for g in word)


def lowest_weight(spec, pvals):
    """The eigenvalue of each diagonal generator on the lowest-weight
    vector, from resolved parameters: sign * symbol per weight_table."""
    return {gen: pvals[sym] * sign for gen, (sym, sign) in weight_table(spec).items()}


def weight_of(spec, m, params=None):
    """Joint diagonal eigenvalues of a basis monomial.

    Central generators and D (and J when present) act diagonally on every
    monomial.  For the centerless family the non-diagonalizable g0
    generator is included only on monomials it actually scales (h == 0).
    """
    check_monomial(spec, m)
    fam = _family(spec)
    expo = (m.h,) + m.a + m.b
    eigen = lowest_weight(spec, resolve_params(spec, params))
    eigen[_D] += _dot(fam["d"], expo)
    if _J in eigen:
        eigen[_J] += _dot(fam["j"], expo)
    if spec.ext == "none" and m.h:
        del eigen[_P1]
    return Weight(eigen)


# --- generic action by normal-ordering words ------------------------------

class _Images(dict):
    """The generic action's images on one family, free of parameters.

    The tables, read from ``algebra._family`` and ``algebra._structure`` on
    the first action in the family, are:

    * ``pos`` is ``normal_position(spec)``: 0 for an annihilator, 1 for a
      diagonal generator, 2 and up for a creation generator;
    * ``brk`` is ``_structure(spec)``: ``brk[x, y]`` is the bracket of x
      and y as ``((Gen, int coefficient), ...)``;
    * ``weights`` lists the ``(symbol, sign)`` of each diagonal generator's
      eigenvalue in exponent order, ``unit`` maps each diagonal generator
      to its exponent tuple and ``zero`` is the tuple of no eigenvalue;
    * ``slots`` holds the basis factors in slot order, ``slot`` maps each
      back to its slot, ``order`` lists the slots by descending position
      (the factor order of a normal word) and ``shape`` is (len a, len b).

    ``images[x, mono]`` is the normal-ordered product of the generator x
    and the basis monomial ``mono``: a tuple of ``(monomial, diagonal
    exponents, int)`` triples, the exponents counting how often each
    diagonal generator's eigenvalue multiplies the term.  Normal ordering
    is unique (PBW), so one entry per pair serves every parameter
    assignment.  A missing entry is filled on lookup, with every entry it
    needs, by the commutation recursion: with f the leading factor of the
    normal word of ``mono`` and m' the rest,

        x f m' = f (x m') + [x, f] m'.

    It stops at a creation generator x with pos[x] >= pos[f], whose word
    is already normal, and at the empty word, where an annihilator gives 0,
    a diagonal generator its eigenvalue and a creation generator its
    factor.  The recursion runs on an explicit work stack, so a word of any
    length fills without nesting calls; only the bracket table enters.
    """

    def __init__(self, spec):
        super().__init__()
        self.pos = pos = normal_position(spec)
        self.brk = _structure(spec)
        table = weight_table(spec)
        self.weights = tuple(table.values())
        self.zero = zero = (0,) * len(table)
        self.unit = {g: _bump(zero, k, 1) for k, g in enumerate(table)}
        fam = _family(spec)
        self.slot = fam["slot"]
        self.slots = slots = tuple(fam["slot"])
        self.order = tuple(sorted(range(len(slots)), key=lambda s: -pos[slots[s]]))
        self.shape = fam["shape"]

    def __missing__(self, key):
        pos, zero, slots, shape = self.pos, self.zero, self.slots, self.shape
        stack = [key]
        while stack:
            x, m = stack[-1]
            if (x, m) in self:
                stack.pop()
                continue
            expo = (m[0],) + m[1] + m[2]
            lead = next((s for s in self.order if expo[s]), None)
            rank = pos[x]
            if rank >= 2 and (lead is None or rank >= pos[slots[lead]]):
                out = list(expo)
                out[self.slot[x]] += 1
                self[x, m] = ((_monomial(shape, out), zero, 1),)
                continue
            if lead is None:
                self[x, m] = ((m, self.unit[x], 1),) if rank == 1 else ()
                continue
            out = list(expo)
            out[lead] -= 1
            rest, f = _monomial(shape, out), slots[lead]
            brk = self.brk[x, f]
            # the entries this one reads: x and each [x, f] term on m',
            # then f on each monomial of x m'
            missing = [(g, rest) for g in (x,) + tuple(g for g, _ in brk)
                       if (g, rest) not in self]
            if not missing:
                missing = [(f, n) for n, _, _ in self[x, rest] if (f, n) not in self]
            if missing:
                stack += missing
                continue
            acc = {}
            for n, e, c in self[x, rest]:
                for n2, e2, c2 in self[f, n]:
                    sub = (n2, e2 if e is zero else e if e2 is zero else tuple(map(add, e, e2)))
                    acc[sub] = acc.get(sub, 0) + c * c2
            for g, k in brk:
                for n, e, c in self[g, rest]:
                    acc[n, e] = acc.get((n, e), 0) + k * c
            self[x, m] = tuple((n, e, c) for (n, e), c in acc.items() if c)
        return self[key]


@lru_cache(maxsize=None)
def _images(spec):
    """The ``_Images`` of ``spec``, one per family for the process."""
    return _Images(spec)


def _eigen_product(weights, expo, pvals):
    """The product of the diagonal eigenvalues counted by ``expo``, built
    with ``*``."""
    out = None
    for (sym, sign), k in zip(weights, expo):
        if k:
            value = pvals[sym] * sign
            for _ in range(k):
                out = value if out is None else out * value
    return out


def _accumulate(out, pairs, coef):
    """Add the (monomial, int | Scalar) ``pairs`` times the Scalar ``coef``
    into the raw map ``out``; a unit ``coef`` multiplies nothing, and an int
    then becomes a Scalar directly."""
    unit = coef.is_one()
    for m, c in pairs:
        if not unit:
            c = coef * c
        elif type(c) is int:
            c = Scalar.const(c)
        prev = out.get(m)
        out[m] = c if prev is None else prev + c


def act_generic(spec, x, v, params=None):
    """Action of generator ``x`` on vector ``v`` by normal ordering.

    Independent of every closed-form action: it reads only the family's
    integer structure-constant table, ``algebra._structure``.  The
    image of ``x`` on each basis monomial comes from ``_images``, cached per
    family and free of parameters, and is instantiated here: each term's
    diagonal exponents become a product of eigenvalues, built once per call
    and exponent tuple, and the input coefficient multiplies each term once.
    """
    pvals = resolve_params(spec, params)
    images = _images(spec)
    if type(x) is not Gen or x not in images.pos:
        raise UnknownGenerator("%s is not a generator of %r" % (x, spec))
    zero, weights = images.zero, images.weights
    n_a, n_b = images.shape
    products = {}

    def instantiated(image):
        for n, e, c in image:
            if e is not zero:
                value = products.get(e)
                if value is None:
                    value = products[e] = _eigen_product(weights, e, pvals)
                c = value * c
            yield n, c

    out = {}
    for mono, coef in v.terms.items():
        if len(mono.a) != n_a or len(mono.b) != n_b:
            check_monomial(spec, mono)
        _accumulate(out, instantiated(images[x, mono]), coef)
    return ModuleVector.of_raw(out)


def act_word(spec, gens, v, params=None):
    """Apply a sequence of generators, rightmost factor first."""
    for gen in reversed(list(gens)):
        v = act_generic(spec, gen, v, params=params)
    return v


# --- closed-form action over the creation strings ------------------------

def _pairing(spec, sign, m):
    """The paper's I_m in [P(m), P(2l-m)] = I_m Z for P(m) on the string of
    ``sign``: (-1)^(m+l+1/2) (2l-m)! m! for mass, (-1)^m (2l-m)! m! for
    exotic, negated on its - string."""
    two_ell = spec.twoEll
    power = m + (two_ell + 1) // 2 if spec.ext == "mass" else m + (sign == "-")
    return (-1) ** power * factorial(two_ell - m) * factorial(m)


# one extended family's creation strings, built by _strings
_Strings = namedtuple("_Strings", "gens shape two_ell strings slot weights central")


@lru_cache(maxsize=None)
def _strings(spec):
    """The closed-form description of ``spec``, read from its module layout.

    ``strings`` maps the monomial slot of each string (1 for a, 2 for b) to
    ``(sign, top, partner, pairing)``: P(0)..P(top) of that sign create, a
    P(n) with n > top pairs with the factors of the ``partner`` slot (its
    own for d = 1, the other string for d = 2), and ``pairing[n]`` is I_n
    times the sign of the eigenvalue of the central generator.  ``weights``
    is the weight table, with C given the D entry its action reads.
    """
    _, a_gens, b_gens = creation_data(spec)
    blocks = (a_gens, b_gens) if b_gens else (a_gens,)
    table = weight_table(spec)
    central, central_sign = table[central_element(spec)]
    strings = {s: (gens[0].sign, len(gens) - 1, len(blocks) + 1 - s,
                   tuple(central_sign * _pairing(spec, gens[0].sign, m)
                         for m in range(spec.twoEll + 1)))
               for s, gens in enumerate(blocks, 1)}
    return _Strings(frozenset(enumerate_generators(spec)), _family(spec)["shape"],
                    spec.twoEll, strings, {st[0]: s for s, st in strings.items()},
                    {**table, Gen("C"): table[_D]}, central)


def _moved(m, h, *steps):
    """``m`` with h replaced and each (slot, index, step) applied; the
    callers never take an exponent below zero."""
    out = [h, m[1], m[2]]
    for s, i, step in steps:
        out[s] = _bump(out[s], i, step)
    return _mono(out)


def _closed_form(fam, x, m, pvals):
    """The image of one basis monomial H^k prod P(n)^e |0> under ``x``, as
    (monomial, int | Scalar) pairs."""
    k, two_ell = m[0], fam.two_ell
    if x.tag == "H":
        yield _moved(m, k + 1), 1
    elif x.tag == "P":  # P(n) H^k = sum_i i! C(k,i) C(n,i) H^(k-i) P(n-i)
        s = fam.slot[x.sign]
        _, top, p, pairing = fam.strings[s]
        for i in range(min(k, x.n) + 1):
            c, n = factorial(i) * comb(k, i) * comb(x.n, i), x.n - i
            if n <= top:  # a creation factor of the string
                yield _moved(m, k - i, (s, n, 1)), c
            elif m[p][two_ell - n]:  # an annihilator meets the partner factors
                yield (_moved(m, k - i, (p, two_ell - n, -1)),
                       pvals[fam.central] * (c * m[p][two_ell - n] * pairing[n]))
    else:  # C, or a diagonal generator: D, J or the central one
        sym, sign = fam.weights[x]
        shift = 0
        if x.tag in ("C", "D"):
            shift = 2 * k + sum((two_ell - 2 * n) * e for s in fam.strings
                                for n, e in enumerate(m[s]))
        elif x.tag == "J":
            shift = sum(sum(m[s]) * (1 if sg == "+" else -1)
                        for s, (sg, *_) in fam.strings.items())
        eigen = pvals[sym] * sign + shift
        if x.tag != "C":
            yield m, eigen
            return
        if k:
            yield _moved(m, k - 1), (eigen - (k + 1)) * k
        for s, (_, top, p, pairing) in fam.strings.items():
            e = m[s]
            for n in range(top):  # [C, P(n)] = (2l - n) P(n+1) inside the string
                if e[n]:
                    yield _moved(m, k, (s, n, -1), (s, n + 1, 1)), (two_ell - n) * e[n]
            # P(top) turns into an annihilator that meets the partner factors
            # P(2l-top-1): each unordered pair once, both orders agree
            j = two_ell - top - 1
            pairs = comb(e[top], 2) if p == s else e[top] * m[p][j]
            if p >= s and pairs:
                yield (_moved(m, k, (s, top, -1), (p, j, -1)),
                       pvals[fam.central] * ((two_ell - top) * pairs * pairing[top + 1]))


def act_closed_form(spec, x, v, params=None):
    """Action of ``x`` on ``v`` by the closed-form rules over the creation
    strings, for every extended family (the centerless family raises
    UnsupportedFamily; use ``act_generic`` there).  It reads the module
    layout and the weight symbols, never the bracket rules, so it stays an
    independent check of ``act_generic``."""
    if spec.ext == "none":
        raise UnsupportedFamily("closed-form actions cover the extended families only")
    fam = _strings(spec)
    if type(x) is not Gen or x not in fam.gens:
        raise UnknownGenerator("%s is not a generator of %r" % (x, spec))
    pvals = resolve_params(spec, params)
    out = {}
    for mono, coef in v.terms.items():
        if (len(mono.a), len(mono.b)) != fam.shape:
            check_monomial(spec, mono)
        _accumulate(out, _closed_form(fam, x, mono, pvals), coef)
    return ModuleVector.of_raw(out)


# --- basis enumeration -----------------------------------------------------

def _compositions(weights, total):
    """Exponent tuples e with sum(w * e) == total, in ascending order, for
    a non-empty sequence of positive weights."""
    w = weights[0]
    if len(weights) == 1:
        if total % w == 0:
            yield (total // w,)
        return
    for e in range(total // w + 1):
        for rest in _compositions(weights[1:], total - e * w):
            yield (e,) + rest


def _as_int(scalar, what):
    if not scalar.is_rational():
        raise ValueError("%s is not a number: %s" % (what, scalar))
    val = scalar.rational_value()
    if val.denominator != 1:
        return None
    return int(val)


@lru_cache(maxsize=None)
def _level_space(spec, level):
    """The basis monomials of a non-negative level, in ascending order, as
    a tuple; one cached selection per family and level."""
    fam = _family(spec)
    return tuple(_monomial(fam["shape"], e) for e in _compositions(fam["level"], level))


@lru_cache(maxsize=None)
def _weight_space(spec, dshift, jshift, only_h0):
    """The basis monomials whose D eigenvalue exceeds the lowest weight's
    by ``dshift`` and, unless ``jshift`` is None, whose J eigenvalue exceeds
    it by ``jshift``; only those with h = 0 when ``only_h0``.  Ascending, as
    a tuple.  No parameter enters, so one selection per family and shifts
    serves every parameter assignment."""
    fam = _family(spec)
    # all non-zero scaling grades share one sign within each family
    free = [s for s, d in enumerate(fam["d"]) if d]
    zero = [s for s, d in enumerate(fam["d"]) if not d]
    assert len(zero) <= 1, "at most one grade-zero creation factor"
    if zero and jshift is None:
        raise InfiniteSelection(
            "the scaling eigenvalue alone leaves a grade-zero factor free"
        )
    if dshift and fam["d"][free[0]] * dshift < 0:
        return ()

    out = []
    for sub in _compositions([abs(fam["d"][s]) for s in free], abs(dshift)):
        expo = [0] * len(fam["d"])
        for s, e in zip(free, sub):
            expo[s] = e
        if zero:  # the grade-zero factor makes up the rotation eigenvalue
            jz = fam["j"][zero[0]]
            need = jshift - _dot(fam["j"], expo)
            e0, rem = divmod(need, jz) if jz else (0, need)
            if rem or e0 < 0:
                continue
            expo[zero[0]] = e0
        elif jshift is not None and _dot(fam["j"], expo) != jshift:
            continue
        if not (only_h0 and expo[0]):
            out.append(_monomial(fam["shape"], expo))
    out.sort()
    return tuple(out)


def level_basis(spec, constraint, params=None):
    """Basis monomials selected by a level or a weight constraint.

    ``constraint`` is either a non-negative integer level, or a Weight /
    dict keyed by diagonal generators (a Gen, or a name that parse_gen
    reads, as ``str(gen)`` prints it).  A weight constraint must pin the
    scaling eigenvalue; when the family has a grade-zero creation factor,
    the rotation eigenvalue must be pinned too, otherwise the selection is
    infinite (InfiniteSelection).
    The parameters enter only through the shifts of the constraint over
    the lowest weight; the enumeration itself is cached per family
    (``_level_space``, ``_weight_space``).
    Returns a fresh sorted list (possibly empty).
    """
    pvals = None if isinstance(constraint, int) else resolve_params(spec, params)
    return _selection(spec, constraint, pvals)


def _selection(spec, constraint, pvals):
    """level_basis from parameters already resolved by ``resolve_params``;
    an integer level reads none, so ``pvals`` may then be None."""
    if isinstance(constraint, int):
        return list(_level_space(spec, constraint)) if constraint >= 0 else []

    if isinstance(constraint, Weight):
        eigen = dict(constraint.eigen)
    else:
        eigen = {}
        for key, val in dict(constraint).items():
            gen = key if isinstance(key, Gen) else parse_gen(key)
            if gen in eigen:
                raise ValueError("%s is pinned twice in the weight constraint" % (gen,))
            eigen[gen] = val if isinstance(val, Scalar) else Scalar.const(val)

    base = lowest_weight(spec, pvals)
    # a constraint may be written in the parameters it was given values for,
    # and so may another parameter's value: both sides take the fixed values,
    # substituted into the entries that are not numbers yet
    fixed = {name: val.rational_value() for name, val in pvals.items()
             if val.is_rational()}
    if fixed:
        for weight in (eigen, base):
            for gen, val in weight.items():
                if not val.is_rational():
                    weight[gen] = val.substitute(fixed)
    for gen in eigen:
        if gen not in base:
            raise ValueError("%s is not a diagonal generator of %r" % (gen, spec))
    if _D not in eigen:
        raise ValueError("a weight constraint must pin the D eigenvalue")
    dshift = _as_int(eigen[_D] - base[_D], "scaling shift")
    if dshift is None:
        return []
    jshift = None
    if _J in eigen:
        jshift = _as_int(eigen[_J] - base[_J], "rotation shift")
        if jshift is None:
            return []
    # a pinned central eigenvalue is monomial-independent: match or empty;
    # the centerless g0 generator is diagonal only at h = 0
    for gen, val in eigen.items():
        if gen.tag not in ("D", "J") and val != base[gen]:
            return []
    return list(_weight_space(spec, dshift, jshift, _P1 in eigen))
