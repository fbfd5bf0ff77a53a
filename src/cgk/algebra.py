"""Generator families, structure constants, and the triangular-like split.

A family is labelled by (d, twoEll, ext).  Supported combinations:

  d=1, twoEll odd,  ext=mass    central element M
  d=2, twoEll odd,  ext=mass    planar basis P(n)+/P(n)-, rotation J, M
  d=2, twoEll even, ext=exotic  planar basis, rotation J, central Theta
  d=1, twoEll=2,    ext=none    the six-dimensional centerless case

The bracket follows from closed coefficient rules, tabulated once per
family as integers in ``_structure``, the one table that every layer reads
(the module images of ``verma``, the realizations of ``reps``); jacobi_check
audits it.

Every family's layout follows from one grade, the ad D eigenvalue
[D, g] = grade * g: 2 for H, -2 for C, 2l - 2n for P(n), 0 otherwise.  A
generator creates when its grade is positive (negative on the centerless
family, where C creates) and annihilates when it has the other sign; a
grade-zero P(n)+ creates and P(n)- annihilates, as the J weight splits
them.  g0 is D, J, the central element, then any grade-zero P left.  Each
wing lists its sl(2) generator first, then its grade-zero P's, then the
other P's by index.  The creation P's, split by sign, are the a and b
strings; the normal order is the creation wing reversed, so the sl(2)
generator, the top factor, is highest.  The top factor, the a string and
the b string, in that order, are the slots of the basis and of the chart.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .scalars import Scalar, _Sparse, central_constant


class InvalidSpec(ValueError):
    """Raised for an unsupported (d, twoEll, ext) combination."""


class UnknownGenerator(KeyError):
    """Raised when a generator does not belong to the family."""


class AlgebraSpec(tuple):
    """One family, the tuple ``(d, twoEll, ext)`` with its fields readable by
    name.  As a tuple it hashes and compares at C level, which the lookups
    of every per-family cache keyed by it rely on."""

    __slots__ = ()

    def __new__(cls, d, twoEll, ext):
        # bool is an int subclass and 1.0 == 1, so only an exact int is taken
        if type(d) is not int or d not in (1, 2):
            raise InvalidSpec("d must be 1 or 2, got %r" % (d,))
        if type(twoEll) is not int or twoEll < 1:
            raise InvalidSpec("twoEll must be a positive integer")
        if ext == "mass":
            if twoEll % 2 == 0:
                raise InvalidSpec("mass extension needs twoEll odd")
        elif ext == "exotic":
            if d != 2 or twoEll % 2 == 1:
                raise InvalidSpec("exotic extension needs d=2 and twoEll even")
        elif ext == "none":
            if (d, twoEll) != (1, 2):
                raise InvalidSpec("centerless support is limited to d=1, twoEll=2")
        else:
            raise InvalidSpec("ext must be none, mass, or exotic")
        return tuple.__new__(cls, (d, twoEll, ext))

    d = property(itemgetter(0))
    twoEll = property(itemgetter(1))
    ext = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return "AlgebraSpec(d=%r, twoEll=%r, ext=%r)" % tuple(self)


class Gen(tuple):
    """One generator, the tuple ``(tag, n, sign)``: the tag names it, ``n``
    is the index of a P and ``sign`` the string of a planar P.  As a tuple
    it hashes and compares at C level and equals the plain tuple of its
    fields, but the bracket and both module actions take only a Gen
    (``parse_gen`` makes one from a name) and raise UnknownGenerator for
    anything else, a plain tuple included.
    """

    __slots__ = ()

    def __new__(cls, tag, n=None, sign=""):
        return tuple.__new__(cls, (tag, n, sign))

    tag = property(itemgetter(0))
    n = property(itemgetter(1))
    sign = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __str__(self):
        tag, n, sign = self
        return "P%d%s" % (n, sign) if tag == "P" else tag

    __repr__ = __str__


_GEN_RE = re.compile(r"^(?:(H|D|C|J|M|Theta)|P(\d+)([+-]?))$")


def parse_gen(text):
    """Parse a generator name such as 'D', 'Theta', 'P1+'."""
    match = _GEN_RE.match(text.strip())
    if not match:
        raise UnknownGenerator("cannot parse generator %r" % (text,))
    if match.group(1):
        return Gen(match.group(1))
    return Gen("P", int(match.group(2)), match.group(3))


class GenCombo(_Sparse):
    """Finite linear combination of generators with Scalar coefficients;
    ``items()`` lists the generators by name."""

    __slots__ = ()
    _order = staticmethod(lambda kv: str(kv[0]))

    def __init__(self, terms=None):
        self.terms = self._coerced(terms)


# the eigenvalue (symbol, sign) of each g0 generator on the lowest-weight
# vector, by tag; P is the centerless family's grade-zero P1
_WEIGHTS = {"D": ("delta", -1), "J": ("r", -1), "M": ("mu", -1),
            "Theta": ("theta", 1), "P": ("kappa", -1)}
_CENTRAL = {"mass": "M", "exotic": "Theta"}
_SL2_GRADE = {"H": 2, "C": -2}
_ROTATION = {"+": 1, "-": -1, "": 0}


def _grade(spec, g):
    """The scaling grade of g: [D, g] = grade * g."""
    if g.tag == "P":
        return spec.twoEll - 2 * g.n
    return _SL2_GRADE.get(g.tag, 0)


def _rotation(g):
    """The rotation grade of g: [J, g] = rotation * g."""
    return _ROTATION[g.sign]


@lru_cache(maxsize=None)
def _family(spec):
    """Cached per-family structure, all read from the scaling grade (see the
    module docstring): the split, the creation strings, the normal order and
    the basis layout.  ``slot`` maps each basis factor to its slot, ``shape``
    is (len a, len b), and ``d``, ``j`` and ``level`` hold per slot the D
    grade, the J grade and the level weight: |d|, or 1 where d = 0 or on
    the centerless family, so each level is finite-dimensional."""
    central = Gen(_CENTRAL[spec.ext]) if spec.ext in _CENTRAL else None
    gens = [Gen("H"), Gen("C"), Gen("D")] + [Gen("J")] * (spec.d == 2)
    gens += [central] * (central is not None)
    signs = ("+", "-") if spec.d == 2 else ("",)
    ps = [Gen("P", n, s) for n in range(spec.twoEll + 1) for s in signs]
    ps.sort(key=lambda g: (_grade(spec, g) != 0, g.n))
    orientation = -1 if spec.ext == "none" else 1  # the sign of a creation grade
    wings = {1: [], 0: [], -1: []}
    for g in gens + ps:
        grade = _grade(spec, g)
        if grade:
            wings[orientation if grade > 0 else -orientation].append(g)
        else:
            wings[_rotation(g)].append(g)
    g_plus, g_zero, g_minus = wings[1], wings[0], wings[-1]
    creation_ps = sorted((g for g in g_plus if g.tag == "P"), key=lambda g: g.n)
    # normal-order position: annihilators and g0 smallest, then the creation
    # wing reversed, so that its sl(2) generator, the top factor, is highest;
    # normal words read position-descending left to right
    position = dict.fromkeys(g_minus, 0)
    position.update(dict.fromkeys(g_zero, 1))
    position.update((g, 2 + i) for i, g in enumerate(reversed(g_plus)))
    a_gens = tuple(g for g in creation_ps if g.sign != "-")
    b_gens = tuple(g for g in creation_ps if g.sign == "-")
    factors = (g_plus[0],) + a_gens + b_gens
    d = tuple(_grade(spec, g) for g in factors)
    return {
        "g_plus": tuple(g_plus),
        "g_zero": tuple(g_zero),
        "g_minus": tuple(g_minus),
        "central": central,
        "top": g_plus[0],
        "a_gens": a_gens,
        "b_gens": b_gens,
        "weights": {g: _WEIGHTS[g.tag] for g in g_zero},
        "position": position,
        "all": tuple(g_minus + g_zero + g_plus),
        "slot": {g: s for s, g in enumerate(factors)},
        "shape": (len(a_gens), len(b_gens)),
        "d": d,
        "j": tuple(map(_rotation, factors)),
        "level": tuple(abs(dg) if dg and spec.ext != "none" else 1 for dg in d),
    }


def enumerate_generators(spec):
    """All generators, annihilator side first, then g0, then creation side."""
    return list(_family(spec)["all"])


def decomposition(spec):
    """The triangular-like split (gPlus, gZero, gMinus)."""
    fam = _family(spec)
    return list(fam["g_plus"]), list(fam["g_zero"]), list(fam["g_minus"])


def creation_data(spec):
    """(top, a_gens, b_gens): the written order of basis factors."""
    fam = _family(spec)
    return fam["top"], fam["a_gens"], fam["b_gens"]


def normal_position(spec):
    """Map Gen -> position; normal words are position-descending."""
    return _family(spec)["position"]


def weight_table(spec):
    """Map from g0 generator to (symbol name, sign) of its eigenvalue."""
    return _family(spec)["weights"]


def central_element(spec):
    return _family(spec)["central"]


def _check_member(spec, gen):
    if type(gen) is not Gen or gen not in _family(spec)["position"]:
        raise UnknownGenerator("%s is not a generator of %r" % (gen, spec))


def bracket(spec, x, y):
    """[x, y] as a GenCombo, read from the family's integer table."""
    _check_member(spec, x)
    _check_member(spec, y)
    return GenCombo.of_raw({g: Scalar.const(c) for g, c in _structure(spec)[x, y]})


def _bracket_rule(spec, x, y):
    """[x, y] as ((Gen, int), ...) by the ordered coefficient rules; None
    means the rule is written for (y, x)."""
    two_ell = spec.twoEll
    central = central_element(spec)
    if x == y or (central is not None and central in (x, y)):
        return ()
    if x.tag == "D":
        return ((y, _grade(spec, y)),)
    if x.tag == "J":
        return ((y, _rotation(y)),)
    tags = (x.tag, y.tag)
    if tags == ("C", "H"):
        return ((Gen("D"), 1),)
    if tags == ("H", "P"):
        return ((Gen("P", y.n - 1, y.sign), -y.n),) if y.n else ()
    if tags == ("C", "P"):
        return ((Gen("P", y.n + 1, y.sign), two_ell - y.n),) if y.n != two_ell else ()
    if tags == ("P", "P"):
        # the planar strings pair with each other, never with themselves
        if spec.ext == "none" or x.n + y.n != two_ell or (spec.d == 2 and x.sign == y.sign):
            return ()
        sign = -1 if spec.ext == "exotic" and x.sign == "-" else 1
        return ((central, sign * central_constant(spec, x.n)),)
    return None


@lru_cache(maxsize=None)
def _structure(spec):
    """The family's bracket as integers: ``table[x, y]`` is the tuple of
    nonzero ``(Gen, int)`` terms of [x, y], for every ordered pair, and the
    negation of ``table[y, x]``.  The one dict is shared by every reader,
    which never mutates it."""
    gens = _family(spec)["all"]
    table = {}
    for i, x in enumerate(gens):
        for y in gens[i:]:
            terms = _bracket_rule(spec, x, y)
            if terms is None:
                terms = [(g, -c) for g, c in _bracket_rule(spec, y, x)]
            table[x, y] = terms = tuple((g, c) for g, c in terms if c)
            table[y, x] = tuple((g, -c) for g, c in terms)
    return table


def _closure(edges, start):
    """One witness for each generator the single-term brackets in edges
    reach from start, in the order reached."""
    reached, queue, witnesses = set(start), list(start), []
    for z in queue:
        for other, witness in edges[z]:
            if other in reached and witness[0] not in reached:
                reached.add(witness[0])
                queue.append(witness[0])
                witnesses.append(witness)
    return witnesses


def _generating(spec, gens):
    """(kept, witnesses) for ``gens``, generators spanning a subalgebra.

    kept is a greedy drop in the order of gens: each generator is dropped
    when brackets of the rest still reach every generator.  Each witness
    (g, x, y, c) records [x, y] == c * g, c an int of ``_structure``, with
    g in gens and x and y kept or derived earlier.  Only a bracket with a
    single term inside gens is a witness, so each generator not kept is one
    bracket of two earlier ones.
    """
    edges = {g: [] for g in gens}
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            terms = _structure(spec)[x, y]
            if len(terms) == 1 and terms[0][0] in edges:
                (g, c), = terms
                edges[x].append((y, (g, x, y, c)))
                edges[y].append((x, (g, x, y, c)))
    kept = gens
    for g in gens:
        trial = tuple(k for k in kept if k != g)
        if len(trial) + len(_closure(edges, trial)) == len(gens):
            kept = trial
    return kept, tuple(_closure(edges, kept))


@lru_cache(maxsize=None)
def generating_set(spec):
    """(kept, witnesses): generators whose brackets span the algebra, as
    ``_generating`` picks them in ``enumerate_generators`` order, so the
    annihilators and g0 go first whenever brackets of the rest reach them.
    """
    return _generating(spec, _family(spec)["all"])


@lru_cache(maxsize=None)
def annihilator_generators(spec):
    """(kept, witnesses): annihilators whose brackets span the annihilator
    wing ``decomposition(spec)[2]``, as ``_generating`` picks them in that
    order.  The elements that kill a module vector v are closed under the
    bracket, as [x, y] v = x y v - y x v, so v is killed by the whole wing
    once it is killed by the kept annihilators."""
    return _generating(spec, _family(spec)["g_minus"])


def jacobi_check(spec):
    """Audit [[X,Y],Z] + [[Y,Z],X] + [[Z,X],Y] = 0 over all triples.

    Returns the list of failures as (X, Y, Z, residual GenCombo); an empty
    list means the structure constants close.  Each residual is summed in
    ints from ``_structure``; only a failing triple builds a GenCombo.
    """
    table = _structure(spec)
    failures = []
    for x, y, z in combinations(enumerate_generators(spec), 3):
        residual = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for g, s in table[a, b]:
                GenCombo.add_into(residual, table[g, c], s)
        if any(residual.values()):
            failures.append((x, y, z, GenCombo(residual)))
    return failures


def supported_specs(two_ell_max):
    """Every valid spec with twoEll up to the bound (centerless included)."""
    out = []
    for two_ell in range(1, two_ell_max + 1, 2):
        out.append(AlgebraSpec(1, two_ell, "mass"))
        out.append(AlgebraSpec(2, two_ell, "mass"))
    for two_ell in range(2, two_ell_max + 1, 2):
        out.append(AlgebraSpec(2, two_ell, "exotic"))
    if two_ell_max >= 2:
        out.append(AlgebraSpec(1, 2, "none"))
    return out
