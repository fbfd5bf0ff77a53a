"""Generator families, structure constants, and the triangular-like split.

A family is labelled by (d, twoEll, ext).  Supported combinations:

  d=1, twoEll odd,  ext=mass    central element M
  d=2, twoEll odd,  ext=mass    planar basis P(n)+/P(n)-, rotation J, M
  d=2, twoEll even, ext=exotic  planar basis, rotation J, central Theta
  d=1, twoEll=2,    ext=none    the six-dimensional centerless case

The bracket is generated from the closed coefficient rules rather than
per-family tables; jacobi_check audits the result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .scalars import _Sparse, central_constant


class InvalidSpec(ValueError):
    """Raised for an unsupported (d, twoEll, ext) combination."""


class UnknownGenerator(KeyError):
    """Raised when a generator does not belong to the family."""


@dataclass(frozen=True)
class AlgebraSpec:
    d: int
    twoEll: int
    ext: str

    def __post_init__(self):
        if self.d not in (1, 2):
            raise InvalidSpec("d must be 1 or 2, got %r" % (self.d,))
        if not isinstance(self.twoEll, int) or self.twoEll < 1:
            raise InvalidSpec("twoEll must be a positive integer")
        if self.ext == "mass":
            if self.twoEll % 2 == 0:
                raise InvalidSpec("mass extension needs twoEll odd")
        elif self.ext == "exotic":
            if self.d != 2 or self.twoEll % 2 == 1:
                raise InvalidSpec("exotic extension needs d=2 and twoEll even")
        elif self.ext == "none":
            if (self.d, self.twoEll) != (1, 2):
                raise InvalidSpec("centerless support is limited to d=1, twoEll=2")
        else:
            raise InvalidSpec("ext must be none, mass, or exotic")


@dataclass(frozen=True)
class Gen:
    tag: str
    n: int | None = None
    sign: str = ""

    def __str__(self):
        if self.tag == "P":
            return "P%d%s" % (self.n, self.sign)
        return self.tag

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


@lru_cache(maxsize=None)
def _family(spec):
    """Cached per-family structure: generator sets and ordering data."""
    two_ell = spec.twoEll
    if spec.ext == "none":
        g_minus = [Gen("H"), Gen("P", 0)]
        g_zero = [Gen("D"), Gen("P", 1)]
        g_plus = [Gen("C"), Gen("P", 2)]
        central = None
        top = Gen("C")
        a_gens = (Gen("P", 2),)
        b_gens = ()
        weights = {Gen("D"): ("delta", -1), Gen("P", 1): ("kappa", -1)}
        ladder = [Gen("P", 2), Gen("C")]
    elif spec.d == 1:
        half = (two_ell - 1) // 2  # index of P(ell-1/2)
        g_plus = [Gen("H")] + [Gen("P", n) for n in range(half + 1)]
        g_zero = [Gen("D"), Gen("M")]
        g_minus = [Gen("C")] + [Gen("P", n) for n in range(half + 1, two_ell + 1)]
        central = Gen("M")
        top = Gen("H")
        a_gens = tuple(Gen("P", n) for n in range(half + 1))
        b_gens = ()
        weights = {Gen("D"): ("delta", -1), Gen("M"): ("mu", -1)}
        ladder = list(a_gens) + [top]
    elif spec.ext == "mass":
        half = (two_ell - 1) // 2
        g_plus = [Gen("H")]
        for n in range(half + 1):
            g_plus += [Gen("P", n, "+"), Gen("P", n, "-")]
        g_zero = [Gen("D"), Gen("J"), Gen("M")]
        g_minus = [Gen("C")]
        for n in range(half + 1, two_ell + 1):
            g_minus += [Gen("P", n, "+"), Gen("P", n, "-")]
        central = Gen("M")
        top = Gen("H")
        a_gens = tuple(Gen("P", n, "+") for n in range(half + 1))
        b_gens = tuple(Gen("P", n, "-") for n in range(half + 1))
        weights = {
            Gen("D"): ("delta", -1),
            Gen("J"): ("r", -1),
            Gen("M"): ("mu", -1),
        }
        ladder = []
        for n in range(half, -1, -1):
            ladder += [Gen("P", n, "-"), Gen("P", n, "+")]
        ladder.append(top)
    else:  # exotic
        ell = two_ell // 2
        g_plus = [Gen("H"), Gen("P", ell, "+")]
        for n in range(ell):
            g_plus += [Gen("P", n, "+"), Gen("P", n, "-")]
        g_zero = [Gen("D"), Gen("J"), Gen("Theta")]
        g_minus = [Gen("C"), Gen("P", ell, "-")]
        for n in range(ell + 1, two_ell + 1):
            g_minus += [Gen("P", n, "+"), Gen("P", n, "-")]
        central = Gen("Theta")
        top = Gen("H")
        a_gens = tuple(Gen("P", n, "+") for n in range(ell + 1))
        b_gens = tuple(Gen("P", n, "-") for n in range(ell))
        weights = {
            Gen("D"): ("delta", -1),
            Gen("J"): ("r", -1),
            Gen("Theta"): ("theta", 1),
        }
        ladder = []
        for n in range(ell - 1, -1, -1):
            ladder += [Gen("P", n, "-"), Gen("P", n, "+")]
        ladder += [Gen("P", ell, "+"), top]
    # normal-order position: annihilators and g0 smallest, then the written
    # basis factors from rightmost up to the top; normal words read
    # position-descending left to right
    position = {}
    for gen in g_minus:
        position[gen] = 0
    for gen in g_zero:
        position[gen] = 1
    for i, gen in enumerate(ladder):
        position[gen] = 2 + i
    return {
        "g_plus": tuple(g_plus),
        "g_zero": tuple(g_zero),
        "g_minus": tuple(g_minus),
        "central": central,
        "top": top,
        "a_gens": a_gens,
        "b_gens": b_gens,
        "weights": weights,
        "position": position,
        "all": tuple(g_minus) + tuple(g_zero) + tuple(g_plus),
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
    if gen not in _family(spec)["position"]:
        raise UnknownGenerator("%s is not a generator of %r" % (gen, spec))


def bracket(spec, x, y):
    """[x, y] as a GenCombo, from the family's coefficient rules."""
    _check_member(spec, x)
    _check_member(spec, y)
    combo = _bracket_raw(spec, x, y)
    if combo is None:
        swapped = _bracket_raw(spec, y, x)
        assert swapped is not None, "no bracket rule for (%s, %s)" % (x, y)
        combo = -swapped
    return combo


def _bracket_raw(spec, x, y):
    """Bracket for the ordered rules; None means try the swapped order."""
    two_ell = spec.twoEll
    central = central_element(spec)
    if x == y:
        return GenCombo.zero()
    if central is not None and central in (x, y):
        return GenCombo.zero()
    tags = (x.tag, y.tag)
    if tags == ("D", "H"):
        return GenCombo.of(y, 2)
    if tags == ("D", "C"):
        return GenCombo.of(y, -2)
    if tags == ("C", "H"):
        return GenCombo.of(Gen("D"))
    if "J" in tags and tags[0] in "HDCJ" and tags[1] in "HDCJ":
        return GenCombo.zero()
    if tags == ("H", "P"):
        if y.n == 0:
            return GenCombo.zero()
        return GenCombo.of(Gen("P", y.n - 1, y.sign), -y.n)
    if tags == ("D", "P"):
        return GenCombo.of(y, two_ell - 2 * y.n)
    if tags == ("C", "P"):
        if y.n == two_ell:
            return GenCombo.zero()
        return GenCombo.of(Gen("P", y.n + 1, y.sign), two_ell - y.n)
    if tags == ("J", "P"):
        coef = 1 if y.sign == "+" else -1
        return GenCombo.of(y, coef)
    if tags == ("P", "P"):
        if spec.ext == "none" or x.n + y.n != two_ell:
            return GenCombo.zero()
        if spec.d == 1:
            return GenCombo.of(central, central_constant(spec, x.n))
        if x.sign == y.sign:
            return GenCombo.zero()
        coef = central_constant(spec, x.n)
        if spec.ext == "exotic" and x.sign == "-":
            coef = -coef
        return GenCombo.of(central, coef)
    return None


def jacobi_check(spec, bracket_fn=None):
    """Audit [[X,Y],Z] + [[Y,Z],X] + [[Z,X],Y] = 0 over all triples.

    Returns the list of failures as (X, Y, Z, residual GenCombo); an empty
    list means the structure constants close.  bracket_fn lets tests inject
    a corrupted table.
    """
    brk = bracket_fn if bracket_fn is not None else (lambda a, b: bracket(spec, a, b))

    def brk_combo(combo, z):
        out = GenCombo.zero()
        for gen, coef in combo.items():
            out = out + brk(gen, z).scaled(coef)
        return out

    gens = enumerate_generators(spec)
    failures = []
    for i, x in enumerate(gens):
        for j in range(i + 1, len(gens)):
            y = gens[j]
            for k in range(j + 1, len(gens)):
                z = gens[k]
                residual = (
                    brk_combo(brk(x, y), z)
                    + brk_combo(brk(y, z), x)
                    + brk_combo(brk(z, x), y)
                )
                if residual:
                    failures.append((x, y, z, residual))
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
