"""Singular vectors of the lowest-weight modules.

A singular vector is a non-vacuum module vector that every annihilator
kills and on which the diagonal generators act by scalars.  The elements
that kill a vector are closed under the bracket, so a vector killed by the
kept annihilators of ``algebra.annihilator_generators``, whose brackets
span the wing, is killed by every annihilator: the check tests those first,
and the search stacks their rows only.  Each family has a closed-form
candidate built from a quadratic (or simpler) element raised to a power q,
which is singular exactly when the lowest weight satisfies a linear
condition; an exact linear-algebra search over a fixed weight space
provides the independent route, and ``certify`` turns the caveats of a
search into the loci where its answer changes.
"""

from fractions import Fraction
from math import factorial, isqrt, lcm
from operator import sub

from .algebra import (annihilator_generators, central_element, creation_data, decomposition,
                      weight_table)
from .scalars import (SYMBOLS, ParamPoly, Scalar, _min_expo, _monic, _quotient, _rational, _shift,
                      poly_div_exact)
from .verma import (
    ModuleVector,
    Weight,
    _D,
    _P1,
    _eigen_product,
    _images,
    _selection,
    act_generic,
    act_word,
    d_grade,
    lowest_weight,
    resolve_params,
    vacuum,
    weight_of,
)


class NonPolynomialParameter(ValueError):
    """A parameter value has a denominator in the parameters, which the
    rows of a nullspace search cannot carry."""


class _Record:
    """A record with the dataclass face, without importing ``dataclasses``
    (which costs every command its start-up time): it equals a record of
    its own class with equal fields, and its repr names them in order."""

    __slots__ = ()
    __hash__ = None

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class SingularReport(_Record):
    """Outcome of verifying one candidate singular vector; its verdict is ``not failures``."""

    __slots__ = ("vector", "weight", "failures")

    def __init__(self, vector, weight, failures=None):
        self.vector = vector
        self.weight = weight
        self.failures = [] if failures is None else failures

    @property
    def ok(self):
        return not self.failures

    def __bool__(self):
        return self.ok


class SearchResult(_Record):
    """Nullspace search outcome: vectors plus genericity caveats.

    The system has one block of rows per annihilator (see _search_system).
    It is solved by fraction-free forward elimination on sparse, lazily
    updated rows and back substitution (see _matrix_kernel), in the
    field of its entries: the rationals when every parameter is rational,
    else Scalars.  Each vector is scaled in that field and made of Scalars
    once, at the end.
    ``caveats`` lists the pivots Gauss-Jordan elimination would divide by
    that are not rational, recovered as b / ref from the stored
    fraction-free entry b of a row and the pivot ref it was last updated
    with; the reported dimension is valid wherever none of them vanishes.
    These raw caveats depend on the pivot rule and on which redundant rows
    the system holds, and over-report; ``certify`` gives the canonical
    answer, the loci where the dimension or a vector changes.
    """

    __slots__ = ("vectors", "caveats")

    def __init__(self, vectors, caveats=None):
        self.vectors = vectors
        self.caveats = [] if caveats is None else caveats

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)


def _quadratic_pair(spec):
    """(P(n), P(n')): the last factor of the a string and of its partner
    string (the a string itself when d = 1)."""
    _, a_gens, b_gens = creation_data(spec)
    return a_gens[-1], (b_gens or a_gens)[-1]


def singular_condition(spec, q):
    """Scalar in the weight parameters whose vanishing admits the level-q
    closed-form singular vector: m (delta - q + 1) + (n+1)(n'+1), read off
    the pair (P(n), P(n')) of ``quadratic_element``, with m = 2 when the
    pair is one generator twice (d = 1) and 1 otherwise.  The centerless
    family needs kappa = 0 instead for every q, so the condition is kappa
    itself.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if spec.ext == "none":
        return Scalar.symbol("kappa")
    p, p_partner = _quadratic_pair(spec)
    m = 2 if p == p_partner else 1
    return (Scalar.const(m) * (Scalar.symbol("delta") + Scalar.const(1 - q))
            + Scalar.const((p.n + 1) * (p_partner.n + 1)))


def delta_at_condition(spec, q):
    """The delta value solving singular_condition (None for centerless)."""
    if spec.ext == "none":
        return None
    cond = singular_condition(spec, q)
    # cond is linear in delta: c1 * delta + c0
    one = cond.substitute({"delta": 1})
    zero = cond.substitute({"delta": 0})
    c1 = (one - zero).rational_value()
    c0 = zero.rational_value()
    return Fraction(-c0, c1)


def quadratic_element(spec, params=None):
    """The family's basic singular combination as (words, coefficients).

    Returned as a list of (generator sequence, Scalar) pairs; the module
    element is the sum of the products, leftmost factor acting last.
    Parameters default to symbolic.  Its factors are the top factor of
    ``creation_data`` and the pair (P(n), P(n')) of ``_quadratic_pair``.
    """
    top = creation_data(spec)[0]
    pair = _quadratic_pair(spec)
    if spec.ext == "none":
        return [((pair[0],), Scalar.const(1))]
    alpha = factorial(pair[0].n) * factorial(pair[1].n) * (2 if pair[0] == pair[1] else 1)
    symbol = weight_table(spec)[central_element(spec)][0]
    return [
        ((top,), Scalar.const(alpha) * resolve_params(spec, params)[symbol]),
        (pair, Scalar.const((-1) ** pair[0].n if spec.ext == "exotic" else 1)),
    ]


def singular_closed(spec, q, params=None):
    """The closed-form singular candidate at power q as a ModuleVector.

    The element is the q-th power of the family's basic combination
    applied to the lowest-weight vector; parameters default to symbolic.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    pieces = quadratic_element(spec, params)
    v = vacuum(spec, params)
    for _ in range(q):
        total = ModuleVector.zero()
        for word, coef in pieces:
            total = total + act_word(spec, word, v, params=params).scaled(coef)
        v = total
    return v


def weight_shift(spec, q):
    """D-eigenvalue shift of the level-q singular vector over the lowest
    weight: q times the D-grade shared by every word of quadratic_element."""
    [grade] = {d_grade(spec, word) for word, _ in quadratic_element(spec)}
    return q * grade


def predicted_weight(spec, q, params=None):
    """Diagonal weight the level-q singular vector must carry."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    eigen = lowest_weight(spec, resolve_params(spec, params))
    eigen[_D] += weight_shift(spec, q)
    return Weight(eigen)


def verify_singular(spec, v, params=None, expect_weight=None):
    """Check that ``v`` is singular: annihilated by the lowering side and
    a joint eigenvector of the diagonal side.  Exact, no tolerance.

    Annihilation is checked on the kept annihilators of
    ``algebra.annihilator_generators``: the elements that kill v are
    closed under the bracket, and those brackets span the wing.  If any
    kept image is nonzero, every annihilator is checked and every failing
    one listed, so a failing check reports the same list either way."""
    pvals = resolve_params(spec, params)
    failures = []
    if v.is_zero():
        return SingularReport(v, None, ["candidate vector is zero"])
    kept = annihilator_generators(spec)[0]
    images = {x: act_generic(spec, x, v, params=params) for x in kept}
    if any(not img.is_zero() for img in images.values()):
        for x in decomposition(spec)[2]:
            img = images[x] if x in images else act_generic(spec, x, v, params=params)
            if not img.is_zero():
                failures.append(("annihilator", x, img))
    # joint diagonal eigenvalue, read off the first monomial
    first = v.items()[0][0]
    weight = weight_of(spec, first, params=params)
    for gen in weight.eigen:
        img = act_generic(spec, gen, v, params=params)
        if img != v.scaled(weight[gen]):
            failures.append(("diagonal", gen, img - v.scaled(weight[gen])))
    if expect_weight is not None:
        for gen, val in expect_weight.eigen.items():
            if gen in weight:
                if weight[gen] != val:
                    failures.append(("weight", gen, weight[gen] - val))
            else:
                failures.append(("weight", gen, "not diagonal"))
    return SingularReport(v, weight, failures)


def _divider(ref):
    """x -> x / ref on the entries x that ref divides; None when ref is 1."""
    if type(ref) is int:
        return None if ref == 1 else (lambda x: x // ref)
    if not ref.is_const():
        return lambda x: poly_div_exact(x, ref)
    inv = 1 / ref.const_value()
    return None if inv == 1 else (lambda x: x * inv)


def _pick(mat, refs, steps, col, lo, hi):
    """The pivot in column ``col`` among rows lo..hi-1: (row, Gauss-Jordan
    entry b / ref), the entry None in an int matrix, whose first row with
    an entry wins; None when no row has one.  In a ParamPoly matrix the
    stored entry b with the fewest terms wins, then the one of least total
    degree, the first row winning ties, and only the winner is reduced."""
    best = None
    for r in range(lo, hi):
        b = mat[r].get(col)
        if b is None:
            continue
        if type(b) is int:
            return r, None
        key = (len(b.terms), b.total_degree())
        if best is None or key < best[0]:
            best = key, r
            if key == (1, 0):
                break  # a constant: no entry comes before it
    if best is None:
        return None
    r = best[1]
    return r, Scalar(mat[r][col], steps[refs[r]][0])


def _matrix_kernel(rows, ncols):
    """Exact kernel basis of a matrix by fraction-free elimination.

    Each row of ``rows`` is a dict {col: nonzero entry} ({} for a zero
    row), the entries all Python ints or all ParamPoly, as
    ``_search_system`` builds them; ``rows`` is left unchanged.  The forward
    pass is Bareiss's integer-preserving elimination (Bareiss 1968): with
    pivot p in column c and prev the pivot before it, each row below becomes
    (p*b_j - b_c*p_j) / prev, an exact division, and the rows above are left
    alone.

    The rows are sparse and lazy.  A row is a dict of its nonzero entries
    and carries ``ref``, the pivot that was current when it was last
    updated (1 at the start).  The dense pass multiplies a row whose entry
    in the pivot column is zero by p / prev; these factors telescope, since
    each pivot is the next step's prev, so a row left alone since its last
    update holds its Bareiss value times ref / prev.  Such rows are never
    touched.  A row with a nonzero entry b_c is updated to
    (p*b_j - b_c*p_j) / ref, the Bareiss step applied to its true value
    (stored * prev / ref) and divided by prev: again an exact division, by
    the row's own ref.  A chosen pivot row that is stale is first brought
    up to date, so every pivot is the Bareiss pivot.

    The Gauss-Jordan entry in the place of a stored entry b is b / ref.
    ``_pick`` chooses the pivot row by its stored entry and reduces only
    that one; on an integer matrix every such entry is rational and the
    first nonzero row is the pivot.

    Returns (basis, caveats): caveats lists those Gauss-Jordan pivots that
    are not rational (the kernel is correct wherever they do not vanish;
    denominators that later entries pick up are not listed).  Each basis
    vector is a dict {col: nonzero entry}, 1 at its free column and absent
    at the other free columns, solved by back substitution in the field of
    the matrix: its entries are ints and Fractions for an int matrix and
    Scalars for a ParamPoly matrix.  The reduced row echelon form is
    unique, so these are the Gauss-Jordan kernel vectors, whatever rows
    the pivot rule picks.
    """
    mat = [dict(row) for row in rows]
    nrows = len(mat)
    # (pivot, _divider(pivot)) per step, after the first ref 1: only a
    # ParamPoly matrix reads that one, an int matrix refreshes by real pivots
    steps = [(ParamPoly.const(1), None)]
    refs = [0] * nrows  # index in steps of each row's ref
    caveats = []
    pivots = []  # (row, col)
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        best = _pick(mat, refs, steps, col, row, nrows)
        if best is None:
            continue
        r, entry = best
        mat[row], mat[r] = mat[r], mat[row]
        refs[row], refs[r] = refs[r], refs[row]
        if entry is not None and not entry.is_rational():
            caveats.append(entry)
        prow = mat[row]
        step = len(steps) - 1
        if refs[row] != step:
            # bring the pivot row up to date: stored * prev / ref
            prev, div = steps[-1][0], steps[refs[row]][1]
            for c, b in prow.items():
                prow[c] = div(b * prev) if div else b * prev
        piv = prow[col]
        tail = [(c, -b) for c, b in prow.items() if c != col]  # the -p_j
        for i in range(row + 1, nrows):
            line = mat[i]
            factor = line.pop(col, None)
            if factor is None:
                continue  # left alone: its ref stays
            new = {c: b * piv for c, b in line.items()}
            for c, b in tail:
                new[c] = new[c] + factor * b if c in new else factor * b
            div = steps[refs[i]][1]
            mat[i] = {c: div(b) if div else b for c, b in new.items() if b}
            refs[i] = step + 1
        steps.append((piv, _divider(piv)))
        pivots.append((row, col))
        row += 1
    pivot_cols = {c for _, c in pivots}
    # back substitution in the field of the entries: the rationals for an
    # int matrix, else the Scalars
    rational = len(steps) == 1 or type(steps[1][0]) is int
    one = 1 if rational else Scalar.const(1)
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = {fc: one}
        for prow, pcol in reversed(pivots):
            # b_pcol * x_pcol + sum of b_c * x_c over later columns = 0
            line = mat[prow]
            acc = 0
            for c, b in line.items():
                if c in vec:
                    acc = acc + vec[c] * b
            if acc:
                vec[pcol] = _quotient(-acc, line[pcol]) if rational else -(acc / line[pcol])
        basis.append(vec)
    return basis, caveats


def _ring_values(pvals):
    """(values, one): each resolved parameter as an element of the ring the
    search's rows are built in, and the 1 of that ring.  The ring is the
    rationals (an int or a Fraction per value, one = 1) when every
    parameter is rational, else ParamPoly."""
    if all(v.is_rational() for v in pvals.values()):
        return {name: _rational(v.rational_value()) for name, v in pvals.items()}, 1
    for name, v in pvals.items():
        if not v.den.is_const():
            raise NonPolynomialParameter(
                "the search takes polynomial parameter values, not %s = %s" % (name, v))
    return {name: v.num for name, v in pvals.items()}, ParamPoly.const(1)


def _search_system(spec, constraint, params=None):
    """(basis, rows): the basis of one weight space and the exact linear
    system whose kernel search_singular reads: column j is basis[j], and
    each row is a dict {j: nonzero entry}, one per (operator, monomial of
    its images), each operator's monomials in ascending order.  The
    operators are the kept annihilators of ``annihilator_generators`` in
    wing order, then, on the centerless family, P1 shifted by kappa.  A
    vector those annihilators kill is killed by their brackets, the whole
    wing, so the rows of the other annihilators would add nothing to the
    row space, at any value of the parameters: they could change the raw
    caveats, but not the loci of ``certify``.

    The rows are read straight from the parameter-free images of
    ``verma._images``, in the ring ``_matrix_kernel`` eliminates in.  Each
    distinct exponent tuple becomes its product of eigenvalues once per
    call (``_ring_values``).  When every parameter is rational, each row is
    then multiplied by the lcm of its denominators, so that its entries are
    Python ints; otherwise the entries are ParamPoly.
    """
    pvals = resolve_params(spec, params)
    values, one = _ring_values(pvals)
    basis = _selection(spec, constraint, pvals)
    images = _images(spec)
    weights = images.weights
    products = {images.zero: one}
    # on the centerless family, require P1 v = -kappa v as well (its diagonal
    # part is forced): P1 minus its eigenvalue on the lowest-weight vector
    shifted = _P1 if spec.ext == "none" else None
    gens = annihilator_generators(spec)[0] + (shifted,) * (shifted is not None)

    rows = []
    for g in gens:
        by_target = {}
        for col, m in enumerate(basis):
            terms = images[g, m]
            if g == shifted:
                terms += ((m, images.unit[g], -1),)
            for n, e, c in terms:
                value = products.get(e)
                if value is None:
                    value = products[e] = _eigen_product(weights, e, values)
                row = by_target.setdefault(n, {})
                prev = row.get(col)
                row[col] = value * c if prev is None else prev + value * c
        for t in sorted(by_target):
            row = {col: x for col, x in by_target[t].items() if x}
            if row:
                rows.append(row)
    if type(one) is int:
        for i, row in enumerate(rows):
            scale = lcm(*(x.denominator for x in row.values()))
            rows[i] = {col: x.numerator * (scale // x.denominator) for col, x in row.items()}
    return basis, rows


def search_singular(spec, constraint, params=None):
    """Exact nullspace search for singular vectors in one weight space.

    ``constraint`` selects the space as in level_basis (an integer level
    or a weight constraint).  The actions of the kept annihilators of
    ``algebra.annihilator_generators``, which span the annihilator wing by
    brackets, are stacked into one exact linear system
    (``_search_system``); for the centerless family the
    non-diagonalizable g0 generator contributes rows forcing an eigenvector
    of it as well.  Every parameter value must be a polynomial in the
    parameters (NonPolynomialParameter otherwise).  Returns a SearchResult
    whose vectors are normalized so their lexicographically first monomial
    (least column) has coefficient 1, with the raw caveats; it runs no
    second search (see ``certify``).
    """
    basis, rows = _search_system(spec, constraint, params)
    kernel, caveats = _matrix_kernel(rows, len(basis))
    vectors = []
    for vec in kernel:
        scale = vec[min(vec)]
        if type(scale) is Scalar:
            coefs = {basis[i]: c / scale for i, c in vec.items()}
        else:  # rational entries: one Scalar per quotient
            coefs = {basis[i]: Scalar.const(_quotient(c, scale)) for i, c in vec.items()}
        vectors.append(ModuleVector.of_raw(coefs))
    return SearchResult(vectors, caveats)


_ROOT_BOUND = 10 ** 8  # larger end coefficients leave a factor unsplit


def _divisors(n):
    small = [k for k in range(1, isqrt(n) + 1) if not n % k]
    return set(small) | {n // k for k in small}


def _rational_roots(u):
    """The nonzero rational roots of the univariate polynomial {power:
    coefficient}, by the rational root theorem; none when its end
    coefficients exceed _ROOT_BOUND."""
    lo, hi = min(u), max(u)
    scale = lcm(*(Fraction(c).denominator for c in u.values()))
    first, last = abs(u[lo] * scale), abs(u[hi] * scale)
    if hi - lo == 1:
        return [Fraction(-u[lo], u[hi])]
    if max(first, last) > _ROOT_BOUND:
        return []
    return [v for p in _divisors(int(first)) for q in _divisors(int(last)) for v in
            (Fraction(p, q), Fraction(-p, q)) if not sum(c * v ** k for k, c in u.items())]


def _linear_factors(p):
    """(roots, rest): the roots (slot, v) of the factors c*(s - v) of the
    polynomial p, s the symbol of the slot, found by exact division
    (``poly_div_exact``), its monomial content giving v = 0; and the
    quotient of p by all of them."""
    content = _min_expo(p)
    roots = [(i, 0) for i, k in enumerate(content) if k]
    rest = _shift(p, content, sub)
    while True:
        for i, v in _root_candidates(rest):
            quot = poly_div_exact(rest, ParamPoly.symbol(SYMBOLS[i]) - v)
            if quot is not None:
                roots.append((i, _rational(v)))
                rest = quot
                break
        else:
            return roots, rest


def _root_candidates(p):
    """(slot, v) for each symbol of p and each nonzero rational v at which
    the coefficient of p of fewest terms, as a polynomial in that symbol,
    vanishes: every v with s - v dividing p is among them."""
    for i in range(len(SYMBOLS)):
        if not any(e[i] for e in p.terms):
            continue
        parts = {}
        for e, c in p.terms.items():
            parts.setdefault(e[:i] + (0,) + e[i + 1:], {})[e[i]] = c
        u = min(parts.values(), key=lambda u: (len(u), max(u)))
        if len(u) > 1:
            yield from ((i, v) for v in _rational_roots(u))


def certify(spec, constraint, params, result):
    """The loci where the answer of a search changes: (loci, uncertified).

    ``result`` is ``search_singular(spec, constraint, params)``.  Its raw
    caveats depend on the pivot rule and on which redundant rows the
    system holds; these loci do not.  The numerator and denominator of each
    caveat, and the denominator of each coefficient of its vectors, split
    into their monomial content and factors c*(s - v) with rational v
    (``_linear_factors``).  At each such s = v the search runs again, with
    s = v substituted into the parameters and into a weight constraint,
    and the locus is kept, with the dimension found there, when (a) that
    dimension differs, or (b) a coefficient of a vector of ``result`` has a
    denominator that vanishes at s = v.  (c) The search at each locus is
    split and searched again in turn, and an intersection so found is kept
    when its dimension differs from that of each locus it lies in with one
    condition less.

    Every valid elimination has the same pivot minors: the product of the
    first k Gauss-Jordan pivots is, up to sign, a k x k minor of the
    matrix, so where the rank drops some pivot vanishes, whatever the
    pivot rule (Sit 1992 treats such parametric linear systems).  So a
    hyperplane s = v on which the dimension changes divides a caveat of
    any elimination, and the rule keeps it.  It sees hyperplanes s = v,
    and loci of higher codimension only through rule (c), which finds one
    in every elimination when every factor on the way splits.

    ``loci`` maps each kept point, a tuple of (symbol, value) pairs in the
    order of SYMBOLS, to the kernel dimension there, hyperplanes first.
    ``uncertified`` lists (point, factor): a factor, found in the search at
    that point (() at the start), that does not split into such linear
    factors, so that the answer may change where it vanishes, unseen.
    Beside such a factor the loci listed may depend on the elimination:
    on [[delta+1, delta], [delta, mu]], whose determinant does not split,
    a rule that pivots on delta reports delta = mu = 0 (from its search at
    delta = 0) and one that pivots on delta+1 does not.
    """
    pvals = resolve_params(spec, params)
    if not isinstance(constraint, int):
        constraint = dict(constraint.eigen if isinstance(constraint, Weight) else constraint)
    found = {(): result}

    def research(point):
        if point not in found:
            at = dict(point)
            put = lambda x: x.substitute(at) if isinstance(x, Scalar) else x
            where = constraint if isinstance(constraint, int) else {
                g: put(x) for g, x in constraint.items()}
            found[point] = search_singular(spec, where, {n: put(x) for n, x in pvals.items()})
        return found[point]

    return _certified(research)


def _certified(research):
    """``certify`` of research(()), with research(point) the search at a
    point, which a caller caches."""
    top = research(())
    dens = [c.den for vec in top.vectors for c in vec.terms.values() if not c.den.is_const()]
    seen, uncertified = {}, {}
    parts = lambda found: [q for c in found.caveats for q in (c.num, c.den)]

    def explore(point, polys):
        for p in polys:
            roots, rest = _linear_factors(p)
            if not rest.is_const():
                uncertified[point, _monic(rest)] = None
            for i, v in roots:
                at = tuple(sorted(point + ((SYMBOLS[i], v),), key=lambda kv: SYMBOLS.index(kv[0])))
                if at not in seen:
                    seen[at] = None
                    explore(at, parts(research(at)))

    explore((), parts(top) + dens)
    loci = {}
    for at in seen:
        dim = len(research(at))
        if (all(dim != len(research(at[:i] + at[i + 1:])) for i in range(len(at)))
                or len(at) == 1 and any(not den.substitute(dict(at)) for den in dens)):
            loci[at] = dim
    order = lambda point: (len(point), [(SYMBOLS.index(n), v) for n, v in point])
    return (dict(sorted(loci.items(), key=lambda kv: order(kv[0]))),
            sorted(uncertified, key=lambda pf: (order(pf[0]), str(pf[1]))))
