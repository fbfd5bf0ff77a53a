"""Singular vectors of the lowest-weight modules.

A singular vector is a non-vacuum module vector that every annihilator
kills and on which the diagonal generators act by scalars.  The elements
that kill a vector are closed under the bracket, so a vector killed by the
kept annihilators of ``algebra.annihilator_generators``, whose brackets
span the wing, is killed by every annihilator: the check tests those first,
and the search eliminates the other annihilators' rows only where they
could change a pivot.  Each family has a closed-form candidate
built from a quadratic (or simpler) element raised to a power q, which is
singular exactly when the lowest weight satisfies a linear condition; an
exact linear-algebra search over a fixed weight space provides the
independent route.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from operator import sub

from .algebra import (annihilator_generators, central_element, creation_data, decomposition,
                      weight_table)
from .scalars import ZERO_EXPO, ParamPoly, Scalar, _quotient, _rational, poly_div_exact
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


@dataclass
class SingularReport:
    """Outcome of verifying one candidate singular vector."""

    ok: bool
    vector: ModuleVector
    weight: Weight | None
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


@dataclass
class SearchResult:
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
    The rows of the annihilators that the kept ones of
    ``algebra.annihilator_generators`` reach by brackets are eliminated
    only where they could change a pivot, so the caveats are those of the
    whole system.
    """

    vectors: list
    caveats: list = field(default_factory=list)

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
        return SingularReport(False, v, None, ["candidate vector is zero"])
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
    return SingularReport(not failures, v, weight, failures)


def _divider(ref):
    """x -> x / ref on the entries x that ref divides; None when ref is 1."""
    if type(ref) is int:
        return None if ref == 1 else (lambda x: x // ref)
    if not ref.is_const():
        return lambda x: poly_div_exact(x, ref)
    inv = 1 / ref.const_value()
    return None if inv == 1 else (lambda x: x * inv)


def _pick(mat, refs, steps, col, lo, hi, best=None):
    """The pivot the Gauss-Jordan rule takes in column ``col`` among rows
    lo..hi-1 and ``best``, the pick among earlier rows: (degree, row,
    Gauss-Jordan entry), the entry None in an int matrix, whose first row
    with an entry wins; None when no row has one."""
    for r in range(lo, hi):
        b = mat[r].get(col)
        if b is None:
            continue
        if type(b) is int:
            return (0, r, None)
        # a pivot of minimal total degree, reduced, the first row winning ties
        ref = steps[refs[r]][0]
        bound = abs(b.total_degree() - ref.total_degree())
        if best is not None and bound >= best[0]:
            continue  # reducing b / ref cannot go below this degree
        entry = Scalar(b, ref)
        deg = entry.num.total_degree() + entry.den.total_degree()
        if best is None or deg < best[0]:
            best = (deg, r, entry)
            if not deg:
                break
    return best


def _restrict(terms, point):
    """The terms of a polynomial with slot i set to the rational point[i]."""
    if not point:
        return terms
    out = {}
    for expo, c in terms.items():
        for i, v in point.items():
            if expo[i]:
                c = c * v ** expo[i]
                expo = expo[:i] + (0,) + expo[i + 1:]
        if c:
            out[expo] = out.get(expo, 0) + c
    return {e: c for e, c in out.items() if c}


def _low_parts(pairs, point, x):
    """The parts of the b of ``pairs`` that must vanish for each b / ref,
    restricted to ``point``, to be 0 or of positive order in the symbol
    slot x (x None: b itself); None when a ref vanishes at the point."""
    low = []
    for b, ref in pairs:
        b, ref = _restrict(b.terms, point), _restrict(ref.terms, point)
        if not ref:
            return None
        if x is None:
            if b:
                low.append(b)
            continue
        order = min(e[x] for e in ref)
        for k in {e[x] for e in b if e[x] <= order}:
            low.append({e[:x] + (0,) + e[x + 1:]: c for e, c in b.items() if e[x] == k})
    return low


def _vanishing_point(pairs, point, x):
    """A certificate that no combination with polynomial coefficients of
    the entries b / ref of ``pairs`` is a nonzero constant, or None.

    It is (point, x): a rational value for some of the symbols, at which no
    ref vanishes, and a symbol slot x (or None), such that ``_low_parts``
    is empty: restricted to the point, each b / ref is 0 or has positive
    order in x.  So then is the restriction of any such combination, which
    a nonzero constant is not.  The search extends ``point`` and ``x`` by
    what the first part that must vanish offers, once its monomial content
    is divided out: its root if it is linear in one symbol, then each
    symbol of the content as x while x is None, then each such symbol set
    to 0.  Each step fixes one more symbol, so it ends; it is greedy, and
    None does not mean that there is no certificate."""
    low = _low_parts(pairs, point, x)
    if not low:
        return None if low is None else (point, x)
    part = low[0]
    content = tuple(map(min, zip(*part)))
    part = {tuple(map(sub, e, content)): c for e, c in part.items()}
    slots = {i for e in part for i, k in enumerate(e) if k}
    ways = []  # (slot, value, x)
    if len(slots) == 1 and max(map(sum, part)) == 1:
        i, = slots
        a = next(c for e, c in part.items() if e[i])
        ways.append((i, _quotient(-part.get(ZERO_EXPO, 0), a), x))
    symbols = [i for i, k in enumerate(content) if k]  # x is not among them
    if x is None:
        ways += [(None, None, i) for i in symbols]
    ways += [(i, 0, x) for i in symbols]
    for slot, value, axis in ways:
        found = _vanishing_point(pairs, point if slot is None else {**point, slot: value}, axis)
        if found is not None:
            return found
    return None


def _least_in_span(best, mat, refs, steps, col, lo, hi, hint):
    """A certificate that ``best``, a pick of positive degree in column
    ``col`` among rows lo..hi-1, is of a degree that no combination of
    those rows with polynomial coefficients can go below there, or None.
    Such a combination's Gauss-Jordan entry is a sum of polynomial
    multiples of theirs, b / ref.  Below degree 1 it would be a nonzero
    constant, which ``_vanishing_point`` can rule out, and ``hint``, the
    certificate of an earlier column or None, often does; a degree above
    1 is not certified."""
    degree, at, _ = best
    if degree != 1:
        return None
    rows = [at] + [r for r in range(lo, hi) if r != at and col in mat[r]]  # best first
    pairs = [(mat[r][col], steps[refs[r]][0]) for r in rows]
    if hint is not None and _low_parts(pairs, *hint) == []:
        return hint
    return _vanishing_point(pairs, {}, None)


def _bareiss_step(line, factor, piv, tail, div):
    """``line``, whose entry ``factor`` in the pivot column is popped, after
    one elimination step: (piv*b_j + factor*t_j) / ref over the pivot row's
    ``tail`` of (column, -p_j), ``div`` dividing by the row's ref."""
    new = {c: b * piv for c, b in line.items()}
    for c, b in tail:
        new[c] = new[c] + factor * b if c in new else factor * b
    return {c: div(b) if div else b for c, b in new.items() if b}


def _matrix_kernel(rows, ncols, spare=None):
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

    The Gauss-Jordan entry in the place of a stored entry b is b / ref, so
    the pivots are those Gauss-Jordan picks (minimal total degree of that
    reduced quotient, the first row winning ties); on an integer matrix
    every such entry is rational and the first nonzero row is the pivot.

    ``spare``, when not None, builds more rows, to follow ``rows``, each a
    combination of ``rows`` with polynomial coefficients.  They change
    neither the row space nor the kernel, only, through the pivot rule,
    which pivots are picked.  So they are built, brought up to date and
    offered only in a column where no certificate shows that the pick
    among ``rows`` is of least degree for their span (``_least_in_span``),
    which is never needed in an int matrix.  Where a spare row wins, every
    row is updated at each step from then on.  The result is that of the
    elimination of all the rows, pivots and caveats included.

    Returns (basis, caveats): caveats lists those Gauss-Jordan pivots that
    are not rational (the kernel is correct wherever they do not vanish;
    denominators that later entries pick up are not listed).  Each basis
    vector is a dict {col: nonzero entry}, 1 at its free column and absent
    at the other free columns, solved by back substitution in the field of
    the matrix: its entries are ints and Fractions for an int matrix and
    Scalars for a ParamPoly matrix.  The reduced row echelon form is
    unique, so these are the Gauss-Jordan kernel vectors.
    """
    mat = [dict(row) for row in rows]
    end = len(mat)  # the rows below end are updated at each step
    # (pivot, _divider(pivot)) per step, after the first ref 1: only a
    # ParamPoly matrix reads that one, an int matrix refreshes by real pivots
    steps = [(ParamPoly.const(1), None)]
    refs = [0] * end  # index in steps of each row's ref
    history = []  # (col, piv, tail) per step, for the spare rows to catch up on
    caught = 0  # steps the spare rows have caught up on
    hint = None  # the last certificate that they cannot win a pivot
    caveats = []
    pivots = []  # (row, col)
    row = 0
    for col in range(ncols):
        if row == end:
            break  # the spare rows lie in the pivot rows' span
        best = _pick(mat, refs, steps, col, row, end)
        if best is None:
            continue  # and so they have no entry here either
        if spare is not None and best[0] and (hint := _least_in_span(
                best, mat, refs, steps, col, row, end, hint)) is None:
            if len(mat) == end:
                built = spare()
                mat += built
                refs += [0] * len(built)
            for i in range(end, len(mat)):
                line = mat[i]
                for s in range(caught, len(history)):
                    c, piv, tail = history[s]
                    factor = line.pop(c, None)
                    if factor is not None:
                        line = mat[i] = _bareiss_step(line, factor, piv, tail,
                                                      steps[refs[i]][1])
                        refs[i] = s + 1
            caught = len(history)
            best = _pick(mat, refs, steps, col, end, len(mat), best)
            if best[1] >= end:
                end, spare = len(mat), None
        _, r, entry = best
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
        for i in range(row + 1, end):
            line = mat[i]
            factor = line.pop(col, None)
            if factor is None:
                continue  # left alone: its ref stays
            mat[i] = _bareiss_step(line, factor, piv, tail, steps[refs[i]][1])
            refs[i] = step + 1
        steps.append((piv, _divider(piv)))
        history.append((col, piv, tail))
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
    """(basis, rows, spare): the basis of one weight space and the exact
    linear system whose kernel search_singular reads: column j is basis[j],
    and each row is a dict {j: nonzero entry}, one per (operator, monomial
    of its images), each operator's monomials in ascending order.  The
    operators are the kept annihilators of ``annihilator_generators`` up to
    the last one, in wing order, then, on the centerless family, P1 shifted
    by kappa.

    ``spare`` builds, when called, the rows of the annihilators after them
    in the same way (None when there are none, or when the rows are ints).
    Those rows are combinations of ``rows`` with polynomial coefficients:
    an annihilator that is not kept is [x, y] / c for
    annihilators x, y kept or dropped before it, and [x, y] v =
    x (y v) - y (x v), where the matrices of x and y have polynomial
    entries.  So they change neither the row space nor the kernel, only,
    through the pivot rule, the caveats (see ``_matrix_kernel``), and an
    int matrix has none.

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
    wing = decomposition(spec)[2]
    kept = annihilator_generators(spec)[0]
    letters = [images.index[x] for x in wing]
    lead = 1 + max(i for i, x in enumerate(wing) if x in kept)  # the rest are spare
    shifted = None
    if spec.ext == "none":
        # require P1 v = -kappa v as well (its diagonal part is forced): P1
        # minus its eigenvalue on the lowest-weight vector, -kappa
        shifted = images.index[_P1]
        letters.append(shifted)
        lead = len(letters)

    def block(letters):
        rows = []
        for letter in letters:
            by_target = {}
            for col, m in enumerate(basis):
                terms = images[letter, m]
                if letter == shifted:
                    terms += ((m, images.unit[letter], -1),)
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
        return rows

    rows = block(letters[:lead])
    if type(one) is int:
        for i, row in enumerate(rows):
            scale = lcm(*(x.denominator for x in row.values()))
            rows[i] = {col: x.numerator * (scale // x.denominator) for col, x in row.items()}
        return basis, rows, None
    return basis, rows, (lambda: block(letters[lead:])) if lead < len(letters) else None


def search_singular(spec, constraint, params=None):
    """Exact nullspace search for singular vectors in one weight space.

    ``constraint`` selects the space as in level_basis (an integer level
    or a weight constraint).  Annihilator actions are stacked into one
    exact linear system (``_search_system``); for the centerless family the
    non-diagonalizable g0 generator contributes rows forcing an eigenvector
    of it as well.  The rows of the annihilators after the kept ones of
    ``algebra.annihilator_generators``, which span the annihilator wing by
    brackets, are spare: the elimination takes them up only in a column
    where they could win the pivot, and an int matrix leaves them out.  Every parameter value must be a polynomial in the
    parameters (NonPolynomialParameter otherwise).  Returns a SearchResult
    whose vectors are normalized so their lexicographically first monomial
    (least column) has coefficient 1.
    """
    basis, rows, spare = _search_system(spec, constraint, params)
    kernel, caveats = _matrix_kernel(rows, len(basis), spare)
    vectors = []
    for vec in kernel:
        scale = vec[min(vec)]
        if type(scale) is Scalar:
            coefs = {basis[i]: c / scale for i, c in vec.items()}
        else:  # rational entries: one Scalar per quotient
            coefs = {basis[i]: Scalar.const(_quotient(c, scale)) for i, c in vec.items()}
        vectors.append(ModuleVector.of_raw(coefs))
    return SearchResult(vectors, caveats)
