"""Singular vectors of the lowest-weight modules.

A singular vector is a non-vacuum module vector that every annihilator
kills and on which the diagonal generators act by scalars.  Each family
has a closed-form candidate built from a quadratic (or simpler) element
raised to a power q, which is singular exactly when the lowest weight
satisfies a linear condition; an exact linear-algebra search over a fixed
weight space provides the independent route.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .algebra import Gen, central_element, creation_data, decomposition, weight_table
from .scalars import ParamPoly, Scalar, poly_div_exact, poly_gcd
from .verma import (
    ModuleVector,
    Weight,
    act_generic,
    act_word,
    d_grade,
    level_basis,
    lowest_weight,
    resolve_params,
    vacuum,
    weight_of,
)


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

    The system is solved by fraction-free forward elimination and back
    substitution (see _scalar_matrix_kernel).  ``caveats`` lists the pivots
    Gauss-Jordan elimination would divide by that are not rational,
    recovered as b / (s_r * prev) from the fraction-free entries; the
    reported dimension is valid wherever none of them vanishes.
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
    eigen[Gen("D")] += weight_shift(spec, q)
    return Weight(eigen)


def verify_singular(spec, v, params=None, expect_weight=None):
    """Check that ``v`` is singular: annihilated by the lowering side and
    a joint eigenvector of the diagonal side.  Exact, no tolerance."""
    pvals = resolve_params(spec, params)
    failures = []
    if v.is_zero():
        return SingularReport(False, v, None, ["candidate vector is zero"])
    plus, zero, minus = decomposition(spec)
    for x in minus:
        img = act_generic(spec, x, v, params=params)
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


def _cleared_row(row):
    """(polys, s) with row[c] = polys[c] / s, s the lcm of the row's
    denominators (None when every denominator is 1)."""
    dens = list(dict.fromkeys(x.den for x in row if not x.den.is_const()))
    if not dens:
        return [x.num for x in row], None
    scale = dens[0]
    for den in dens[1:]:
        scale = poly_div_exact(scale * den, poly_gcd(scale, den))
    return [x.num * poly_div_exact(scale, x.den) for x in row], scale


def _scalar_matrix_kernel(rows, ncols):
    """Exact kernel basis of a Scalar matrix by fraction-free elimination.

    Each row is multiplied once by the lcm s_r of its denominators.  The
    forward pass is Bareiss's integer-preserving elimination: below a pivot
    p every entry becomes (p*b_ij - b_ic*b_pj) / prev, an exact polynomial
    division by the previous pivot; the rows above are left alone.

    The Gauss-Jordan entry at the same place is b / (s_r * prev), so the
    pivots are those Gauss-Jordan picks (minimal total degree of that
    reduced quotient, the first row winning ties).  Returns (basis,
    caveats): caveats lists those Gauss-Jordan pivots that are not rational
    (the kernel is correct wherever they do not vanish; denominators that
    later entries pick up are not listed).  Each basis vector is a tuple of
    Scalars with 1 at one free column and 0 at the others, solved by back
    substitution; the reduced row echelon form is unique, so these are the
    Gauss-Jordan kernel vectors.
    """
    mat, scales = [], []
    for r in rows:
        polys, scale = _cleared_row(r)
        mat.append(polys)
        scales.append(scale)
    nrows = len(mat)
    caveats = []
    pivots = []  # (row, col)
    prev = ParamPoly.const(1)
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        # the Gauss-Jordan rule: a pivot of minimal total degree, reduced
        best = None  # (degree, row, Gauss-Jordan entry)
        for r in range(row, nrows):
            b = mat[r][col]
            if not b:
                continue
            den = prev if scales[r] is None else scales[r] * prev
            bound = abs(b.total_degree() - den.total_degree())
            if best is not None and bound >= best[0]:
                continue  # reducing b / den cannot go below this degree
            entry = Scalar(b, den)
            deg = entry.num.total_degree() + entry.den.total_degree()
            if best is None or deg < best[0]:
                best = (deg, r, entry)
                if not deg:
                    break
        if best is None:
            continue
        _, r, entry = best
        mat[row], mat[r] = mat[r], mat[row]
        scales[row], scales[r] = scales[r], scales[row]
        if not entry.is_rational():
            caveats.append(entry)
        prow = mat[row]
        piv = prow[col]
        # the division by prev is exact; by a constant it is a product
        inv = 1 / prev.const_value() if prev.is_const() else None
        for line in mat[row + 1:]:
            # columns up to col are never read again in the rows below
            factor = line[col]
            for c in range(col + 1, ncols):
                b = line[c]
                if b:
                    b = b * piv
                if factor and prow[c]:
                    b = b - factor * prow[c]
                if b and inv is None:
                    b = poly_div_exact(b, prev)
                elif b and inv != 1:
                    b = b * inv
                line[c] = b
        pivots.append((row, col))
        prev = piv
        row += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [Scalar.zero()] * ncols
        vec[fc] = Scalar.const(1)
        for prow, pcol in reversed(pivots):
            # b_pcol * x_pcol + sum of b_c * x_c over later columns = 0
            line = mat[prow]
            acc = Scalar.zero()
            for c in range(pcol + 1, ncols):
                if line[c] and vec[c]:
                    acc = acc + vec[c] * Scalar(line[c])
            if acc:
                vec[pcol] = -(acc / Scalar(line[pcol]))
        basis.append(tuple(vec))
    return basis, caveats


def search_singular(spec, constraint, params=None):
    """Exact nullspace search for singular vectors in one weight space.

    ``constraint`` is passed to level_basis (an integer level or a weight
    constraint).  Annihilator actions are stacked into one exact linear
    system; for the centerless family the non-diagonalizable g0 generator
    contributes rows forcing an eigenvector of it as well.  Returns a
    SearchResult whose vectors are normalized so their lexicographically
    first monomial has coefficient 1.
    """
    pvals = resolve_params(spec, params)
    basis = level_basis(spec, constraint, params=params)
    plus, zero, minus = decomposition(spec)
    operators = [(x, None) for x in minus]
    if spec.ext == "none":
        # require P1 v = -kappa v as well (its diagonal part is forced)
        operators.append((Gen("P", 1), pvals["kappa"]))

    rows = []
    for x, shift in operators:
        images = []
        targets = set()
        for m in basis:
            img = act_generic(spec, x, ModuleVector.of(m), params=params)
            if shift is not None:
                img = img + ModuleVector.of(m, shift)
            images.append(img)
            targets.update(img.terms)
        for t in sorted(targets, key=lambda m: (m.h, m.a, m.b)):
            rows.append([img.coefficient(t) for img in images])
    kernel, caveats = _scalar_matrix_kernel(rows, len(basis))
    vectors = []
    for vec in kernel:
        lead = next(i for i, c in enumerate(vec) if not c.is_zero())
        scale = vec[lead]
        v = ModuleVector({basis[i]: vec[i] / scale for i in range(len(basis))})
        vectors.append(v)
    return SearchResult(vectors, caveats)
