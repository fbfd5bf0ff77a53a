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

from .algebra import AlgebraSpec, Gen, decomposition, weight_table
from .scalars import Scalar, UnsupportedFamily
from .verma import (
    ModuleVector,
    PbwMonomial,
    Weight,
    act_generic,
    act_word,
    level_basis,
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

    ``caveats`` lists the non-constant pivots cancelled during the exact
    elimination; the reported dimension is valid wherever none of them
    vanishes.
    """

    vectors: list
    caveats: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)


def _ell_data(spec):
    two_ell = spec.twoEll
    if spec.ext == "mass":
        half = (two_ell - 1) // 2
        return half, (two_ell + 1) // 2
    return two_ell // 2, None


def singular_condition(spec, q):
    """Scalar in the weight parameters whose vanishing admits the level-q
    closed-form singular vector.  The centerless family needs kappa = 0
    instead for every q, so the condition is kappa itself.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    delta = Scalar.symbol("delta")
    two_ell = spec.twoEll
    if spec.ext == "none":
        return Scalar.symbol("kappa")
    if spec.d == 1:
        # 2*delta - 2(q-1) + (l+1/2)^2 = 0, written without half-integers
        lp = Fraction(two_ell + 1, 2)
        return Scalar.const(2) * delta + Scalar.const(-2 * (q - 1) + lp * lp)
    if spec.ext == "mass":
        lp = Fraction(two_ell + 1, 2)
        return delta + Scalar.const(-q + lp * lp + 1)
    ell = two_ell // 2
    return delta + Scalar.const(-q + ell * (ell + 1) + 1)


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
    Parameters default to symbolic.
    """
    two_ell = spec.twoEll
    if spec.ext == "none":
        return [((Gen("P", 2),), Scalar.const(1))]
    pvals = resolve_params(spec, params)
    if spec.d == 1:
        half = (two_ell - 1) // 2
        a = 2 * factorial(half) ** 2
        return [
            ((Gen("H"),), Scalar.const(a) * pvals["mu"]),
            ((Gen("P", half), Gen("P", half)), Scalar.const(1)),
        ]
    if spec.ext == "mass":
        half = (two_ell - 1) // 2
        alpha = factorial(half) ** 2
        return [
            ((Gen("H"),), Scalar.const(alpha) * pvals["mu"]),
            ((Gen("P", half, "+"), Gen("P", half, "-")), Scalar.const(1)),
        ]
    ell = two_ell // 2
    alpha = factorial(ell) * factorial(ell - 1)
    return [
        ((Gen("H"),), Scalar.const(alpha) * pvals["theta"]),
        ((Gen("P", ell - 1, "-"), Gen("P", ell, "+")), Scalar.const((-1) ** ell)),
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


def predicted_weight(spec, q, params=None):
    """Diagonal weight the level-q singular vector must carry."""
    pvals = resolve_params(spec, params)
    table = weight_table(spec)
    shift = -2 * q if spec.ext == "none" else 2 * q
    eigen = {}
    for gen, (sym, sign) in table.items():
        base = pvals[sym] * Scalar.const(sign)
        if gen.tag == "D":
            eigen[gen] = base + Scalar.const(shift)
        else:  # rotation, central, or the centerless g0 entry: unchanged
            eigen[gen] = base
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


def _scalar_matrix_kernel(rows, ncols):
    """Exact kernel basis of a Scalar matrix by Gauss-Jordan elimination.

    Every other row is reduced by a multiple of the pivot row divided by
    the pivot, so entries grow into rational functions of the parameters.
    Returns (basis, caveats): each basis vector is a tuple of Scalars;
    caveats lists the non-constant pivots divided by (the kernel is correct
    wherever they do not vanish; denominators that later entries pick up
    are not listed).
    """
    mat = [list(r) for r in rows]
    caveats = []
    pivots = []  # (row, col)
    row = 0
    for col in range(ncols):
        # choose a pivot of minimal total degree for stability of caveats
        best = None
        for r in range(row, len(mat)):
            entry = mat[r][col]
            if entry.is_zero:
                continue
            deg = entry.num.total_degree() + entry.den.total_degree()
            if best is None or deg < best[0]:
                best = (deg, r)
        if best is None:
            continue
        _, r = best
        mat[row], mat[r] = mat[r], mat[row]
        piv = mat[row][col]
        if not piv.is_rational():
            caveats.append(piv)
        for r2 in range(len(mat)):
            if r2 == row:
                continue
            factor = mat[r2][col] / piv
            if factor.is_zero:
                continue
            for c in range(ncols):
                mat[r2][c] = mat[r2][c] - factor * mat[row][c]
        pivots.append((row, col))
        row += 1
        if row == len(mat):
            break
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Scalar.zero()] * ncols
        vec[fc] = Scalar.const(1)
        for prow, pcol in pivots:
            # pivot_row: piv * x_pcol + sum over free cols = 0
            piv = mat[prow][pcol]
            vec[pcol] = -(mat[prow][fc] / piv)
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
    if not basis:
        return SearchResult([])
    plus, zero, minus = decomposition(spec)
    operators = [(x, None) for x in minus]
    if spec.ext == "none":
        # require P1 v = -kappa v as well (its diagonal part is forced)
        operators.append((Gen("P", 1), pvals["kappa"]))

    index = {m: i for i, m in enumerate(basis)}
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
    if not rows:
        kernel = [tuple(Scalar.const(1 if i == j else 0) for j in range(len(basis)))
                  for i in range(len(basis))]
        caveats = []
    else:
        kernel, caveats = _scalar_matrix_kernel(rows, len(basis))
    vectors = []
    for vec in kernel:
        lead = next(i for i, c in enumerate(vec) if not c.is_zero)
        scale = vec[lead]
        v = ModuleVector({basis[i]: vec[i] / scale for i in range(len(basis))})
        vectors.append(v)
    return SearchResult(vectors, caveats)
