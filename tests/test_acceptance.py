"""Acceptance gate: the eight package-level guarantees, at zero tolerance.

Each test drives the same runner that ``cgk selftest`` uses and prints one
PASS/FAIL line (run pytest with ``-s`` or ``-v`` to see them).  Every
comparison underneath is an exact identity of canonical forms; there are
no tolerances anywhere.
"""

import pytest

from cgk.acceptance import (
    criterion_centerless,
    criterion_closed_form,
    criterion_heat,
    criterion_intertwining,
    criterion_jacobi,
    criterion_rep_audit,
    criterion_search_matches,
    criterion_singular_verify,
    acceptance_criteria,
)


def _report(name, runner):
    ok, detail = runner()
    print("[%s] %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


def test_criterion_1_jacobi_closure():
    """Structure constants close for every supported family, twoEll <= 6."""
    _report("jacobi-closure", criterion_jacobi)


def test_criterion_2_closed_form_vs_oracle():
    """Closed-form actions equal the normal-ordering oracle for every
    extended family, on every basis monomial of level <= 4, twoEll <= 5."""
    _report("closed-form-vs-oracle", criterion_closed_form)


def test_criterion_3_singular_annihilation():
    """Closed-form candidates are genuinely singular at the condition
    root, with scaling eigenvalue 2q - delta, across all pinned cases."""
    _report("singular-annihilation", criterion_singular_verify)


def test_criterion_4_search_matches_closed_form():
    """The exact nullspace search returns precisely the closed-form ray
    (dimension one, no caveats) for every criterion-3 case."""
    _report("search-matches-closed-form", criterion_search_matches)


def test_criterion_5_centerless_kernels():
    """Centerless modules: kernels are exactly the creation powers at
    kappa = 0 and empty at kappa in {1, -2, 7/3}, levels <= 4."""
    _report("centerless-kernels", criterion_centerless)


def test_criterion_6_left_realization_audit():
    """The weighted realization reproduces every bracket for all extended
    families with twoEll <= 5."""
    _report("left-realization-audit", criterion_rep_audit)


def test_criterion_7_heat_hierarchy_recovery():
    """The lowest line-family operators are the heat hierarchy verbatim
    (powers q <= 3) and the twoEll in {3, 5} displayed operators."""
    _report("heat-hierarchy-recovery", criterion_heat)


def test_criterion_8_intertwining_identity():
    """S^q intertwines the delta and delta-2q realizations exactly at the
    condition root (twoEll <= 5, q <= 2); away from the root the residual
    is nonzero and divisible by the condition polynomial."""
    _report("intertwining-identity", criterion_intertwining)


def test_acceptance_suite_is_complete():
    """The selftest aggregator exposes exactly these eight criteria."""
    names = [name for name, _ in acceptance_criteria()]
    assert names == [
        "jacobi-closure",
        "closed-form-vs-oracle",
        "singular-annihilation",
        "search-matches-closed-form",
        "centerless-kernels",
        "left-realization-audit",
        "heat-hierarchy-recovery",
        "intertwining-identity",
    ]
