"""Tests for the energy-identity and weighted-inequality checks.

Hand-derived reference values used below:

* For w = x'^2 - x_n^2 on (0,1) x (-1,1) the Hessian energy is
  int (4 + 0 + 4) = 8 * area = 16, the Laplacian vanishes identically, and
  the boundary term must cancel the Hessian energy exactly.
* The worked plan has max psi = d at the data face = 1, so the weight
  maximum is e^1 and the log offset of the shifted integrals is 2*s*e.
"""

import math

import numpy as np
import pytest

from carleman_lab.errors import ValidationError
from carleman_lab.geometry import (
    CylinderGeometry,
    Face,
    FieldKind,
    GammaSide,
    NormKind,
    ScalarField,
    discrete_norm,
    trace,
)
from carleman_lab.verifier import (
    CarlemanReport,
    CorpusField,
    carleman_sides,
    lemma1_residual,
    smooth_corpus,
    verify_carleman,
)
from carleman_lab.weight import phi_field


def ext_square(n=33, nt=5):
    return CylinderGeometry(0.0, 1.0, 1.0, 1.0, GammaSide.HI, n, n, nt, extended=True)


# ---- corpus ----------------------------------------------------------------------


def test_corpus_is_deterministic_per_seed():
    a = smooth_corpus(5, seed=42, kind=FieldKind.SPACE_ONLY)
    b = smooth_corpus(5, seed=42, kind=FieldKind.SPACE_ONLY)
    c = smooth_corpus(5, seed=43, kind=FieldKind.SPACE_ONLY)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.coeffs, fb.coeffs)
    assert any(not np.array_equal(fa.coeffs, fc.coeffs) for fa, fc in zip(a, c))


def test_corpus_rejects_empty():
    with pytest.raises(ValidationError):
        smooth_corpus(0, seed=1)


def test_corpus_sample_matches_direct_mode_sum():
    g = ext_square(9, 5)
    member = smooth_corpus(3, seed=5, kind=FieldKind.SPACE_ONLY)[2]
    xp = g.axis_nodes("xp")
    xn = g.axis_nodes("xn")

    def modes(nodes):
        xi = 2.0 * (nodes - nodes[0]) / (nodes[-1] - nodes[0]) - 1.0
        return [np.ones_like(xi), xi, xi**2, np.sin(np.pi * xi), np.cos(np.pi * xi)]

    mp, mn = modes(xp), modes(xn)
    direct = sum(
        member.coeffs[i, j] * np.outer(mp[i], mn[j])
        for i in range(5)
        for j in range(5)
    )
    got = member.sample(g).values
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_corpus_sample_is_resolution_consistent():
    # the same coefficients evaluated on the refined grid agree with the
    # coarse sample at the shared physical nodes
    g = ext_square(17, 5)
    member = smooth_corpus(1, seed=9, kind=FieldKind.SPACE_ONLY)[0]
    coarse = member.sample(g).values
    fine = member.sample(g.refine()).values
    assert np.allclose(fine[::2, ::2], coarse, rtol=0, atol=1e-13)


# ---- integration-by-parts identity ------------------------------------------------


def test_identity_trivial_for_affine_fields():
    g = ext_square(33, 5)
    w = ScalarField.from_function(
        g, FieldKind.SPACE_ONLY, lambda xp, xn: 1.0 + 2.0 * xp - 0.5 * xn
    )
    r = lemma1_residual(w)
    assert r.harmonic_branch
    assert abs(r.hessian_sq) <= 1e-10
    assert abs(r.laplacian_sq) <= 1e-10
    assert abs(r.boundary) <= 1e-10
    assert r.normalized <= 1e-10


def test_identity_boundary_cancels_hessian_for_harmonic_quadratic():
    g = ext_square(33, 5)
    w = ScalarField.from_function(
        g, FieldKind.SPACE_ONLY, lambda xp, xn: xp**2 - xn**2
    )
    r = lemma1_residual(w)
    assert r.harmonic_branch
    assert r.hessian_sq == pytest.approx(16.0, rel=1e-12)
    assert r.boundary == pytest.approx(-16.0, rel=1e-12)
    assert r.normalized <= 1e-10


def test_identity_two_grid_ratio_on_product_sine():
    g = ext_square(33, 5)
    w = ScalarField.from_function(
        g, FieldKind.SPACE_ONLY, lambda xp, xn: np.sin(np.pi * xp) * np.sin(np.pi * xn)
    )
    wf = ScalarField.from_function(
        g.refine(), FieldKind.SPACE_ONLY, lambda xp, xn: np.sin(np.pi * xp) * np.sin(np.pi * xn)
    )
    rc = lemma1_residual(w)
    rf = lemma1_residual(wf)
    assert not rc.harmonic_branch
    ratio = rc.normalized / rf.normalized
    assert 3.5 <= ratio <= 4.5


def test_identity_second_order_on_corpus():
    corpus = smooth_corpus(24, seed=7, kind=FieldKind.SPACE_ONLY)
    g = ext_square(65, 5)
    gf = g.refine()
    in_window = 0
    for member in corpus:
        rc = lemma1_residual(member.sample(g)).normalized
        rf = lemma1_residual(member.sample(gf)).normalized
        if 3.5 <= rc / rf <= 4.5:
            in_window += 1
    assert in_window >= 0.9 * len(corpus)


def test_identity_rejects_wrong_kind_and_grids():
    g = ext_square(33, 5)
    u = ScalarField.zeros(g, FieldKind.SPACE_TIME)
    with pytest.raises(ValidationError, match="SPACE_ONLY"):
        lemma1_residual(u)
    plain = CylinderGeometry(0.0, 1.0, 1.0, 1.0, GammaSide.HI, 33, 33, 5)
    with pytest.raises(ValidationError, match="extended"):
        lemma1_residual(ScalarField.zeros(plain, FieldKind.SPACE_ONLY))
    tiny = CylinderGeometry(0.0, 1.0, 1.0, 1.0, GammaSide.HI, 5, 9, 5, extended=True)
    with pytest.raises(ValidationError, match="six nodes"):
        lemma1_residual(ScalarField.zeros(tiny, FieldKind.SPACE_ONLY))


# ---- weighted inequality sides ----------------------------------------------------


def test_sides_zero_field_gives_zero_on_both_sides(worked_plan):
    g = worked_plan.geometry.extend()
    u = ScalarField.zeros(g, FieldKind.SPACE_TIME)
    sides = carleman_sides(u, worked_plan, 5.0)
    assert sides.lhs == 0.0
    assert sides.rhs == 0.0
    assert sides.ratio == 0.0
    for name in ("residual", "lateral_grad", "lateral_val", "trace_h2",
                 "terminal_grad", "terminal_val"):
        assert getattr(sides, name) == 0.0


def test_sides_scale_quadratically(worked_plan):
    g = worked_plan.geometry.extend()
    u = smooth_corpus(1, seed=3, kind=FieldKind.SPACE_TIME)[0].sample(g)
    one = carleman_sides(u, worked_plan, 5.0)
    three = carleman_sides(u.with_values(3.0 * u.values), worked_plan, 5.0)
    assert three.lhs == pytest.approx(9.0 * one.lhs, rel=1e-12)
    assert three.rhs == pytest.approx(9.0 * one.rhs, rel=1e-12)


def test_sides_log_scale_matches_weight_maximum(worked_plan):
    # psi peaks at the data face with value 1, so max phi = e
    g = worked_plan.geometry.extend()
    u = smooth_corpus(1, seed=3, kind=FieldKind.SPACE_TIME)[0].sample(g)
    s = 50.0
    sides = carleman_sides(u, worked_plan, s)
    assert sides.log_scale == pytest.approx(2.0 * s * math.e, rel=1e-12)
    assert math.isfinite(sides.lhs) and math.isfinite(sides.rhs)


def test_sides_zero_order_coefficient_only_moves_the_residual(worked_plan):
    g = worked_plan.geometry.extend()
    u = smooth_corpus(1, seed=4, kind=FieldKind.SPACE_TIME)[0].sample(g)
    base = carleman_sides(u, worked_plan, 5.0)
    p0_zero = ScalarField.zeros(g, FieldKind.CROSS_SECTION_TIME)
    same = carleman_sides(u, worked_plan, 5.0, p0=p0_zero)
    assert same.residual == base.residual
    assert same.rhs == base.rhs
    p0 = ScalarField.constant(g, FieldKind.CROSS_SECTION_TIME, 2.0)
    moved = carleman_sides(u, worked_plan, 5.0, p0=p0)
    assert moved.residual != base.residual
    assert moved.lateral_grad == base.lateral_grad
    assert moved.trace_h2 == base.trace_h2
    assert moved.lhs == base.lhs


def test_sides_validation_errors(worked_plan):
    g = worked_plan.geometry.extend()
    u = ScalarField.zeros(g, FieldKind.SPACE_TIME)
    with pytest.raises(ValidationError, match="positive"):
        carleman_sides(u, worked_plan, 0.0)
    plain = ScalarField.zeros(worked_plan.geometry, FieldKind.SPACE_TIME)
    with pytest.raises(ValidationError, match="extended"):
        carleman_sides(plain, worked_plan, 1.0)
    with pytest.raises(ValidationError, match="SPACE_TIME"):
        carleman_sides(ScalarField.zeros(g, FieldKind.SPACE_ONLY), worked_plan, 1.0)
    bad_p0 = ScalarField.zeros(g, FieldKind.AXIAL_TIME)
    with pytest.raises(ValidationError, match="CROSS_SECTION_TIME"):
        carleman_sides(u, worked_plan, 1.0, p0=bad_p0)


# ---- corpus-level verification ----------------------------------------------------

S_GRID = (2.0, 5.0, 10.0, 20.0, 50.0)


@pytest.fixture(scope="module")
def worked_report(worked_plan):
    corpus = smooth_corpus(20, seed=11, kind=FieldKind.SPACE_TIME)
    return verify_carleman(worked_plan, corpus, S_GRID, c_cap=10.0)


def test_report_bookkeeping(worked_report):
    assert isinstance(worked_report, CarlemanReport)
    assert worked_report.s_grid == S_GRID
    assert len(worked_report.rows) == 20 * len(S_GRID)
    assert worked_report.corpus_size == 20
    ratios = [sides.ratio for _, sides in worked_report.rows]
    assert worked_report.c_emp == max(ratios)
    assert math.isfinite(worked_report.c_emp)
    assert all(sides.lhs >= 0 and sides.rhs >= 0 for _, sides in worked_report.rows)


def test_report_finds_smallest_qualifying_strength(worked_report):
    assert worked_report.s_min_emp == 2.0


def test_report_with_unreachable_cap(worked_plan):
    corpus = smooth_corpus(2, seed=11, kind=FieldKind.SPACE_TIME)
    rep = verify_carleman(worked_plan, corpus, (2.0, 5.0), c_cap=1e-9)
    assert rep.s_min_emp is None


def test_ratio_non_increasing_on_the_certified_window(worked_report):
    # beyond the smallest certified strength, up to five times it, the
    # per-member ratio should not increase for the bulk of the corpus
    window = [s for s in S_GRID if worked_report.s_min_emp <= s <= 5 * worked_report.s_min_emp]
    per_member: dict[int, dict[float, float]] = {}
    for i, sides in worked_report.rows:
        per_member.setdefault(i, {})[sides.s] = sides.ratio
    monotone = sum(
        1
        for m in per_member.values()
        if all(m[a] >= m[b] for a, b in zip(window, window[1:]))
    )
    assert monotone >= 0.8 * len(per_member)
    assert all(max(m.values()) <= worked_report.c_emp for m in per_member.values())


def test_verify_rejects_bad_strength_grid(worked_plan):
    corpus = smooth_corpus(1, seed=1, kind=FieldKind.SPACE_TIME)
    with pytest.raises(ValidationError, match="increasing"):
        verify_carleman(worked_plan, corpus, (5.0, 2.0))
    with pytest.raises(ValidationError, match="increasing"):
        verify_carleman(worked_plan, corpus, ())


def test_verify_refuses_an_empty_corpus_before_building_a_weight(worked_plan, monkeypatch):
    def refuse(plan, geometry):
        raise AssertionError("built a weight for an empty corpus")

    monkeypatch.setattr("carleman_lab.verifier.phi_field", refuse)
    with pytest.raises(ValidationError, match="at least one field"):
        verify_carleman(worked_plan, [], S_GRID)


@pytest.mark.parametrize("with_p0", [False, True])
def test_verify_rows_equal_carleman_sides(worked_plan, with_p0):
    g = worked_plan.geometry.extend()
    p0 = None
    if with_p0:
        p0 = ScalarField.from_function(
            g, FieldKind.CROSS_SECTION_TIME, lambda x, t: 1.0 + x * np.cos(t)
        )
    corpus = smooth_corpus(3, seed=17, kind=FieldKind.SPACE_TIME)
    report = verify_carleman(worked_plan, corpus, S_GRID, p0)
    expected = [
        (i, carleman_sides(member.sample(g), worked_plan, s, p0))
        for i, member in enumerate(corpus)
        for s in S_GRID
    ]
    assert len(report.rows) == len(expected)
    for (i, got), (j, want) in zip(report.rows, expected):
        assert i == j
        for name in ("s", "lhs", "residual", "lateral_grad", "lateral_val",
                     "trace_h2", "terminal_grad", "terminal_val", "log_scale"):
            assert getattr(got, name) == getattr(want, name), name


def test_trace_h2_is_the_sum_of_the_face_norms_one_at_a_time(worked_plan):
    g = CylinderGeometry(0.0, 1.0, 1.0, 1.0, GammaSide.HI, 9, 13, 7, extended=True)
    corpus = smooth_corpus(2, seed=5, kind=FieldKind.SPACE_TIME)
    report = verify_carleman(worked_plan, corpus, (2, 3.5, 8), geometry=g)
    phi = phi_field(worked_plan, g).values
    faces = (Face.GAMMA_SIDE, Face.OPPOSITE_SIDE, Face.XN_ELL, Face.XN_NEG_ELL)
    assert len(report.rows) == 2 * 3
    for i, sides in report.rows:
        u = corpus[i].sample(g)
        s = sides.s
        eh = ScalarField(g, np.exp(s * (phi - np.max(phi))), FieldKind.SPACE_TIME)
        weighted = [trace(u, f).with_values(trace(u, f).values * trace(eh, f).values)
                    for f in faces]
        want = sum(discrete_norm(w, kind=NormKind.H2_SURFACE) ** 2 for w in weighted) / s
        assert sides.trace_h2 == want


def test_verify_checks_strengths_before_sampling(worked_plan, monkeypatch):
    def refuse(self, geometry):
        raise AssertionError("sampled a member before the strengths were checked")

    monkeypatch.setattr(CorpusField, "sample", refuse)
    corpus = smooth_corpus(2, seed=1, kind=FieldKind.SPACE_TIME)
    for s_values in ((0.0, 1.0), (1.0, math.inf)):
        with pytest.raises(ValidationError, match="positive and finite"):
            verify_carleman(worked_plan, corpus, s_values)
