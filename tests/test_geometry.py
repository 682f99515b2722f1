import math
import re
import tracemalloc

import numpy as np
import pytest

from carleman_lab.errors import ValidationError
from carleman_lab.geometry import (
    CylinderGeometry,
    Face,
    FieldKind,
    GammaSide,
    NormKind,
    Region,
    ScalarField,
    axis_weights,
    diff,
    diff_array,
    diff_matrix,
    discrete_norm,
    discrete_norms,
    laplacian,
    time_slice,
    trace,
)


def small_geometry(nx_prime=11, nx_n=9, nt=11, **kw):
    args = dict(d_lo=0.0, d_hi=1.0, ell=1.0, delta=1.0,
                gamma_side=GammaSide.HI, nx_prime=nx_prime, nx_n=nx_n, nt=nt)
    args.update(kw)
    return CylinderGeometry(**args)


def mirrored(u):
    """``u`` reflected evenly across x_n = 0 onto the extended grid (x_n is axis 1)."""
    vals = np.concatenate([u.values[:, :0:-1], u.values], axis=1)
    return ScalarField(u.geometry.extend(), vals, u.kind)


# ---- geometry and grids ----------------------------------------------------


def test_grid_is_uniform_partition_with_exact_endpoints():
    g = small_geometry()
    xp, xn, t = (g.axis_nodes(axis) for axis in ("xp", "xn", "t"))
    assert xp[0] == 0.0 and xp[-1] == 1.0
    assert xn[0] == 0.0 and xn[-1] == 1.0
    assert t[0] == -1.0 and t[-1] == 1.0
    assert np.allclose(np.diff(xp), g.spacing("xp"), rtol=0, atol=1e-15)
    assert g.spacing("xn") == pytest.approx(1.0 / 8.0, abs=0)


def test_geometry_rejects_degenerate_extents():
    with pytest.raises(ValidationError):
        small_geometry(d_lo=1.0, d_hi=1.0)
    with pytest.raises(ValidationError):
        small_geometry(ell=-1.0)
    with pytest.raises(ValidationError):
        small_geometry(delta=0.0)
    with pytest.raises(ValidationError):
        CylinderGeometry(0.0, float("nan"), 1.0, 1.0, GammaSide.HI, 11, 9, 11)


def test_geometry_rejects_too_coarse_grids():
    with pytest.raises(ValidationError, match="grid too coarse"):
        small_geometry(nx_n=3)


def test_extended_geometry_needs_odd_axial_count():
    with pytest.raises(ValidationError, match="odd axial node count"):
        small_geometry(nx_n=8, extended=True)
    g = small_geometry().extend()
    assert g.extended and g.nx_n == 17
    assert g.axis_nodes("xn")[g.xn_zero_index] == 0.0


def test_refine_doubles_resolution():
    g = small_geometry().refine()
    assert (g.nx_prime, g.nx_n, g.nt) == (21, 17, 21)
    assert g.spacing("xp") == pytest.approx(0.05, rel=1e-15)


# ---- scalar fields ----------------------------------------------------------


def test_field_shape_and_finiteness_checks():
    g = small_geometry()
    with pytest.raises(ValidationError, match="shape"):
        ScalarField(g, np.zeros((3, 3)), FieldKind.SPACE_ONLY)
    bad = np.zeros(g.shape(FieldKind.SPACE_ONLY))
    bad[0, 0] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        ScalarField(g, bad, FieldKind.SPACE_ONLY)


def test_field_values_are_read_only():
    g = small_geometry()
    u = ScalarField.zeros(g, FieldKind.SPACE_TIME)
    with pytest.raises(ValueError):
        u.values[0, 0, 0] = 1.0


def test_field_copies_and_leaves_the_callers_array_writable():
    g = small_geometry()
    a = np.zeros(g.shape(FieldKind.SPACE_TIME))
    u = ScalarField(g, a, FieldKind.SPACE_TIME)
    a[0, 0, 0] = 1.0
    assert u.values[0, 0, 0] == 0.0
    assert not u.values.flags.writeable


def test_diff_and_trace_results_are_read_only_and_own_their_memory():
    g = small_geometry()
    u = ScalarField.from_function(g, FieldKind.SPACE_TIME, lambda xp, xn, t: xp * xn + t)
    for out in (diff(u, "xn", 1), diff(u, "t", 2), trace(u, Face.GAMMA_SIDE),
                trace(u, Face.T_PLUS_DELTA)):
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, u.values)


def test_from_function_samples_tensor_grid():
    g = small_geometry()
    u = ScalarField.from_function(g, FieldKind.SPACE_TIME, lambda xp, xn, t: xp + 10 * xn + 100 * t)
    xp, xn, t = (g.axis_nodes(axis) for axis in ("xp", "xn", "t"))
    assert u.values[3, 2, 1] == pytest.approx(xp[3] + 10 * xn[2] + 100 * t[1], rel=1e-15)


# ---- finite differences ------------------------------------------------------


def test_first_derivative_exact_on_quadratics():
    g = small_geometry()
    u = ScalarField.from_function(g, FieldKind.SPACE_ONLY, lambda xp, xn: xn * xn)
    expect = ScalarField.from_function(g, FieldKind.SPACE_ONLY, lambda xp, xn: 2 * xn)
    assert np.max(np.abs(diff(u, "xn", 1).values - expect.values)) < 1e-13


def test_second_derivative_exact_on_cubics():
    # the one-sided four-point stencil is exact up to cubic terms
    g = small_geometry()
    u = ScalarField.from_function(g, FieldKind.SPACE_ONLY, lambda xp, xn: xn**3)
    expect = ScalarField.from_function(g, FieldKind.SPACE_ONLY, lambda xp, xn: 6 * xn)
    assert np.max(np.abs(diff(u, "xn", 2).values - expect.values)) < 1e-12


def test_laplacian_annihilates_harmonic_quadratic():
    g = small_geometry()
    u = ScalarField.from_function(g, FieldKind.SPACE_ONLY, lambda xp, xn: xp * xp - xn * xn)
    assert np.max(np.abs(laplacian(u).values)) < 1e-12


def test_time_derivative_exact_on_quadratic():
    g = small_geometry()
    u = ScalarField.from_function(g, FieldKind.CROSS_SECTION_TIME, lambda xp, t: t * t + xp)
    expect = ScalarField.from_function(g, FieldKind.CROSS_SECTION_TIME, lambda xp, t: 2 * t)
    assert np.max(np.abs(diff(u, "t", 1).values - expect.values)) < 1e-13


def test_laplacian_two_grid_ratio_near_four():
    def err(g):
        u = ScalarField.from_function(
            g, FieldKind.SPACE_ONLY, lambda xp, xn: np.sin(np.pi * xp) * np.sin(np.pi * xn)
        )
        return np.max(np.abs(laplacian(u).values + 2 * np.pi**2 * u.values))

    g = small_geometry(nx_prime=33, nx_n=33)
    ratio = err(g) / err(g.refine())
    assert 3.6 < ratio < 4.4


def test_diff_is_linear():
    g = small_geometry()
    rng = np.random.default_rng(7)
    u = ScalarField(g, rng.standard_normal(g.shape(FieldKind.SPACE_TIME)), FieldKind.SPACE_TIME)
    v = ScalarField(g, rng.standard_normal(g.shape(FieldKind.SPACE_TIME)), FieldKind.SPACE_TIME)
    lhs = diff(u.with_values(2.5 * u.values - 3.0 * v.values), "xn", 1).values
    rhs = 2.5 * diff(u, "xn", 1).values - 3.0 * diff(v, "xn", 1).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_diff_rejects_missing_axis_and_bad_order():
    g = small_geometry()
    f = ScalarField.zeros(g, FieldKind.CROSS_SECTION)
    with pytest.raises(ValidationError, match="no 'xn' axis"):
        diff(f, "xn", 1)
    u = ScalarField.zeros(g, FieldKind.SPACE_ONLY)
    with pytest.raises(ValidationError, match="order"):
        diff(u, "xn", 3)



@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_stencil_into_out_carries_the_bits_of_the_allocating_call(axis, order):
    a = np.random.default_rng(10 * order + axis).standard_normal((9, 13, 7))
    h = 0.0625
    fresh = diff_array(a, axis, h, order)
    out = np.full_like(a, np.nan)
    assert diff_array(a, axis, h, order, out=out) is out
    assert out.tobytes() == fresh.tobytes()
    # the interior rows are the outer pair first, then the center tap, then the division
    b, d = np.moveaxis(a, axis, 0), np.moveaxis(fresh, axis, 0)
    if order == 1:
        interior = (b[2:] - b[:-2]) / (2.0 * h)
    else:
        interior = ((b[2:] + b[:-2]) + -2.0 * b[1:-1]) / (h * h)
    assert d[1:-1].tobytes() == interior.tobytes()


def test_stencil_refuses_an_out_that_overlaps_its_input_or_has_another_shape():
    a = np.random.default_rng(1).standard_normal((6, 8))
    for out in (a, a[::-1], a.T.T):
        with pytest.raises(ValidationError, match="share memory"):
            diff_array(a, 0, 0.1, 2, out=out)
    stack = np.zeros((2, 6, 8))
    with pytest.raises(ValidationError, match="share memory"):
        diff_array(stack[0], 1, 0.1, 1, out=stack[0, ::-1])
    with pytest.raises(ValidationError, match="does not match"):
        diff_array(a, 0, 0.1, 1, out=np.empty((8, 6)))
    diff_array(stack[0], 1, 0.1, 1, out=stack[1])  # a disjoint slice of one buffer is fine

@pytest.mark.parametrize("n", [4, 5, 6, 9, 11, 21, 41, 50, 76])
@pytest.mark.parametrize("order", [1, 2])
def test_sparse_stencil_matches_array_stencil(n, order):
    h = 1.0 / (n - 1)
    m = diff_matrix(n, h, order)
    # no explicit zeros: the order-1 interior rows skip their center node
    assert m.nnz == np.count_nonzero(m.data) == (2 * n + 2 if order == 1 else 3 * n + 2)
    rng = np.random.default_rng(n + 10 * order)
    for _ in range(5):
        v = rng.standard_normal(n)
        expected = diff_array(v, 0, h, order)
        assert np.max(np.abs(m @ v - expected)) <= 1e-13 * np.max(np.abs(expected))
    # the matrix carries the array stencil's bits; at 6, 11, 21, 41, 50 and 76
    # nodes an end-row tap rounded as tap * (1 / den) misses them by an ulp
    for span in (1.0, 2.0):
        h = span / (n - 1)
        assert np.array_equal(diff_matrix(n, h, order).toarray(), diff_array(np.eye(n), 0, h, order))


@pytest.mark.parametrize("order", [1, 2])
def test_sparse_stencil_of_a_long_axis_holds_no_square_array(order):
    n = 100_000
    tracemalloc.start()
    try:
        m = diff_matrix(n, 1.0 / (n - 1), order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nnz == np.count_nonzero(m.data) == (2 * n + 2 if order == 1 else 3 * n + 2)
    assert peak < 64e6  # one n x n float64 array would take 80 GB


# ---- even reflection across x_n = 0 ------------------------------------------


def test_dxn_of_even_extension_is_antisymmetric_exactly():
    g = small_geometry()
    rng = np.random.default_rng(11)
    u = ScalarField(g, rng.standard_normal(g.shape(FieldKind.SPACE_ONLY)), FieldKind.SPACE_ONLY)
    w = diff(mirrored(u), "xn", 1).values
    i0 = (w.shape[1] - 1) // 2
    assert np.array_equal(w[:, i0], np.zeros(w.shape[0]))
    for k in range(1, i0 + 1):
        assert np.array_equal(w[:, i0 + k], -w[:, i0 - k])


def test_dxn2_of_even_extension_is_symmetric_exactly():
    g = small_geometry()
    rng = np.random.default_rng(12)
    u = ScalarField(g, rng.standard_normal(g.shape(FieldKind.SPACE_ONLY)), FieldKind.SPACE_ONLY)
    w = diff(mirrored(u), "xn", 2).values
    i0 = (w.shape[1] - 1) // 2
    for k in range(1, i0 + 1):
        assert np.array_equal(w[:, i0 + k], w[:, i0 - k])


def test_face_stencil_mismatch_after_extension_shrinks_second_order():
    # dxn on the original grid uses a one-sided stencil at x_n = 0 while the
    # extension sees a central one; the gap is pure h^2 for a cubic profile.
    def gap(g):
        u = ScalarField.from_function(g, FieldKind.SPACE_ONLY, lambda xp, xn: np.sin(xp) * xn**3)
        w = diff(mirrored(u), "xn", 1).values
        return np.max(np.abs(w[:, g.nx_n - 1:] - diff(u, "xn", 1).values))

    g = small_geometry()
    ratio = gap(g) / gap(g.refine())
    assert 3.9 < ratio < 4.1


# ---- traces ------------------------------------------------------------------


def test_trace_xn_ell_of_axial_square_is_constant():
    g = small_geometry()
    u = ScalarField.from_function(g, FieldKind.SPACE_TIME, lambda xp, xn, t: xn * xn)
    tr = trace(u, Face.XN_ELL)
    assert tr.kind is FieldKind.CROSS_SECTION_TIME
    assert np.max(np.abs(tr.values - g.ell**2)) < 1e-15


def test_trace_faces_pick_expected_slices():
    g = small_geometry()
    u = ScalarField.from_function(g, FieldKind.SPACE_TIME, lambda xp, xn, t: xp + 10 * xn + 100 * t)
    assert trace(u, Face.GAMMA_SIDE).kind is FieldKind.AXIAL_TIME
    assert trace(u, Face.GAMMA_SIDE).values[0, 0] == pytest.approx(1.0 + 100 * -1.0, rel=1e-15)
    assert trace(u, Face.OPPOSITE_SIDE).values[0, 0] == pytest.approx(100 * -1.0, rel=1e-15)
    sp = trace(u, Face.T_PLUS_DELTA)
    assert sp.kind is FieldKind.SPACE_ONLY
    assert sp.values[0, 0] == pytest.approx(100.0, rel=1e-15)
    assert trace(u, Face.T_MINUS_DELTA).values[0, 0] == pytest.approx(-100.0, rel=1e-15)
    lo = trace(u, Face.XN_ZERO)
    assert lo.kind is FieldKind.CROSS_SECTION_TIME
    assert lo.values[1, 1] == pytest.approx(u.values[1, 0, 1], rel=0)


def test_trace_xn_neg_ell_needs_extension():
    g = small_geometry()
    u = ScalarField.zeros(g, FieldKind.SPACE_TIME)
    with pytest.raises(ValidationError, match="XN_NEG_ELL"):
        trace(u, Face.XN_NEG_ELL)
    ue = mirrored(u)
    assert trace(ue, Face.XN_NEG_ELL).kind is FieldKind.CROSS_SECTION_TIME


def test_time_slice_requires_a_node():
    g = small_geometry()
    f = ScalarField.from_function(g, FieldKind.CROSS_SECTION_TIME, lambda xp, t: t)
    mid = time_slice(f, 0.0)
    assert mid.kind is FieldKind.CROSS_SECTION
    assert np.all(mid.values == 0.0)
    with pytest.raises(ValidationError, match="not a grid node"):
        time_slice(f, 0.123456)


# ---- norms -------------------------------------------------------------------


def test_l2_norm_of_unit_field_is_sqrt_volume():
    g = small_geometry()
    u = ScalarField.constant(g, FieldKind.SPACE_TIME, 1.0)
    assert discrete_norm(u) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_norm_scales_linearly():
    g = small_geometry()
    rng = np.random.default_rng(5)
    u = ScalarField(g, rng.standard_normal(g.shape(FieldKind.SPACE_ONLY)), FieldKind.SPACE_ONLY)
    for kind in NormKind:
        base = discrete_norm(u, kind=kind)
        scaled = u.with_values(-3.0 * u.values)
        assert discrete_norm(scaled, kind=kind) == pytest.approx(3.0 * base, rel=1e-13)


def test_region_norm_is_monotone_under_nesting():
    g = small_geometry(nx_prime=21, nt=21)
    rng = np.random.default_rng(9)
    u = ScalarField(g, rng.standard_normal(g.shape(FieldKind.CROSS_SECTION_TIME)), FieldKind.CROSS_SECTION_TIME)
    inner = discrete_norm(u, Region(xp=(0.5, 1.0), t=(-0.7, 0.7)))
    outer = discrete_norm(u)
    assert inner <= outer


def test_region_norm_on_aligned_box_matches_subvolume():
    g = small_geometry(nx_prime=21, nt=21)
    u = ScalarField.constant(g, FieldKind.CROSS_SECTION_TIME, 1.0)
    got = discrete_norm(u, Region(xp=(0.5, 1.0), t=(-0.5, 0.5)))
    assert got == pytest.approx(np.sqrt(0.5 * 1.0), rel=1e-13)


def test_node_rule_widens_both_ends_by_the_axis_tolerance():
    # spans of 1 and 4: the tolerance is 1e-9 on xp and 4e-9 on the extended xn
    g = small_geometry(nx_prime=21, ell=2.0)
    assert g.node_tolerance("xp") == 1e-9
    assert g.nodes_within("xp", 0.5 + 0.9e-9, 1.0) == slice(10, 21)
    assert g.nodes_within("xp", 0.5 + 1.1e-9, 1.0 + 5.0) == slice(11, 21)
    assert g.nodes_within("xp", 0.301, 0.349) == slice(0, 0)
    gx = g.extend()
    assert gx.node_tolerance("xn") == 4e-9
    assert gx.nodes_within("xn", 3.5e-9, 2.0) == slice(gx.xn_zero_index, gx.nx_n)


def test_empty_region_raises():
    g = small_geometry()
    u = ScalarField.zeros(g, FieldKind.SPACE_ONLY)
    with pytest.raises(ValidationError, match="empty region"):
        discrete_norm(u, Region(xp=(0.301, 0.349)))


def test_surface_norms_are_ordered_and_need_two_axes():
    g = small_geometry()
    u = ScalarField.from_function(g, FieldKind.SPACE_ONLY, lambda xp, xn: np.sin(xp) * np.cos(xn))
    l2 = discrete_norm(u, kind=NormKind.L2)
    h1 = discrete_norm(u, kind=NormKind.H1_SURFACE)
    h2 = discrete_norm(u, kind=NormKind.H2_SURFACE)
    assert l2 < h1 < h2
    w = ScalarField.zeros(g, FieldKind.SPACE_TIME)
    with pytest.raises(ValidationError, match="two-axis"):
        discrete_norm(w, kind=NormKind.H1_SURFACE)


@pytest.mark.parametrize("region", [None, Region(xp=(0.5, 1.0), t=(-0.5, 0.5))])
def test_stacked_norms_carry_the_bits_of_each_field_alone(region):
    g = small_geometry(nx_prime=21, nt=21)
    kind = FieldKind.CROSS_SECTION_TIME
    stack = np.random.default_rng(3).standard_normal((3, *g.shape(kind)))
    for norm in NormKind:
        alone = [discrete_norm(ScalarField(g, a, kind), region, norm) for a in stack]
        assert discrete_norms(g, kind, stack, region, norm) == alone
        assert discrete_norms(g, kind, stack[:0], region, norm) == []
    with pytest.raises(ValidationError, match="does not hold fields of shape"):
        discrete_norms(g, FieldKind.SPACE_ONLY, stack)



def test_stacked_norms_equal_one_np_sum_per_field_and_piece():
    # the row-wise reduction of discrete_norms against the plain per-field
    # formula: each derivative restricted to the region, w * q * q summed
    # with one np.sum per field, the pieces added in the order L2, d0, d1,
    # d00, d01, d11
    g = small_geometry(nx_prime=21, nt=17)
    kind = FieldKind.CROSS_SECTION_TIME
    region = Region(xp=(0.25, 0.9), t=(-0.5, 0.75))
    stack = np.random.default_rng(8).standard_normal((4, *g.shape(kind)))
    hx, ht = g.spacing("xp"), g.spacing("t")
    sel = (g.nodes_within("xp", 0.25, 0.9), g.nodes_within("t", -0.5, 0.75))
    w = np.multiply.outer(axis_weights(sel[0].stop - sel[0].start, hx),
                          axis_weights(sel[1].stop - sel[1].start, ht))
    want = []
    for a in stack:
        d0 = diff_array(a, 0, hx, 1)
        pieces = [a, d0, diff_array(a, 1, ht, 1), diff_array(a, 0, hx, 2),
                  diff_array(d0, 1, ht, 1), diff_array(a, 1, ht, 2)]
        total = 0.0
        for p in pieces:
            q = p[sel]
            total += float(np.sum(w * q * q))
        want.append(math.sqrt(total))
    got = discrete_norms(g, kind, stack, region, NormKind.H2_SURFACE)
    assert got == want
    assert [discrete_norm(ScalarField(g, a, kind), region, NormKind.H2_SURFACE)
            for a in stack] == want

def test_norm_is_deterministic():
    g = small_geometry()
    rng = np.random.default_rng(1)
    u = ScalarField(g, rng.standard_normal(g.shape(FieldKind.SPACE_TIME)), FieldKind.SPACE_TIME)
    assert discrete_norm(u) == discrete_norm(u)


# the (kind, dropped axis) -> kind table that ``FieldKind.without`` replaced;
# a pair it left out, or mapped to None, was refused
_DROP_KIND_TABLE = {
    (FieldKind.SPACE_TIME, "xn"): FieldKind.CROSS_SECTION_TIME,
    (FieldKind.SPACE_TIME, "xp"): FieldKind.AXIAL_TIME,
    (FieldKind.SPACE_TIME, "t"): FieldKind.SPACE_ONLY,
    (FieldKind.SPACE_ONLY, "xn"): FieldKind.CROSS_SECTION,
    (FieldKind.CROSS_SECTION_TIME, "t"): FieldKind.CROSS_SECTION,
    (FieldKind.AXIAL_TIME, "xn"): None,
}


@pytest.mark.parametrize("axis", ["xp", "xn", "t"])
@pytest.mark.parametrize("kind", list(FieldKind), ids=lambda kind: kind.name)
def test_dropping_an_axis_gives_the_kind_the_table_gave(kind, axis):
    want = _DROP_KIND_TABLE.get((kind, axis))
    if want is None:
        message = f"trace along {axis!r} is not defined for fields of kind {kind.name}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            kind.without(axis)
    else:
        assert kind.without(axis) is want
