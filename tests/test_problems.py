import dataclasses
import math

import numpy as np
import pytest
import sympy as sp

from carleman_lab import geometry
from carleman_lab.errors import ValidationError
from carleman_lab.geometry import (
    CylinderGeometry,
    Face,
    FieldKind,
    GammaSide,
    ScalarField,
    diff,
    laplacian,
    trace,
)
from carleman_lab.problems import (
    AXIAL_PROFILES,
    BUNDLE_CHANNELS,
    CROSS_TIME_PROFILES,
    AxialProfile,
    BoundaryBundle,
    CrossTimeProfile,
    Recipe,
    add_noise,
    axial_profile,
    coefficient_reduction,
    compute_apriori_bound,
    compute_data_functional,
    compute_data_functionals,
    cross_time_profile,
    load_instance,
    make_instance,
    residual_field,
    save_instance,
    _validated_instance,
)


# ---- profile registry against a symbolic oracle -------------------------------


@pytest.mark.parametrize("name", sorted(AXIAL_PROFILES))
def test_axial_profile_derivatives_match_sympy(name):
    prof = axial_profile(name)
    x = sp.Symbol("x")
    expr = sp.nsimplify(0)
    # reconstruct the symbolic profile from its nodal values via fitting a
    # quartic; every registered axial profile is polynomial of degree <= 4
    xs = np.linspace(0.0, 1.0, 9)
    coeffs = np.polyfit(xs, prof.fn(xs), 4)
    for k, c in enumerate(coeffs):
        expr += sp.nsimplify(round(float(c), 9)) * x ** (4 - k)
    d1 = sp.lambdify(x, sp.diff(expr, x), "numpy")
    d2 = sp.lambdify(x, sp.diff(expr, x, 2), "numpy")
    grid = np.linspace(0.0, 1.0, 33)
    assert np.allclose(prof.d1(grid), d1(grid), rtol=0, atol=1e-9)
    assert np.allclose(prof.d2(grid), d2(grid) * np.ones_like(grid), rtol=0, atol=1e-9)


CT_SYMBOLIC = {
    "one": lambda xp, t: sp.Integer(1),
    "constant": lambda xp, t: sp.Float(2.5),
    "exp_cos": lambda xp, t: sp.exp(-t) * sp.cos(xp),
    "two_plus_sin": lambda xp, t: 2 + sp.sin(xp),
    "cos_cos": lambda xp, t: sp.cos(xp) * sp.cos(sp.Rational(1, 2) * t),
}

CT_PARAMS = {"constant": {"value": 2.5}, "cos_cos": {"omega": 0.5}}


@pytest.mark.parametrize("name", sorted(CROSS_TIME_PROFILES))
def test_cross_time_profile_derivatives_match_sympy(name):
    prof = cross_time_profile(name, **CT_PARAMS.get(name, {}))
    xp_s, t_s = sp.symbols("xp t")
    expr = CT_SYMBOLIC[name](xp_s, t_s)
    fn = sp.lambdify((xp_s, t_s), expr, "numpy")
    ft = sp.lambdify((xp_s, t_s), sp.diff(expr, t_s), "numpy")
    fxx = sp.lambdify((xp_s, t_s), sp.diff(expr, xp_s, 2), "numpy")
    XP, T = np.meshgrid(np.linspace(0, 1, 9), np.linspace(-1, 1, 9), indexing="ij")
    ones = np.ones_like(XP)
    assert np.allclose(prof.fn(XP, T), fn(XP, T) * ones, rtol=1e-12, atol=1e-12)
    assert np.allclose(prof.dt_fn(XP, T), ft(XP, T) * ones, rtol=1e-12, atol=1e-12)
    assert np.allclose(prof.dxx_fn(XP, T), fxx(XP, T) * ones, rtol=1e-12, atol=1e-12)


def test_unknown_profiles_are_rejected():
    with pytest.raises(ValidationError, match="unknown axial profile"):
        axial_profile("quintic")
    with pytest.raises(ValidationError, match="unknown cross-time profile"):
        cross_time_profile("tanh")


# ---- manufactured instances -----------------------------------------------------


def test_source_profile_has_closed_form(worked_geometry, quartic_instance):
    g = worked_geometry
    xp, xn, t = (g.axis_nodes(a) for a in ("xp", "xn", "t"))
    want = -(2.0 + 12.0 * xn[None, :, None] ** 2) * (
        np.exp(-t)[None, None, :] * np.cos(xp)[:, None, None]
    )
    assert np.max(np.abs(quartic_instance.R.values - want)) == 0.0


def test_residual_is_small_relative_to_term_scale(worked_geometry, quartic_instance):
    res = np.max(np.abs(residual_field(quartic_instance).values))
    h = max(worked_geometry.spacing(a) for a in ("xp", "xn", "t"))
    scale = quartic_instance.R.max_abs()
    assert res <= 10 * h * h * scale


def test_cauchy_data_vanish_on_the_bottom_face(quartic_instance):
    assert trace(quartic_instance.u, Face.XN_ZERO).max_abs() == 0.0


def test_bundle_channels_live_on_the_face(quartic_instance):
    for name, ch in quartic_instance.data.channels().items():
        assert ch.kind is FieldKind.AXIAL_TIME, name
    assert quartic_instance.data.noise_level == 0.0


def test_a_bundle_of_six_traces_is_refused(quartic_instance):
    with pytest.raises(ValidationError, match="7 channel traces, got 6"):
        BoundaryBundle(quartic_instance.data.traces[:6])


def test_trace_identity_relates_source_to_second_derivative(worked_geometry, quartic_instance):
    # f * R = -d2u/dxn2 on x_n = 0, up to the one-sided stencil error on x^4
    lhs = quartic_instance.f.values * trace(quartic_instance.R, Face.XN_ZERO).values
    rhs = -trace(diff(quartic_instance.u, "xn", 2), Face.XN_ZERO).values
    h = worked_geometry.spacing("xn")
    scale = quartic_instance.u.max_abs()
    assert np.max(np.abs(lhs - rhs)) <= 30 * h * h * max(scale, 1.0)


def test_an_instance_build_takes_each_volume_derivative_once(
    monkeypatch, worked_geometry, quartic_recipe
):
    # y = du/dx_n, the six channels past y (y_xnt from y_xn), du/dt and the
    # two terms of the Laplacian; the norms' face stacks have other shapes
    volume = worked_geometry.shape(FieldKind.SPACE_TIME)
    calls = []
    stencil = geometry.diff_array

    def counted(a, *args, **kwargs):
        calls.append(a.shape == volume)
        return stencil(a, *args, **kwargs)

    monkeypatch.setattr(geometry, "diff_array", counted)
    make_instance(worked_geometry, quartic_recipe)
    assert sum(calls) == 10


def instance_of(g, a, r_scale=1.0):
    """The instance of u = a(x_n) e^t, f = 1, p0 = 0, with R = r_scale (du/dt - Lap u)
    on the discrete operator, so that r_scale = 1 leaves no PDE residual."""
    u = ScalarField.from_function(g, FieldKind.SPACE_TIME, lambda xp, xn, t: a(xn) * np.exp(t))
    R = u.with_values(r_scale * (diff(u, "t", 1).values - laplacian(u).values))
    one = ScalarField.constant(g, FieldKind.CROSS_SECTION_TIME, 1.0)
    zero = ScalarField.zeros(g, FieldKind.CROSS_SECTION_TIME)
    return _validated_instance(u, one, R, zero, {}, trace_tol=1e-12)


@pytest.mark.parametrize(
    "a, r_scale, message",
    [
        (lambda xn: xn**2, 2.0, "PDE residual"),
        (lambda xn: xn**2 + 1.0, 1.0, "solution trace at x_n = 0"),
        (lambda xn: xn + xn**2, 1.0, "axial derivative trace at x_n = 0"),
        # the one-sided second difference of x_n^3 is 0 at x_n = 0
        (lambda xn: xn**3, 1.0, "source profile R vanishes"),
    ],
    ids=["residual", "trace", "axial_derivative", "r_vanishes"],
)
def test_each_instance_check_refuses_its_own_defect(worked_geometry, a, r_scale, message):
    # each field breaks one check and passes the other three; u = x_n^2 e^t passes all
    assert instance_of(worked_geometry, lambda xn: xn**2).d_of_u > 0.0
    with pytest.raises(ValidationError, match=message):
        instance_of(worked_geometry, a, r_scale)


def test_make_instance_rejects_bad_axial_slope(worked_geometry):
    bad = AxialProfile(
        "linear", (), lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
    )
    rec = Recipe(
        a=bad,
        b=cross_time_profile("one"),
        f=cross_time_profile("one"),
        p0=cross_time_profile("constant", value=0.0),
    )
    with pytest.raises(ValidationError, match="zero slope"):
        make_instance(worked_geometry, rec)


def test_make_instance_rejects_flat_axial_curvature(worked_geometry):
    flat = AxialProfile(
        "cubic_only", (), lambda x: x**3, lambda x: 3 * x * x, lambda x: 6 * x
    )
    rec = Recipe(
        a=flat,
        b=cross_time_profile("one"),
        f=cross_time_profile("one"),
        p0=cross_time_profile("constant", value=0.0),
    )
    with pytest.raises(ValidationError, match="nonzero curvature"):
        make_instance(worked_geometry, rec)


def test_make_instance_rejects_vanishing_factors(worked_geometry):
    zeroing = CrossTimeProfile(
        "sin_only",
        (),
        lambda xp, t: np.sin(xp) + 0 * t,
        lambda xp, t: np.zeros(np.broadcast(xp, t).shape),
        lambda xp, t: -np.sin(xp) + 0 * t,
    )
    ok = cross_time_profile("one")
    with pytest.raises(ValidationError, match="reaches zero"):
        make_instance(
            worked_geometry,
            Recipe(a=axial_profile("quadratic"), b=zeroing, f=ok, p0=ok),
        )
    with pytest.raises(ValidationError, match="reaches zero"):
        make_instance(
            worked_geometry,
            Recipe(a=axial_profile("quadratic"), b=ok, f=zeroing, p0=ok),
        )


def test_make_instance_rejects_extended_geometry(worked_geometry, quartic_recipe):
    with pytest.raises(ValidationError, match="physical cylinder"):
        make_instance(worked_geometry.extend(), quartic_recipe)


# ---- scalar summaries ------------------------------------------------------------


def test_data_functional_vanishes_only_with_the_bundle(worked_geometry, quartic_instance):
    assert quartic_instance.d_of_u > 0
    zero = ScalarField.zeros(worked_geometry, FieldKind.AXIAL_TIME)
    silent = dataclasses.replace(quartic_instance.data, traces=(zero,) * len(BUNDLE_CHANNELS))
    assert compute_data_functional(silent) == 0.0


def test_stacked_data_functionals_carry_each_bundles_own_bits(worked_geometry, quartic_instance):
    # the sweep takes a block's D(u) from one norm stack per kind; each value
    # must be the bundle's own functional, bit for bit, noisy, clean or zero
    clean = quartic_instance.data
    zero = ScalarField.zeros(worked_geometry, FieldKind.AXIAL_TIME)
    silent = dataclasses.replace(clean, traces=(zero,) * len(BUNDLE_CHANNELS))
    noisy = [add_noise(clean, level, seed=11 + i) for i, level in enumerate((0.1, 1e-3, 1e-6))]
    bundles = [noisy[0], clean, silent, *noisy[1:], clean]
    stacked = compute_data_functionals(bundles)
    assert stacked == [compute_data_functional(bundle) for bundle in bundles]
    assert stacked[1] == quartic_instance.d_of_u and stacked[2] == 0.0
    assert compute_data_functionals([]) == []


def test_stacked_data_functionals_refuse_bundles_of_two_grids(worked_geometry, quartic_instance):
    # same shape, other axial length: one stack would weight it wrongly
    other = dataclasses.replace(worked_geometry, ell=2.0)
    clean = quartic_instance.data
    moved = dataclasses.replace(
        clean, traces=tuple(ScalarField(other, ch.values, ch.kind) for ch in clean.traces)
    )
    with pytest.raises(ValidationError, match="different grids"):
        compute_data_functionals([clean, moved])


def test_data_functional_is_degree_one_homogeneous(quartic_instance):
    scaled = dataclasses.replace(
        quartic_instance.data,
        traces=tuple(ch.with_values(-4.0 * ch.values) for ch in quartic_instance.data.traces),
    )
    got = compute_data_functional(scaled)
    assert got == pytest.approx(4.0 * quartic_instance.d_of_u, rel=1e-13)


def test_data_functional_matches_quadrature_oracle(worked_geometry, quartic_instance):
    # independent reimplementation: explicit trapezoid weights on the data
    # face and hand-rolled stencils, so any wiring slip in the norm helpers
    # would show up here
    g = worked_geometry
    channels = quartic_instance.data.channels()
    y, y_xp = channels["y"].values, channels["y_xp"].values
    hn, ht = g.spacing("xn"), g.spacing("t")

    def d1(a, h, axis):
        a = np.moveaxis(a, axis, 0)
        out = np.empty_like(a)
        out[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
        out[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h)
        out[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h)
        return np.moveaxis(out, 0, axis)

    def d2(a, h, axis):
        a = np.moveaxis(a, axis, 0)
        out = np.empty_like(a)
        out[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / (h * h)
        out[0] = (2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]) / (h * h)
        out[-1] = (2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]) / (h * h)
        return np.moveaxis(out, 0, axis)

    wn = np.full(g.nx_n, hn)
    wn[[0, -1]] *= 0.5
    wt = np.full(g.nt, ht)
    wt[[0, -1]] *= 0.5
    w = np.outer(wn, wt)

    def nsq(a):
        return float(np.sum(w * a * a))

    yn, yt = d1(y, hn, 0), d1(y, ht, 1)
    grad_group = nsq(y_xp) + nsq(y) + nsq(yn) + nsq(yt)
    h2_group = (
        nsq(y) + nsq(yn) + nsq(yt)
        + nsq(d2(y, hn, 0)) + nsq(d1(yn, ht, 1)) + nsq(d2(y, ht, 1))
    )
    want = math.sqrt(grad_group + h2_group)
    assert quartic_instance.d_of_u == pytest.approx(want, rel=1e-10)


def test_apriori_bound_is_degree_one_homogeneous(quartic_instance):
    u = quartic_instance.u
    scaled = dataclasses.replace(quartic_instance, u=u.with_values(2.5 * u.values))
    got = compute_apriori_bound(scaled)
    assert got == pytest.approx(2.5 * quartic_instance.apriori_bound, rel=1e-13)


def test_data_functional_bounded_by_apriori_bound(quartic_instance):
    assert quartic_instance.d_of_u <= quartic_instance.apriori_bound


# ---- noise -----------------------------------------------------------------------


def test_noise_is_reproducible_and_seed_sensitive(quartic_instance):
    clean = quartic_instance.data
    n1 = add_noise(clean, 0.01, seed=42)
    n2 = add_noise(clean, 0.01, seed=42)
    n3 = add_noise(clean, 0.01, seed=43)
    for a, b in zip(n1.traces, n2.traces, strict=True):
        assert np.array_equal(a.values, b.values)
    assert any(
        not np.array_equal(a.values, b.values) for a, b in zip(n1.traces, n3.traces, strict=True)
    )
    assert n1.noise_level == 0.01 and n1.seed == 42


def test_noise_is_drawn_per_channel_in_declaration_order(quartic_instance):
    # sweep.csv's bytes rest on this draw order
    level, seed = 0.03, 5
    noisy = add_noise(quartic_instance.data, level, seed)
    rng = np.random.default_rng(seed)
    for name, ch in quartic_instance.data.channels().items():
        g = rng.standard_normal(ch.values.shape)
        assert np.array_equal(
            noisy.channels()[name].values, ch.values + level * ch.max_abs() * g
        ), name


def test_zero_noise_is_bit_identical(quartic_instance):
    n0 = add_noise(quartic_instance.data, 0.0, seed=7)
    for a, b in zip(n0.traces, quartic_instance.data.traces, strict=True):
        assert np.array_equal(a.values, b.values)
    assert compute_data_functional(n0) == quartic_instance.d_of_u


def test_noise_scales_with_channel_magnitude(quartic_instance):
    level = 0.05
    noisy = add_noise(quartic_instance.data, level, seed=0)
    for clean, ch in zip(quartic_instance.data.traces, noisy.traces, strict=True):
        pert = ch.values - clean.values
        # standard normals rarely exceed 6 sigma on these grid sizes
        assert np.max(np.abs(pert)) <= 6.0 * level * clean.max_abs()
        assert np.max(np.abs(pert)) > 0.0


def test_negative_noise_level_is_rejected(quartic_instance):
    with pytest.raises(ValidationError, match="noise level"):
        add_noise(quartic_instance.data, -0.1, seed=0)


# ---- coefficient reduction ---------------------------------------------------------


def coefficient_pair(geometry):
    p = ScalarField.from_function(
        geometry, FieldKind.CROSS_SECTION_TIME, lambda xp, t: 3.0 + 0 * xp + 0 * t
    )
    q = ScalarField.from_function(
        geometry, FieldKind.CROSS_SECTION_TIME, lambda xp, t: 3.0 - np.sin(xp) + 0 * t
    )
    v_q = ScalarField.from_function(
        geometry, FieldKind.SPACE_TIME, lambda xp, xn, t: 1.0 + xn * xn + 0 * xp + 0 * t
    )
    v_p = ScalarField.from_function(
        geometry,
        FieldKind.SPACE_TIME,
        lambda xp, xn, t: 1.0 + xn * xn - 0.5 * xn * xn * np.sin(xp) + 0 * t,
    )
    return v_p, v_q, p, q


def test_coefficient_reduction_recovers_the_difference(worked_geometry):
    v_p, v_q, p, q = coefficient_pair(worked_geometry)
    inst = coefficient_reduction(v_p, v_q, p, q)
    assert np.array_equal(inst.f.values, p.values - q.values)
    assert np.array_equal(inst.R.values, v_q.values)
    assert np.array_equal(inst.u.values, v_p.values - v_q.values)
    assert inst.provenance["kind"] == "coefficient_reduction"
    assert inst.d_of_u <= inst.apriori_bound


def test_coefficient_reduction_rejects_mismatched_cauchy_data(worked_geometry):
    v_p, v_q, p, q = coefficient_pair(worked_geometry)
    xn = worked_geometry.axis_nodes("xn")[None, :, None]
    v_p_bad = v_p.with_values(v_p.values + 0.01 * np.cos(xn))
    with pytest.raises(ValidationError, match="Cauchy values"):
        coefficient_reduction(v_p_bad, v_q, p, q)
    v_p_slope = v_p.with_values(v_p.values + 0.01 * xn)
    with pytest.raises(ValidationError, match="Cauchy derivatives"):
        coefficient_reduction(v_p_slope, v_q, p, q)


def test_coefficient_reduction_enforces_the_face_floor(worked_geometry):
    v_p, v_q, p, q = coefficient_pair(worked_geometry)
    v_q_zero = ScalarField.from_function(
        worked_geometry, FieldKind.SPACE_TIME, lambda xp, xn, t: xn * xn + 0 * xp + 0 * t
    )
    v_p_zero = ScalarField.from_function(
        worked_geometry,
        FieldKind.SPACE_TIME,
        lambda xp, xn, t: xn * xn - 0.5 * xn * xn * np.sin(xp) + 0 * t,
    )
    with pytest.raises(ValidationError, match="alpha0"):
        coefficient_reduction(v_p_zero, v_q_zero, p, q)


def test_coefficient_reduction_checks_kinds_and_geometry(worked_geometry):
    v_p, v_q, p, q = coefficient_pair(worked_geometry)
    with pytest.raises(ValidationError, match="kind"):
        coefficient_reduction(v_p, v_q, p, v_q)
    other = CylinderGeometry(0.0, 1.0, 1.0, 1.0, GammaSide.HI, 11, 9, 11)
    v_p2, _, _, _ = coefficient_pair(other)
    with pytest.raises(ValidationError, match="different geometry"):
        coefficient_reduction(v_p2, v_q, p, q)


# ---- serialization -----------------------------------------------------------------


def test_instance_archive_roundtrips_exactly(tmp_path, quartic_instance):
    path = tmp_path / "inst.npz"
    save_instance(quartic_instance, path)
    back = load_instance(path)
    assert back.geometry == quartic_instance.geometry
    assert np.array_equal(back.u.values, quartic_instance.u.values)
    assert np.array_equal(back.f.values, quartic_instance.f.values)
    assert np.array_equal(back.R.values, quartic_instance.R.values)
    for a, b in zip(back.data.traces, quartic_instance.data.traces, strict=True):
        assert np.array_equal(a.values, b.values)
    assert back.d_of_u == quartic_instance.d_of_u
    assert back.apriori_bound == quartic_instance.apriori_bound
    assert back.provenance == quartic_instance.provenance


def test_noisy_instance_roundtrips_noise_metadata(tmp_path, quartic_instance):
    noisy = dataclasses.replace(
        quartic_instance, data=add_noise(quartic_instance.data, 0.03, seed=11)
    )
    path = tmp_path / "noisy.npz"
    save_instance(noisy, path)
    back = load_instance(path)
    assert back.data.noise_level == 0.03
    assert back.data.seed == 11


def test_loading_a_foreign_archive_fails_cleanly(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.arange(3.0))
    with pytest.raises(ValidationError, match="not an instance archive"):
        load_instance(path)
