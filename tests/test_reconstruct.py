"""Tests for the two source reconstructors and the stability sweep.

Hand-derived anchors used below:

* the quadratic recipe a = x_n^2 has a zero cubic and quartic part, so the
  one-sided face stencil differentiates it exactly and the oracle formula
  returns f with no discretization error at all;
* for a = x_n^2 + x_n^4 the oracle error is pure O(h^2) in the axial
  spacing, so doubling every interval count divides it by 4;
* a silent bundle makes the least-squares right-hand side exactly zero, so
  the solver returns exact zeros without iterating.
"""

import dataclasses
import io
import math
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded

from carleman_lab import reconstruct
from carleman_lab.errors import SolverError, ValidationError
from carleman_lab.geometry import (
    CylinderGeometry,
    FieldKind,
    GammaSide,
    ScalarField,
    discrete_norm,
)
from carleman_lab.problems import (
    BUNDLE_CHANNELS,
    Recipe,
    add_noise,
    axial_profile,
    cross_time_profile,
    make_instance,
)
from carleman_lab.reconstruct import (
    LateralOperator,
    Regularization,
    _lateral_matrix,
    _lateral_rhs,
    corollary_check,
    lateral_reconstruct,
    load_sweep_csv,
    oracle_trace_reconstruct,
    stability_region,
    stability_sweep,
    write_sweep_csv,
)
from carleman_lab.weight import plan_parameters

SWEEP_LEVELS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def make_plan(geometry):
    return plan_parameters(geometry, (0.5, 1.0), delta0=0.7, lam=1.0, margin=1.1)


@pytest.fixture(scope="module")
def small_geometry():
    return CylinderGeometry(
        d_lo=0.0, d_hi=1.0, ell=1.0, delta=1.0,
        gamma_side=GammaSide.HI, nx_prime=13, nx_n=11, nt=13,
    )


@pytest.fixture(scope="module")
def small_instance(small_geometry, quartic_recipe):
    return make_instance(small_geometry, quartic_recipe)


@pytest.fixture(scope="module")
def small_plan(small_geometry):
    return make_plan(small_geometry)


@pytest.fixture(scope="module")
def sweep_reg():
    return Regularization(tikhonov_weight=1e-6)


@pytest.fixture(scope="module")
def small_operator(small_instance, small_plan, sweep_reg):
    inst = small_instance
    return LateralOperator(inst.geometry, small_plan, inst.p0, inst.R, sweep_reg)


@pytest.fixture(scope="module")
def worked_operator(quartic_instance, worked_plan, sweep_reg):
    inst = quartic_instance
    return LateralOperator(inst.geometry, worked_plan, inst.p0, inst.R, sweep_reg)


@pytest.fixture(scope="module")
def noiseless_solution(quartic_instance, worked_operator):
    return worked_operator.solve(quartic_instance.data)


@pytest.fixture(scope="module")
def worked_sweep(quartic_instance, worked_operator):
    return stability_sweep(quartic_instance, SWEEP_LEVELS, worked_operator, seed=0)


@pytest.fixture(scope="module")
def worked_sweep_with_floor(quartic_instance, worked_operator):
    levels = SWEEP_LEVELS + (0.0,)
    return stability_sweep(quartic_instance, levels, worked_operator, seed=0)


def region_error(f_hat, instance, plan):
    diff = instance.f.with_values(f_hat.values - instance.f.values)
    region = stability_region(plan)
    return discrete_norm(diff, region=region) / discrete_norm(instance.f, region=region)


# ---- oracle reconstruction --------------------------------------------------------


def test_oracle_is_exact_on_the_quadratic_profile(worked_geometry):
    recipe = Recipe(
        a=axial_profile("quadratic"),
        b=cross_time_profile("exp_cos"),
        f=cross_time_profile("one"),
        p0=cross_time_profile("constant", value=0.0),
    )
    inst = make_instance(worked_geometry, recipe)
    f_hat = oracle_trace_reconstruct(inst.u, inst.R)
    err = discrete_norm(inst.f.with_values(f_hat.values - inst.f.values))
    assert err <= 1e-12 * discrete_norm(inst.f)


def test_oracle_error_drops_fourfold_under_refinement(quartic_recipe):
    errs = []
    for nxp, nxn, nt in ((17, 13, 17), (33, 25, 33)):
        g = CylinderGeometry(
            d_lo=0.0, d_hi=1.0, ell=1.0, delta=1.0,
            gamma_side=GammaSide.HI, nx_prime=nxp, nx_n=nxn, nt=nt,
        )
        inst = make_instance(g, quartic_recipe)
        f_hat = oracle_trace_reconstruct(inst.u, inst.R)
        err = discrete_norm(inst.f.with_values(f_hat.values - inst.f.values))
        errs.append(err / discrete_norm(inst.f))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_oracle_on_zero_field_returns_zero(worked_geometry, quartic_instance):
    zero_u = ScalarField.zeros(worked_geometry, FieldKind.SPACE_TIME)
    f_hat = oracle_trace_reconstruct(zero_u, quartic_instance.R)
    assert np.max(np.abs(f_hat.values)) == 0.0


def test_oracle_rejects_vanishing_R(quartic_instance):
    tiny = quartic_instance.R.with_values(1e-13 * quartic_instance.R.values)
    with pytest.raises(ValidationError, match="below the floor"):
        oracle_trace_reconstruct(quartic_instance.u, tiny)


def test_oracle_rejects_bad_inputs(worked_geometry, quartic_instance, small_instance):
    with pytest.raises(ValidationError, match="SPACE_TIME"):
        oracle_trace_reconstruct(quartic_instance.f, quartic_instance.R)
    with pytest.raises(ValidationError, match="different grids"):
        oracle_trace_reconstruct(quartic_instance.u, small_instance.R)
    ext = worked_geometry.extend()
    with pytest.raises(ValidationError, match="half-cylinder"):
        oracle_trace_reconstruct(
            ScalarField.zeros(ext, FieldKind.SPACE_TIME),
            ScalarField.zeros(ext, FieldKind.SPACE_TIME),
        )


# ---- regularization parameters -----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tikhonov_weight": 0.0}, "tikhonov_weight"),
        ({"tikhonov_weight": -1e-8}, "tikhonov_weight"),
        ({"tikhonov_weight": 1e-8, "carleman_s": -1.0}, "carleman_s"),
        ({"tikhonov_weight": 1e-8, "cg_tol": 0.0}, "cg_tol"),
        ({"tikhonov_weight": 1e-8, "cg_tol": 1.0}, "cg_tol"),
        ({"tikhonov_weight": 1e-8, "cg_maxit": 0}, "cg_maxit"),
        ({"tikhonov_weight": 1e-8, "cauchy_weight": 0.0}, "must be positive"),
        ({"tikhonov_weight": 1e-8, "face_weight": -2.0}, "must be positive"),
        ({"tikhonov_weight": 1e-8, "max_factor_gb": 0.0}, "max_factor_gb"),
    ],
)
def test_regularization_rejects_bad_parameters(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        Regularization(**kwargs)


# ---- assembled system --------------------------------------------------------------


def test_assembled_system_is_consistent_with_the_truth(small_instance, small_plan):
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8)
    a = _lateral_matrix(inst.geometry, small_plan, inst.p0, inst.R, reg)
    b = _lateral_rhs(inst.data, inst.geometry, reg)
    z_true = np.concatenate([inst.u.values.ravel(), inst.f.values.ravel()])
    resid = a @ z_true - b
    # the whole residual is finite-difference truncation plus the Tikhonov bias
    assert np.linalg.norm(resid) <= 1e-2 * np.linalg.norm(b)
    # the Cauchy rows replicate the bundle stencils exactly (the data face
    # holds one field per (x_n, t) node)
    g = inst.geometry
    nq = g.nx_prime * g.nx_n * g.nt
    n_face = g.nx_n * g.nt
    cauchy = resid[nq : nq + len(BUNDLE_CHANNELS) * n_face]
    assert np.max(np.abs(cauchy)) <= 1e-10 * np.max(np.abs(b))


def test_forward_map_adjoint_identity(small_instance, small_plan):
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8)
    a = _lateral_matrix(inst.geometry, small_plan, inst.p0, inst.R, reg)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(a.shape[1])
    w = rng.standard_normal(a.shape[0])
    lhs = float((a @ v) @ w)
    rhs = float(v @ (a.T @ w))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


# ---- lateral solver ----------------------------------------------------------------


def test_lateral_solver_recovers_the_source(noiseless_solution, quartic_instance, worked_plan):
    err = region_error(noiseless_solution.f_hat, quartic_instance, worked_plan)
    assert err <= 0.05


def test_residual_history_is_decreasing_and_converged(noiseless_solution, sweep_reg):
    hist = noiseless_solution.residual_history
    assert noiseless_solution.iterations >= 1
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))
    assert hist[-1] <= sweep_reg.cg_tol * hist[0]


def test_zero_bundle_gives_exactly_zero(small_instance, small_plan):
    g = small_instance.geometry
    zero = ScalarField.zeros(g, FieldKind.AXIAL_TIME)
    silent = dataclasses.replace(
        small_instance.data, **{name: zero for name in BUNDLE_CHANNELS}
    )
    sol = lateral_reconstruct(
        silent, g, small_plan, small_instance.p0, small_instance.R,
        Regularization(tikhonov_weight=1e-8),
    )
    assert np.max(np.abs(sol.f_hat.values)) == 0.0
    assert sol.iterations == 0


def test_solver_is_deterministic(small_instance, small_plan):
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8)
    args = (inst.data, inst.geometry, small_plan, inst.p0, inst.R, reg)
    first = lateral_reconstruct(*args)
    second = lateral_reconstruct(*args)
    assert np.array_equal(first.f_hat.values, second.f_hat.values)
    assert np.array_equal(first.u_hat.values, second.u_hat.values)
    assert first.residual_history == second.residual_history


def test_operator_reuse_matches_fresh_solves(small_instance, small_plan):
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8)
    op = LateralOperator(inst.geometry, small_plan, inst.p0, inst.R, reg)
    noisy = add_noise(inst, 0.01, seed=9)
    reused = op.solve(noisy.data)
    fresh = lateral_reconstruct(
        noisy.data, inst.geometry, small_plan, inst.p0, inst.R, reg
    )
    assert np.array_equal(reused.f_hat.values, fresh.f_hat.values)


def test_nonconvergence_reports_the_residual(small_instance, small_plan):
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8, cg_tol=1e-300, cg_maxit=2)
    with pytest.raises(SolverError, match="did not converge in 2 iterations"):
        lateral_reconstruct(
            inst.data, inst.geometry, small_plan, inst.p0, inst.R, reg
        )


def test_cg_breakdown_raises_at_once(small_instance, small_operator, monkeypatch):
    # a negated normal matrix makes p.q negative on the first step
    monkeypatch.setattr(small_operator, "_normal", -small_operator._normal)
    with pytest.raises(SolverError, match="broke down at iteration 1"):
        small_operator.solve(small_instance.data)


@pytest.mark.parametrize(
    "rhs, message",
    [
        # p = e0 gives p.q = 1e-300 > 0, and the step 1e300 * q overflows
        ((1.0, 0.0), "residual norm inf"),
        ((math.nan, 0.0), "p.q = nan"),
    ],
)
def test_cg_stops_on_non_finite_values(small_operator, monkeypatch, rhs, message):
    normal = sp.csr_matrix(np.array([[1e-300, 0.0], [1e300, 0.0]]))
    monkeypatch.setattr(small_operator, "_normal", normal)
    monkeypatch.setattr(small_operator, "_factor", types.SimpleNamespace(solve=np.copy))
    block = np.asfortranarray(np.column_stack([rhs, rhs]))  # both columns fail alike
    match = f"broke down at iteration 1: {message}"
    with np.errstate(over="ignore"), pytest.raises(SolverError, match=match):
        small_operator._pcg(block)


def _per_column(cb):
    """A preconditioner that applies ``cb`` one column at a time with LAPACK."""

    def solve(r):
        cols = [cho_solve_banded((cb, False), col, check_finite=False) for col in r.T]
        return np.asfortranarray(np.column_stack(cols))

    return types.SimpleNamespace(solve=solve)


def test_lockstep_columns_match_their_single_solves(small_instance, small_plan):
    # the factor at mu = 1e-6 preconditions the mu = 1e-8 system inexactly, so
    # the noisy column needs a second step while the clean one stops after one;
    # applied column by column it gives the block the arithmetic of one solve
    inst = small_instance
    op = LateralOperator(
        inst.geometry, small_plan, inst.p0, inst.R, Regularization(tikhonov_weight=1e-8)
    )
    coarser = LateralOperator(
        inst.geometry, small_plan, inst.p0, inst.R, Regularization(tikhonov_weight=1e-6)
    )
    op._factor = _per_column(coarser._factor.cb)
    zero = ScalarField.zeros(inst.geometry, FieldKind.AXIAL_TIME)
    silent = dataclasses.replace(inst.data, **{name: zero for name in BUNDLE_CHANNELS})
    bundles = [silent, add_noise(inst, 0.1, seed=1).data, inst.data]
    singles = [op.solve(bundle) for bundle in bundles]
    assert [sol.iterations for sol in singles] == [0, 2, 1]
    block = list(op.solve_many(bundles))
    assert len(block) == len(bundles)
    for got, want in zip(block, singles):
        assert got.iterations == want.iterations
        assert got.residual_history == want.residual_history
        assert np.array_equal(got.f_hat.values, want.f_hat.values)
        assert np.array_equal(got.u_hat.values, want.u_hat.values)


def test_solve_many_agrees_with_single_solves(small_instance, small_operator):
    bundles = [add_noise(small_instance, level, seed=2).data for level in (0.1, 0.0, 1e-3)]
    for got, want in zip(small_operator.solve_many(bundles), map(small_operator.solve, bundles)):
        assert got.iterations == want.iterations == 1
        scale = np.linalg.norm(want.f_hat.values)
        assert np.linalg.norm(got.f_hat.values - want.f_hat.values) <= 1e-8 * scale


def _spd_band(n, b, seed):
    """LAPACK upper band storage of a random, diagonally dominant SPD band."""
    rng = np.random.default_rng(seed)
    ab = np.zeros((b + 1, n), order="F")
    ab[:b] = rng.uniform(-1.0, 1.0, (b, n))
    for i in range(b):  # entries above the first row of U do not exist
        ab[i, : b - i] = 0.0
    ab[b] = 2.0 * b + 1.0
    return ab


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 700),
    b=st.integers(0, 400),
    k=st.sampled_from([1, 2, 17]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=700, b=300, k=17, seed=0)  # full windows, n not a multiple of the block
@example(n=500, b=reconstruct._BAND_BLOCK // 2, k=2, seed=1)  # half-bandwidth below the block
@example(n=300, b=299, k=17, seed=2)  # a band as wide as the matrix
@example(n=40, b=90, k=2, seed=3)  # half-bandwidth above n - 1
def test_blocked_solve_matches_lapack(n, b, k, seed):
    cb = cholesky_banded(_spd_band(n, b, seed))
    r = np.asfortranarray(np.random.default_rng(seed + 1).standard_normal((n, k)))
    got = reconstruct._BandCholesky(cb).solve(r)
    want = cho_solve_banded((cb, False), r)
    assert got.shape == (n, k) and got.flags.f_contiguous
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_the_blas_thread_pin_is_active():
    api = reconstruct._openblas_threads()
    assert api is not None, "scipy's OpenBLAS exports no thread-count functions"
    get, put = api
    before = get()
    put(2)
    try:
        with reconstruct._one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        put(before)


def test_the_numpy_blas_thread_pin_is_active():
    # numpy's own OpenBLAS computes the dot products and norms of CG
    api = reconstruct._openblas_threads("numpy")
    assert api is not None, "numpy's OpenBLAS exports no thread-count functions"
    get, put = api
    before = get()
    put(2)
    try:
        with reconstruct._one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        put(before)


def test_band_factor_solves_the_normal_equations(small_operator, small_instance):
    op = small_operator
    normal = op._normal.toarray()
    # LAPACK upper band storage: cb[b + i - j, j] = U[i, j]
    b = op.half_bandwidth
    upper = sp.dia_matrix((op._factor.cb, b - np.arange(b + 1)), shape=normal.shape).toarray()
    assert np.linalg.norm(upper.T @ upper - normal) <= 1e-12 * np.linalg.norm(normal)
    r = op._a_scaled.T @ _lateral_rhs(small_instance.data, op.geometry, op.reg)
    got = op._factor.solve(r[:, None])[:, 0]
    assert np.linalg.norm(normal @ got - r) <= 1e-10 * np.linalg.norm(r)
    # cond(normal) is about 2e9 at mu = 1e-6, so two exact solvers agree to
    # about 1e-8 here, not to the residual's 1e-13
    expected = np.linalg.solve(normal, r)
    assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)


def test_band_order_keeps_the_band_narrow(worked_operator):
    # 3 * nt * (nx_n + 1) = 1,134 at 21x17x21, plus the x_n and t reach
    assert worked_operator.half_bandwidth <= 1170


def test_operator_refuses_a_band_factor_above_the_limit(small_instance, small_plan, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factored a grid above the size limit")

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", refuse)
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8, max_factor_gb=1e-3)
    # 2,028 unknowns, half-bandwidth 492: 493 * 2028 * 8 bytes
    with pytest.raises(ValidationError, match=r"needs 0\.008 GB \(half-bandwidth 492\)"):
        LateralOperator(inst.geometry, small_plan, inst.p0, inst.R, reg)


def test_operator_rejects_bad_inputs(small_instance, small_plan, quartic_instance):
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8)
    with pytest.raises(ValidationError, match="half-cylinder"):
        LateralOperator(inst.geometry.extend(), small_plan, inst.p0, inst.R, reg)
    with pytest.raises(ValidationError, match="p0"):
        LateralOperator(inst.geometry, small_plan, inst.u, inst.R, reg)
    with pytest.raises(ValidationError, match="R must be"):
        LateralOperator(inst.geometry, small_plan, inst.p0, inst.f, reg)
    op = LateralOperator(inst.geometry, small_plan, inst.p0, inst.R, reg)
    with pytest.raises(ValidationError, match="bundle grid"):
        op.solve(quartic_instance.data)


def test_mu_ladder_approaches_the_oracle(quartic_recipe):
    # needs a grid fine enough that the smallest mu is not under-regularized
    g = CylinderGeometry(
        d_lo=0.0, d_hi=1.0, ell=1.0, delta=1.0,
        gamma_side=GammaSide.HI, nx_prime=27, nx_n=27, nt=27,
    )
    inst = make_instance(g, quartic_recipe)
    plan = make_plan(g)
    f_orc = oracle_trace_reconstruct(inst.u, inst.R)
    gaps = []
    for mu in (1e-4, 1e-6, 1e-8):
        sol = lateral_reconstruct(
            inst.data, g, plan, inst.p0, inst.R, Regularization(tikhonov_weight=mu)
        )
        gaps.append(discrete_norm(f_orc.with_values(sol.f_hat.values - f_orc.values)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_carleman_weight_helps_on_noisy_data(quartic_instance, worked_plan):
    inst = quartic_instance
    levels = (1e-1, 3e-2, 1e-2, 3e-3)
    bundles = [add_noise(inst, lv, seed=100 + i).data for i, lv in enumerate(levels)]

    def region_errors(s):
        reg = Regularization(tikhonov_weight=1e-6, carleman_s=s)
        op = LateralOperator(inst.geometry, worked_plan, inst.p0, inst.R, reg)
        return [region_error(op.solve(bd).f_hat, inst, worked_plan) for bd in bundles]

    plain = region_errors(0.0)
    weighted = region_errors(2.0)
    wins = sum(w <= p for w, p in zip(weighted, plain))
    assert wins >= 3


# ---- stability sweep ---------------------------------------------------------------


def test_stability_region_matches_the_plan(worked_plan):
    region = stability_region(worked_plan)
    assert region.xp == (worked_plan.D0_lo, worked_plan.D0_hi)
    assert region.t == (-worked_plan.delta0, worked_plan.delta0)


def test_sweep_rows_are_sorted_and_localized(worked_sweep):
    noises = [row.noise for row in worked_sweep.rows]
    assert noises == sorted(noises, reverse=True)
    for row in worked_sweep.rows:
        assert row.err_region <= row.err_global
        assert row.d_of_u > 0


def test_sweep_exponent_is_holder_like(worked_sweep, worked_plan):
    assert 0.0 < worked_sweep.theta_emp <= 1.5
    assert worked_sweep.plan is worked_plan


def test_sweep_errors_decrease_with_noise(worked_sweep):
    errs = [row.err_region for row in worked_sweep.rows]
    assert errs[-3] >= errs[-2] >= errs[-1]


def test_noiseless_row_is_the_error_floor(worked_sweep_with_floor):
    rows = worked_sweep_with_floor.rows
    assert rows[-1].noise == 0.0
    floor = rows[-1].err_region
    assert all(floor <= row.err_region for row in rows[:-1])
    assert worked_sweep_with_floor.noiseless_f_hat is not None


def test_sweep_is_reproducible_per_seed(small_instance, small_operator):
    one = stability_sweep(small_instance, SWEEP_LEVELS, small_operator, seed=3)
    two = stability_sweep(small_instance, SWEEP_LEVELS, small_operator, seed=3)
    other = stability_sweep(small_instance, SWEEP_LEVELS, small_operator, seed=4)
    assert one.rows == two.rows
    assert one.rows != other.rows


@pytest.mark.parametrize(
    "levels, message",
    [
        ((1e-1, 1e-2, 1e-3), "at least 4"),
        ((1e-1, 1e-2, -1e-3, 1e-4), "nonnegative"),
        ((1e-1, 1e-2, 1e-2, 1e-3), "distinct"),
        ((1e-1, 8e-2, 5e-2, 3e-2), "two decades"),
    ],
)
def test_sweep_rejects_bad_level_sets(small_instance, small_operator, levels, message):
    with pytest.raises(ValidationError, match=message):
        stability_sweep(small_instance, levels, small_operator)


def test_sweep_rejects_an_operator_of_another_instance(small_instance, small_operator):
    p0, R = small_instance.p0, small_instance.R
    changes = ({"p0": p0.with_values(p0.values + 1.0)}, {"R": R.with_values(2.0 * R.values)})
    for change in changes:
        other = dataclasses.replace(small_instance, **change)
        with pytest.raises(ValidationError, match="another instance"):
            stability_sweep(other, SWEEP_LEVELS, small_operator)


def test_sweep_with_flat_errors_is_a_degenerate_fit(
    small_instance, small_operator, monkeypatch
):
    monkeypatch.setattr(
        "carleman_lab.reconstruct.add_noise", lambda inst, level, seed: inst
    )
    with pytest.raises(SolverError, match="degenerate fit"):
        stability_sweep(small_instance, SWEEP_LEVELS, small_operator)


# ---- corollary slice check ---------------------------------------------------------


def test_corollary_slice_error_is_comparable(worked_sweep_with_floor, quartic_instance):
    report = corollary_check(worked_sweep_with_floor, quartic_instance)
    assert report.ok
    assert report.slice_error_rel <= 2.0 * report.region_error_rel
    assert report.slice_error >= 0.0 and report.region_error >= 0.0


def test_corollary_requires_a_noiseless_row(worked_sweep, quartic_instance):
    with pytest.raises(ValidationError, match="noiseless"):
        corollary_check(worked_sweep, quartic_instance)


# ---- CSV round trip ----------------------------------------------------------------


def test_sweep_csv_roundtrip(worked_sweep):
    buf = io.StringIO()
    write_sweep_csv(worked_sweep, buf, footer={"seed": "0"})
    buf.seek(0)
    rows, footer = load_sweep_csv(buf)
    assert rows == list(worked_sweep.rows)
    assert footer["theta_emp"] == worked_sweep.theta_emp
    assert footer["seed"] == "0"


def test_sweep_csv_is_byte_stable(worked_sweep):
    one, two = io.StringIO(), io.StringIO()
    write_sweep_csv(worked_sweep, one)
    write_sweep_csv(worked_sweep, two)
    assert one.getvalue() == two.getvalue()
    assert "\r" not in one.getvalue()


def test_sweep_csv_rejects_malformed_input():
    with pytest.raises(ValidationError, match="header"):
        load_sweep_csv(io.StringIO("wrong,header\n"))
    bad_row = "noise,D_u,err_region,err_global\n0.1,2.0,3.0\n"
    with pytest.raises(ValidationError, match="malformed"):
        load_sweep_csv(io.StringIO(bad_row))
