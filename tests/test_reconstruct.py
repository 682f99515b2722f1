"""Tests for the two source reconstructors and the stability sweep.

Hand-derived anchors used below:

* the quadratic recipe a = x_n^2 has a zero cubic and quartic part, so the
  one-sided face stencil differentiates it exactly and the oracle formula
  returns f with no discretization error at all;
* for a = x_n^2 + x_n^4 the oracle error is pure O(h^2) in the axial
  spacing, so doubling every interval count divides it by 4;
* a silent bundle makes the least-squares right-hand side exactly zero, and
  the factor maps a zero column to exact zeros.
"""

import dataclasses
import io
import math
import os
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from carleman_lab import factor, reconstruct
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
    compute_data_functional,
    cross_time_profile,
    make_instance,
)
from carleman_lab.reconstruct import (
    LateralOperator,
    Regularization,
    _lateral_matrix,
    corollary_check,
    lateral_reconstruct,
    load_sweep_csv,
    oracle_trace_reconstruct,
    stability_region,
    stability_sweep,
    sweep_errors,
    sweep_levels,
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


def silent_bundle(instance):
    zero = ScalarField.zeros(instance.geometry, FieldKind.AXIAL_TIME)
    return dataclasses.replace(instance.data, traces=(zero,) * len(BUNDLE_CHANNELS))


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
        ({"tikhonov_weight": math.inf}, "tikhonov_weight"),
        ({"tikhonov_weight": 1e-8, "carleman_s": math.nan}, "carleman_s"),
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
    a, cauchy, weights = _lateral_matrix(inst.geometry, small_plan, inst.p0, inst.R, reg)
    b = np.zeros(a.shape[0])
    b[cauchy] = weights * np.concatenate([ch.values.ravel() for ch in inst.data.traces])
    z_true = np.concatenate([inst.u.values.ravel(), inst.f.values.ravel()])
    resid = a @ z_true - b
    # the whole residual is finite-difference truncation plus the Tikhonov bias
    assert np.linalg.norm(resid) <= 1e-2 * np.linalg.norm(b)
    # the Cauchy rows replicate the bundle stencils exactly (the data face
    # holds one field per (x_n, t) node), and they follow the PDE rows
    g = inst.geometry
    nq = g.nx_prime * g.nx_n * g.nt
    assert cauchy == slice(nq, nq + len(BUNDLE_CHANNELS) * g.nx_n * g.nt)
    assert np.max(np.abs(resid[cauchy])) <= 1e-10 * np.max(np.abs(b))


def test_forward_map_adjoint_identity(small_instance, small_plan):
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8)
    a, _, _ = _lateral_matrix(inst.geometry, small_plan, inst.p0, inst.R, reg)
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


def test_residual_history_is_decreasing_and_converged(noiseless_solution):
    hist = noiseless_solution.residual_history
    assert noiseless_solution.iterations >= 1
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))
    assert hist[-1] <= reconstruct._MAX_REL_NORMAL_RESIDUAL * hist[0]


def test_zero_bundle_gives_exactly_zero(small_instance, small_plan):
    g = small_instance.geometry
    sol = lateral_reconstruct(
        silent_bundle(small_instance), g, small_plan, small_instance.p0, small_instance.R,
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
    noisy = add_noise(inst.data, 0.01, seed=9)
    reused = op.solve(noisy)
    fresh = lateral_reconstruct(noisy, inst.geometry, small_plan, inst.p0, inst.R, reg)
    assert np.array_equal(reused.f_hat.values, fresh.f_hat.values)


def test_nonconvergence_reports_the_residual(small_instance, small_plan, monkeypatch):
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8)
    monkeypatch.setattr(reconstruct, "_MAX_REL_NORMAL_RESIDUAL", 1e-300)
    with pytest.raises(SolverError, match="missed the residual bound 1e-300: relative normal residual"):
        lateral_reconstruct(
            inst.data, inst.geometry, small_plan, inst.p0, inst.R, reg
        )


def test_cg_breakdown_raises_at_once(small_instance, small_operator, monkeypatch):
    # the factor still solves N x = b, so a negated N leaves b - (-N) x = 2b
    monkeypatch.setattr(small_operator, "_normal", -small_operator._normal)
    with pytest.raises(SolverError, match="relative normal residual") as info:
        small_operator.solve(small_instance.data)
    assert float(str(info.value).rpartition(" ")[2]) == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize(
    "rhs, message",
    [
        # x = b = e0 gives N x = (1e-300, 1e300), whose residual norm overflows
        ((1.0, 0.0), "relative normal residual inf"),
        ((math.nan, 0.0), "relative normal residual nan"),
    ],
)
def test_cg_stops_on_non_finite_values(small_operator, monkeypatch, rhs, message):
    normal = sp.csr_matrix(np.array([[1e-300, 0.0], [1e300, 0.0]]))
    monkeypatch.setattr(small_operator, "_normal", normal)
    monkeypatch.setattr(small_operator, "_factor", types.SimpleNamespace(solve=np.copy))
    block = np.asfortranarray(np.column_stack([rhs, rhs]))  # both columns fail alike
    with np.errstate(over="ignore"), pytest.raises(SolverError, match=message):
        small_operator._solve_block(block)


@pytest.mark.parametrize("n", [7, 8192, 8193, 20412])
def test_column_dots_give_a_column_the_same_bits_at_any_width(n):
    # the residual check relies on this: a column's residual norm does not
    # see its neighbours
    rng = np.random.default_rng(n)
    a, b = (np.asfortranarray(rng.standard_normal((n, 16))) for _ in range(2))
    block = reconstruct._column_dots(a, b)
    for j in range(16):
        column = slice(j, j + 1)
        alone = reconstruct._column_dots(a[:, column].copy("F"), b[:, column].copy("F"))
        assert alone[0] == block[j]
        # the loop's dot product sums in another order; each lies within
        # n * eps * sum|a_i b_i| of the exact sum
        bound = 2 * n * np.finfo(float).eps * np.abs(a[:, j] * b[:, j]).sum()
        assert abs(block[j] - a[:, j] @ b[:, j]) <= bound


def test_a_block_solve_keeps_fewer_than_three_blocks(small_instance, small_operator):
    # the factor's output and its arms' copies come to about 2.3 blocks of
    # the right-hand sides' size; the residual is then formed a slice at a
    # time in place of its product, where N y whole beside y and rhs - N y
    # reached 3 blocks
    k = reconstruct._SOLVE_BLOCK
    rhs = small_operator._rhs([add_noise(small_instance.data, 0.01, seed=i) for i in range(k)])
    tracemalloc.start()
    try:
        small_operator._solve_block(rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * rhs.nbytes


def test_solve_many_agrees_with_single_solves(small_instance, small_operator):
    bundles = [add_noise(small_instance.data, level, seed=2) for level in (0.1, 0.0, 1e-3)]
    bundles.insert(1, silent_bundle(small_instance))
    block = list(small_operator.solve_many(bundles))
    silent = block.pop(1)
    assert silent.iterations == 0 and silent.residual_history == (0.0,)
    assert not silent.f_hat.values.any() and not silent.u_hat.values.any()
    del bundles[1]
    for got, want in zip(block, map(small_operator.solve, bundles), strict=True):
        assert got.iterations == want.iterations == 1
        scale = np.linalg.norm(want.f_hat.values)
        assert np.linalg.norm(got.f_hat.values - want.f_hat.values) <= 1e-8 * scale


def _one_solve_cases():
    for mu in (1e-4, 1e-8, 1e-12, 1e-14):
        for s in (0.0, 2.0):
            yield pytest.param(GammaSide.HI, (13, 11, 13), mu, s, id=f"HI-13-mu{mu:g}-s{s:g}")
    yield pytest.param(GammaSide.LO, (13, 11, 13), 1e-8, 0.0, id="LO-13-mu1e-08-s0")
    yield pytest.param(GammaSide.HI, (5, 9, 9), 1e-8, 0.0, id="HI-5-mu1e-08-s0")


@pytest.mark.parametrize("side, grid, mu, s", list(_one_solve_cases()))
def test_one_application_of_the_factor_solves_the_normal_equations(
    quartic_recipe, side, grid, mu, s
):
    # a Cholesky solve is backward stable, so one application of the exact
    # factor leaves a residual near rounding at every mu, with and without
    # the heads (5 x' slabs have none); the worst measured here is 8.8e-14
    g = CylinderGeometry(0.0, 1.0, 1.0, 1.0, side, *grid)
    inst = make_instance(g, quartic_recipe)
    d0 = (0.5, 1.0) if side is GammaSide.HI else (0.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # region corners off the coarse grid's nodes
        plan = plan_parameters(g, d0, delta0=0.7, lam=1.0, margin=1.1)
    reg = Regularization(tikhonov_weight=mu, carleman_s=s)
    op = LateralOperator(g, plan, inst.p0, inst.R, reg)
    bundles = [inst.data] + [add_noise(inst.data, level, seed=3) for level in (0.1, 1e-3)]
    for sol in op.solve_many(bundles):
        assert sol.iterations == 1
        first, last = sol.residual_history
        assert last <= 1e-10 * first


class _DenseCholesky:
    """A dense Cholesky factor with the interface of ``factor.BandCholesky``."""

    def __init__(self, normal, geometry, max_gb):
        self.cho = scipy.linalg.cho_factor(normal.toarray())

    def solve(self, block):
        return scipy.linalg.cho_solve(self.cho, block)


def test_the_operator_needs_only_the_factor_interface(
    small_instance, small_plan, sweep_reg, small_operator, monkeypatch
):
    # the operator reaches its factor through band_order, BandCholesky and
    # solve alone, so another factor with that interface can replace it
    monkeypatch.setattr(factor, "BandCholesky", _DenseCholesky)
    inst = small_instance
    op = LateralOperator(inst.geometry, small_plan, inst.p0, inst.R, sweep_reg)
    assert isinstance(op._factor, _DenseCholesky)
    bundles = [inst.data] + [add_noise(inst.data, level, seed=3) for level in (0.1, 1e-3)]
    for got, want in zip(op.solve_many(bundles), small_operator.solve_many(bundles), strict=True):
        first, last = got.residual_history
        assert last <= reconstruct._MAX_REL_NORMAL_RESIDUAL * first
        for name in ("u_hat", "f_hat"):
            dense, band = getattr(got, name).values, getattr(want, name).values
            assert np.linalg.norm(dense - band) <= 1e-6 * np.linalg.norm(band)


def test_an_operator_builds_and_solves_without_cpu_affinity(
    small_instance, small_plan, sweep_reg, small_operator, monkeypatch
):
    # macOS and Windows have no os.sched_getaffinity: the factor then counts
    # every CPU, and the worker count leaves the bits as they are
    monkeypatch.delattr(os, "sched_getaffinity")
    assert factor._workers() == min(2, os.cpu_count())
    inst = small_instance
    op = LateralOperator(inst.geometry, small_plan, inst.p0, inst.R, sweep_reg)
    got, want = op.solve(inst.data), small_operator.solve(inst.data)
    assert np.array_equal(got.u_hat.values, want.u_hat.values)
    assert np.array_equal(got.f_hat.values, want.f_hat.values)


def _dense_factor(op):
    """The factor's blocks as one dense upper triangle.

    Its order is (left arm, right arm, separator), each arm's head before
    its band part; returns it with the band-order positions it factors.
    """
    chol, n = op._factor, op._normal.shape[0]
    b = chol.half_bandwidth
    order = []
    for arm in chol.arms:
        if arm.head:
            order.extend(arm.head)
        order.extend(arm.positions[: arm.k])
    order = np.array(order + list(chol.sep))
    place = np.empty(n, dtype=int)
    place[order] = np.arange(n)
    upper = np.zeros((n, n))
    for a, arm in enumerate(chol.arms):
        if arm.head:
            # each head's factor is stored as L = U^T in its arm's band storage
            rows = place[list(arm.head)]
            upper[np.ix_(rows, rows)] = np.tril(arm.l).T
            upper[np.ix_(rows, place[list(arm.positions[: len(arm.head)])])] = arm.w
        # LAPACK upper band storage: ab[b + i - j, j] = U[i, j]; the right
        # arm's copy of the separator's block holds its update, not the factor
        m = len(arm.positions)
        band = sp.dia_matrix((arm.ab[: b + 1], b - np.arange(b + 1)), shape=(m, m)).toarray()
        rows = m if a == 0 else arm.k
        cols = place[list(arm.positions)]
        upper[np.ix_(cols[:rows], cols)] = band[:rows]
    return upper, order


def _check_factor(op, r):
    normal = op._normal.toarray()
    upper, order = _dense_factor(op)
    assert np.array_equal(upper, np.triu(upper))
    permuted = normal[np.ix_(order, order)]
    assert np.linalg.norm(upper.T @ upper - permuted) <= 1e-12 * np.linalg.norm(normal)
    got = op._factor.solve(r[:, None])[:, 0]
    assert np.linalg.norm(normal @ got - r) <= 1e-10 * np.linalg.norm(r)
    # cond(normal) is about 2e9 at mu = 1e-6, so two exact solvers agree to
    # about 1e-8 here, not to the residual's 1e-13
    expected = np.linalg.solve(normal, r)
    assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)


def test_band_factor_solves_the_normal_equations(small_operator, small_instance):
    op = small_operator
    assert all(arm.head for arm in op._factor.arms)
    r = op._rhs([small_instance.data])[:, 0]
    _check_factor(op, r)


def test_no_bundles_give_no_solutions(small_operator):
    assert list(small_operator.solve_many([])) == []


def test_rhs_is_a_c_ordered_block_of_the_cauchy_products(small_operator, small_instance):
    op = small_operator
    bundles = [small_instance.data, add_noise(small_instance.data, 0.1, seed=4)]
    rhs = op._rhs(bundles)
    assert rhs.flags.c_contiguous and rhs.shape == (op._normal.shape[0], len(bundles))
    # one product over the m x k data, one column of channels per bundle
    data = np.stack([np.concatenate([ch.values.ravel() for ch in b.traces]) for b in bundles], axis=1)
    assert np.array_equal(rhs, op._cauchy_t @ (op._cauchy_w[:, None] * data))
    # and a column has the bits of its bundle's one-column block
    for j, bundle in enumerate(bundles):
        assert np.array_equal(rhs[:, j], op._rhs([bundle])[:, 0])


@pytest.mark.parametrize("side", [GammaSide.HI, GammaSide.LO], ids=["HI", "LO"])
@pytest.mark.parametrize(
    "nx_prime, parts", [(9, [9]), (10, [2, 2]), (11, [2, 3])], ids=["9", "10", "11"]
)
def test_the_heads_come_with_the_split_at_ten_slabs(quartic_recipe, sweep_reg, side, nx_prime, parts):
    # below ten x' slabs one arm holds the whole band, with no head; from ten
    # on each of two arms holds one head of two slabs and its band part
    # (``parts``, in slabs), and at ten each part is as wide as the separator
    g = CylinderGeometry(
        d_lo=0.0, d_hi=1.0, ell=1.0, delta=1.0,
        gamma_side=side, nx_prime=nx_prime, nx_n=9, nt=9,
    )
    inst = make_instance(g, quartic_recipe)
    d0 = (0.5, 1.0) if side is GammaSide.HI else (0.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # region corners off the coarse grid's nodes
        plan = plan_parameters(g, d0, delta0=0.7, lam=1.0, margin=1.1)
    op = LateralOperator(g, plan, inst.p0, inst.R, sweep_reg)
    slab = g.nt * (g.nx_n + 1)
    arms = op._factor.arms
    assert [arm.k for arm in arms] == [p * slab for p in parts]
    split = len(arms) == 2
    assert len(op._factor.sep) == (2 * slab if split else 0)
    for arm in arms:
        assert arm.s == len(op._factor.sep)
        assert (arm.head is not None) == split
        if split:
            assert len(arm.head) == arm.l.shape[0] == arm.w.shape[0] == 2 * slab
    r = op._rhs([inst.data])[:, 0]
    _check_factor(op, r)


@pytest.mark.parametrize("nx_prime", [9, None], ids=["one-arm", "split"])
def test_the_band_margin_stays_zero(quartic_recipe, small_operator, sweep_reg, nx_prime):
    # the rows below each arm's diagonal row are the zeros every window
    # wider than the band reads: neither the factor nor a solve writes them
    if nx_prime is None:
        op = small_operator
    else:
        g = CylinderGeometry(
            d_lo=0.0, d_hi=1.0, ell=1.0, delta=1.0,
            gamma_side=GammaSide.HI, nx_prime=nx_prime, nx_n=9, nt=9,
        )
        inst = make_instance(g, quartic_recipe)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # region corners off the coarse grid's nodes
            plan = plan_parameters(g, (0.5, 1.0), delta0=0.7, lam=1.0, margin=1.1)
        op = LateralOperator(g, plan, inst.p0, inst.R, sweep_reg)
    chol = op._factor
    b = chol.half_bandwidth
    assert len(chol.arms) == (1 if nx_prime else 2)

    def margins_are_zero():
        for arm in chol.arms:
            assert arm.ab.shape == (b + min(factor._BAND_BLOCK, b), len(arm.positions))
            assert not arm.ab[b + 1 :].any()

    margins_are_zero()
    r = np.random.default_rng(5).standard_normal((op._normal.shape[0], 16))
    x = chol.solve(np.asfortranarray(r))
    assert np.linalg.norm(op._normal @ x - r) <= 1e-8 * np.linalg.norm(r)
    margins_are_zero()


def test_band_order_keeps_the_band_narrow(worked_operator):
    # 3 * nt * (nx_n + 1) = 1,134 at 21x17x21, plus the x_n and t reach, is
    # the bound without heads; the heads leave 756 (see the next test)
    assert worked_operator._factor.half_bandwidth <= 1170


@pytest.mark.parametrize("side, d0", [(GammaSide.HI, (0.5, 1.0)), (GammaSide.LO, (0.0, 0.5))])
def test_the_heads_leave_a_band_of_two_slabs(worked_geometry, quartic_recipe, sweep_reg, side, d0):
    # without the first and the last two x' slabs the band reaches exactly
    # two slabs, 2 * nt * (nx_n + 1) = 756 at 21x17x21
    g = dataclasses.replace(worked_geometry, gamma_side=side)
    inst = make_instance(g, quartic_recipe)
    plan = plan_parameters(g, d0, delta0=0.7, lam=1.0, margin=1.1)
    op = LateralOperator(g, plan, inst.p0, inst.R, sweep_reg)
    assert op._factor.half_bandwidth <= 2 * g.nt * (g.nx_n + 1) == 756


def test_operator_refuses_a_band_factor_above_the_limit(small_instance, small_plan, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factored a grid above the size limit")

    monkeypatch.setattr(factor, "_dpbtrf", refuse)
    monkeypatch.setattr(factor, "_dpotrf", refuse)
    inst = small_instance
    reg = Regularization(tikhonov_weight=1e-8, max_factor_gb=1e-3)
    # 2,028 unknowns, heads of 2 * 13 * 12 = 312 whose factors sit in their
    # arms' band storage beside their two 312 x 312 couplings, a band of the
    # other 1,404 at half-bandwidth 312 whose separator of 312 both arms
    # store, each stored column with a margin of 47 zero rows:
    # ((312 + 48) * (1404 + 312) + 2 * 312^2) * 8
    with pytest.raises(ValidationError, match=r"needs 0\.0065 GB \(half-bandwidth 312\)"):
        LateralOperator(inst.geometry, small_plan, inst.p0, inst.R, reg)


@pytest.mark.parametrize("nx_prime", [None, 9], ids=["split", "one-arm"])
def test_the_factor_limit_counts_exactly_the_arrays_the_factor_keeps(
    quartic_recipe, small_operator, sweep_reg, nx_prime
):
    # a factor is built at a max_gb of exactly the bytes of its arms' band
    # storage and couplings, and refused at 8 bytes fewer
    op = small_operator
    if nx_prime is not None:
        g = dataclasses.replace(op.geometry, nx_prime=nx_prime)
        inst = make_instance(g, quartic_recipe)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # region corners off the coarse grid's nodes
            plan = plan_parameters(g, (0.5, 1.0), delta0=0.7, lam=1.0, margin=1.1)
        op = LateralOperator(g, plan, inst.p0, inst.R, sweep_reg)
    arms = op._factor.arms
    assert len(arms) == (1 if nx_prime else 2)
    kept = sum(arm.ab.nbytes + (arm.w.nbytes if arm.head else 0) for arm in arms)
    factor.BandCholesky(op._normal, op.geometry, max_gb=kept / 1e9)
    with pytest.raises(ValidationError, match=r"needs .* GB \(half-bandwidth \d+\)"):
        factor.BandCholesky(op._normal, op.geometry, max_gb=(kept - 8) / 1e9)


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


def test_carleman_weight_helps_on_noisy_data(quartic_instance, worked_plan):
    inst = quartic_instance
    levels = (1e-1, 3e-2, 1e-2, 3e-3)
    bundles = [add_noise(inst.data, lv, seed=100 + i) for i, lv in enumerate(levels)]

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


def test_stacked_sweep_rows_carry_each_rows_own_bits(small_instance, small_operator):
    # a block's D(u) and errors come from one norm stack per kind; each row
    # must equal the one-bundle functional and the one-field errors
    levels = SWEEP_LEVELS + (0.0,)
    report = stability_sweep(small_instance, levels, small_operator, seed=5)
    bundles = [add_noise(small_instance.data, level, seed=5 + i) for i, level in enumerate(levels)]
    solutions = list(small_operator.solve_many(bundles))  # one block, as in the sweep
    for row, bundle, sol in zip(report.rows, bundles, solutions, strict=True):
        assert row.d_of_u == compute_data_functional(bundle)
        errors = sweep_errors(sol.f_hat, small_instance.f, report.plan)
        assert (row.err_region, row.err_global) == errors
    assert np.array_equal(report.noiseless_f_hat.values, solutions[-1].f_hat.values)


def test_the_block_width_changes_no_answer(small_instance, small_operator, monkeypatch):
    # three blocks at the default width; another width rounds the blocked
    # triangular solves differently, but moves no noise draw or D(u) bit
    # and the errors only at the rounding level
    levels = [*np.geomspace(1e-1, 1e-4, 2 * reconstruct._SOLVE_BLOCK + 4), 0.0]
    want = stability_sweep(small_instance, levels, small_operator, seed=1)
    for width in (16, 1):
        monkeypatch.setattr(reconstruct, "_SOLVE_BLOCK", width)
        got = stability_sweep(small_instance, levels, small_operator, seed=1)
        assert [(r.noise, r.d_of_u) for r in got.rows] == [(r.noise, r.d_of_u) for r in want.rows]
        for g, w in zip(got.rows, want.rows, strict=True):
            assert g.err_region == pytest.approx(w.err_region, rel=1e-6, abs=0)
            assert g.err_global == pytest.approx(w.err_global, rel=1e-6, abs=0)
        assert got.theta_emp == pytest.approx(want.theta_emp, rel=1e-6, abs=0)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_levels_refuse_a_level_that_is_not_finite(bad):
    levels = [1e-1, 1e-2, 1e-3, 1e-4]
    for place in range(len(levels)):
        with pytest.raises(ValidationError, match="finite"):
            sweep_levels(levels[:place] + [bad] + levels[place + 1 :])
    assert sweep_levels([1e-3, 1e-1, 0.0, 1e-2]) == [1e-1, 1e-2, 1e-3, 0.0]


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
        "carleman_lab.reconstruct.add_noise", lambda bundle, level, seed: bundle
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
