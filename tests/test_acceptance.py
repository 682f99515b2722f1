"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Each test gathers every check for its criterion into a list of named
failures, prints a single PASS/FAIL line straight to the terminal (bypassing
capture so the nine lines always show in the run log), and then asserts.
Venues are the frozen ones used across the unit suites: the unit interval
cross-section with data side HI, the quartic manufactured instance, seeds 7
and 11 for the corpora, seed 0 for the noise sweeps.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from carleman_lab.geometry import (
    CylinderGeometry,
    FieldKind,
    GammaSide,
    discrete_norm,
)
from carleman_lab.problems import (
    Recipe,
    axial_profile,
    cross_time_profile,
    make_instance,
)
from carleman_lab.reconstruct import (
    LateralOperator,
    Regularization,
    corollary_check,
    lateral_reconstruct,
    oracle_trace_reconstruct,
    stability_region,
    stability_sweep,
    write_sweep_csv,
)
from carleman_lab.verifier import lemma1_residual, smooth_corpus, verify_carleman
from carleman_lab.weight import decay_integral, plan_parameters

NOISE_LEVELS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
SWEEP_SEED = 0
SWEEP_MU = 1e-6


def verdict(capsys, number, name, failures):
    flag = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"criterion {number} {name}: {flag}")
    assert not failures, "; ".join(failures)


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def interval_geometry(nxp, nxn, nt):
    return CylinderGeometry(
        d_lo=0.0, d_hi=1.0, ell=1.0, delta=1.0,
        gamma_side=GammaSide.HI, nx_prime=nxp, nx_n=nxn, nt=nt,
    )


def region_error(f_hat, instance, plan):
    diff = instance.f.with_values(f_hat.values - instance.f.values)
    region = stability_region(plan)
    return discrete_norm(diff, region=region) / discrete_norm(instance.f, region=region)


@pytest.fixture(scope="module")
def sweep_reg():
    return Regularization(tikhonov_weight=SWEEP_MU)


def sweep_operator(instance, plan, reg):
    return LateralOperator(instance.geometry, plan, instance.p0, instance.R, reg)


@pytest.fixture(scope="module")
def acceptance_operator(quartic_instance, worked_plan, sweep_reg):
    return sweep_operator(quartic_instance, worked_plan, sweep_reg)


@pytest.fixture(scope="module")
def acceptance_sweep(quartic_instance, acceptance_operator):
    return stability_sweep(
        quartic_instance, NOISE_LEVELS, acceptance_operator, seed=SWEEP_SEED
    )


def test_criterion_1_weight_plan_oracle_equivalence(worked_geometry, worked_plan, capsys):
    g, plan = worked_geometry, worked_plan
    failures = []

    def rel(a, b):
        return abs(a - b) / abs(b)

    # scripted closed forms for D = (0, 1), Gamma = {1}, D0 = (0.5, 1),
    # delta = ell = lam = 1, delta0 = 0.7: the base d(x') = x' gives
    # d0 = 1/2 on D0 and d1 = 1, hence the values below
    delta0_max = math.sqrt(0.5)
    beta_lo = 0.5 / 0.51
    beta_hi = 0.5 / 0.49
    beta_mid = 0.5 * (beta_lo + beta_hi)
    alpha_inf = 0.5 + 0.49 * beta_mid
    sigma0 = math.exp(0.5 - 0.49 * beta_mid)

    plan_delta0_max = math.sqrt(plan.d0 / plan.d1) * g.delta
    plan_beta_lo = (plan.d1 - plan.d0) / (g.delta**2 - plan.delta0**2)
    plan_beta_hi = plan.d0 / plan.delta0**2
    plan_alpha_inf = plan.alpha / plan.margin

    check(failures, rel(plan_delta0_max, delta0_max) <= 1e-12,
          f"delta0 bound {plan_delta0_max!r} != {delta0_max!r}")
    check(failures, rel(plan_beta_lo, beta_lo) <= 1e-12,
          f"beta window low {plan_beta_lo!r} != {beta_lo!r}")
    check(failures, rel(plan_beta_hi, beta_hi) <= 1e-12,
          f"beta window high {plan_beta_hi!r} != {beta_hi!r}")
    check(failures, rel(plan.beta, beta_mid) <= 1e-12,
          f"beta {plan.beta!r} is not the window midpoint {beta_mid!r}")
    check(failures, rel(plan_alpha_inf, alpha_inf) <= 1e-12,
          f"alpha infimum {plan_alpha_inf!r} != {alpha_inf!r}")
    check(failures, rel(plan.sigma1, 1.0) <= 1e-12, f"sigma1 {plan.sigma1!r} != 1")
    check(failures, rel(plan.sigma0, sigma0) <= 1e-12,
          f"sigma0 {plan.sigma0!r} != {sigma0!r}")

    level = plan.d0 - plan.beta * plan.delta0**2
    check(failures, plan.d1 - plan.beta * g.delta**2 < level,
          "terminal-face domination is not strict")
    check(failures, level > 0, "observation level is not strictly positive")
    check(failures, plan.d1 - plan.alpha * g.ell**2 < level,
          "axial-end domination is not strict")

    verdict(capsys, 1, "weight-plan oracle equivalence", failures)


def test_criterion_2_identity_second_order(capsys):
    corpus = smooth_corpus(24, seed=7, kind=FieldKind.SPACE_ONLY)
    coarse = CylinderGeometry(
        0.0, 1.0, 1.0, 1.0, GammaSide.HI, 65, 65, 5, extended=True
    )
    fine = coarse.refine()
    in_window = 0
    for member in corpus:
        rc = lemma1_residual(member.sample(coarse)).normalized
        rf = lemma1_residual(member.sample(fine)).normalized
        if 3.5 <= rc / rf <= 4.5:
            in_window += 1

    failures = []
    check(failures, len(corpus) >= 20, f"corpus too small: {len(corpus)}")
    check(failures, in_window >= 0.9 * len(corpus),
          f"two-grid ratio in [3.5, 4.5] for only {in_window}/{len(corpus)} members")
    verdict(capsys, 2, "identity residual second order", failures)


def test_criterion_3_weighted_inequality_certified(worked_plan, capsys):
    corpus = smooth_corpus(20, seed=11)
    s_grid = (2.0, 5.0, 10.0, 20.0, 50.0)
    report = verify_carleman(worked_plan, corpus, s_grid)
    refined = worked_plan.geometry.extend().refine()
    report_fine = verify_carleman(worked_plan, corpus, s_grid, geometry=refined)
    change = abs(report_fine.c_emp - report.c_emp) / report.c_emp

    failures = []
    check(failures, report.corpus_size >= 20, f"corpus too small: {report.corpus_size}")
    check(failures, math.isfinite(report.c_emp) and report.c_emp > 0,
          f"empirical constant is not a positive finite number: {report.c_emp!r}")
    check(failures, all(math.isfinite(s.ratio) and s.ratio <= report.c_emp
                        for _, s in report.rows),
          "some row ratio escapes the empirical constant")
    check(failures, change <= 0.20,
          f"empirical constant moves {change:.1%} under refinement "
          f"({report.c_emp!r} -> {report_fine.c_emp!r})")
    verdict(capsys, 3, "weighted inequality certified", failures)


def test_criterion_4_decay_integral_envelope(worked_plan, capsys):
    plan = worked_plan
    # the axial peak at the largest strength needs about twice the planning
    # resolution; 33 physical nodes extend to 65, the desk-scale cap
    quad_geometry = interval_geometry(21, 33, 21)
    failures = []

    at_zero = decay_integral(plan, 0.0, geometry=quad_geometry)
    check(failures, at_zero.value == 2.0 * quad_geometry.ell,
          f"value at s = 0 is {at_zero.value!r}, not exactly 2 ell")

    previous = at_zero.value
    for s in [float(2**k) for k in range(9)]:
        result = decay_integral(plan, s, geometry=quad_geometry)
        envelope, _ = quad(
            lambda x: math.exp(
                -2.0 * s * plan.c0 * (1.0 - math.exp(-plan.lam * plan.alpha * x * x))
            ),
            -quad_geometry.ell, quad_geometry.ell, epsabs=1e-13, epsrel=1e-13,
        )
        check(failures, result.value < previous,
              f"not strictly decreasing at s = {s:g}: {result.value!r} >= {previous!r}")
        check(failures, result.value <= envelope + 1e-8,
              f"value {result.value!r} exceeds envelope {envelope!r} at s = {s:g}")
        previous = result.value

    verdict(capsys, 4, "decay integral under its envelope", failures)


def test_criterion_5_oracle_trace_reconstruction(worked_geometry, quartic_recipe, capsys):
    failures = []

    quadratic = Recipe(
        a=axial_profile("quadratic"),
        b=cross_time_profile("exp_cos"),
        f=cross_time_profile("one"),
        p0=cross_time_profile("constant", value=0.0),
    )
    inst = make_instance(worked_geometry, quadratic)
    f_hat = oracle_trace_reconstruct(inst.u, inst.R)
    err = discrete_norm(inst.f.with_values(f_hat.values - inst.f.values))
    check(failures, err <= 1e-12 * discrete_norm(inst.f),
          f"quadratic profile is not stencil-exact: relative error "
          f"{err / discrete_norm(inst.f):.3e}")

    errs = []
    for counts in ((17, 13, 17), (33, 25, 33)):
        g = interval_geometry(*counts)
        quartic = make_instance(g, quartic_recipe)
        recovered = oracle_trace_reconstruct(quartic.u, quartic.R)
        diff = quartic.f.with_values(recovered.values - quartic.f.values)
        errs.append(discrete_norm(diff) / discrete_norm(quartic.f))
    ratio = errs[0] / errs[1]
    check(failures, 3.5 <= ratio <= 4.5,
          f"quartic two-grid ratio {ratio!r} outside [3.5, 4.5]")

    verdict(capsys, 5, "oracle trace reconstruction", failures)


def test_criterion_6_lateral_noiseless_accuracy(quartic_recipe, capsys):
    g = interval_geometry(33, 33, 33)
    inst = make_instance(g, quartic_recipe)
    plan = plan_parameters(g, (0.5, 1.0), delta0=0.7, lam=1.0, margin=1.1)
    f_oracle = oracle_trace_reconstruct(inst.u, inst.R)

    gaps = []
    finest = None
    for mu in (1e-4, 1e-6, 1e-8):
        sol = lateral_reconstruct(
            inst.data, g, plan, inst.p0, inst.R, Regularization(tikhonov_weight=mu)
        )
        gaps.append(discrete_norm(f_oracle.with_values(sol.f_hat.values - f_oracle.values)))
        finest = sol

    failures = []
    err = region_error(finest.f_hat, inst, plan)
    check(failures, err <= 0.05,
          f"noiseless relative region error {err!r} exceeds 0.05")
    check(failures, gaps[0] > gaps[1] > gaps[2],
          f"oracle disagreement not monotone along the mu ladder: {gaps!r}")
    verdict(capsys, 6, "lateral noiseless reconstruction", failures)


def test_criterion_7_stability_sweep(acceptance_sweep, capsys):
    sweep = acceptance_sweep
    failures = []
    check(failures, tuple(sorted((r.noise for r in sweep.rows), reverse=True))
          == NOISE_LEVELS, "rows do not cover the required noise levels")
    for row in sweep.rows:
        check(failures, row.err_region <= row.err_global,
              f"region error exceeds global error at noise {row.noise:g}")
    check(failures, 0.0 < sweep.theta_emp <= 1.5,
          f"empirical exponent {sweep.theta_emp!r} outside (0, 1.5]")
    tail = [row.err_region for row in sweep.rows[-3:]]
    check(failures, tail[0] >= tail[1] >= tail[2],
          f"region error increases over the last three rows: {tail!r}")
    verdict(capsys, 7, "stability sweep", failures)


def test_criterion_8_slice_recovery(quartic_instance, acceptance_operator, capsys):
    sweep = stability_sweep(
        quartic_instance, NOISE_LEVELS + (0.0,), acceptance_operator, seed=SWEEP_SEED
    )
    report = corollary_check(sweep, quartic_instance)
    failures = []
    check(failures, report.slice_error_rel <= 2.0 * report.region_error_rel,
          f"slice error {report.slice_error_rel!r} exceeds twice the region error "
          f"{report.region_error_rel!r}")
    verdict(capsys, 8, "time-slice recovery", failures)


def test_criterion_9_sweep_determinism(
    acceptance_sweep, quartic_instance, worked_plan, sweep_reg, capsys, tmp_path
):
    # a fresh operator, so the check also covers assembly and factorization
    repeat = stability_sweep(
        quartic_instance,
        NOISE_LEVELS,
        sweep_operator(quartic_instance, worked_plan, sweep_reg),
        seed=SWEEP_SEED,
    )
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_sweep_csv(acceptance_sweep, first)
    write_sweep_csv(repeat, second)
    failures = []
    check(failures, first.read_bytes() == second.read_bytes(),
          "same seed produced different CSV bytes")
    verdict(capsys, 9, "sweep determinism", failures)
