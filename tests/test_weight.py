"""Planner tests against hand-derived values.

The worked configuration (unit cross-section, data side HI, ell = delta = 1,
observation block [0.5, 1] x [-0.7, 0.7], lam = 1, margin = 1.1) was solved
by hand with exact rational arithmetic:

    beta  = 2500/2499,  alpha = 1111/1020,
    sigma0 = exp(1/102), sigma1 = 1,  c0 = exp(-2500/2499).
"""

import dataclasses
import math

import numpy as np
import pytest

from carleman_lab.errors import ValidationError
from carleman_lab.geometry import CylinderGeometry, FieldKind, GammaSide, ScalarField, discrete_norm
from carleman_lab.reconstruct import stability_region
from carleman_lab.weight import (
    build_d,
    compute_sigmas,
    decay_integral,
    load_plan_record,
    phi_field,
    plan_parameters,
    plan_report,
    region_family,
)

BETA = 2500.0 / 2499.0
ALPHA = 1111.0 / 1020.0
SIGMA0 = math.exp(1.0 / 102.0)
SIGMA1 = 1.0
C0 = math.exp(-2500.0 / 2499.0)
DELTA0_MAX = math.sqrt(0.5)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---- weight base -------------------------------------------------------------


def test_explicit_interval_base_both_sides():
    # the paper's conditions on d, on the nodes: zero at the endpoint opposite
    # the data side, and strictly monotone, hence positive everywhere else;
    # d depends on x' alone, but the planner works on the physical geometry
    for side, far, gamma, sign in ((GammaSide.HI, 0, -1, 1.0), (GammaSide.LO, -1, 0, -1.0)):
        g = CylinderGeometry(0.0, 1.0, 1.0, 1.0, side, 21, 9, 11)
        d = build_d(g).values
        assert d[far] == 0.0 and d[gamma] == 1.0
        assert np.all(sign * np.diff(d) > 0.0)
        assert build_d(g.extend()).values.tobytes() == d.tobytes()
        D0 = (0.5, 1.0) if side is GammaSide.HI else (0.0, 0.5)
        with pytest.raises(ValidationError, match="physical geometry"):
            plan_parameters(g.extend(), D0, delta0=0.7)


# ---- parameter selection ------------------------------------------------------


def test_plan_matches_hand_derived_values(worked_plan):
    assert rel(worked_plan.beta, BETA) < 1e-12
    assert rel(worked_plan.alpha, ALPHA) < 1e-12
    assert rel(worked_plan.sigma0, SIGMA0) < 1e-12
    assert worked_plan.sigma1 == SIGMA1
    assert rel(worked_plan.c0, C0) < 1e-12
    assert worked_plan.d0 == 0.5 and worked_plan.d1 == 1.0


def test_plan_mirrors_exactly_on_the_other_data_side():
    g = CylinderGeometry(0.0, 1.0, 1.0, 1.0, GammaSide.LO, 21, 17, 21)
    plan = plan_parameters(g, (0.0, 0.5), delta0=0.7, lam=1.0, margin=1.1)
    assert rel(plan.beta, BETA) < 1e-12
    assert rel(plan.sigma0, SIGMA0) < 1e-12
    assert plan.sigma1 == SIGMA1


def test_beta_sits_inside_its_open_interval(worked_plan):
    lo = 0.5 / 0.51
    hi = 0.5 / 0.49
    assert lo < worked_plan.beta < hi


def test_alpha_formula(worked_plan):
    want = 1.1 * (1.0 - 0.5 + worked_plan.beta * 0.49) / 1.0
    assert rel(worked_plan.alpha, want) < 1e-14


def test_derived_inequalities_hold_strictly(worked_plan):
    p = worked_plan
    level = p.d0 - p.beta * p.delta0**2
    assert p.d1 - p.beta * p.geometry.delta**2 < level
    assert level > 0
    assert p.d1 - p.alpha * p.geometry.ell**2 < level


def test_delta0_default_takes_most_of_the_bound(worked_geometry):
    plan = plan_parameters(worked_geometry, (0.5, 1.0))
    assert rel(plan.delta0, 0.99 * DELTA0_MAX) < 1e-14


def test_delta0_at_or_above_the_bound_is_rejected(worked_geometry):
    with pytest.raises(ValidationError, match="delta0") as e:
        plan_parameters(worked_geometry, (0.5, 1.0), delta0=0.75)
    assert repr(DELTA0_MAX) in str(e.value)
    with pytest.raises(ValidationError, match="delta0"):
        plan_parameters(worked_geometry, (0.5, 1.0), delta0=DELTA0_MAX)


def test_observation_block_must_touch_the_data_side(worked_geometry):
    with pytest.raises(ValidationError, match="touch the data side"):
        plan_parameters(worked_geometry, (0.5, 0.9), delta0=0.7)
    with pytest.raises(ValidationError, match="strictly away from the far end"):
        plan_parameters(worked_geometry, (0.0, 1.0), delta0=0.5)


def test_margin_and_lam_are_validated(worked_geometry):
    with pytest.raises(ValidationError, match="margin"):
        plan_parameters(worked_geometry, (0.5, 1.0), delta0=0.7, margin=1.0)
    with pytest.raises(ValidationError, match="lam"):
        plan_parameters(worked_geometry, (0.5, 1.0), delta0=0.7, lam=0.0)


def test_aligned_plan_is_stable_under_refinement(worked_plan):
    s0, s1, c0 = compute_sigmas(worked_plan, worked_plan.geometry.refine())
    assert rel(s0, worked_plan.sigma0) < 1e-13
    assert rel(s1, worked_plan.sigma1) < 1e-13
    assert rel(c0, worked_plan.c0) < 1e-13


def test_misaligned_observation_corner_warns(worked_geometry):
    with pytest.warns(UserWarning, match="refine the grid or align"):
        plan_parameters(worked_geometry, (0.5231, 1.0), delta0=0.7)


@pytest.mark.filterwarnings("ignore:sigma0 moves")
def test_sigma0_and_the_norm_region_take_the_planner_d0_nodes(worked_geometry):
    # D0's inner corner sits 1.5e-9 past the node 0.5, beyond the node rule's
    # 1e-9: sigma0 was once taken from d = 0.5 while the planner had d0 = 0.55
    g = worked_geometry
    plan = plan_parameters(g, (0.5 + 1.5e-9, 1.0))
    assert plan.d0 == build_d(g).values[11]
    t = g.axis_nodes("t")
    tobs = t[np.abs(t) <= plan.delta0]
    level = math.exp(plan.lam * np.min(plan.d0 - plan.beta * tobs**2))
    assert rel(plan.sigma0, level) < 1e-14

    region = stability_region(plan)
    u = np.random.default_rng(0).random(g.shape(FieldKind.CROSS_SECTION_TIME))
    u = ScalarField(g, u, FieldKind.CROSS_SECTION_TIME)
    planner_nodes = dataclasses.replace(region, xp=(g.axis_nodes("xp")[11], plan.D0_hi))
    assert discrete_norm(u, region) == discrete_norm(u, planner_nodes)


def test_sigma_levels_scale_as_expected_with_lam(worked_plan):
    s0, s1, _ = compute_sigmas(dataclasses.replace(worked_plan, lam=2.0))
    assert rel(s0, worked_plan.sigma0**2) < 1e-12
    assert rel(s1, worked_plan.sigma1**2) < 1e-12
    assert s0 / s1 > worked_plan.sigma0 / worked_plan.sigma1


def test_sigmas_refuse_a_grid_with_other_extents(worked_plan):
    # on these nodes the levels came out as sigma0 = 1.665 < sigma1 = 2.718
    other = CylinderGeometry(0.0, 2.0, 3.0, 1.0, GammaSide.LO, 21, 17, 21)
    with pytest.raises(ValidationError, match="extents do not match"):
        compute_sigmas(worked_plan, other)


# ---- region family -------------------------------------------------------------


def test_region_family_accepts_large_collar_for_small_delta1(worked_geometry):
    plan = region_family(worked_geometry, 0.1)
    assert (plan.domain_lo, plan.domain_hi) == (0.5, 1.0)
    assert (plan.D0_lo, plan.D0_hi) == (0.75, 1.0)
    assert plan.sigma1 < plan.sigma0
    assert plan.delta0 == 0.1
    assert not plan.include_far_face


def test_region_family_on_the_lo_side_mirrors_the_hi_collar(worked_geometry):
    hi = region_family(worked_geometry, 0.1)
    g = dataclasses.replace(worked_geometry, gamma_side=GammaSide.LO)
    lo = region_family(g, 0.1)
    assert (lo.domain_lo, lo.domain_hi) == (0.0, 0.5)
    assert (lo.D0_lo, lo.D0_hi) == (0.0, 0.25)
    assert not lo.include_far_face
    for key in ("sigma0", "sigma1", "c0"):
        assert rel(getattr(lo, key), getattr(hi, key)) < 1e-12


def test_region_family_epsilon_monotone_in_delta1():
    g = CylinderGeometry(0.0, 1.0, 1.0, 1.0, GammaSide.HI, 81, 9, 11)
    plans = [region_family(g, f * g.delta) for f in (0.5, 0.8, 0.95)]
    eps = [p.D0_hi - p.D0_lo for p in plans]
    assert eps[0] >= eps[1] >= eps[2]
    assert eps[2] < eps[0]


def test_region_family_rejects_bad_time_level(worked_geometry):
    with pytest.raises(ValidationError, match="delta1"):
        region_family(worked_geometry, 1.0)
    with pytest.raises(ValidationError, match="delta1"):
        region_family(worked_geometry, -0.1)


def test_region_family_fails_when_grid_cannot_resolve_the_collar(worked_geometry):
    # delta1 = 0.95 needs a collar thinner than four cells of this grid
    with pytest.raises(ValidationError, match="no admissible collar"):
        region_family(worked_geometry, 0.95)


# ---- decay integral -------------------------------------------------------------


def test_decay_integral_at_zero_strength_is_the_full_length(worked_plan):
    res = decay_integral(worked_plan, 0.0)
    assert res.value == 2.0 * worked_plan.geometry.ell


def test_decay_integral_is_strictly_decreasing_and_dominated(worked_plan):
    prev = None
    for k in range(9):
        res = decay_integral(worked_plan, float(2**k))
        assert res.value <= res.bound + 1e-8
        if prev is not None:
            assert res.value < prev
        prev = res.value


def test_decay_integral_rejects_negative_strength(worked_plan):
    with pytest.raises(ValidationError, match="nonnegative"):
        decay_integral(worked_plan, -1.0)


# ---- sampling -------------------------------------------------------------------


def test_phi_field_matches_closed_form(worked_plan):
    g = worked_plan.geometry.extend()
    phi = phi_field(worked_plan, g)
    xp = g.axis_nodes("xp")
    xn = g.axis_nodes("xn")
    t = g.axis_nodes("t")
    i, j, k = 5, 3, 14
    want = math.exp(xp[i] - worked_plan.alpha * xn[j] ** 2 - worked_plan.beta * t[k] ** 2)
    assert rel(phi.values[i, j, k], want) < 1e-14


def test_phi_field_rejects_mismatched_extents(worked_plan):
    other = CylinderGeometry(0.0, 2.0, 1.0, 1.0, GammaSide.HI, 21, 17, 21)
    with pytest.raises(ValidationError, match="extents"):
        phi_field(worked_plan, other)


# ---- serialization ----------------------------------------------------------------


def test_plan_report_roundtrips_all_scalars(worked_plan):
    rec = load_plan_record(plan_report(worked_plan))
    for key in ("beta", "alpha", "delta0", "sigma0", "sigma1", "c0", "d0", "d1",
                "lam", "margin", "domain_lo", "domain_hi", "D0_lo", "D0_hi"):
        assert rec[key] == getattr(worked_plan, key)
    assert rec["geometry"] == worked_plan.geometry.fingerprint()
    assert rec["include_far_face"] is True


def test_plan_report_rejects_foreign_text():
    with pytest.raises(ValidationError, match="header"):
        load_plan_record("something else\nbeta = 1.0\n")
