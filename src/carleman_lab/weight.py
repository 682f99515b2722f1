"""Carleman weight construction and admissible parameter planning.

The weight is ``phi = exp(lam * psi)`` with

    psi(x', x_n, t) = d(x') - alpha * x_n**2 - beta * t**2,

where ``d`` vanishes at the endpoint of the cross-section opposite the data
side and grows toward the data side.  The planner picks ``beta`` inside its
admissible open interval, scales ``alpha`` so the axial ends of the cylinder
are dominated, and tabulates the weight levels ``sigma0`` (floor on the
observation region) and ``sigma1`` (ceiling on the uncontrolled boundary),
whose gap drives the Hoelder stability exponent.

All extrema are taken over grid nodes.  Every node set here (the window,
``D0``, the time window ``[-delta0, delta0]``, each collar of the search) is
picked by the node rule of ``geometry``, ``CylinderGeometry.nodes_within``,
the rule ``discrete_norm`` applies to its regions.  Configurations should
place nodes on the region corners; a planner given no window warns when a
one-step refinement moves a tabulated level by more than 1 percent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import parse_float
from .errors import ValidationError
from .geometry import (
    CylinderGeometry,
    FieldKind,
    GammaSide,
    ScalarField,
    axis_weights,
)

__all__ = [
    "build_d",
    "WeightPlan",
    "plan_parameters",
    "compute_sigmas",
    "region_family",
    "DecayResult",
    "decay_integral",
    "phi_field",
    "plan_report",
    "load_plan_record",
]


def _d_at(geometry: CylinderGeometry, xp):
    """``d`` at cross-section coordinates ``xp``: the distance to the far endpoint."""
    if geometry.gamma_side is GammaSide.HI:
        return xp - geometry.d_lo
    return geometry.d_hi - xp


def build_d(geometry: CylinderGeometry) -> ScalarField:
    """The cross-section weight base ``d``: the distance to the far endpoint.

    The paper asks of ``d`` that it be positive in D, vanish on the boundary
    of D away from the data side, and have a nonzero gradient.  On the
    interval D the distance to the endpoint opposite the data side meets all
    three by construction: it is 0 at that endpoint, grows linearly to the
    width of D at the data side, and its slope is +1 or -1 everywhere.  It
    depends on x' alone, so an extended geometry gives the same values.
    """
    return ScalarField(geometry, _d_at(geometry, geometry.axis_nodes("xp")), FieldKind.CROSS_SECTION)


@dataclass(frozen=True)
class WeightPlan:
    """Admissible Carleman parameters together with their tabulated levels.

    ``domain_lo/hi`` is the cross-section window the plan controls (the full
    cross-section for ordinary plans, a collar near the data side for region
    plans).  ``D0_lo/hi`` is the observation subdomain, touching the data
    side of the window.  ``include_far_face`` records whether the window's
    far face entered the ``sigma1`` maximization: it does when the window
    reaches the far end of the cross-section, and not for a collar, whose far
    face is interior to the physical cross-section.
    """

    geometry: CylinderGeometry
    domain_lo: float
    domain_hi: float
    D0_lo: float
    D0_hi: float
    lam: float
    margin: float
    delta0: float
    beta: float
    alpha: float
    d0: float
    d1: float
    sigma0: float
    sigma1: float
    c0: float
    include_far_face: bool


def _psi(plan: WeightPlan, d: np.ndarray, xn: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``psi = d - alpha x_n^2 - beta t^2`` on the tensor grid of ``d``, ``xn`` and ``t``."""
    return d[:, None, None] - plan.alpha * (xn * xn)[None, :, None] - plan.beta * (t * t)[None, None, :]


def compute_sigmas(
    plan: WeightPlan, geometry: CylinderGeometry | None = None
) -> tuple[float, float, float]:
    """Recompute (sigma0, sigma1, c0) on a given grid.

    sigma0 is the minimum of the weight on the observation block
    ``D0 x {x_n = 0} x [-delta0, delta0]``, sigma1 the maximum over the
    terminal faces, the axial ends, and (unless excluded) the window's far
    lateral face, and c0 the minimum of ``exp(lam * (d - beta t^2))`` over
    the whole window.  Extrema are over grid nodes, so the grid must have the
    plan's extents.
    """
    g = geometry if geometry is not None else plan.geometry
    _check_same_extents(plan, g)
    d = build_d(g).values
    t = g.axis_nodes("t")
    xn = (g if g.extended else g.extend()).axis_nodes("xn")
    dwin = d[g.nodes_within("xp", plan.domain_lo, plan.domain_hi)]
    dobs = d[g.nodes_within("xp", plan.D0_lo, plan.D0_hi)]
    tobs = t[g.nodes_within("t", -plan.delta0, plan.delta0)]
    if not (dwin.size and dobs.size and tobs.size):
        raise ValidationError("sigma evaluation: a node set of the plan is empty on this grid")

    xn0 = np.zeros(1)
    psi0 = float(np.min(_psi(plan, dobs, xn0, tobs)))
    c0_psi = float(np.min(_psi(plan, dwin, xn0, t)))
    faces = [
        _psi(plan, dwin, xn, t[[0, -1]]),  # terminal faces t = +-delta
        _psi(plan, dwin, xn[[0, -1]], t),  # axial ends x_n = +-ell
    ]
    if plan.include_far_face:
        # the far face is the window's node of least d
        faces.append(_psi(plan, dwin.min(keepdims=True), xn, t))
    psi1 = max(float(np.max(f)) for f in faces)
    return math.exp(plan.lam * psi0), math.exp(plan.lam * psi1), math.exp(plan.lam * c0_psi)


def plan_parameters(
    geometry: CylinderGeometry,
    D0: tuple[float, float],
    *,
    delta0: float | None = None,
    lam: float = 1.0,
    margin: float = 1.1,
    domain: tuple[float, float] | None = None,
) -> WeightPlan:
    """Select admissible Carleman parameters over a cross-section window.

    The steps, each guarded by an explicit check:

    1. ``d0`` = min of ``d = build_d(geometry)`` on the observation block,
       ``d1`` = max on the window.
    2. ``delta0`` must satisfy ``delta0 < sqrt(d0/d1) * delta`` strictly;
       the default takes 99 percent of that bound.
    3. ``beta`` is the midpoint of its admissible open interval
       ``((d1 - d0) / (delta^2 - delta0^2), d0 / delta0^2)``.
    4. ``alpha = margin * (d1 - d0 + beta * delta0^2) / ell^2`` with
       ``margin > 1``.
    5. The three strict domination inequalities implied by these choices are
       re-verified numerically.
    6. ``sigma0 > sigma1`` must hold on the grid, and without a ``domain``
       a one-step refinement that moves either level by over 1 percent warns.
    """
    g = geometry
    if g.extended:
        raise ValidationError("weight base is planned on the physical geometry, not the extension")
    tol = g.node_tolerance("xp")

    dom_lo, dom_hi = map(float, (g.d_lo, g.d_hi) if domain is None else domain)
    if not (g.d_lo - tol <= dom_lo < dom_hi <= g.d_hi + tol):
        raise ValidationError(f"planning window {(dom_lo, dom_hi)!r} is not inside the cross-section")

    lo0, hi0 = float(D0[0]), float(D0[1])
    if not lo0 < hi0:
        raise ValidationError(f"observation subdomain {D0!r} is degenerate")
    # each interval's end of larger d faces the data side
    far, near = sorted((dom_lo, dom_hi), key=lambda x: _d_at(g, x))
    inner, touch = sorted((lo0, hi0), key=lambda x: _d_at(g, x))
    if abs(touch - near) > tol:
        raise ValidationError(
            "observation subdomain must touch the data side of the window "
            f"(got {touch!r}, data side at {near!r})"
        )
    if _d_at(g, inner) - _d_at(g, far) <= tol:
        raise ValidationError(
            "observation subdomain must stay strictly away from the far end "
            f"of the window at {far!r}"
        )

    if not (lam > 0 and math.isfinite(lam)):
        raise ValidationError(f"lam must be positive and finite, got {lam!r}")
    if not (margin > 1.0 and math.isfinite(margin)):
        raise ValidationError(f"margin must exceed 1, got {margin!r}")

    d = build_d(g).values
    dwin = d[g.nodes_within("xp", dom_lo, dom_hi)]
    dobs = d[g.nodes_within("xp", lo0, hi0)]
    if dwin.size < 2 or dobs.size < 2:
        raise ValidationError("planning window or observation subdomain holds fewer than two nodes")
    d0 = float(np.min(dobs))
    d1 = float(np.max(dwin))

    delta = g.delta
    delta0_max = math.sqrt(d0 / d1) * delta
    if delta0 is None:
        delta0 = 0.99 * delta0_max
    delta0 = float(delta0)
    if not 0 < delta0 < delta0_max:
        raise ValidationError(
            f"observation half-width delta0 = {delta0!r} must lie strictly inside "
            f"(0, sqrt(d0/d1) * delta) = (0, {delta0_max!r})"
        )

    beta_lo = (d1 - d0) / (delta**2 - delta0**2)
    beta_hi = d0 / delta0**2
    if not beta_lo < beta_hi:
        raise ValidationError(
            f"admissible beta interval is empty: ({beta_lo!r}, {beta_hi!r})"
        )
    beta = 0.5 * (beta_lo + beta_hi)
    alpha = margin * (d1 - d0 + beta * delta0**2) / g.ell**2

    checks = (
        ("terminal faces dominated", d1 - beta * delta**2 < d0 - beta * delta0**2),
        ("observation level positive", d0 - beta * delta0**2 > 0),
        ("axial ends dominated", d1 - alpha * g.ell**2 < d0 - beta * delta0**2),
    )
    for name, ok in checks:
        if not ok:
            raise ValidationError(f"derived parameter check failed: {name}")

    plan = WeightPlan(
        geometry=g,
        domain_lo=dom_lo,
        domain_hi=dom_hi,
        D0_lo=lo0,
        D0_hi=hi0,
        lam=lam,
        margin=margin,
        delta0=delta0,
        beta=beta,
        alpha=alpha,
        d0=d0,
        d1=d1,
        sigma0=math.nan,
        sigma1=math.nan,
        c0=math.nan,
        include_far_face=abs(_d_at(g, far)) <= tol,
    )
    sigma0, sigma1, c0 = compute_sigmas(plan)
    if not sigma1 < sigma0:
        raise ValidationError(
            f"weight levels do not separate on this grid: sigma0 = {sigma0!r} <= sigma1 = {sigma1!r}"
        )
    plan = replace(plan, sigma0=sigma0, sigma1=sigma1, c0=c0)

    if domain is None:
        s0r, s1r, _ = compute_sigmas(plan, plan.geometry.refine())
        for name, base, ref in (("sigma0", sigma0, s0r), ("sigma1", sigma1, s1r)):
            if abs(ref - base) > 0.01 * abs(base):
                warnings.warn(
                    f"{name} moves by {abs(ref - base) / abs(base):.2%} under one refinement; "
                    "refine the grid or align region corners with grid nodes",
                    stacklevel=2,
                )
    return plan


# ---- family of shrinking observation regions --------------------------------


def region_family(
    geometry: CylinderGeometry,
    delta1: float,
    *,
    lam: float = 1.0,
    margin: float = 1.1,
) -> WeightPlan:
    """Plan on the widest admissible collar for recovery up to time level delta1.

    The collar is anchored at the data-side endpoint of the cross-section,
    the paper's x0'.  Starting from a quarter of the cross-section and
    halving, accept the first half-width ``eps`` whose collar ``D_tilde``
    (width ``2 eps``) and inner block ``D1`` (width ``eps``) satisfy
    ``(delta1/delta)^2 < d0/d1 < 1`` on grid nodes, then delegate parameter
    selection to :func:`plan_parameters` on that window.  The plan's ``domain_lo/hi`` is ``D_tilde`` and its ``D0_lo/hi``
    is ``D1``.  The collar stays inside the physical cross-section, so its
    far face is left out of the ``sigma1`` sets.
    """
    if not 0 < delta1 < geometry.delta:
        raise ValidationError(
            f"recovery time level delta1 = {delta1!r} must lie strictly inside (0, {geometry.delta!r})"
        )
    gamma = geometry.gamma_coord
    # the collar grows from gamma toward the endpoint where d = 0
    toward = -1.0 if _d_at(geometry, geometry.d_lo) == 0.0 else 1.0
    h = geometry.spacing("xp")
    eps = 0.25 * (geometry.d_hi - geometry.d_lo)

    d = build_d(geometry).values
    ratio_floor = (delta1 / geometry.delta) ** 2

    while True:
        if eps < 4.0 * h:
            raise ValidationError(
                f"no admissible collar: epsilon fell below four grid cells ({4.0 * h!r}) "
                f"before satisfying (delta1/delta)^2 = {ratio_floor!r} < d0/d1"
            )
        # eps <= span/4 keeps the collar inside D, and eps >= 4h gives each
        # node set at least five nodes
        window = tuple(sorted((gamma, gamma + toward * 2.0 * eps)))
        block = tuple(sorted((gamma, gamma + toward * eps)))
        dwin = d[geometry.nodes_within("xp", *window)]
        dblk = d[geometry.nodes_within("xp", *block)]
        if ratio_floor < float(np.min(dblk)) / float(np.max(dwin)) < 1.0:
            return plan_parameters(
                geometry,
                block,
                delta0=delta1,
                lam=lam,
                margin=margin,
                domain=window,
            )
        eps *= 0.5


# ---- weight sampling and derived quantities ---------------------------------


def _check_same_extents(plan: WeightPlan, geometry: CylinderGeometry):
    p = plan.geometry
    if replace(geometry, nx_prime=p.nx_prime, nx_n=p.nx_n, nt=p.nt, extended=p.extended) != p:
        raise ValidationError("geometry extents do not match the plan's geometry")


def phi_field(plan: WeightPlan, geometry: CylinderGeometry) -> ScalarField:
    """The weight ``phi = exp(lam * psi)``, ``psi = d - alpha x_n^2 - beta t^2``, on a grid."""
    _check_same_extents(plan, geometry)
    psi = _psi(plan, build_d(geometry).values, geometry.axis_nodes("xn"), geometry.axis_nodes("t"))
    return ScalarField(geometry, np.exp(plan.lam * psi), FieldKind.SPACE_TIME)


@dataclass(frozen=True)
class DecayResult:
    s: float
    value: float
    bound: float


def decay_integral(plan: WeightPlan, s: float, geometry: CylinderGeometry | None = None) -> DecayResult:
    """Worst-case axial integral of the normalized weight, with its envelope.

    Returns the maximum over window and time nodes of the trapezoidal
    integral over ``x_n`` of ``exp(2 s (phi(x', x_n, t) - phi(x', 0, t)))``
    together with the trapezoidal integral of the dominating envelope
    ``exp(-2 s c0 (1 - exp(-lam alpha x_n^2)))`` on the same nodes.  Both use
    the same quadrature, so the value never exceeds the bound.
    """
    if not (s >= 0 and math.isfinite(s)):
        raise ValidationError(f"weight strength s must be finite and nonnegative, got {s!r}")
    g = geometry if geometry is not None else plan.geometry
    _check_same_extents(plan, g)
    gx = g if g.extended else g.extend()
    xn = gx.axis_nodes("xn")
    w = axis_weights(gx.nx_n, gx.spacing("xn"))

    d = build_d(g).values[g.nodes_within("xp", plan.domain_lo, plan.domain_hi)]

    base = np.exp(plan.lam * _psi(plan, d, np.zeros(1), g.axis_nodes("t")))
    drop = np.exp(-plan.lam * plan.alpha * xn * xn) - 1.0  # <= 0
    integrand = np.exp(2.0 * s * base * drop[None, :, None])
    value = float(np.max(np.tensordot(w, integrand, axes=([0], [1]))))

    env = np.exp(-2.0 * s * plan.c0 * (1.0 - np.exp(-plan.lam * plan.alpha * xn * xn)))
    bound = float(np.sum(w * env))
    if value > bound + 1e-8:
        raise RuntimeError(
            f"decay integral {value!r} exceeds its envelope {bound!r}; quadrature inconsistency"
        )
    return DecayResult(s=float(s), value=value, bound=bound)


# ---- serialization -----------------------------------------------------------

_REPORT_HEADER = "carleman weight plan v1"
# every key of the report, in its order, with the type it is written and read as
_REPORT_KEYS = {
    "geometry": str,
    "gamma_side": str,
    **dict.fromkeys(("d_lo", "d_hi", "ell", "delta"), float),
    **dict.fromkeys(("nx_prime", "nx_n", "nt"), int),
    **dict.fromkeys(
        ("domain_lo", "domain_hi", "D0_lo", "D0_hi", "lam", "margin", "delta0",
         "beta", "alpha", "d0", "d1", "sigma0", "sigma1", "c0"),
        float,
    ),
    "include_far_face": bool,
}


def plan_report(plan: WeightPlan) -> str:
    """Serialize a plan as a key = value report; floats use repr round-trips."""
    g = plan.geometry
    values = {**vars(g), **vars(plan)}
    values.update(geometry=g.fingerprint(), gamma_side=g.gamma_side.value)
    lines = [_REPORT_HEADER]
    for key, kind in _REPORT_KEYS.items():
        val = values[key]
        lines.append(f"{key} = {val!r}" if kind is float else f"{key} = {val}")
    return "\n".join(lines) + "\n"


def load_plan_record(text: str) -> dict:
    """Parse a plan report back into a dict of scalars (inverse of plan_report).

    Each key of the report is parsed as the type it was written as, and a
    value that does not parse, a missing key or a repeated one raises
    ValidationError.  Other keys stay strings, so callers may append extra
    bookkeeping lines (hashes, version tags) without breaking the round trip.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _REPORT_HEADER:
        raise ValidationError("not a weight plan report (bad header line)")
    out: dict = {}
    for ln in lines[1:]:
        if " = " not in ln:
            raise ValidationError(f"malformed plan report line: {ln!r}")
        key, _, raw = ln.partition(" = ")
        if key in out:
            raise ValidationError(f"plan report repeats the key {key!r}")
        kind = _REPORT_KEYS.get(key, str)
        if kind is float:
            out[key] = parse_float(raw, f"plan report value {key}")
        elif kind is int:
            try:
                out[key] = int(raw)
            except ValueError:
                raise ValidationError(f"malformed plan report line: {ln!r}") from None
        elif kind is bool:
            if raw not in ("True", "False"):
                raise ValidationError(f"malformed plan report line: {ln!r}")
            out[key] = raw == "True"
        else:
            out[key] = raw
    missing = [key for key in _REPORT_KEYS if key not in out]
    if missing:
        raise ValidationError(f"plan report lacks the key {missing[0]!r}")
    return out
