"""Manufactured inverse-source instances with known ground truth.

An instance packages a solution ``u`` of

    du/dt = Lap(u) + p0(x', t) u + R(x', x_n, t) f(x', t)

on the cylinder, with zero value and zero axial derivative on ``x_n = 0``,
together with the one-sided lateral data bundle (the axial derivative of
``u`` and its tangential derivatives on the data-side face) and the two
scalar summaries used by the stability analysis: the data functional, which
like ``add_noise`` acts on the bundle alone, and the a-priori bound of u.

Manufactured solutions are separated products ``u = a(x_n) b(x', t)`` whose
factors come from a small registry of profiles with analytic derivatives, so
``R`` is computed in closed form and the PDE holds up to discretization only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .artifacts import archive_bytes, load_archive, write_artifact
from .errors import ValidationError, shown
from .geometry import (
    CylinderGeometry,
    Face,
    FieldKind,
    GammaSide,
    NormKind,
    ScalarField,
    diff,
    discrete_norm,
    discrete_norms,
    laplacian,
    trace,
)

__all__ = [
    "AxialProfile",
    "CrossTimeProfile",
    "axial_profile",
    "cross_time_profile",
    "AXIAL_PROFILES",
    "CROSS_TIME_PROFILES",
    "Recipe",
    "BoundaryBundle",
    "BUNDLE_CHANNELS",
    "ProblemInstance",
    "make_instance",
    "add_noise",
    "coefficient_reduction",
    "compute_data_functional",
    "compute_data_functionals",
    "save_instance",
    "load_instance",
]


# ---- profile registry ---------------------------------------------------------


@dataclass(frozen=True)
class AxialProfile:
    """Axial factor a(x_n) with analytic first and second derivatives."""

    name: str
    params: tuple
    fn: callable
    d1: callable
    d2: callable


@dataclass(frozen=True)
class CrossTimeProfile:
    """Cross-section/time factor g(x', t) with analytic d/dt and d2/dx'2."""

    name: str
    params: tuple
    fn: callable
    dt_fn: callable
    dxx_fn: callable


def _ax_quadratic():
    return (lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0 * np.ones_like(x))


def _ax_quadratic_plus_quartic():
    return (
        lambda x: x * x + x**4,
        lambda x: 2.0 * x + 4.0 * x**3,
        lambda x: 2.0 + 12.0 * x * x,
    )


def _ax_quadratic_times_linear(c=0.5):
    return (
        lambda x: x * x * (1.0 + c * x),
        lambda x: 2.0 * x + 3.0 * c * x * x,
        lambda x: 2.0 + 6.0 * c * x,
    )


AXIAL_PROFILES = {
    "quadratic": _ax_quadratic,
    "quadratic_plus_quartic": _ax_quadratic_plus_quartic,
    "quadratic_times_linear": _ax_quadratic_times_linear,
}


def _ct_constant(value=1.0):
    return (
        lambda xp, t: np.full(np.broadcast(xp, t).shape, float(value)),
        lambda xp, t: np.zeros(np.broadcast(xp, t).shape),
        lambda xp, t: np.zeros(np.broadcast(xp, t).shape),
    )


def _ct_one():
    return _ct_constant()


def _ct_exp_cos():
    return (
        lambda xp, t: np.exp(-t) * np.cos(xp),
        lambda xp, t: -np.exp(-t) * np.cos(xp),
        lambda xp, t: -np.exp(-t) * np.cos(xp),
    )


def _ct_two_plus_sin():
    return (
        lambda xp, t: 2.0 + np.sin(xp) + 0.0 * t,
        lambda xp, t: np.zeros(np.broadcast(xp, t).shape),
        lambda xp, t: -np.sin(xp) + 0.0 * t,
    )


def _ct_cos_cos(omega=1.0):
    return (
        lambda xp, t: np.cos(xp) * np.cos(omega * t),
        lambda xp, t: -omega * np.cos(xp) * np.sin(omega * t),
        lambda xp, t: -np.cos(xp) * np.cos(omega * t),
    )


CROSS_TIME_PROFILES = {
    "one": _ct_one,
    "constant": _ct_constant,
    "exp_cos": _ct_exp_cos,
    "two_plus_sin": _ct_two_plus_sin,
    "cos_cos": _ct_cos_cos,
}


def axial_profile(name: str, **params) -> AxialProfile:
    if name not in AXIAL_PROFILES:
        raise ValidationError(
            f"unknown axial profile {shown(name)}; available: {sorted(AXIAL_PROFILES)}"
        )
    fn, d1, d2 = AXIAL_PROFILES[name](**params)
    return AxialProfile(name, tuple(sorted(params.items())), fn, d1, d2)


def cross_time_profile(name: str, **params) -> CrossTimeProfile:
    if name not in CROSS_TIME_PROFILES:
        raise ValidationError(
            f"unknown cross-time profile {shown(name)}; available: {sorted(CROSS_TIME_PROFILES)}"
        )
    fn, dt_fn, dxx_fn = CROSS_TIME_PROFILES[name](**params)
    return CrossTimeProfile(name, tuple(sorted(params.items())), fn, dt_fn, dxx_fn)


@dataclass(frozen=True)
class Recipe:
    """Factors of a manufactured instance: u = a * b, source factor f, zero-order p0."""

    a: AxialProfile
    b: CrossTimeProfile
    f: CrossTimeProfile
    p0: CrossTimeProfile

    def provenance(self) -> dict:
        return {
            "kind": "manufactured",
            "a": {"name": self.a.name, "params": dict(self.a.params)},
            "b": {"name": self.b.name, "params": dict(self.b.params)},
            "f": {"name": self.f.name, "params": dict(self.f.params)},
            "p0": {"name": self.p0.name, "params": dict(self.p0.params)},
        }


# ---- instances -----------------------------------------------------------------

# The lateral data channels in their fixed order, each with the derivative
# steps (axis, order) applied left to right to y = du/dx_n before the trace on
# the data side.  ``_validated_instance``, which forms each channel's field
# once, and the Cauchy rows of the lateral solver both read this table.
BUNDLE_CHANNELS = {
    "y": (),
    "y_xp": (("xp", 1),),
    "y_xn": (("xn", 1),),
    "y_t": (("t", 1),),
    "y_xnxn": (("xn", 2),),
    "y_xnt": (("xn", 1), ("t", 1)),
    "y_tt": (("t", 2),),
}


@dataclass(frozen=True)
class BoundaryBundle:
    """Data-side lateral traces of the axial derivative y = du/dx_n.

    ``traces`` holds one AXIAL_TIME field per channel, in the order of
    ``BUNDLE_CHANNELS``, which also declares the derivatives that make them.
    ``y_xp`` is the derivative normal to the face; the remaining channels are
    tangential derivatives on the face (axial and time, up to second order).
    """

    traces: tuple[ScalarField, ...]
    noise_level: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if len(self.traces) != len(BUNDLE_CHANNELS):
            raise ValidationError(
                f"a bundle holds {len(BUNDLE_CHANNELS)} channel traces, got {len(self.traces)}"
            )

    def channels(self) -> dict[str, ScalarField]:
        return dict(zip(BUNDLE_CHANNELS, self.traces))


@dataclass(frozen=True)
class ProblemInstance:
    geometry: CylinderGeometry
    u: ScalarField
    f: ScalarField
    R: ScalarField
    p0: ScalarField
    data: BoundaryBundle
    d_of_u: float
    apriori_bound: float
    provenance: dict


def _ct_to_volume(field: ScalarField) -> np.ndarray:
    """View a CROSS_SECTION_TIME array as broadcastable over the volume."""
    return field.values[:, None, :]


def _pde_residual(
    u: ScalarField, f: ScalarField, R: ScalarField, p0: ScalarField
) -> tuple[ScalarField, float]:
    """PDE residual of ``u`` and the largest magnitude of its four terms."""
    terms = (
        diff(u, "t", 1).values,
        laplacian(u).values,
        _ct_to_volume(p0) * u.values,
        R.values * _ct_to_volume(f),
    )
    ut, lap, p0u, rf = terms
    scale = max(*(np.max(np.abs(term)) for term in terms), 1e-30)
    return ScalarField(u.geometry, ut - lap - p0u - rf, FieldKind.SPACE_TIME), scale


def _validated_instance(
    u: ScalarField,
    f: ScalarField,
    R: ScalarField,
    p0: ScalarField,
    provenance: dict,
    trace_tol: float,
) -> ProblemInstance:
    """The instance of ``u`` with its lateral data and summaries, once it passes the checks.

    Each derivative is formed once: y = du/dx_n and each bundle channel's
    volume, which also give the checks on y and the a-priori bound, and the
    four PDE terms, which give both the residual and its scale.
    """
    g = u.geometry
    residual, scale = _pde_residual(u, f, R, p0)
    h = max(g.spacing("xp"), g.spacing("xn"), g.spacing("t"))
    res = residual.max_abs()
    if res > 10.0 * h * h * scale:
        raise ValidationError(
            f"PDE residual {res:.3e} exceeds 10 h^2 times the term scale {scale:.3e}"
        )
    u_face = trace(u, Face.XN_ZERO).max_abs()
    u_scale = max(u.max_abs(), 1e-30)
    if u_face > trace_tol * u_scale:
        raise ValidationError(
            f"solution trace at x_n = 0 is {u_face:.3e}, above {trace_tol:g} of scale {u_scale:.3e}"
        )
    # a channel whose steps extend another's (y_xnt extends y_xn) starts from its field
    fields = {(): diff(u, "xn", 1)}
    for steps in BUNDLE_CHANNELS.values():
        for k in range(len(steps)):
            if steps[: k + 1] not in fields:
                fields[steps[: k + 1]] = diff(fields[steps[:k]], *steps[k])
    channels = {name: fields[steps] for name, steps in BUNDLE_CHANNELS.items()}
    # The discrete axial derivative at the face carries the one-sided
    # truncation error of the stencil, so it only vanishes to O(h^2) even
    # though the recipe enforces a'(0) = 0 analytically.
    y = channels["y"]
    y_face = trace(y, Face.XN_ZERO).max_abs()
    y_scale = max(y.max_abs(), 1e-30)
    if y_face > 10.0 * h * h * y_scale:
        raise ValidationError(
            f"axial derivative trace at x_n = 0 is {y_face:.3e}, above 10 h^2 of scale {y_scale:.3e}"
        )
    r_face = np.min(np.abs(trace(R, Face.XN_ZERO).values))
    if r_face <= 1e-12 * max(R.max_abs(), 1e-30):
        raise ValidationError(
            f"source profile R vanishes somewhere on x_n = 0 (min |R| = {r_face:.3e})"
        )
    data = BoundaryBundle(tuple(trace(c, Face.GAMMA_SIDE) for c in channels.values()))
    grads = [channels[name] for name in ("y_xp", "y_xn", "y_t")]
    return ProblemInstance(
        geometry=g,
        u=u,
        f=f,
        R=R,
        p0=p0,
        data=data,
        d_of_u=compute_data_functional(data),
        apriori_bound=_apriori_bound(y, grads),
        provenance=provenance,
    )


def make_instance(geometry: CylinderGeometry, recipe: Recipe) -> ProblemInstance:
    """Build a manufactured instance on the physical (non-extended) cylinder.

    The axial factor must satisfy a(0) = a'(0) = 0 with a''(0) != 0 so the
    Cauchy data on ``x_n = 0`` vanish while the source profile stays active
    there; the factors b and f must be bounded away from zero.  The closed
    form of the source profile is

        R = (a db/dt - a'' b - a d2b/dx'2 - p0 a b) / f.
    """
    if geometry.extended:
        raise ValidationError("instances live on the physical cylinder, not the extension")
    xp = geometry.axis_nodes("xp")
    xn = geometry.axis_nodes("xn")
    t = geometry.axis_nodes("t")

    a = recipe.a.fn(xn)
    a2 = recipe.a.d2(xn)
    a_scale = max(float(np.max(np.abs(a))), 1e-30)
    if abs(float(recipe.a.fn(np.zeros(1))[0])) > 1e-12 * a_scale:
        raise ValidationError(f"axial profile {recipe.a.name!r} must vanish at x_n = 0")
    if abs(float(recipe.a.d1(np.zeros(1))[0])) > 1e-12 * a_scale:
        raise ValidationError(
            f"axial profile {recipe.a.name!r} must have zero slope at x_n = 0"
        )
    curv0 = float(recipe.a.d2(np.zeros(1))[0])
    if abs(curv0) <= 1e-12 * max(float(np.max(np.abs(a2))), 1e-30):
        raise ValidationError(
            f"axial profile {recipe.a.name!r} must have nonzero curvature at x_n = 0"
        )

    XP, T = np.meshgrid(xp, t, indexing="ij")
    b = recipe.b.fn(XP, T)
    bt = recipe.b.dt_fn(XP, T)
    bxx = recipe.b.dxx_fn(XP, T)
    fv = recipe.f.fn(XP, T)
    p0v = recipe.p0.fn(XP, T)
    if np.min(np.abs(b)) <= 0.0:
        raise ValidationError(
            f"cross-time factor {recipe.b.name!r} reaches zero (min |b| = {np.min(np.abs(b)):.3e})"
        )
    if np.min(np.abs(fv)) <= 0.0:
        raise ValidationError(
            f"source factor {recipe.f.name!r} reaches zero (min |f| = {np.min(np.abs(fv)):.3e})"
        )

    u_vals = b[:, None, :] * a[None, :, None]
    r_vals = (
        a[None, :, None] * (bt - bxx - p0v * b)[:, None, :]
        - a2[None, :, None] * b[:, None, :]
    ) / fv[:, None, :]

    u = ScalarField(geometry, u_vals, FieldKind.SPACE_TIME)
    R = ScalarField(geometry, r_vals, FieldKind.SPACE_TIME)
    f = ScalarField(geometry, fv, FieldKind.CROSS_SECTION_TIME)
    p0 = ScalarField(geometry, p0v, FieldKind.CROSS_SECTION_TIME)

    return _validated_instance(u, f, R, p0, recipe.provenance(), trace_tol=1e-12)


def add_noise(bundle: BoundaryBundle, level: float, seed: int) -> BoundaryBundle:
    """Perturb every channel by level * max|channel| * standard normals.

    Channels are perturbed in ``BUNDLE_CHANNELS`` order from a single
    generator seeded with ``seed``, so results are reproducible; level 0
    returns traces bit-identical to the clean ones.
    """
    if not (level >= 0.0 and math.isfinite(level)):
        raise ValidationError(f"noise level must be finite and nonnegative, got {level!r}")
    if level == 0.0:
        return replace(bundle, noise_level=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    traces = tuple(
        ch.with_values(ch.values + level * ch.max_abs() * rng.standard_normal(ch.values.shape))
        for ch in bundle.traces
    )
    return BoundaryBundle(traces, noise_level=level, seed=seed)


def coefficient_reduction(
    v_p: ScalarField,
    v_q: ScalarField,
    p: ScalarField,
    q: ScalarField,
    alpha0: float = 1e-8,
) -> ProblemInstance:
    """Reduce a zero-order coefficient pair to a source instance.

    Two solutions of the same problem under coefficients ``p`` and ``q``
    that share Cauchy data on ``x_n = 0`` yield an instance with

        u = v_p - v_q,  p0 = p,  R = v_q,  f = p - q,

    so recovering the source factor recovers the coefficient difference.
    Preconditions: the shared Cauchy data must agree to 1e-10 relative, and
    ``|v_q|`` must stay at or above ``alpha0`` on the face ``x_n = 0``.
    """
    for name, fld, kind in (
        ("v_p", v_p, FieldKind.SPACE_TIME),
        ("v_q", v_q, FieldKind.SPACE_TIME),
        ("p", p, FieldKind.CROSS_SECTION_TIME),
        ("q", q, FieldKind.CROSS_SECTION_TIME),
    ):
        if fld.kind is not kind:
            raise ValidationError(f"{name} must have kind {kind.name}, got {fld.kind.name}")
        if fld.geometry != v_p.geometry:
            raise ValidationError(f"{name} lives on a different geometry than v_p")
    if v_p.geometry.extended:
        raise ValidationError("coefficient reduction runs on the physical cylinder")

    scale = max(v_p.max_abs(), v_q.max_abs(), 1e-30)
    val_gap = trace(v_p - v_q, Face.XN_ZERO).max_abs()
    if val_gap > 1e-10 * scale:
        raise ValidationError(
            f"Cauchy values of v_p and v_q differ by {val_gap:.3e} at x_n = 0 "
            f"(allowed 1e-10 of scale {scale:.3e})"
        )
    y_p, y_q = diff(v_p, "xn", 1), diff(v_q, "xn", 1)
    dscale = max(y_p.max_abs(), y_q.max_abs(), 1e-30)
    der_gap = trace(y_p - y_q, Face.XN_ZERO).max_abs()
    if der_gap > 1e-10 * dscale:
        raise ValidationError(
            f"Cauchy derivatives of v_p and v_q differ by {der_gap:.3e} at x_n = 0"
        )
    face_min = float(np.min(np.abs(trace(v_q, Face.XN_ZERO).values)))
    if face_min < alpha0:
        raise ValidationError(
            f"|v_q| drops to {face_min:.3e} on x_n = 0, below the floor alpha0 = {alpha0:g}"
        )

    provenance = {"kind": "coefficient_reduction", "alpha0": alpha0}
    return _validated_instance(v_p - v_q, p - q, v_q, p, provenance, trace_tol=1e-10)


# ---- scalar summaries -----------------------------------------------------------


def compute_data_functional(bundle: BoundaryBundle) -> float:
    """Size of the lateral data: face gradient content plus face H2 content.

    Both groups integrate over the data-side face and are formed from the
    recorded traces themselves: the first is the squared value of y plus its
    full space-time gradient, where the two tangential components come from
    the face stencils applied to the recorded y and only the cross-section
    component (which no face stencil can reach) comes from its own channel;
    the second is the surface H2 energy of the recorded y.  Differentiating
    the recorded values means measurement noise enters the functional with
    the same stencil amplification it has in any downstream use of the data.
    Degree-1 homogeneous in the bundle and zero exactly when the recorded
    y and y_xp vanish, which for bundles of an actual field means all
    channels vanish.
    """
    (d_of_u,) = compute_data_functionals([bundle])
    return d_of_u


def compute_data_functionals(bundles: list[BoundaryBundle]) -> list[float]:
    """``compute_data_functional`` of each bundle, from one norm stack per norm kind.

    The bundles must share one grid; each value carries the bits of its
    bundle's functional alone, since ``discrete_norms`` keeps each field's.
    """
    if not bundles:
        return []
    first = bundles[0].traces[0]
    if any(bundle.traces[0].geometry != first.geometry for bundle in bundles):
        raise ValidationError("the bundles of one data functional stack lie on different grids")

    def stack(name: str) -> np.ndarray:
        i = list(BUNDLE_CHANNELS).index(name)
        return np.stack([bundle.traces[i].values for bundle in bundles])

    g, field_kind, y = first.geometry, first.kind, stack("y")
    y_xp = discrete_norms(g, field_kind, stack("y_xp"))
    h1 = discrete_norms(g, field_kind, y, kind=NormKind.H1_SURFACE)
    h2 = discrete_norms(g, field_kind, y, kind=NormKind.H2_SURFACE)
    # grouped as the gradient content plus the H2 content
    return [math.sqrt(a**2 + b**2 + c**2) for a, b, c in zip(y_xp, h1, h2)]


def _apriori_bound(y: ScalarField, grads: list[ScalarField]) -> float:
    """Sum of the solution norms that bound the stability estimate, from
    y = du/dx_n and its three first derivatives ``grads``.

    Terminal H1 energies, lateral value and gradient energies on both
    cross-section sides, surface H2 energies on all four lateral faces, and
    the value and gradient energies on the top face.  Each summand is a
    norm, so the bound is degree-1 homogeneous in u, and the data functional
    of a clean instance never exceeds it.
    """
    terminal = sum(
        discrete_norm(trace(y, face), kind=NormKind.H1_SURFACE)
        for face in (Face.T_PLUS_DELTA, Face.T_MINUS_DELTA)
    )

    sides = (Face.GAMMA_SIDE, Face.OPPOSITE_SIDE)
    side_val = math.sqrt(sum(discrete_norm(trace(y, fc)) ** 2 for fc in sides))
    side_grad = math.sqrt(
        sum(discrete_norm(trace(gcomp, fc)) ** 2 for fc in sides for gcomp in grads)
    )

    h2_faces = (Face.GAMMA_SIDE, Face.OPPOSITE_SIDE, Face.XN_ZERO, Face.XN_ELL)
    surf_h2 = math.sqrt(
        sum(discrete_norm(trace(y, fc), kind=NormKind.H2_SURFACE) ** 2 for fc in h2_faces)
    )

    top_val = discrete_norm(trace(y, Face.XN_ELL))
    top_grad = math.sqrt(sum(discrete_norm(trace(gcomp, Face.XN_ELL)) ** 2 for gcomp in grads))

    return terminal + side_val + side_grad + surf_h2 + top_val + top_grad


# ---- serialization ----------------------------------------------------------------


def save_instance(inst: ProblemInstance, path) -> None:
    """Write an instance to a single .npz archive (little-endian doubles)."""
    g = inst.geometry
    meta = {
        "geometry": {**asdict(g), "gamma_side": g.gamma_side.value},
        "provenance": inst.provenance,
        "noise_level": inst.data.noise_level,
        "seed": inst.data.seed,
        "d_of_u": inst.d_of_u,
        "apriori_bound": inst.apriori_bound,
    }
    channels = {f"bundle_{name}": ch for name, ch in inst.data.channels().items()}
    fields = {"u": inst.u, "f": inst.f, "R": inst.R, "p0": inst.p0, **channels}
    write_artifact(path, archive_bytes({name: fld.values for name, fld in fields.items()}, meta))


def _instance_from_archive(arrays: dict, meta: dict) -> ProblemInstance:
    gm = meta["geometry"]
    geometry = CylinderGeometry(**{**gm, "gamma_side": GammaSide(gm["gamma_side"])})

    def field(name: str, kind: FieldKind) -> ScalarField:
        return ScalarField(geometry, arrays[name], kind)

    bundle = BoundaryBundle(
        tuple(field(f"bundle_{name}", FieldKind.AXIAL_TIME) for name in BUNDLE_CHANNELS),
        noise_level=meta["noise_level"],
        seed=meta["seed"],
    )
    return ProblemInstance(
        geometry=geometry,
        u=field("u", FieldKind.SPACE_TIME),
        f=field("f", FieldKind.CROSS_SECTION_TIME),
        R=field("R", FieldKind.SPACE_TIME),
        p0=field("p0", FieldKind.CROSS_SECTION_TIME),
        data=bundle,
        d_of_u=meta["d_of_u"],
        apriori_bound=meta["apriori_bound"],
        provenance=meta["provenance"],
    )


def load_instance(path) -> ProblemInstance:
    """Inverse of save_instance; revalidates shapes via field construction."""
    return load_archive(path, "an instance archive", _instance_from_archive)
