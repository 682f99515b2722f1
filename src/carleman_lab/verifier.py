"""Discrete checks of the weighted energy inequalities behind the theory.

Two families of checks run on corpora of smooth random fields sampled from
closed-form mode combinations (so the same field can be evaluated on any
grid and truncation errors can be measured by grid doubling):

* an integration-by-parts identity equating the squared Laplacian energy to
  the full Hessian energy plus a boundary correction, whose discrete
  residual must shrink at second order;

* the weighted inequality relating interior energies of a field to its
  boundary and residual energies, with the weight ``exp(2 s phi)``.  The
  empirical constant is the worst ratio of the two sides over the corpus.

All weighted integrals are evaluated in shifted form: the weight is
normalized by its maximum, so integrands stay inside (0, 1] and only the
reported logarithms carry the (possibly huge) factor ``exp(2 s max phi)``.

Over a corpus, the derivatives of each field are formed once per member and
the weight once per strength; a (member, s) pair then costs two volume sums
plus work on the faces.  The surface H2 norms of the weighted traces are
formed once per member and face, on the stack of all strengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import (
    CylinderGeometry,
    Face,
    FieldKind,
    NormKind,
    ScalarField,
    axis_weights,
    diff_array,
    discrete_norm,  # unused here; perfbench/traced_cli.py hooks this name
    discrete_norms,
    dt,
    dxn,
    dxn2,
    dxp,
    dxp2,
    quadrature_weights,
    trace,
)
from .weight import WeightPlan, phi_field

__all__ = [
    "CorpusField",
    "smooth_corpus",
    "Lemma1Result",
    "lemma1_residual",
    "CarlemanSides",
    "carleman_sides",
    "CarlemanReport",
    "verify_carleman",
]


# ---- resampleable smooth corpus -------------------------------------------------

_N_MODES = 5


def _mode_matrix(nodes: np.ndarray) -> np.ndarray:
    """Evaluate the five per-axis modes on normalized coordinates in [-1, 1]."""
    lo, hi = nodes[0], nodes[-1]
    xi = 2.0 * (nodes - lo) / (hi - lo) - 1.0
    return np.stack(
        [np.ones_like(xi), xi, xi * xi, np.sin(np.pi * xi), np.cos(np.pi * xi)]
    )


@dataclass(frozen=True)
class CorpusField:
    """Closed-form smooth field: tensor modes with fixed coefficients.

    ``sample`` evaluates the same function on any geometry with matching
    extents, which is what makes two-grid truncation studies meaningful.
    """

    kind: FieldKind
    coeffs: np.ndarray

    def sample(self, geometry: CylinderGeometry) -> ScalarField:
        mats = [_mode_matrix(geometry.axis_nodes(a)) for a in self.kind.axes]
        vals = self.coeffs
        for m in mats:
            # contract the leading mode index against each axis in turn
            vals = np.tensordot(vals, m, axes=([0], [0]))
        return ScalarField(geometry, vals, self.kind)


def smooth_corpus(
    size: int, seed: int, kind: FieldKind = FieldKind.SPACE_TIME
) -> list[CorpusField]:
    """Seeded corpus of mode combinations with decaying random coefficients."""
    if size < 1:
        raise ValidationError(f"corpus size must be at least 1, got {size}")
    rng = np.random.default_rng(seed)
    naxes = len(kind.axes)
    grids = np.indices((_N_MODES,) * naxes).sum(axis=0)
    # mild decay keeps the trigonometric modes strong enough that discrete
    # truncation errors have a robust leading-order term on every member
    decay = 1.0 / (1.0 + grids)
    out = []
    for _ in range(size):
        coeffs = rng.standard_normal((_N_MODES,) * naxes) * decay
        out.append(CorpusField(kind=kind, coeffs=coeffs))
    return out


# ---- integration-by-parts identity ----------------------------------------------


@dataclass(frozen=True)
class Lemma1Result:
    hessian_sq: float
    boundary: float
    laplacian_sq: float
    residual: float
    normalized: float
    harmonic_branch: bool


def _face_weights_1d(geometry: CylinderGeometry, axis: str) -> np.ndarray:
    return axis_weights(geometry.axis_count(axis), geometry.spacing(axis))


def _d1_sharp(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central first derivative with fourth-order one-sided end rows.

    The identity residual is itself a second-order quantity; the standard
    second-order end rows would leak third-order boundary-strip errors into
    it and blur the measured convergence rate, so the end rows here are two
    orders better than the interior rows of ``diff_array``.
    """
    d = diff_array(arr, axis, h, 1)
    b, out = np.moveaxis(arr, axis, 0), np.moveaxis(d, axis, 0)
    out[0] = (-25.0 / 12.0 * b[0] + 4.0 * b[1] - 3.0 * b[2] + 4.0 / 3.0 * b[3] - 0.25 * b[4]) / h
    out[-1] = (25.0 / 12.0 * b[-1] - 4.0 * b[-2] + 3.0 * b[-3] - 4.0 / 3.0 * b[-4] + 0.25 * b[-5]) / h
    return d


def _d2_sharp(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central second derivative with fourth-order one-sided end rows."""
    d = diff_array(arr, axis, h, 2)
    b, out = np.moveaxis(arr, axis, 0), np.moveaxis(d, axis, 0)
    h2 = h * h
    out[0] = (
        15.0 / 4.0 * b[0] - 77.0 / 6.0 * b[1] + 107.0 / 6.0 * b[2]
        - 13.0 * b[3] + 61.0 / 12.0 * b[4] - 5.0 / 6.0 * b[5]
    ) / h2
    out[-1] = (
        15.0 / 4.0 * b[-1] - 77.0 / 6.0 * b[-2] + 107.0 / 6.0 * b[-3]
        - 13.0 * b[-4] + 61.0 / 12.0 * b[-5] - 5.0 / 6.0 * b[-6]
    ) / h2
    return d


def lemma1_residual(w: ScalarField) -> Lemma1Result:
    """Residual of the Hessian/Laplacian boundary identity on the extension.

    For smooth w the full Hessian energy plus the boundary correction equals
    the Laplacian energy exactly; discretely the residual is pure truncation
    error.  The residual is reported relative to the Laplacian energy, or in
    absolute form (flagged) when the field is discretely harmonic.  Needs at
    least six nodes per axis for the sharpened end stencils.
    """
    if w.kind is not FieldKind.SPACE_ONLY:
        raise ValidationError(f"identity check expects a SPACE_ONLY field, got {w.kind.name}")
    g = w.geometry
    if not g.extended:
        raise ValidationError("identity check runs on the extended cylinder")
    if g.nx_prime < 6 or g.axis_count("xn") < 6:
        raise ValidationError("identity check needs at least six nodes per spatial axis")

    h_xp = g.spacing("xp")
    h_xn = g.spacing("xn")
    wx = _d1_sharp(w.values, h_xp, 0)
    wy = _d1_sharp(w.values, h_xn, 1)
    wxx = _d2_sharp(w.values, h_xp, 0)
    wyy = _d2_sharp(w.values, h_xn, 1)
    wxy = _d1_sharp(wx, h_xn, 1)
    lap = wxx + wyy

    wq = quadrature_weights(g, FieldKind.SPACE_ONLY)
    hessian_sq = float(np.sum(wq * (wxx * wxx + 2.0 * wxy * wxy + wyy * wyy)))
    laplacian_sq = float(np.sum(wq * lap * lap))

    # boundary term: for outward normal nu along axis k,
    #   integrand = nu * ( w_k * lap(w) - (w_x * w_xk + w_y * w_yk) )
    w_xn_faces = _face_weights_1d(g, "xn")
    w_xp_faces = _face_weights_1d(g, "xp")
    boundary = 0.0
    for idx, nu in ((0, -1.0), (-1, 1.0)):  # faces x' = lo, hi
        val = nu * (wx[idx] * lap[idx] - (wx[idx] * wxx[idx] + wy[idx] * wxy[idx]))
        boundary += float(np.sum(w_xn_faces * val))
    for idx, nu in ((0, -1.0), (-1, 1.0)):  # faces x_n = -ell, +ell
        val = nu * (
            wy[:, idx] * lap[:, idx]
            - (wx[:, idx] * wxy[:, idx] + wy[:, idx] * wyy[:, idx])
        )
        boundary += float(np.sum(w_xp_faces * val))

    residual = hessian_sq + boundary - laplacian_sq
    # a second-derivative energy scale of the field itself, so that fields
    # with negligible curvature (affine ones included) take the absolute
    # branch instead of dividing roundoff by roundoff
    spans = (g.d_hi - g.d_lo, 2.0 * g.ell)
    char = (w.max_abs() / min(spans) ** 2) ** 2 * spans[0] * spans[1]
    harmonic = laplacian_sq <= 1e-12 * max(hessian_sq, char, 1e-300)
    normalized = abs(residual) if harmonic else abs(residual) / laplacian_sq
    return Lemma1Result(
        hessian_sq=hessian_sq,
        boundary=boundary,
        laplacian_sq=laplacian_sq,
        residual=residual,
        normalized=normalized,
        harmonic_branch=harmonic,
    )


# ---- weighted inequality sides ---------------------------------------------------

_LATERAL_FACES = (Face.GAMMA_SIDE, Face.OPPOSITE_SIDE, Face.XN_ELL, Face.XN_NEG_ELL)


def _check_field(u: ScalarField):
    if u.kind is not FieldKind.SPACE_TIME:
        raise ValidationError(f"inequality sides expect a SPACE_TIME field, got {u.kind.name}")
    if not u.geometry.extended:
        raise ValidationError("inequality sides are evaluated on the extended cylinder")


def _check_strength(s: float):
    if not (s > 0 and math.isfinite(s)):
        raise ValidationError(f"weight strength s must be positive and finite, got {s!r}")


def _p0_volume(p0: ScalarField | None, g: CylinderGeometry) -> np.ndarray:
    if p0 is None:
        return np.zeros((1, 1, 1))
    if p0.kind is not FieldKind.CROSS_SECTION_TIME:
        raise ValidationError(f"p0 must be CROSS_SECTION_TIME, got {p0.kind.name}")
    if p0.values.shape != (g.nx_prime, g.nt):
        raise ValidationError("p0 grid does not match the evaluation geometry")
    return p0.values[:, None, :]


def _lateral_traces(values: np.ndarray, g: CylinderGeometry) -> tuple:
    field = ScalarField(g, values, FieldKind.SPACE_TIME)
    return tuple(trace(field, face).values for face in _LATERAL_FACES)


# The sides are split by what each piece depends on: _MemberTerms only on the
# field, _StrengthTerms only on s.  Every hoisted array is the left operand of
# the product the sides form, so ``(a * b) * E`` still multiplies in the same
# order and every side keeps its bits.


@dataclass(frozen=True)
class _MemberTerms:
    """The s-independent pieces of the weighted inequality for one field."""

    wq: np.ndarray
    hess: np.ndarray
    grad: np.ndarray
    usq: np.ndarray
    heat_sq: np.ndarray  # wq * heat * heat
    lateral: tuple  # per lateral face: (wf * (grad + ut^2), wf * u^2, trace of u)
    terminal: tuple  # per end of the time window: (w * grad, w * u^2)


def _member_terms(u: ScalarField, p0: ScalarField | None) -> _MemberTerms:
    _check_field(u)
    g = u.geometry
    wq = quadrature_weights(g, FieldKind.SPACE_TIME)

    ux_field = dxp(u)
    ux = ux_field.values
    un = dxn(u).values
    ut = dt(u).values
    uxx = dxp2(u).values
    unn = dxn2(u).values
    uxn = dxn(ux_field).values

    hess = uxx * uxx + 2.0 * uxn * uxn + unn * unn
    grad = ux * ux + un * un
    usq = u.values**2
    lap = uxx + unn
    heat = ut - lap - _p0_volume(p0, g) * u.values

    lateral = []
    for face, gsq_f in zip(_LATERAL_FACES, _lateral_traces(grad + ut * ut, g)):
        u_f = trace(u, face)
        wf = quadrature_weights(g, u_f.kind)
        lateral.append((wf * gsq_f, wf * (u_f.values * u_f.values), u_f))

    w_sp = quadrature_weights(g, FieldKind.SPACE_ONLY)
    terminal = tuple((w_sp * grad[:, :, it], w_sp * usq[:, :, it]) for it in (0, g.nt - 1))
    return _MemberTerms(
        wq=wq,
        hess=hess,
        grad=grad,
        usq=usq,
        heat_sq=wq * heat * heat,
        lateral=tuple(lateral),
        terminal=terminal,
    )


@dataclass(frozen=True)
class _StrengthTerms:
    """The weight at one strength, shifted by its maximum, on the volume and faces."""

    s: float
    E: np.ndarray  # exp(2 s (phi - max phi))
    lateral_e: tuple  # E on each lateral face
    lateral_eh: tuple  # exp(s (phi - max phi)) on each lateral face
    terminal_e: tuple  # E at each end of the time window
    log_scale: float


def _strength_terms(plan: WeightPlan, g: CylinderGeometry, s_values) -> list[_StrengthTerms]:
    for s in s_values:
        _check_strength(s)
    phi = phi_field(plan, g).values
    phi_max = float(np.max(phi))
    shifted = phi - phi_max
    out = []
    for s in s_values:
        E = np.exp(2.0 * s * shifted)
        Eh = np.exp(s * shifted)
        out.append(
            _StrengthTerms(
                s=s,
                E=E,
                lateral_e=_lateral_traces(E, g),
                lateral_eh=_lateral_traces(Eh, g),
                terminal_e=(E[:, :, 0], E[:, :, g.nt - 1]),
                log_scale=2.0 * s * phi_max,
            )
        )
    return out


@dataclass(frozen=True)
class CarlemanSides:
    """Both sides of the weighted inequality for one field at one strength.

    Values are shifted by the weight maximum; ``log_scale`` holds
    ``2 s max(phi)`` so raw logarithms are ``log(value) + log_scale``.
    """

    s: float
    lhs: float
    residual: float
    lateral_grad: float
    lateral_val: float
    trace_h2: float
    terminal_grad: float
    terminal_val: float
    log_scale: float

    @property
    def rhs(self) -> float:
        return (
            self.residual
            + self.lateral_grad
            + self.lateral_val
            + self.trace_h2
            + self.terminal_grad
            + self.terminal_val
        )

    @property
    def ratio(self) -> float:
        if self.rhs > 0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0.0 else math.inf


def _trace_h2(m: _MemberTerms, weights: list[_StrengthTerms]) -> list[float]:
    """(1/s) surface H2 energy of u * exp(s (phi - max phi)) on the lateral faces, per s.

    Each face's weighted traces are stacked over the strengths, so its
    derivatives are formed once; the faces are summed in ``_LATERAL_FACES`` order.
    """
    energies = [0.0] * len(weights)
    for f, (_, _, u_f) in enumerate(m.lateral):
        stack = u_f.values * np.stack([w.lateral_eh[f] for w in weights])
        norms = discrete_norms(u_f.geometry, u_f.kind, stack, kind=NormKind.H2_SURFACE)
        for k, norm in enumerate(norms):
            energies[k] += norm**2
    return [energy / w.s for energy, w in zip(energies, weights)]


def _sides(m: _MemberTerms, w: _StrengthTerms, trace_h2: float) -> CarlemanSides:
    s = w.s
    E = w.E
    lhs = float(np.sum(m.wq * ((m.hess / s) + s * m.grad + s**3 * m.usq) * E))
    residual = float(np.sum(m.heat_sq * E))

    lateral_grad = 0.0
    lateral_val = 0.0
    for (gsq_f, usq_f, _), ef in zip(m.lateral, w.lateral_e):
        lateral_grad += float(np.sum(gsq_f * ef))
        lateral_val += float(np.sum(usq_f * ef))
    lateral_grad *= s**3
    lateral_val *= s**3

    terminal_grad = 0.0
    terminal_val = 0.0
    for (grad_t, usq_t), e_t in zip(m.terminal, w.terminal_e):
        terminal_grad += float(np.sum(grad_t * e_t))
        terminal_val += float(np.sum(usq_t * e_t))
    terminal_grad *= s**3
    terminal_val *= s**3

    return CarlemanSides(
        s=float(s),
        lhs=lhs,
        residual=residual,
        lateral_grad=lateral_grad,
        lateral_val=lateral_val,
        trace_h2=trace_h2,
        terminal_grad=terminal_grad,
        terminal_val=terminal_val,
        log_scale=w.log_scale,
    )


def carleman_sides(
    u: ScalarField, plan: WeightPlan, s: float, p0: ScalarField | None = None
) -> CarlemanSides:
    """Evaluate the full weighted inequality (Hessian form) for one field.

    Left side: (1/s) Hessian + s gradient + s^3 value energies over the
    extended space-time cylinder.  Right side: heat residual energy, s^3
    lateral boundary value and gradient energies, (1/s) surface H2 energy of
    the weighted field on the lateral faces, and s^3 terminal energies.
    """
    weights = _strength_terms(plan, u.geometry, (s,))
    terms = _member_terms(u, p0)
    return _sides(terms, weights[0], _trace_h2(terms, weights)[0])


# ---- corpus-level verification ----------------------------------------------------


@dataclass(frozen=True)
class CarlemanReport:
    s_grid: tuple
    rows: tuple  # (member index, CarlemanSides)
    c_emp: float
    s_min_emp: float | None
    c_cap: float
    corpus_size: int
    geometry_fingerprint: str


def verify_carleman(
    plan: WeightPlan,
    corpus: list[CorpusField],
    s_values,
    p0: ScalarField | None = None,
    c_cap: float = 10.0,
    geometry: CylinderGeometry | None = None,
) -> CarlemanReport:
    """Tabulate both sides over a corpus and record the worst ratio.

    Every row equals ``carleman_sides(member.sample(g), plan, s, p0)``; the
    weight is built once per strength and the derivatives once per member.
    ``s_min_emp`` is the smallest strength at which every corpus member's
    ratio is at or below ``c_cap`` (None when no strength qualifies).
    """
    g = geometry if geometry is not None else plan.geometry.extend()
    if not g.extended:
        raise ValidationError("verification geometry must be extended")
    s_values = [float(s) for s in s_values]
    if not s_values or sorted(s_values) != s_values:
        raise ValidationError("s_values must be a nonempty increasing sequence")
    if not corpus:
        raise ValidationError("the corpus must hold at least one field")
    weights = _strength_terms(plan, g, s_values)
    rows = []
    by_s: dict[float, list[float]] = {s: [] for s in s_values}
    for i, member in enumerate(corpus):
        # sampled on reaching it, so one member's field is alive at a time
        terms = _member_terms(member.sample(g), p0)
        for weight, trace_h2 in zip(weights, _trace_h2(terms, weights)):
            sides = _sides(terms, weight, trace_h2)
            rows.append((i, sides))
            by_s[weight.s].append(sides.ratio)
    c_emp = max(sides.ratio for _, sides in rows)
    s_min_emp = next(
        (s for s in s_values if all(r <= c_cap for r in by_s[s])), None
    )
    return CarlemanReport(
        s_grid=tuple(s_values),
        rows=tuple(rows),
        c_emp=c_emp,
        s_min_emp=s_min_emp,
        c_cap=c_cap,
        corpus_size=len(corpus),
        geometry_fingerprint=g.fingerprint(),
    )
