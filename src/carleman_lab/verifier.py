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

Over a corpus, the weight is built once per run and stacked over the
strengths, with the quadrature weights folded in; it is read-only and
shared.  Each worker streams its members through a workspace of its own,
four volumes: the volume integrands (Hessian, gradient, value and heat
residual squares) are summed at every strength two at a time, each pair in
one product with the weight stack as soon as it is complete, and their
face values are gathered before a volume is reused, so no member and no
strength keeps a volume of its own.  That product order differs from
summing each side alone, so the sums move in their trailing digits only
(about 1e-14 relative).  The surface H2 norms of the weighted traces are
formed once per member, on one stack over the strengths per face.  On a
large enough grid the caller verifies the even members and one helper
thread the odd ones; each member's sums are its own, so the rows carry the
same bits either way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import ValidationError
from .geometry import (
    CylinderGeometry,
    Face,
    FieldKind,
    NormKind,
    ScalarField,
    axis_weights,
    diff_array,
    diff_array_sharp,
    discrete_norm,  # unused here; perfbench/traced_cli.py hooks this name
    discrete_norms,
    face_index,
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
        return ScalarField._adopt(geometry, vals, self.kind)


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
    wx = diff_array_sharp(w.values, 0, h_xp, 1)
    wy = diff_array_sharp(w.values, 1, h_xn, 1)
    wxx = diff_array_sharp(w.values, 0, h_xp, 2)
    wyy = diff_array_sharp(w.values, 1, h_xn, 2)
    wxy = diff_array_sharp(wx, 1, h_xn, 1)
    lap = wxx + wyy

    wq = quadrature_weights(g, FieldKind.SPACE_ONLY)
    hessian_sq = float(np.sum(wq * (wxx * wxx + 2.0 * wxy * wxy + wyy * wyy)))
    laplacian_sq = float(np.sum(wq * lap * lap))

    # boundary term: for outward normal nu along axis k,
    #   integrand = nu * ( w_k * lap(w) - (w_x * w_xk + w_y * w_yk) )
    w_xn_faces = axis_weights(g.axis_count("xn"), h_xn)
    w_xp_faces = axis_weights(g.nx_prime, h_xp)
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


def _p0_volume(p0: ScalarField | None, g: CylinderGeometry) -> np.ndarray | None:
    if p0 is None:
        return None
    if p0.kind is not FieldKind.CROSS_SECTION_TIME:
        raise ValidationError(f"p0 must be CROSS_SECTION_TIME, got {p0.kind.name}")
    if p0.values.shape != (g.nx_prime, g.nt):
        raise ValidationError("p0 grid does not match the evaluation geometry")
    return p0.values[:, None, :]


def _lateral_traces(values: np.ndarray, g: CylinderGeometry) -> tuple:
    """The lateral faces of a SPACE_TIME array on ``g``, in ``_LATERAL_FACES`` order."""
    faces = [face_index(g, face) for face in _LATERAL_FACES]
    axes = FieldKind.SPACE_TIME.axes
    return tuple(np.take(values, idx, axis=axes.index(axis)) for axis, idx in faces)


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


def _products(terms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``out[i, k] = sum_v terms[i, v] * weights[k, v]``, in numpy's own loops.

    With ``optimize`` off, einsum calls no BLAS and starts no thread, and each
    entry carries the same bits however many rows ``terms`` and ``weights``
    have, as long as ``terms`` has two or more: a one-by-one product groups
    its sum differently.
    """
    return np.einsum("iv,kv->ik", terms, weights)


class _Sides:
    """Both sides of the weighted inequality at fixed strengths, one field per call.

    Holds only what every call reads and none writes: the weight, built and
    stacked over the strengths once, ``we[k] = wq * exp(2 s_k (phi - max phi))``
    on the volume, and the same exponential times the face weights on the
    lateral faces and at the two ends of the time window.  Each worker brings
    its own workspace of ``WORKSPACE`` volumes (``workspace()``).  A call
    streams the field through it: the four volume integrands are summed
    against the stacked weight two at a time, the Hessian and gradient
    squares as soon as both are complete, then the value and heat residual
    squares, and the face values are gathered before a volume is reused.
    The only volume a call allocates is the passing center-tap product of an
    order-2 stencil.  The surface H2 norms of the weighted traces are formed
    on one stack over the strengths per face, a face at a time, and summed
    in ``_LATERAL_FACES`` order.
    """

    WORKSPACE = 4

    def __init__(self, plan: WeightPlan, g: CylinderGeometry, s_values, p0: ScalarField | None):
        for s in s_values:
            _check_strength(s)
        self.g = g
        self.s_values = tuple(float(s) for s in s_values)
        self.p0 = _p0_volume(p0, g)
        shape = g.shape(FieldKind.SPACE_TIME)
        flat = np.arange(math.prod(shape)).reshape(shape)
        self.lateral = np.concatenate([f.ravel() for f in _lateral_traces(flat, g)])
        self.terminal = np.concatenate([flat[:, :, it].ravel() for it in (0, g.nt - 1)])
        kinds = [FieldKind.SPACE_TIME.without(face_index(g, face)[0]) for face in _LATERAL_FACES]
        w_lateral = np.concatenate([quadrature_weights(g, kind).ravel() for kind in kinds])
        w_terminal = np.tile(quadrature_weights(g, FieldKind.SPACE_ONLY).ravel(), 2)

        phi = phi_field(plan, g).values
        phi_max = float(np.max(phi))
        shifted = phi - phi_max
        wq = quadrature_weights(g, FieldKind.SPACE_TIME)
        n = len(self.s_values)
        self.log_scales = [2.0 * s * phi_max for s in self.s_values]
        self.we = np.empty((n, *shape))
        self.lateral_we = np.empty((n, self.lateral.size))
        self.terminal_we = np.empty((n, self.terminal.size))
        for k, s in enumerate(self.s_values):
            e = self.we[k]
            np.multiply(shifted, 2.0 * s, out=e)
            np.exp(e, out=e)
            np.multiply(w_lateral, np.take(e, self.lateral), out=self.lateral_we[k])
            np.multiply(w_terminal, np.take(e, self.terminal), out=self.terminal_we[k])
            e *= wq
        self.half = [np.exp(np.multiply.outer(self.s_values, f)) for f in _lateral_traces(shifted, g)]

    def workspace(self) -> np.ndarray:
        """The volumes one worker's calls write into."""
        return np.empty((self.WORKSPACE, *self.g.shape(FieldKind.SPACE_TIME)))

    def _trace_h2(self, u: ScalarField) -> list[float]:
        """(1/s) surface H2 energy of u * exp(s (phi - max phi)) on the lateral faces, per s."""
        energies = [0.0] * len(self.s_values)
        for face, half in zip(_LATERAL_FACES, self.half):  # one stack over the strengths per face
            t = trace(u, face)
            norms = discrete_norms(self.g, t.kind, t.values * half, kind=NormKind.H2_SURFACE)
            energies = [energy + norm**2 for energy, norm in zip(energies, norms)]
        return [energy / s for energy, s in zip(energies, self.s_values)]

    def __call__(self, u: ScalarField, work: np.ndarray) -> list[CarlemanSides]:
        _check_field(u)
        g, v = self.g, u.values
        n = len(self.s_values)
        we = self.we.reshape(n, -1)
        flat = work.reshape(self.WORKSPACE, -1)
        a, b, c, d = work
        h_xp, h_xn, h_t = (g.spacing(axis) for axis in FieldKind.SPACE_TIME.axes)

        # hess = uxx^2 + 2 uxn^2 + unn^2 into a, grad = ux^2 + un^2 into b;
        # d keeps uxx + unn for the heat residual
        diff_array(v, 0, h_xp, 1, out=c)  # ux
        diff_array(c, 1, h_xn, 1, out=b)  # uxn
        diff_array(v, 0, h_xp, 2, out=d)  # uxx
        np.multiply(d, d, out=a)
        b *= b
        b *= 2.0
        a += b
        diff_array(v, 1, h_xn, 2, out=b)  # unn
        d += b
        b *= b
        a += b
        np.multiply(c, c, out=b)
        diff_array(v, 1, h_xn, 1, out=c)  # un
        c *= c
        b += c
        # grad + ut^2 and u^2 on the lateral faces, grad and u^2 at the ends
        lateral = np.empty((2, self.lateral.size))
        terminal = np.empty((2, self.terminal.size))
        np.take(b, self.lateral, out=lateral[0])
        np.take(b, self.terminal, out=terminal[0])
        hess, grad = _products(flat[:2], we)

        # u^2 into c, heat = ut - (uxx + unn) - p0 u into d, squared
        diff_array(v, 2, h_t, 1, out=c)  # ut
        lateral[0] += np.take(c, self.lateral) ** 2
        np.subtract(c, d, out=d)
        if self.p0 is not None:
            np.multiply(self.p0, v, out=b)
            d -= b
        d *= d
        np.multiply(v, v, out=c)
        np.take(c, self.lateral, out=lateral[1])
        np.take(c, self.terminal, out=terminal[1])
        usq, heat = _products(flat[2:], we)

        lateral = _products(lateral, self.lateral_we)
        terminal = _products(terminal, self.terminal_we)
        trace_h2 = self._trace_h2(u)

        rows = []
        for k, s in enumerate(self.s_values):
            rows.append(
                CarlemanSides(
                    s=s,
                    lhs=float(hess[k] / s + s * grad[k] + s**3 * usq[k]),
                    residual=float(heat[k]),
                    lateral_grad=float(s**3 * lateral[0, k]),
                    lateral_val=float(s**3 * lateral[1, k]),
                    trace_h2=trace_h2[k],
                    terminal_grad=float(s**3 * terminal[0, k]),
                    terminal_val=float(s**3 * terminal[1, k]),
                    log_scale=self.log_scales[k],
                )
            )
        return rows


def carleman_sides(
    u: ScalarField, plan: WeightPlan, s: float, p0: ScalarField | None = None
) -> CarlemanSides:
    """Evaluate the full weighted inequality (Hessian form) for one field.

    Left side: (1/s) Hessian + s gradient + s^3 value energies over the
    extended space-time cylinder.  Right side: heat residual energy, s^3
    lateral boundary value and gradient energies, (1/s) surface H2 energy of
    the weighted field on the lateral faces, and s^3 terminal energies.
    """
    _check_field(u)  # before the weight is laid out on the field's grid
    sides = _Sides(plan, u.geometry, (s,), p0)
    return sides(u, sides.workspace())[0]


# ---- corpus-level verification ----------------------------------------------------


# the volume, in nodes, from which a helper thread takes the odd members.
# Below it two threads gain nothing or lose, most likely because the short
# numpy calls convoy on the GIL.  In process, on two cores of a shared Xeon,
# 40 members took (medians, one thread against two) 0.11-0.19 s against
# 0.15-0.19 s at 14,553 nodes (the README grid), 0.23 s against 0.22-0.27 s
# at 70,785 (33^3) and 0.41 s against 0.28-0.37 s at 136,161 (41^3)
_PARALLEL_NODES = 100_000


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

    Every row equals ``carleman_sides(member.sample(g), plan, s, p0)``: both
    run the same code, and its sums carry the same bits at one strength as
    at many.  The weight is built once per run and shared; the caller
    verifies the even members and, from ``_PARALLEL_NODES`` nodes on, one
    helper thread the odd ones (``workers.run``), each in a workspace of its
    own.  The rows come back in member order, with the same bits on one
    worker as on two.
    ``s_min_emp`` is the smallest strength at which every corpus member's
    ratio is at or below ``c_cap`` (None when no strength qualifies).
    """
    g = geometry if geometry is not None else plan.geometry.extend()
    if not g.extended:
        raise ValidationError("verification geometry must be extended")
    s_values = [float(s) for s in s_values]
    if not s_values or any(b <= a for a, b in zip(s_values, s_values[1:])):
        raise ValidationError("s_values must be a nonempty strictly increasing sequence")
    if not corpus:
        raise ValidationError("the corpus must hold at least one field")
    sides_at = _Sides(plan, g, s_values, p0)

    def verify_members(first: int) -> list[list[CarlemanSides]]:
        work = sides_at.workspace()
        # sampled on reaching it, so one member's field per worker is alive at a time
        return [sides_at(member.sample(g), work) for member in corpus[first::2]]

    # the caller takes the even members, and one helper the odd ones
    halves = workers.run(
        [functools.partial(verify_members, first) for first in range(min(2, len(corpus)))],
        serial=math.prod(g.shape(FieldKind.SPACE_TIME)) < _PARALLEL_NODES,
    )
    rows = []
    by_s: dict[float, list[float]] = {s: [] for s in s_values}
    for i in range(len(corpus)):
        for sides in halves[i % 2][i // 2]:
            rows.append((i, sides))
            by_s[sides.s].append(sides.ratio)
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
