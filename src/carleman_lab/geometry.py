"""Cylindrical space-time grids, scalar fields, and finite-difference calculus.

The domain is a cylinder ``Omega = D x (0, ell)`` with interval cross-section
``D = (d_lo, d_hi)``, crossed with the time window ``(-delta, delta)``.  One
endpoint of ``D`` is the data-carrying side (``gamma_side``).  Fields may also
live on the extended cylinder ``Omega x (-ell, ell)`` (``extended=True``),
where the verifier samples its corpus and checks the weighted inequality.

All derivatives are second-order finite differences: central stencils in the
interior, one-sided second-order stencils on the first and last node of the
differentiation axis.  One coefficient table, ``_STENCILS``, drives the array
stencils (``diff_array``, behind ``diff``), the sparse matrices of the lateral
solver (``diff_matrix``) and the fourth-order end rows of
``diff_array_sharp``.  All integrals are trapezoidal.

One node rule picks the nodes of an interval, for the regions of
``discrete_norm`` and for every node set of the weight planner:
``CylinderGeometry.nodes_within`` keeps the nodes of an axis in ``[lo, hi]``
with both ends widened by ``node_tolerance``, 1e-9 * max(1, axis span).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "GammaSide",
    "FieldKind",
    "CylinderGeometry",
    "ScalarField",
    "Face",
    "NormKind",
    "Region",
    "diff_array",
    "diff_array_sharp",
    "diff_matrix",
    "diff",
    "laplacian",
    "face_index",
    "trace",
    "time_slice",
    "axis_weights",
    "quadrature_weights",
    "discrete_norm",
    "discrete_norms",
]

_MIN_NODES = 4  # the widest one-sided stencil spans four nodes
_MAX_NODES = np.iinfo(np.intp).max // 8  # float64 nodes whose byte count numpy can index


class GammaSide(Enum):
    """Which endpoint of the cross-section carries the lateral data."""

    LO = "LO"
    HI = "HI"


class FieldKind(Enum):
    """Axis signature of a scalar field, as a tuple of axis names."""

    SPACE_TIME = ("xp", "xn", "t")
    SPACE_ONLY = ("xp", "xn")
    CROSS_SECTION_TIME = ("xp", "t")
    CROSS_SECTION = ("xp",)
    AXIAL_TIME = ("xn", "t")

    @property
    def axes(self) -> tuple[str, ...]:
        return self.value

    def without(self, axis: str) -> FieldKind:
        """The kind a field of this kind has once ``axis`` is dropped, as by a trace."""
        rest = tuple(a for a in self.axes if a != axis)
        if axis in self.axes and rest in {kind.axes for kind in FieldKind}:
            return FieldKind(rest)
        raise ValidationError(f"trace along {axis!r} is not defined for fields of kind {self.name}")


@dataclass(frozen=True)
class CylinderGeometry:
    """Uniform tensor grid on the cylinder and its time window.

    ``nx_n`` counts nodes on the axial interval: ``[0, ell]`` normally,
    ``[-ell, ell]`` when ``extended`` is set.  Extended geometries need an
    odd ``nx_n`` so that ``x_n = 0`` is a node.
    """

    d_lo: float
    d_hi: float
    ell: float
    delta: float
    gamma_side: GammaSide
    nx_prime: int
    nx_n: int
    nt: int
    extended: bool = False

    def __post_init__(self):
        for name in ("d_lo", "d_hi", "ell", "delta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValidationError(f"geometry extent {name} must be finite, got {v!r}")
        if not self.d_lo < self.d_hi:
            raise ValidationError(
                f"cross-section is degenerate: d_lo={self.d_lo} must be < d_hi={self.d_hi}"
            )
        if self.ell <= 0:
            raise ValidationError(f"axial half-length ell must be positive, got {self.ell}")
        if self.delta <= 0:
            raise ValidationError(f"time half-width delta must be positive, got {self.delta}")
        if not isinstance(self.gamma_side, GammaSide):
            raise ValidationError(f"gamma_side must be a GammaSide, got {self.gamma_side!r}")
        for name in ("nx_prime", "nx_n", "nt"):
            n = getattr(self, name)
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValidationError(f"grid count {name} must be an int, got {n!r}")
            if n < _MIN_NODES:
                raise ValidationError(
                    f"grid too coarse: {name}={n} is below the minimum of {_MIN_NODES} nodes"
                )
            if n > _MAX_NODES:
                raise ValidationError(
                    f"grid count {name} is above {_MAX_NODES}, the most nodes an axis array can hold"
                )
        if self.extended and self.nx_n % 2 == 0:
            raise ValidationError(
                f"extended geometry needs an odd axial node count so x_n=0 is a node, got nx_n={self.nx_n}"
            )

    # ---- coordinates ----------------------------------------------------

    def _axis_extent(self, axis: str) -> tuple[float, float, int]:
        """First node, last node and node count of a named axis."""
        if axis == "xp":
            return self.d_lo, self.d_hi, self.nx_prime
        if axis == "xn":
            return (-self.ell if self.extended else 0.0), self.ell, self.nx_n
        if axis == "t":
            return -self.delta, self.delta, self.nt
        raise ValidationError(f"unknown axis {axis!r}")

    def axis_nodes(self, axis: str) -> np.ndarray:
        return np.linspace(*self._axis_extent(axis))

    def axis_count(self, axis: str) -> int:
        return {"xp": self.nx_prime, "xn": self.nx_n, "t": self.nt}[axis]

    def spacing(self, axis: str) -> float:
        lo, hi, n = self._axis_extent(axis)
        return (hi - lo) / (n - 1)

    def node_tolerance(self, axis: str) -> float:
        """How far a point may miss a node or an interval end on ``axis`` and still meet it."""
        lo, hi, _ = self._axis_extent(axis)
        return 1e-9 * max(1.0, hi - lo)

    def nodes_within(self, axis: str, lo: float, hi: float) -> slice:
        """The nodes of ``axis`` in ``[lo, hi]``, both ends widened by ``node_tolerance``."""
        nodes = self.axis_nodes(axis)
        tol = self.node_tolerance(axis)
        inside = np.nonzero((nodes >= lo - tol) & (nodes <= hi + tol))[0]
        return slice(int(inside[0]), int(inside[-1]) + 1) if inside.size else slice(0, 0)

    def shape(self, kind: FieldKind) -> tuple[int, ...]:
        return tuple(self.axis_count(a) for a in kind.axes)

    @property
    def xn_zero_index(self) -> int:
        return (self.nx_n - 1) // 2 if self.extended else 0

    @property
    def gamma_coord(self) -> float:
        return self.d_hi if self.gamma_side is GammaSide.HI else self.d_lo

    # ---- derived geometries ---------------------------------------------

    def extend(self) -> "CylinderGeometry":
        """Geometry of the reflected cylinder ``Omega x (-ell, ell)``."""
        if self.extended:
            raise ValidationError("geometry is already extended across x_n = 0")
        return replace(self, nx_n=2 * self.nx_n - 1, extended=True)

    def refine(self) -> "CylinderGeometry":
        """Halve every spacing by node-doubling (n -> 2n - 1 per axis)."""
        return replace(
            self,
            nx_prime=2 * self.nx_prime - 1,
            nx_n=2 * self.nx_n - 1,
            nt=2 * self.nt - 1,
        )

    def fingerprint(self) -> str:
        """Stable hash identifying the grid, used in serialized reports."""
        key = "|".join(
            repr(v)
            for v in (
                self.d_lo,
                self.d_hi,
                self.ell,
                self.delta,
                self.gamma_side.value,
                self.nx_prime,
                self.nx_n,
                self.nt,
                self.extended,
            )
        )
        return hashlib.sha256(key.encode()).hexdigest()[:16]


class ScalarField:
    """Array of nodal values tied to a geometry and an axis signature.

    Values are stored read-only.  The constructor takes a private copy of the
    caller's array; operations return new fields.
    """

    __slots__ = ("geometry", "values", "kind")

    def __init__(self, geometry: CylinderGeometry, values, kind: FieldKind):
        self._bind(geometry, np.array(values, dtype=np.float64), kind)

    @classmethod
    def _adopt(cls, geometry: CylinderGeometry, values: np.ndarray, kind: FieldKind):
        """A field over a float64 array the package has just made, without the copy.

        Only for arrays no caller can hold: the field freezes ``values`` itself.
        """
        field = object.__new__(cls)
        field._bind(geometry, values, kind)
        return field

    def _bind(self, geometry: CylinderGeometry, values: np.ndarray, kind: FieldKind):
        expected = geometry.shape(kind)
        if values.shape != expected:
            raise ValidationError(
                f"field shape {values.shape} does not match geometry shape {expected} for {kind.name}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("field contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    @property
    def axes(self) -> tuple[str, ...]:
        return self.kind.axes

    def axis_index(self, axis: str) -> int:
        try:
            return self.axes.index(axis)
        except ValueError:
            raise ValidationError(
                f"field of kind {self.kind.name} has no {axis!r} axis"
            ) from None

    @classmethod
    def from_function(
        cls, geometry: CylinderGeometry, kind: FieldKind, fn: Callable[..., np.ndarray]
    ) -> "ScalarField":
        """Sample ``fn(*axis_arrays)`` on the tensor grid (ij indexing)."""
        coords = [geometry.axis_nodes(a) for a in kind.axes]
        mesh = np.meshgrid(*coords, indexing="ij")
        vals = np.asarray(fn(*mesh), dtype=np.float64)
        return cls(geometry, np.broadcast_to(vals, geometry.shape(kind)), kind)

    @classmethod
    def zeros(cls, geometry: CylinderGeometry, kind: FieldKind) -> "ScalarField":
        return cls(geometry, np.zeros(geometry.shape(kind)), kind)

    @classmethod
    def constant(cls, geometry: CylinderGeometry, kind: FieldKind, value: float) -> "ScalarField":
        return cls(geometry, np.full(geometry.shape(kind), float(value)), kind)

    def with_values(self, values) -> "ScalarField":
        return ScalarField(self.geometry, values, self.kind)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    # Differences of fields on one grid, without unwrapping the arrays.

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.kind is not self.kind or other.geometry != self.geometry:
                raise ValidationError("field arithmetic requires matching geometry and kind")
            return other.values
        return other

    def __sub__(self, other):
        return self.with_values(self.values - self._coerce(other))

    def __repr__(self):
        return f"ScalarField({self.kind.name}, shape={self.values.shape})"


# ---- finite differences ---------------------------------------------------


# Stencils by derivative order: (denominator, interior taps on nodes i-1, i,
# i+1, second- and fourth-order first-row taps on nodes 0, 1, ...).  The outer
# interior taps are -1 or +1; a last row mirrors its first row, sign flipped
# for odd orders.  The fourth-order order-1 row, (-25/12, 4, -3, 4/3, -1/4) / h,
# is doubled to share the denominator 2h: a power of two, so the same bits.
_STENCILS = {
    1: (lambda h: 2.0 * h, (-1.0, 0.0, 1.0), (-3.0, 4.0, -1.0),
        (-25.0 / 6.0, 8.0, -6.0, 8.0 / 3.0, -0.5)),
    2: (lambda h: h * h, (1.0, -2.0, 1.0), (2.0, -5.0, 4.0, -1.0),
        (15.0 / 4.0, -77.0 / 6.0, 107.0 / 6.0, -13.0, 61.0 / 12.0, -5.0 / 6.0)),
}


def _mirrored(first: tuple, order: int) -> tuple:
    """Last-row taps mirroring the first row's: reversed, sign flipped for odd orders."""
    sign = -1.0 if order % 2 else 1.0
    return tuple(sign * c for c in reversed(first))


def _stencil(order: int, h: float):
    """Denominator, interior taps, first-row and last-row taps of ``order``."""
    if order not in _STENCILS:
        raise ValidationError(f"derivative order must be 1 or 2, got {order}")
    denominator, interior, first, _ = _STENCILS[order]
    return denominator(h), interior, first, _mirrored(first, order)


def _end_rows(b: np.ndarray, out: np.ndarray, den: float, first: tuple, order: int) -> None:
    """Write the one-sided end rows along axis 0: ``first`` on nodes 0, 1, ...
    of ``b``, its mirror on nodes ..., -2, -1, each divided by ``den``."""
    for row, step, taps in ((0, 1, first), (-1, -1, _mirrored(first, order)[::-1])):
        acc = taps[0] * b[row]
        for k in range(1, len(taps)):
            acc = acc + taps[k] * b[row + step * k]
        out[row] = acc / den


def diff_array(
    a: np.ndarray, axis: int, h: float, order: int = 1, out: np.ndarray | None = None
) -> np.ndarray:
    """Second-order derivative of a nodal array along ``axis``.

    With ``out`` the stencil is written there, in the same operations as into
    a fresh array, so both give the same bits; ``out`` may not overlap ``a``.
    """
    den, (left, center, _), first, _ = _stencil(order, h)
    if out is None:
        out = np.empty_like(a)
    elif out.shape != a.shape:
        raise ValidationError(f"stencil output of shape {out.shape} does not match {a.shape}")
    elif np.shares_memory(out, a):
        raise ValidationError("stencil output must not share memory with its input")
    b = np.moveaxis(a, axis, 0)
    o = np.moveaxis(out, axis, 0)
    # the outer pair first, so the stencil is bitwise symmetric under mirroring
    (np.add if left > 0 else np.subtract)(b[2:], b[:-2], out=o[1:-1])
    if center:
        o[1:-1] += center * b[1:-1]
    o[1:-1] /= den
    _end_rows(b, o, den, first, order)
    return out


def diff_array_sharp(a: np.ndarray, axis: int, h: float, order: int = 1) -> np.ndarray:
    """``diff_array`` with fourth-order one-sided end rows, for a residual that is
    itself second order (the verifier's identity), into which second-order end
    rows would leak third-order boundary-strip errors."""
    out = diff_array(a, axis, h, order)
    denominator, _, _, sharp = _STENCILS[order]
    _end_rows(np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0), denominator(h), sharp, order)
    return out


def diff_matrix(n: int, h: float, order: int = 1) -> sp.csr_matrix:
    """The ``diff_array`` stencil on an axis of ``n`` nodes, as a sparse matrix.

    Stores no explicit zeros: ``2n + 2`` entries for order 1, ``3n + 2`` for 2.
    """
    import scipy.sparse as sp  # on first use, so commands without a solve never load scipy

    den, interior, first, last = _stencil(order, h)
    taps = [(off, c) for off, c in zip((-1, 0, 1), interior) if c]
    k, inner = len(first), np.arange(1, n - 1)
    rows = np.concatenate([np.zeros(k, int), np.repeat(inner, len(taps)), np.full(k, n - 1)])
    cols = [np.arange(k), (inner[:, None] + [off for off, _ in taps]).ravel(), np.arange(n - k, n)]
    vals = np.concatenate([first, np.tile([c for _, c in taps], n - 2), last])
    return sp.csr_matrix((vals * (1.0 / den), (rows, np.concatenate(cols))), shape=(n, n))


def diff(u: ScalarField, axis: str, order: int = 1) -> ScalarField:
    """Finite-difference derivative of ``u`` along a named axis."""
    idx = u.axis_index(axis)
    values = diff_array(u.values, idx, u.geometry.spacing(axis), order)
    return ScalarField._adopt(u.geometry, values, u.kind)


def laplacian(u: ScalarField) -> ScalarField:
    """Spatial Laplacian (cross-section plus axial second derivatives)."""
    if "xp" not in u.axes or "xn" not in u.axes:
        raise ValidationError(f"laplacian needs both spatial axes, got kind {u.kind.name}")
    return u.with_values(diff(u, "xp", 2).values + diff(u, "xn", 2).values)


# ---- traces -----------------------------------------------------------------


class Face(Enum):
    XN_ZERO = "XN_ZERO"
    XN_ELL = "XN_ELL"
    XN_NEG_ELL = "XN_NEG_ELL"
    GAMMA_SIDE = "GAMMA_SIDE"
    OPPOSITE_SIDE = "OPPOSITE_SIDE"
    T_PLUS_DELTA = "T_PLUS_DELTA"
    T_MINUS_DELTA = "T_MINUS_DELTA"


def _slice_axis(u: ScalarField, axis: str, index: int) -> ScalarField:
    out_kind = u.kind.without(axis)
    values = np.take(u.values, index, axis=u.axis_index(axis))
    return ScalarField._adopt(u.geometry, values, out_kind)


def face_index(g: CylinderGeometry, face: Face) -> tuple[str, int]:
    """The axis a face drops and the node index it keeps on that axis.

    Axial faces drop ``xn``, lateral faces drop ``xp``, terminal faces drop
    ``t``.  ``XN_NEG_ELL`` exists only on extended geometries.
    """
    if face is Face.XN_ZERO:
        return "xn", g.xn_zero_index
    if face is Face.XN_ELL:
        return "xn", g.nx_n - 1
    if face is Face.XN_NEG_ELL:
        if not g.extended:
            raise ValidationError("face XN_NEG_ELL requires an extended geometry")
        return "xn", 0
    if face is Face.GAMMA_SIDE:
        return "xp", g.nx_prime - 1 if g.gamma_side is GammaSide.HI else 0
    if face is Face.OPPOSITE_SIDE:
        return "xp", 0 if g.gamma_side is GammaSide.HI else g.nx_prime - 1
    if face is Face.T_PLUS_DELTA:
        return "t", g.nt - 1
    if face is Face.T_MINUS_DELTA:
        return "t", 0
    raise ValidationError(f"unknown face {face!r}")


def trace(u: ScalarField, face: Face) -> ScalarField:
    """Restrict a field to one face of its domain (see ``face_index``)."""
    return _slice_axis(u, *face_index(u.geometry, face))


def time_slice(u: ScalarField, t_value: float) -> ScalarField:
    """Restrict to the time node nearest ``t_value`` (must hit a node)."""
    nodes = u.geometry.axis_nodes("t")
    idx = int(np.argmin(np.abs(nodes - t_value)))
    if abs(nodes[idx] - t_value) > u.geometry.node_tolerance("t"):
        raise ValidationError(
            f"t = {t_value!r} is not a grid node (nearest node {nodes[idx]!r})"
        )
    return _slice_axis(u, "t", idx)


# ---- quadrature and norms ---------------------------------------------------


def axis_weights(n: int, h: float) -> np.ndarray:
    """Trapezoidal weights on a uniform axis: h at interior, h/2 at ends."""
    w = np.full(n, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def quadrature_weights(geometry: CylinderGeometry, kind: FieldKind) -> np.ndarray:
    """Outer-product trapezoidal weight array over the field's full domain."""
    return _region_weights(geometry, kind, None)[1]


class NormKind(Enum):
    L2 = "L2"
    H1_SURFACE = "H1_SURFACE"
    H2_SURFACE = "H2_SURFACE"


@dataclass(frozen=True)
class Region:
    """Axis-aligned box selecting a sub-range per axis; None keeps the axis whole."""

    xp: tuple[float, float] | None = None
    xn: tuple[float, float] | None = None
    t: tuple[float, float] | None = None

    def bounds(self, axis: str):
        return getattr(self, axis)


def _axis_selection(geometry: CylinderGeometry, axis: str, bounds) -> slice:
    if bounds is None:
        return slice(0, geometry.axis_count(axis))
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValidationError(f"bad region bounds for axis {axis!r}: {bounds!r}")
    sel = geometry.nodes_within(axis, lo, hi)
    if sel.stop - sel.start < 2:
        raise ValidationError(
            f"empty region: fewer than two grid nodes fall in {bounds!r} along {axis!r}"
        )
    return sel


def _region_weights(
    geometry: CylinderGeometry, kind: FieldKind, region: Region | None
) -> tuple[tuple[slice, ...], np.ndarray]:
    sels = []
    w = None
    for a in kind.axes:
        bounds = None if region is None else region.bounds(a)
        sel = _axis_selection(geometry, a, bounds)
        sels.append(sel)
        n = sel.stop - sel.start
        wa = axis_weights(n, geometry.spacing(a))
        w = wa if w is None else np.multiply.outer(w, wa)
    return tuple(sels), w


def _surface_derivative_stack(
    stack: np.ndarray, geometry: CylinderGeometry, kind: FieldKind, second: bool
) -> list[np.ndarray]:
    """Derivatives along the two axes of ``kind``, the last two axes of ``stack``.

    Each stencil is elementwise, so every field of the stack gets the bits it
    would get alone.
    """
    h0, h1 = (geometry.spacing(a) for a in kind.axes)
    d0 = diff_array(stack, -2, h0, 1)
    out = [d0, diff_array(stack, -1, h1, 1)]
    if second:
        d00 = diff_array(stack, -2, h0, 2)
        d11 = diff_array(stack, -1, h1, 2)
        out += [d00, diff_array(d0, -1, h1), d11]
    return out


def discrete_norm(
    u: ScalarField, region: Region | None = None, kind: NormKind = NormKind.L2
) -> float:
    """Trapezoidal L2 / H1 / H2 norm of a field over an axis-aligned box.

    Sobolev variants are defined for two-axis fields and include derivatives
    along both of the field's own axes (multi-index convention, so the mixed
    second derivative enters once).  Derivatives are formed on the full grid
    first, then restricted, so one-sided stencils only ever sit on true
    domain boundaries.
    """
    return discrete_norms(u.geometry, u.kind, u.values[None], region, kind)[0]


def discrete_norms(
    geometry: CylinderGeometry,
    field_kind: FieldKind,
    stack: np.ndarray,
    region: Region | None = None,
    kind: NormKind = NormKind.L2,
) -> list[float]:
    """``discrete_norm`` of each field ``stack[i]`` of one kind on one grid.

    The derivatives are formed once for the whole stack, and each norm sums
    its own field's terms in the order ``discrete_norm`` does, so it carries
    the same bits as the norm of that field alone.
    """
    if stack.shape[1:] != geometry.shape(field_kind):
        raise ValidationError(
            f"stack of shape {stack.shape} does not hold fields of shape "
            f"{geometry.shape(field_kind)} for {field_kind.name}"
        )
    sels, w = _region_weights(geometry, field_kind, region)
    pieces = [stack]
    if kind is not NormKind.L2:
        if len(field_kind.axes) != 2:
            raise ValidationError(
                f"{kind.name} norm is defined for two-axis fields, got {field_kind.name}"
            )
        pieces += _surface_derivative_stack(
            stack, geometry, field_kind, second=(kind is NormKind.H2_SURFACE)
        )
    totals = np.zeros(len(stack))
    for p in pieces:
        q = p[(slice(None), *sels)]
        terms = w * q * q
        # one row of w.size terms per field (also for no fields), summed as np.sum sums it alone
        totals += terms.reshape(len(stack), w.size).sum(axis=1)
    return [math.sqrt(total) for total in totals]
