"""Source-factor recovery from full fields and from lateral data only.

Two reconstructors live here.  The oracle one applies the face identity
f * R = -dnn(u) at x_n = 0 and needs the full field, so it mainly serves as
a convergence reference.  The lateral one sees only the boundary bundle and
solves a regularized least-squares problem for the pair (u, f) jointly:
PDE residual rows (optionally Carleman-weighted), Cauchy mismatch rows on
the data side, zero-trace rows at x_n = 0, and Tikhonov rows.  After Jacobi
column scaling the normal equations are solved directly: a Cholesky
factorization of the normal matrix (``factor.BandCholesky``, in the order
of ``factor.band_order``) is applied once, and each solution's relative
normal residual is checked against ``_MAX_REL_NORMAL_RESIDUAL``.  The
sideways problem squares its conditioning badly enough that iterations
without the factor make no headway, while a Cholesky solve is backward
stable and leaves a relative residual near rounding.

The matrix depends on the data bundle in no way, so ``LateralOperator``
factors it once, keeping of the matrix only the transpose of the Cauchy
rows, the one block with data, and solves any number of bundles against it;
the stability sweep leans on that to rerun the solver across noise levels
and fit an empirical Holder exponent from the decreasing part of the error
curve.  It solves ``_SOLVE_BLOCK`` levels at a time, one application of the
factor per block, straight into a stack of f_hat values (``f_hats``), and
measures each block's D(u) and errors with one norm stack per kind.

scipy is imported on first use, by the operator build, so a command that
never builds an operator never loads it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import IO, TYPE_CHECKING, Mapping

import numpy as np

from . import factor
from .artifacts import load_table_csv, table_text, write_artifact
from .errors import SolverError, ValidationError
from .geometry import (
    CylinderGeometry,
    Face,
    FieldKind,
    Region,
    ScalarField,
    diff,
    diff_matrix,
    discrete_norm,
    discrete_norms,
    face_index,
    quadrature_weights,
    time_slice,
    trace,
)
from .problems import (
    BUNDLE_CHANNELS,
    BoundaryBundle,
    ProblemInstance,
    add_noise,
    compute_data_functional,
    compute_data_functionals,
)
from .weight import WeightPlan, phi_field

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "oracle_trace_reconstruct",
    "Regularization",
    "LateralSolution",
    "LateralOperator",
    "lateral_reconstruct",
    "SweepRow",
    "SweepReport",
    "sweep_errors",
    "sweep_levels",
    "stability_sweep",
    "CorollaryReport",
    "corollary_check",
    "write_sweep_csv",
    "load_sweep_csv",
]


def __getattr__(name: str):
    # nothing here calls splu; perfbench/traced_cli.py hooks it by this name,
    # so scipy loads only on that lookup
    if name == "splu":
        from scipy.sparse.linalg import splu

        return splu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---- oracle reconstruction --------------------------------------------------------


_ORACLE_R_FLOOR = 1e-8  # smallest |R| on the x_n = 0 face that the oracle divides by


def oracle_trace_reconstruct(u: ScalarField, R: ScalarField) -> ScalarField:
    """Recover f from the full field via the face identity f*R = -dnn(u).

    Uses the one-sided second-derivative stencil at x_n = 0, so the result
    is exact whenever the axial profile of u is cubic or lower there.
    """
    if u.kind is not FieldKind.SPACE_TIME or R.kind is not FieldKind.SPACE_TIME:
        raise ValidationError("oracle reconstruction expects SPACE_TIME fields")
    if u.geometry != R.geometry:
        raise ValidationError("u and R live on different grids")
    if u.geometry.extended:
        raise ValidationError("oracle reconstruction runs on the physical half-cylinder")
    r_face = trace(R, Face.XN_ZERO)
    floor = float(np.min(np.abs(r_face.values)))
    if floor < _ORACLE_R_FLOOR:
        raise ValidationError(
            f"|R| drops to {floor:.3e} at the x_n = 0 face, below the floor {_ORACLE_R_FLOOR:.3e}"
        )
    unn_face = trace(diff(u, "xn", 2), Face.XN_ZERO)
    return unn_face.with_values(-unn_face.values / r_face.values)


# ---- lateral least squares --------------------------------------------------------


@dataclass(frozen=True)
class Regularization:
    """Parameters of the lateral least-squares solve.

    ``tikhonov_weight`` is the classical penalty on f and on grad(u);
    ``carleman_s`` switches the PDE rows to the weighted misfit (0 keeps the
    plain Tikhonov formulation).
    """

    tikhonov_weight: float
    carleman_s: float = 0.0

    def __post_init__(self):
        if not (self.tikhonov_weight > 0 and math.isfinite(self.tikhonov_weight)):
            raise ValidationError(
                f"tikhonov_weight must be positive, got {self.tikhonov_weight!r}"
            )
        if not (self.carleman_s >= 0 and math.isfinite(self.carleman_s)):
            raise ValidationError(f"carleman_s must be nonnegative, got {self.carleman_s!r}")


# weight of the data-side Cauchy rows and of the zero-trace rows at x_n = 0
_BOUNDARY_ROW_WEIGHT = 100.0


def _lateral_matrix(
    geometry: CylinderGeometry,
    plan: WeightPlan,
    p0: ScalarField,
    R: ScalarField,
    reg: Regularization,
) -> tuple[sp.csr_matrix, slice, np.ndarray]:
    """Matrix of the joint least-squares system over z = (u, f), with its data rows.

    Row blocks, each carrying the square root of its trapezoid weights:

    * PDE residual du/dt - lap(u) - p0*u - R*f on the whole cylinder,
      multiplied by the shifted Carleman factor e^(s(phi - max phi));
    * Cauchy mismatch of every bundle channel on the data side;
    * value and normal-derivative rows at the x_n = 0 face;
    * Tikhonov rows sqrt(mu)*f and sqrt(mu)*grad(u).

    Nothing here reads the data bundle.  Only the Cauchy rows have data: their
    slice comes back with their weights, which scale a bundle's channels
    (raveled, in ``BUNDLE_CHANNELS`` order) into its right-hand side there.
    """
    import scipy.sparse as sp

    if geometry.extended:
        raise ValidationError("lateral reconstruction runs on the physical half-cylinder")
    if p0.kind is not FieldKind.CROSS_SECTION_TIME or p0.geometry != geometry:
        raise ValidationError("p0 must be a CROSS_SECTION_TIME field on the same grid")
    if R.kind is not FieldKind.SPACE_TIME or R.geometry != geometry:
        raise ValidationError("R must be a SPACE_TIME field on the same grid")
    g = geometry
    nxp, nxn, nt = g.nx_prime, g.nx_n, g.nt
    nq = nxp * nxn * nt
    nf = nxp * nt

    # the six volume derivatives by (axis, order): the axis's stencil matrix
    # in its slot of the Kronecker product over the axes of u
    axes = FieldKind.SPACE_TIME.axes
    eye = {a: sp.identity(g.axis_count(a)) for a in axes}

    def volume(axis: str, order: int) -> sp.csr_matrix:
        m = [
            diff_matrix(g.axis_count(a), g.spacing(a), order) if a == axis else eye[a]
            for a in axes
        ]
        return sp.kron(m[0], sp.kron(m[1], m[2]), format="csr")

    vol = {(axis, order): volume(axis, order) for axis in axes for order in (1, 2)}
    dxp_v, dxn_v = vol["xp", 1], vol["xn", 1]

    # the rows of u's nodes on the data-side face and on the x_n = 0 face
    nodes = np.arange(nq).reshape(nxp, nxn, nt)
    gamma = nodes[face_index(g, Face.GAMMA_SIDE)[1]].ravel()
    zero = nodes[:, face_index(g, Face.XN_ZERO)[1]].ravel()

    # PDE block with the shifted exponential weight (identically 1 at s = 0)
    phi = phi_field(plan, g).values
    eh = np.exp(reg.carleman_s * (phi - np.max(phi))).ravel()
    wq = np.sqrt(quadrature_weights(g, FieldKind.SPACE_TIME).ravel())
    p0_vol = np.broadcast_to(p0.values[:, None, :], (nxp, nxn, nt)).ravel()
    heat = vol["t", 1] - vol["xp", 2] - vol["xn", 2] - sp.diags(p0_vol)
    idx = np.indices((nxp, nxn, nt))
    f_cols = (idx[0] * nt + idx[2]).ravel()
    r_map = sp.csr_matrix(
        (R.values.ravel(), (np.arange(nq), f_cols)), shape=(nq, nf)
    )
    pde_w = sp.diags(wq * eh)
    blocks = [[pde_w @ heat, -(pde_w @ r_map)]]

    # Cauchy mismatch rows, one block per recorded channel: the channel's
    # derivative steps applied to y = du/dx_n in order, then the data-side trace
    w_face = np.sqrt(quadrature_weights(g, FieldKind.AXIAL_TIME).ravel())
    cauchy_w = math.sqrt(_BOUNDARY_ROW_WEIGHT) * w_face
    cauchy_scale = sp.diags(cauchy_w)
    for steps in BUNDLE_CHANNELS.values():
        op = dxn_v
        for step in steps:
            op = vol[step] @ op
        blocks.append([cauchy_scale @ op[gamma], None])

    # zero Cauchy data at the x_n = 0 face
    w0 = np.sqrt(quadrature_weights(g, FieldKind.CROSS_SECTION_TIME).ravel())
    face_scale = sp.diags(math.sqrt(_BOUNDARY_ROW_WEIGHT) * w0)
    blocks.append([face_scale @ sp.identity(nq, format="csr")[zero], None])
    blocks.append([face_scale @ dxn_v[zero], None])

    # Tikhonov rows
    sqrt_mu = math.sqrt(reg.tikhonov_weight)
    blocks.append([None, sp.diags(sqrt_mu * w0)])
    blocks.append([sp.diags(sqrt_mu * wq) @ dxp_v, None])
    blocks.append([sp.diags(sqrt_mu * wq) @ dxn_v, None])

    cauchy = slice(nq, nq + len(BUNDLE_CHANNELS) * w_face.size)
    return sp.bmat(blocks, format="csr"), cauchy, np.tile(cauchy_w, len(BUNDLE_CHANNELS))


# bundles per block solve in a sweep.  A solve streams the factor once per
# block, so a wide block costs about what a narrow one does.  The width is
# one constant for every CPU count, since the blocked triangular solves
# round differently at another width.  The residual is formed in slices and
# only f_hat is kept per block, so a wider block adds little to the peak RSS
_SOLVE_BLOCK = 48
# columns of the residual N x formed at a time, so a block's check adds two
# n x 16 arrays beside the right-hand sides and the solutions
_RESIDUAL_COLUMNS = 16
# largest relative normal residual |b - N x| / |b| a solution may leave
_MAX_REL_NORMAL_RESIDUAL = 1e-8


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise dot products as numpy's pairwise sums: the same bits at any block width."""
    return np.sum(a * b, axis=0)


@dataclass(frozen=True)
class LateralSolution:
    """Joint least-squares solution with its solve record.

    ``iterations`` is 1, or 0 for an all-zero right-hand side, which is
    solved by exact zeros; ``residual_history`` holds the norms of the
    right-hand side b and of the normal residual b - N x, or only b's 0.0.
    """

    u_hat: ScalarField
    f_hat: ScalarField
    iterations: int
    residual_history: tuple


class LateralOperator:
    """The lateral system bound to one (geometry, plan, p0, R, reg) tuple.

    The matrix never sees the data bundle, so the normal equations are formed
    and factored once here and any number of bundles can be solved against
    the same factorization; a stability sweep reuses one operator for every
    noise level.  The factorization is exact, so one application of it solves
    the normal equations; each solution's relative normal residual is then
    checked against ``_MAX_REL_NORMAL_RESIDUAL``, and a solution that misses
    it, or whose residual is not finite, raises SolverError.

    The build assembles the matrix, renumbers its columns once into the order
    of ``factor.band_order``, scales them, forms the normal matrix and hands
    it to ``factor.BandCholesky``, so the normal matrix, its factor and the
    solutions all live in band order and the solvers map the result back.
    Of the scaled matrix it keeps only the transpose of its Cauchy rows, the
    one part a right-hand side reads; it drops the assembled and the scaled
    matrix before the factorization runs.  A grid whose factor exceeds the
    factor's size limit is refused with ValidationError before anything is
    assembled (``factor.check_size`` counts it from the grid alone), and a
    factorization that fails raises SolverError.
    """

    def __init__(
        self,
        geometry: CylinderGeometry,
        plan: WeightPlan,
        p0: ScalarField,
        R: ScalarField,
        reg: Regularization,
    ):
        import scipy.sparse as sp

        self.geometry = geometry
        self.plan = plan
        self.p0 = p0
        self.R = R
        factor.check_size(geometry)
        a, cauchy, self._cauchy_w = _lateral_matrix(geometry, plan, p0, R, reg)
        self._band_pos = factor.band_order(geometry)
        a = sp.csr_matrix((a.data, self._band_pos[a.indices], a.indptr), shape=a.shape)
        a.sort_indices()
        col_norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=0)).ravel())
        col_norms[col_norms == 0.0] = 1.0
        self._col_norms = col_norms
        a = (a @ sp.diags(1.0 / col_norms)).tocsr()
        self._normal = (a.T @ a).tocsr()
        self._cauchy_t = a[cauchy].T
        del a
        self._factor = factor.BandCholesky(self._normal, geometry)

    def _rhs(self, bundles: list[BoundaryBundle]) -> np.ndarray:
        """A^T b per bundle, as the columns of a C-ordered n x k block; b is zero off the Cauchy rows."""
        if any(bundle.traces[0].geometry != self.geometry for bundle in bundles):
            raise ValidationError("bundle grid does not match the reconstruction grid")
        data = np.stack(
            [np.concatenate([ch.values.ravel() for ch in bundle.traces]) for bundle in bundles],
            axis=1,
        )
        return self._cauchy_t @ (self._cauchy_w[:, None] * data)

    def _solve_block(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve the normal equations for a C-ordered n x k block and check the residuals.

        One application of the factor solves every column; a zero column
        comes back exactly zero, and only the nonzero ones are checked.  The
        residual is formed ``_RESIDUAL_COLUMNS`` columns at a time, subtracted
        into its product, and each column's norms one column at a time; the
        sparse product sums each column in the same order at any width, so a
        column gets the same bits as in a one-column solve.  Returns the
        solutions (C-ordered) and each column's right-hand side and normal
        residual b - N x norms; raises SolverError if a relative residual is
        above ``_MAX_REL_NORMAL_RESIDUAL`` or is not finite.
        """
        y = self._factor.solve(rhs)
        res = []
        for start in range(0, rhs.shape[1], _RESIDUAL_COLUMNS):
            cols = slice(start, start + _RESIDUAL_COLUMNS)
            r = self._normal @ y[:, cols]
            np.subtract(rhs[:, cols], r, out=r)
            res += [_column_dots(c, c) for c in r.T]
        norm0, res = np.sqrt([_column_dots(c, c) for c in rhs.T]), np.sqrt(res)
        cols = np.flatnonzero(norm0)
        rel = res[cols] / norm0[cols]
        missed = ~(rel <= _MAX_REL_NORMAL_RESIDUAL)  # true for NaN too
        if missed.any():
            raise SolverError(
                f"the solve missed the residual bound {_MAX_REL_NORMAL_RESIDUAL!r}: "
                f"relative normal residual {float(rel[missed][0])!r}"
            )
        return y, norm0, res

    def solve(self, bundle: BoundaryBundle) -> LateralSolution:
        """Solve the joint least-squares problem for one data bundle."""
        y, norm0, res = self._solve_block(self._rhs([bundle]))
        history = (float(norm0[0]), float(res[0])) if norm0[0] else (0.0,)
        g = self.geometry
        nq = g.nx_prime * g.nx_n * g.nt
        z = (y[:, 0] / self._col_norms)[self._band_pos]
        return LateralSolution(
            u_hat=ScalarField(g, z[:nq].reshape(g.nx_prime, g.nx_n, g.nt), FieldKind.SPACE_TIME),
            f_hat=ScalarField(g, z[nq:].reshape(g.nx_prime, g.nt), FieldKind.CROSS_SECTION_TIME),
            iterations=len(history) - 1,
            residual_history=history,
        )

    def f_hats(self, bundles: list[BoundaryBundle]) -> np.ndarray:
        """The f_hat values of several bundles, solved as one block, as a C-ordered (k, nx', nt) stack.

        The factor is applied to the whole block at once and each column's
        residual is checked (see ``_solve_block``); only the f rows are taken
        out of band order and unscaled.  No bundles give a (0, nx', nt) stack.
        """
        g = self.geometry
        if not bundles:
            return np.empty((0, g.nx_prime, g.nt))
        y = self._solve_block(self._rhs(bundles))[0]
        f = self._band_pos[g.nx_prime * g.nx_n * g.nt :]
        # contiguous, so the norm stacks sum each row as they sum one field
        stack = np.ascontiguousarray((y[f] / self._col_norms[f, None]).T)
        return stack.reshape(len(bundles), g.nx_prime, g.nt)


def lateral_reconstruct(
    bundle: BoundaryBundle,
    geometry: CylinderGeometry,
    plan: WeightPlan,
    p0: ScalarField,
    R: ScalarField,
    reg: Regularization,
) -> LateralSolution:
    """Recover (u, f) from the lateral bundle alone.

    Deterministic for fixed inputs: the system is assembled in a fixed row
    order, Jacobi column scaling uses exact column norms, and the factor
    does not depend on the BLAS thread count (see ``factor``).
    """
    return LateralOperator(geometry, plan, p0, R, reg).solve(bundle)


# ---- stability sweep --------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    noise: float
    d_of_u: float
    err_region: float
    err_global: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    theta_emp: float
    plan: WeightPlan
    noiseless_f_hat: ScalarField | None


def stability_region(plan: WeightPlan) -> Region:
    """The box D0 x (-delta0, delta0) on which stability is claimed."""
    return Region(xp=(plan.D0_lo, plan.D0_hi), t=(-plan.delta0, plan.delta0))


def sweep_errors(
    f_hats: np.ndarray, f_true: ScalarField, plan: WeightPlan
) -> tuple[list[float], list[float]]:
    """Norms of each f_hats[i] - f_true over the stability region and over the whole grid.

    One norm stack per domain; each entry has the bits of its field's own norm.
    """
    diffs = f_hats - f_true.values
    g = f_true.geometry
    return (
        discrete_norms(g, f_true.kind, diffs, region=stability_region(plan)),
        discrete_norms(g, f_true.kind, diffs),
    )


def sweep_levels(noise_levels) -> list[float]:
    """Check the noise levels of a sweep and return them in decreasing order."""
    levels = [float(x) for x in noise_levels]
    if len(levels) < 4:
        raise ValidationError(f"need at least 4 noise levels, got {len(levels)}")
    if not all(math.isfinite(x) for x in levels):
        raise ValidationError("noise levels must be finite")
    if any(x < 0 for x in levels):
        raise ValidationError("noise levels must be nonnegative")
    if len(set(levels)) != len(levels):
        raise ValidationError("noise levels must be distinct")
    positive = [x for x in levels if x > 0]
    if len(positive) < 2 or max(positive) / min(positive) < 99.99:
        raise ValidationError("positive noise levels must span at least two decades")
    return sorted(levels, reverse=True)


def stability_sweep(
    instance: ProblemInstance,
    noise_levels,
    operator: LateralOperator,
    seed: int = 0,
) -> SweepReport:
    """Rerun the lateral solver across noise levels and fit the error slope.

    Every level is solved against ``operator``, so one factorization serves
    the whole sweep; the operator must be built from the instance's ``p0``
    and ``R``, and its plan fixes the stability region of the error rows.
    Levels are processed in decreasing order (a single 0.0 level is allowed
    and lands last), ``_SOLVE_BLOCK`` at a time: a chunk's noisy bundles are
    drawn and solved as one block into a stack of f_hat values by
    ``operator.f_hats``, and the chunk's D(u) and errors take one norm stack
    per norm kind and domain.  The empirical exponent is the least-squares slope
    of log err_region against log D(u) over the rows where err_region
    dropped relative to the previous row; fewer than three such rows leave
    the fit degenerate and raise.
    Noise draws derive from ``seed`` plus the row index, so a sweep is
    reproducible end to end.
    """
    levels = sweep_levels(noise_levels)
    if not (
        np.array_equal(operator.p0.values, instance.p0.values)
        and np.array_equal(operator.R.values, instance.R.values)
    ):
        raise ValidationError("the operator was built from another instance's p0 or R")

    plan = operator.plan
    rows = []
    noiseless_f_hat = None
    for start in range(0, len(levels), _SOLVE_BLOCK):
        chunk = levels[start : start + _SOLVE_BLOCK]
        bundles = [
            add_noise(instance.data, level, seed=seed + start + i) for i, level in enumerate(chunk)
        ]
        f_hats = operator.f_hats(bundles)
        if 0.0 in chunk:
            noiseless_f_hat = instance.f.with_values(f_hats[chunk.index(0.0)])
        errors = sweep_errors(f_hats, instance.f, plan)
        for row in map(SweepRow, chunk, compute_data_functionals(bundles), *errors):
            if row.err_region > row.err_global:
                raise SolverError(
                    f"region error {row.err_region!r} exceeds global error "
                    f"{row.err_global!r} at noise level {row.noise!r}"
                )
            rows.append(row)

    decreasing = [
        i for i in range(1, len(rows)) if rows[i].err_region < rows[i - 1].err_region
    ]
    if len(decreasing) < 3:
        raise SolverError(
            f"degenerate fit: only {len(decreasing)} rows show decreasing region error"
        )
    log_d = np.log([rows[i].d_of_u for i in decreasing])
    log_e = np.log([rows[i].err_region for i in decreasing])
    theta_emp = float(np.polyfit(log_d, log_e, 1)[0])
    return SweepReport(
        rows=tuple(rows),
        theta_emp=theta_emp,
        plan=plan,
        noiseless_f_hat=noiseless_f_hat,
    )


# ---- corollary slice check --------------------------------------------------------


@dataclass(frozen=True)
class CorollaryReport:
    slice_error: float
    slice_error_rel: float
    region_error: float
    region_error_rel: float

    @property
    def ok(self) -> bool:
        return self.slice_error_rel <= 2.0 * self.region_error_rel


def corollary_check(sweep: SweepReport, instance: ProblemInstance) -> CorollaryReport:
    """Compare the t = 0 slice error of the noiseless row to the region error.

    The slice sits at the center of the stability window, so its relative
    error should not exceed twice the relative error over the whole region.
    Relative errors are used because the two norms live on domains of
    different dimension.
    """
    if sweep.noiseless_f_hat is None:
        raise ValidationError("sweep carries no noiseless row; rerun with level 0.0")
    plan = sweep.plan
    region = stability_region(plan)
    xp_only = Region(xp=(plan.D0_lo, plan.D0_hi))
    f_error = sweep.noiseless_f_hat - instance.f
    slice_error = discrete_norm(time_slice(f_error, 0.0), region=xp_only)
    slice_scale = discrete_norm(time_slice(instance.f, 0.0), region=xp_only)
    noiseless_row = next(r for r in sweep.rows if r.noise == 0.0)
    region_scale = discrete_norm(instance.f, region=region)
    return CorollaryReport(
        slice_error=slice_error,
        slice_error_rel=slice_error / slice_scale,
        region_error=noiseless_row.err_region,
        region_error_rel=noiseless_row.err_region / region_scale,
    )


# ---- CSV round trip ---------------------------------------------------------------

_CSV_HEADER = "noise,D_u,err_region,err_global"


def write_sweep_csv(report: SweepReport, path, footer: Mapping[str, object] | None = None) -> None:
    """Write the sweep to ``path`` as a table CSV whose footer opens with ``theta_emp``."""
    rows = [astuple(row) for row in report.rows]
    footer = {"theta_emp": report.theta_emp, **(footer or {})}
    write_artifact(path, table_text(_CSV_HEADER, rows, footer))


def load_sweep_csv(stream: IO[str]) -> tuple[list[SweepRow], dict]:
    """Parse a sweep CSV back into rows plus the footer mapping, whose ``theta_emp`` is required."""
    rows, footer = load_table_csv(stream, _CSV_HEADER, {"theta_emp": float})
    return [SweepRow(*row) for row in rows], footer
