"""Source-factor recovery from full fields and from lateral data only.

Two reconstructors live here.  The oracle one applies the face identity
f * R = -dnn(u) at x_n = 0 and needs the full field, so it mainly serves as
a convergence reference.  The lateral one sees only the boundary bundle and
solves a regularized least-squares problem for the pair (u, f) jointly:
PDE residual rows (optionally Carleman-weighted), Cauchy mismatch rows on
the data side, zero-trace rows at x_n = 0, and Tikhonov rows.  The normal
equations are solved by preconditioned conjugate gradients after Jacobi
column scaling; the preconditioner is a Cholesky factorization of the normal
matrix, which the squared conditioning of the sideways problem makes
necessary (unpreconditioned iterations stall).  The unknowns are numbered in
a tensor-grid order that keeps the normal matrix a narrow band, so LAPACK's
band Cholesky (``cholesky_banded``) factors it and the factor's storage,
(half-bandwidth + 1) * unknowns doubles, is known before it is allocated.

The matrix depends on the data bundle in no way, so ``LateralOperator``
factors it once and solves any number of bundles against it; the stability
sweep leans on that to rerun the solver across noise levels and fit an
empirical Holder exponent from the decreasing part of the error curve.  It
solves its levels in blocks of ``_SOLVE_BLOCK`` bundles: conjugate gradients
run in lockstep over the block, and the factor is applied to the whole block
by a blocked band triangular solve (BLAS-3 ``dgemm`` and ``dtrsm`` on
zero-copy windows of the band), which streams the band once per block
instead of once per bundle.  The factorization and the solves run on one
thread of scipy's OpenBLAS and of numpy's, so their rounding does not depend
on the BLAS thread count.

scipy is imported on first use, by the operator build and the band solves,
so a command that never builds an operator never loads it.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .artifacts import load_table_csv, parse_float, write_table_csv
from .errors import SolverError, ValidationError
from .geometry import (
    CylinderGeometry,
    Face,
    FieldKind,
    NormKind,
    Region,
    ScalarField,
    diff_matrix,
    discrete_norm,
    dxn2,
    quadrature_weights,
    time_slice,
    trace,
)
from .problems import (
    BUNDLE_CHANNELS,
    BoundaryBundle,
    ProblemInstance,
    add_noise,
    compute_data_functional,  # unused here; perfbench/traced_cli.py hooks this name
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


def oracle_trace_reconstruct(
    u: ScalarField, R: ScalarField, r_min: float = 1e-8
) -> ScalarField:
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
    if floor < r_min:
        raise ValidationError(
            f"|R| drops to {floor:.3e} at the x_n = 0 face, below the floor {r_min:.3e}"
        )
    unn_face = trace(dxn2(u), Face.XN_ZERO)
    return unn_face.with_values(-unn_face.values / r_face.values)


# ---- lateral least squares --------------------------------------------------------


@dataclass(frozen=True)
class Regularization:
    """Parameters of the lateral least-squares solve.

    ``tikhonov_weight`` is the classical penalty on f and on grad(u);
    ``carleman_s`` switches the PDE rows to the weighted misfit (0 keeps the
    plain Tikhonov formulation); ``cauchy_weight`` and ``face_weight`` scale
    the data-side and zero-trace row blocks; ``max_factor_gb`` caps the band
    factor's storage in GB (1e9 bytes).
    """

    tikhonov_weight: float
    carleman_s: float = 0.0
    cg_tol: float = 1e-8
    cg_maxit: int = 10000
    cauchy_weight: float = 100.0
    face_weight: float = 100.0
    max_factor_gb: float = 4.0

    def __post_init__(self):
        if not (self.tikhonov_weight > 0 and math.isfinite(self.tikhonov_weight)):
            raise ValidationError(
                f"tikhonov_weight must be positive, got {self.tikhonov_weight!r}"
            )
        if not (self.carleman_s >= 0 and math.isfinite(self.carleman_s)):
            raise ValidationError(f"carleman_s must be nonnegative, got {self.carleman_s!r}")
        if not (0 < self.cg_tol < 1):
            raise ValidationError(f"cg_tol must lie in (0, 1), got {self.cg_tol!r}")
        if self.cg_maxit < 1:
            raise ValidationError(f"cg_maxit must be at least 1, got {self.cg_maxit!r}")
        if not (self.cauchy_weight > 0 and self.face_weight > 0):
            raise ValidationError("cauchy_weight and face_weight must be positive")
        if not self.max_factor_gb > 0:
            raise ValidationError(f"max_factor_gb must be positive, got {self.max_factor_gb!r}")


def _unit_row(n: int, idx: int) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.csr_matrix(([1.0], [idx], [0, 1]), shape=(1, n))


def _lateral_matrix(
    geometry: CylinderGeometry,
    plan: WeightPlan,
    p0: ScalarField,
    R: ScalarField,
    reg: Regularization,
) -> sp.csr_matrix:
    """Matrix of the joint least-squares system over z = (u, f).

    Row blocks, each carrying the square root of its trapezoid weights:

    * PDE residual dt(u) - lap(u) - p0*u - R*f on the whole cylinder,
      multiplied by the shifted Carleman factor e^(s(phi - max phi));
    * Cauchy mismatch of every bundle channel on the data side;
    * value and normal-derivative rows at the x_n = 0 face;
    * Tikhonov rows sqrt(mu)*f and sqrt(mu)*grad(u).

    Nothing here reads the data bundle; it only fixes the rhs layout.
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

    d1p = diff_matrix(nxp, g.spacing("xp"), 1)
    d1n = diff_matrix(nxn, g.spacing("xn"), 1)
    d1t = diff_matrix(nt, g.spacing("t"), 1)
    d2p = diff_matrix(nxp, g.spacing("xp"), 2)
    d2n = diff_matrix(nxn, g.spacing("xn"), 2)
    d2t = diff_matrix(nt, g.spacing("t"), 2)
    i_p, i_n, i_t = sp.identity(nxp), sp.identity(nxn), sp.identity(nt)

    dxp_v = sp.kron(d1p, sp.kron(i_n, i_t), format="csr")
    dxn_v = sp.kron(i_p, sp.kron(d1n, i_t), format="csr")
    dt_v = sp.kron(i_p, sp.kron(i_n, d1t), format="csr")
    dxp2_v = sp.kron(d2p, sp.kron(i_n, i_t), format="csr")
    dxn2_v = sp.kron(i_p, sp.kron(d2n, i_t), format="csr")
    dt2_v = sp.kron(i_p, sp.kron(i_n, d2t), format="csr")

    gamma_idx = 0 if g.gamma_side.name == "LO" else nxp - 1
    t_gamma = sp.kron(_unit_row(nxp, gamma_idx), sp.kron(i_n, i_t), format="csr")
    t_zero = sp.kron(i_p, sp.kron(_unit_row(nxn, g.xn_zero_index), i_t), format="csr")

    # PDE block with the shifted exponential weight (identically 1 at s = 0)
    phi = phi_field(plan, g).values
    eh = np.exp(reg.carleman_s * (phi - np.max(phi))).ravel()
    wq = np.sqrt(quadrature_weights(g, FieldKind.SPACE_TIME).ravel())
    p0_vol = np.broadcast_to(p0.values[:, None, :], (nxp, nxn, nt)).ravel()
    heat = dt_v - dxp2_v - dxn2_v - sp.diags(p0_vol)
    idx = np.indices((nxp, nxn, nt))
    f_cols = (idx[0] * nt + idx[2]).ravel()
    r_map = sp.csr_matrix(
        (R.values.ravel(), (np.arange(nq), f_cols)), shape=(nq, nf)
    )
    pde_w = sp.diags(wq * eh)
    blocks = [[pde_w @ heat, -(pde_w @ r_map)]]

    # Cauchy mismatch rows, one block per recorded channel
    y_op = dxn_v
    channel_ops = {
        "y": t_gamma @ y_op,
        "y_xp": t_gamma @ (dxp_v @ y_op),
        "y_xn": t_gamma @ (dxn_v @ y_op),
        "y_t": t_gamma @ (dt_v @ y_op),
        "y_xnxn": t_gamma @ (dxn2_v @ y_op),
        "y_xnt": t_gamma @ (dt_v @ (dxn_v @ y_op)),
        "y_tt": t_gamma @ (dt2_v @ y_op),
    }
    w_face = np.sqrt(quadrature_weights(g, FieldKind.AXIAL_TIME).ravel())
    cauchy_scale = sp.diags(math.sqrt(reg.cauchy_weight) * w_face)
    for name in BUNDLE_CHANNELS:
        blocks.append([cauchy_scale @ channel_ops[name], None])

    # zero Cauchy data at the x_n = 0 face
    w0 = np.sqrt(quadrature_weights(g, FieldKind.CROSS_SECTION_TIME).ravel())
    face_scale = sp.diags(math.sqrt(reg.face_weight) * w0)
    blocks.append([face_scale @ t_zero, None])
    blocks.append([face_scale @ (t_zero @ dxn_v), None])

    # Tikhonov rows
    sqrt_mu = math.sqrt(reg.tikhonov_weight)
    blocks.append([None, sp.diags(sqrt_mu * w0)])
    blocks.append([sp.diags(sqrt_mu * wq) @ dxp_v, None])
    blocks.append([sp.diags(sqrt_mu * wq) @ dxn_v, None])

    return sp.bmat(blocks, format="csr")


def _lateral_rhs(
    bundle: BoundaryBundle, geometry: CylinderGeometry, reg: Regularization
) -> np.ndarray:
    """Right-hand side matching the row layout of ``_lateral_matrix``."""
    if bundle.y.geometry != geometry:
        raise ValidationError("bundle grid does not match the reconstruction grid")
    g = geometry
    nq = g.nx_prime * g.nx_n * g.nt
    nf = g.nx_prime * g.nt
    w_face = np.sqrt(quadrature_weights(g, FieldKind.AXIAL_TIME).ravel())
    sqrt_wc = math.sqrt(reg.cauchy_weight)
    rhs = [np.zeros(nq)]
    for name in BUNDLE_CHANNELS:
        rhs.append(sqrt_wc * w_face * getattr(bundle, name).values.ravel())
    rhs.extend([np.zeros(nf)] * 3)
    rhs.extend([np.zeros(nq)] * 2)
    return np.concatenate(rhs)


def _band_order(geometry: CylinderGeometry) -> np.ndarray:
    """Band position of each unknown of z = (u, f), indexed in z's own order.

    x_n varies fastest, f(x', t) takes one extra x_n slot right after
    u(x', :, t), then t varies and x' is slowest.  Every stencil of the
    normal matrix then stays within about 3 * nt * (nx_n + 1) positions of
    the diagonal, the half-bandwidth of its band Cholesky factor.
    """
    g = geometry
    pos = np.arange(g.nx_prime * g.nt * (g.nx_n + 1)).reshape(g.nx_prime, g.nt, g.nx_n + 1)
    u_pos = pos[:, :, : g.nx_n].transpose(0, 2, 1)
    return np.concatenate([u_pos.ravel(), pos[:, :, g.nx_n].ravel()])


_SOLVE_BLOCK = 16  # bundles per lockstep solve in a sweep; bounds the block state
# rows per diagonal block of the blocked triangular solve; 32-48 ran fastest
# at half-bandwidths 1,170 and 2,324, where 128 took 1.4-2x as long
_BAND_BLOCK = 48


# symbol suffix of the thread functions of each package's vendored OpenBLAS:
# scipy's uses 32-bit integers, numpy's 64-bit ones (``*64_`` symbols)
_OPENBLAS_SUFFIX = {"scipy": "", "numpy": "64_"}


@functools.cache
def _openblas_threads(package: str = "scipy"):
    """Getter and setter of a package's OpenBLAS thread count, or None if not exported.

    The wheels of scipy and numpy each vendor an OpenBLAS as
    ``<package>.libs/libscipy_openblas*.so``; loading it again by path
    returns the copy the package already uses.
    """
    suffix = _OPENBLAS_SUFFIX[package]
    module = importlib.import_module(package)
    libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), f"{package}.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if n.startswith("libscipy_openblas"))
    except OSError:
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one thread of scipy's and numpy's OpenBLAS, restoring the counts after.

    Threaded ``dgemm`` rounds differently from the serial one, and a threaded
    dot product of more than 10,000 entries sums in another order, so without
    the pin the factor, the blocked solves and the CG dot products would
    depend on the thread count.  A library whose thread functions are not
    exported runs unpinned.
    """
    apis = [api for api in map(_openblas_threads, _OPENBLAS_SUFFIX) if api is not None]
    before = [get() for get, _ in apis]
    for _, put in apis:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(apis, before):
            put(count)


def _blocked_band_solve(cb: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve U^T U x = r for an n x k block r, U upper band in LAPACK storage.

    In that column-major storage U[i, j] sits at flat offset b + i + j*b, so
    a strided view with strides (8, 8b) over the flat band is U itself, and
    each window U[s-b:s, s:s+nb] above a diagonal block is an F-contiguous
    matrix with leading dimension b that BLAS reads in place (only the
    first windows, cut off at row 0, are copied).  Both passes work on x^T,
    so every block row of x is F-contiguous too: the forward pass U^T w = r
    subtracts from each block row its window's product with the rows above,
    the backward pass U x = w is right-looking, and ``dtrsm`` solves the
    nb x nb diagonal blocks.  The window entries with j - i > b lie outside
    the band; the view wraps them into the neighbouring column, so one small
    product with that triangle cancels their contribution.
    """
    from scipy.linalg.blas import dgemm, dtrsm

    b, n = cb.shape[0] - 1, cb.shape[1]
    flat = cb.reshape(-1, order="F")
    u = as_strided(flat[b:], shape=(n, n), strides=(8, 8 * b), writeable=False)
    nb = max(1, min(_BAND_BLOCK, b))
    x = np.array(r, order="C")
    starts = range(0, n, nb)
    for s in starts:
        e, lo = min(s + nb, n), max(0, s - b)
        xs = x[s:e].T
        if lo < s:
            w = u[lo:s, s:e]
            wrapped = np.triu(w[: e - s], lo - s + b + 1)
            dgemm(-1.0, x[lo:s].T, w, beta=1.0, c=xs, overwrite_c=1)
            dgemm(1.0, x[lo : lo + len(wrapped)].T, wrapped, beta=1.0, c=xs, overwrite_c=1)
        dtrsm(1.0, u[s:e, s:e], xs, side=1, overwrite_b=1)
    for s in reversed(starts):
        e, lo = min(s + nb, n), max(0, s - b)
        xs = dtrsm(1.0, u[s:e, s:e], x[s:e].T, side=1, trans_a=1, overwrite_b=1)
        if lo < s:
            w = u[lo:s, s:e]
            wrapped = np.triu(w[: e - s], lo - s + b + 1)
            dgemm(-1.0, xs, w, beta=1.0, c=x[lo:s].T, trans_b=1, overwrite_c=1)
            tail = x[lo : lo + len(wrapped)].T
            dgemm(1.0, xs, wrapped, beta=1.0, c=tail, trans_b=1, overwrite_c=1)
    return x


class _BandCholesky:
    """Upper band Cholesky factor in LAPACK storage; ``solve`` applies its inverse."""

    def __init__(self, cb: np.ndarray):
        self.cb = cb

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Apply the inverse to the columns of an n x k block; F-ordered result.

        One column goes to LAPACK's ``dpbtrs``: its BLAS-2 sweep beats the
        blocked solve's fixed costs there, and it keeps a single solve's bytes.
        """
        from scipy.linalg import cho_solve_banded

        with _one_blas_thread():
            if r.shape[1] == 1:
                return cho_solve_banded((self.cb, False), r, check_finite=False)
            x = _blocked_band_solve(self.cb, r)
        return np.asfortranarray(x)


@dataclass(frozen=True)
class LateralSolution:
    """Joint least-squares solution with its conjugate-gradient history."""

    u_hat: ScalarField
    f_hat: ScalarField
    iterations: int
    residual_history: tuple


class LateralOperator:
    """The lateral system bound to one (geometry, plan, p0, R, reg) tuple.

    The matrix never sees the data bundle, so the normal equations are formed
    and factored once here and any number of bundles can be solved against
    the same factorization; a stability sweep reuses one operator for every
    noise level.  The factorization serves as the preconditioner of conjugate
    gradients on the normal equations: the sideways problem squares badly
    enough that unpreconditioned iterations make no headway, while CG on top
    of the factorization still enforces ``cg_tol`` in exact arithmetic terms.

    The columns are renumbered once into the order of ``_band_order``, so the
    scaled matrix, the normal matrix, its upper band Cholesky factor and the
    CG iterates all live in band order and the solvers map the result back.
    ``solve_many`` solves several bundles as one block under lockstep CG and
    applies the factor to the block with a blocked triangular solve; ``solve``
    is ``solve_many`` on one bundle, whose single column goes through
    LAPACK's ``dpbtrs``.  The factorization and the CG solves run on one
    thread of scipy's OpenBLAS and of numpy's (see ``_one_blas_thread``).
    A grid whose band, ``(half_bandwidth + 1) * unknowns * 8`` bytes, exceeds
    ``reg.max_factor_gb`` is refused with ValidationError before the band is
    allocated; a matrix LAPACK finds not positive definite, or a band that
    does not fit in memory, raises SolverError.
    """

    def __init__(
        self,
        geometry: CylinderGeometry,
        plan: WeightPlan,
        p0: ScalarField,
        R: ScalarField,
        reg: Regularization,
    ):
        import scipy.linalg
        import scipy.sparse as sp

        self.geometry = geometry
        self.plan = plan
        self.p0 = p0
        self.R = R
        self.reg = reg
        a = _lateral_matrix(geometry, plan, p0, R, reg)
        self._band_pos = _band_order(geometry)
        a = sp.csr_matrix((a.data, self._band_pos[a.indices], a.indptr), shape=a.shape)
        a.sort_indices()
        col_norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=0)).ravel())
        col_norms[col_norms == 0.0] = 1.0
        self._col_norms = col_norms
        self._a_scaled = (a @ sp.diags(1.0 / col_norms)).tocsr()
        normal = (self._a_scaled.T @ self._a_scaled).tocsr()
        self._normal = normal
        n = normal.shape[0]
        upper = sp.triu(normal, format="coo")
        offsets = upper.col - upper.row
        b = self.half_bandwidth = int(offsets.max())
        band_gb = (b + 1) * n * 8 / 1e9
        if band_gb > reg.max_factor_gb:
            raise ValidationError(
                f"the band factor of the {n}-unknown normal matrix needs {band_gb:.3g} GB "
                f"(half-bandwidth {b}), above max_factor_gb = {reg.max_factor_gb!r}"
            )
        try:
            # LAPACK upper band storage, column-major so the factor overwrites it
            ab = np.zeros((b + 1, n), order="F")
            ab[b - offsets, upper.col] = upper.data
            # no finiteness check, which would take a boolean copy of the band:
            # a NaN passes through the factor and stops CG at its first step
            with _one_blas_thread():
                cb = scipy.linalg.cholesky_banded(ab, overwrite_ab=True, check_finite=False)
            self._factor = _BandCholesky(cb)
        except (np.linalg.LinAlgError, MemoryError) as exc:
            # LAPACK reports a matrix that is not positive definite as LinAlgError
            raise SolverError(
                f"factorization of the {n}-unknown normal matrix failed "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    def _pcg(self, rhs: np.ndarray) -> tuple[np.ndarray, list[int], list[list[float]]]:
        """Lockstep preconditioned CG on the normal equations for an n x k block.

        Each column is its own CG run: its own step sizes, convergence test and
        residual history, computed with the same vector arithmetic as a
        one-column solve.  A converged column leaves the block; the others
        share each normal product and each application of the factor.  Takes
        ownership of the F-ordered ``rhs``; returns the solutions, each
        column's iteration count and its residual norms.
        """
        tol, maxit = self.reg.cg_tol, self.reg.cg_maxit
        y = np.zeros(rhs.shape, order="F")
        norm0 = [float(np.linalg.norm(rhs[:, j])) for j in range(rhs.shape[1])]
        histories = [[nrm] for nrm in norm0]
        iterations = [0] * len(norm0)
        cols = [j for j, nrm in enumerate(norm0) if nrm != 0.0]  # active, in block order
        if not cols:
            return y, iterations, histories
        r = rhs if len(cols) == len(norm0) else np.asfortranarray(rhs[:, cols])
        z = self._factor.solve(r)
        p = z
        rho = [float(r[:, c] @ z[:, c]) for c in range(len(cols))]
        for it in range(1, maxit + 1):
            q = np.asfortranarray(self._normal @ p)
            done = []
            for c, j in enumerate(cols):
                pq = float(p[:, c] @ q[:, c])
                if not 0.0 < pq < math.inf:  # false for NaN too
                    raise SolverError(
                        f"conjugate gradients broke down at iteration {it}: p.q = {pq!r} "
                        "is not a positive finite number"
                    )
                alpha = rho[c] / pq
                y[:, j] += alpha * p[:, c]
                r[:, c] -= alpha * q[:, c]
                res = float(np.linalg.norm(r[:, c]))
                if not math.isfinite(res):
                    raise SolverError(
                        f"conjugate gradients broke down at iteration {it}: residual norm {res!r}"
                    )
                histories[j].append(res)
                if res <= tol * norm0[j]:
                    iterations[j] = it
                    done.append(c)
            if done:
                keep = [c for c in range(len(cols)) if c not in done]
                if not keep:
                    return y, iterations, histories
                cols, rho = [cols[c] for c in keep], [rho[c] for c in keep]
                r, p = np.asfortranarray(r[:, keep]), np.asfortranarray(p[:, keep])
            del q  # so the factor's result can take its memory
            z = self._factor.solve(r)
            for c in range(len(cols)):
                rho_new = float(r[:, c] @ z[:, c])
                p[:, c] = z[:, c] + (rho_new / rho[c]) * p[:, c]
                rho[c] = rho_new
        worst = max(histories[j][-1] / norm0[j] for j in cols)
        raise SolverError(
            f"conjugate gradients did not converge in {maxit} iterations; "
            f"final relative normal residual {worst:.3e}"
        )

    def solve(self, bundle: BoundaryBundle) -> LateralSolution:
        """Solve the joint least-squares problem for one data bundle."""
        (solution,) = self.solve_many([bundle])
        return solution

    def solve_many(self, bundles: Iterable[BoundaryBundle]) -> Iterator[LateralSolution]:
        """Solve for several data bundles as one block; yield a solution per bundle.

        All bundles go through one lockstep CG run (see ``_pcg``), so each step
        applies the factor to the whole block at once.  The solutions are
        yielded in bundle order and built on demand, so a caller that drops
        each one keeps a single solution's fields alive.
        """
        bundles = list(bundles)
        rhs = np.empty((self._normal.shape[0], len(bundles)), order="F")
        for j, bundle in enumerate(bundles):
            rhs[:, j] = self._a_scaled.T @ _lateral_rhs(bundle, self.geometry, self.reg)
        with _one_blas_thread():
            y, iterations, histories = self._pcg(rhs)
        g = self.geometry
        nq = g.nx_prime * g.nx_n * g.nt
        for j in range(len(bundles)):
            z = (y[:, j] / self._col_norms)[self._band_pos]
            u_hat = ScalarField(
                g, z[:nq].reshape(g.nx_prime, g.nx_n, g.nt), FieldKind.SPACE_TIME
            )
            f_hat = ScalarField(
                g, z[nq:].reshape(g.nx_prime, g.nt), FieldKind.CROSS_SECTION_TIME
            )
            yield LateralSolution(
                u_hat=u_hat,
                f_hat=f_hat,
                iterations=iterations[j],
                residual_history=tuple(histories[j]),
            )


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
    order, Jacobi column scaling uses exact column norms, the factorization
    and CG run on one thread of scipy's and numpy's OpenBLAS (where their
    thread functions are exported) so they do not depend on the BLAS thread
    count, and CG starts from zero.
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


def _sweep_errors(
    f_hat: ScalarField, f_true: ScalarField, plan: WeightPlan
) -> tuple[float, float]:
    diff = f_hat.with_values(f_hat.values - f_true.values)
    err_region = discrete_norm(diff, region=stability_region(plan))
    err_global = discrete_norm(diff)
    return err_region, err_global


def sweep_levels(noise_levels) -> list[float]:
    """Check the noise levels of a sweep and return them in decreasing order."""
    levels = [float(x) for x in noise_levels]
    if len(levels) < 4:
        raise ValidationError(f"need at least 4 noise levels, got {len(levels)}")
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
    and lands last), ``_SOLVE_BLOCK`` at a time: the noisy bundles of a chunk
    are drawn first and then solved as one block by ``solve_many``.  The
    empirical exponent is the least-squares slope of log err_region against
    log D(u) over the rows where err_region dropped relative to the previous
    row; fewer than three such rows leave the fit degenerate and raise.
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
        noisy = [
            add_noise(instance, level, seed=seed + start + i) for i, level in enumerate(chunk)
        ]
        solutions = operator.solve_many([inst.data for inst in noisy])
        for level, inst, sol in zip(chunk, noisy, solutions):
            err_region, err_global = _sweep_errors(sol.f_hat, instance.f, plan)
            if err_region > err_global:
                raise SolverError(
                    f"region error {err_region!r} exceeds global error {err_global!r} "
                    f"at noise level {level!r}"
                )
            rows.append(
                SweepRow(
                    noise=level,
                    d_of_u=inst.d_of_u,
                    err_region=err_region,
                    err_global=err_global,
                )
            )
            if level == 0.0:
                noiseless_f_hat = sol.f_hat

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
    diff = sweep.noiseless_f_hat.with_values(
        sweep.noiseless_f_hat.values - instance.f.values
    )
    slice_error = discrete_norm(time_slice(diff, 0.0), region=xp_only)
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


def write_sweep_csv(
    report: SweepReport, stream: IO[str], footer: Mapping[str, str] | None = None
) -> None:
    """Emit the sweep as a table CSV whose footer opens with ``theta_emp``."""
    rows = [astuple(row) for row in report.rows]
    footer = {"theta_emp": repr(report.theta_emp), **(footer or {})}
    write_table_csv(stream, _CSV_HEADER, rows, footer)


def load_sweep_csv(stream: IO[str]) -> tuple[list[SweepRow], dict]:
    """Parse a sweep CSV back into rows plus the footer mapping."""
    rows, footer = load_table_csv(stream, _CSV_HEADER)
    if "theta_emp" in footer:
        footer["theta_emp"] = parse_float(footer["theta_emp"], "theta_emp")
    return [SweepRow(*row) for row in rows], footer
