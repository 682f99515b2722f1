"""Source-factor recovery from full fields and from lateral data only.

Two reconstructors live here.  The oracle one applies the face identity
f * R = -dnn(u) at x_n = 0 and needs the full field, so it mainly serves as
a convergence reference.  The lateral one sees only the boundary bundle and
solves a regularized least-squares problem for the pair (u, f) jointly:
PDE residual rows (optionally Carleman-weighted), Cauchy mismatch rows on
the data side, zero-trace rows at x_n = 0, and Tikhonov rows.  After Jacobi
column scaling the normal equations are solved directly: a Cholesky
factorization of the normal matrix is applied once, and each solution's
relative normal residual is checked against ``_MAX_REL_NORMAL_RESIDUAL``.
The sideways problem squares its conditioning badly enough that iterations
without the factor make no headway, while a Cholesky solve is backward
stable and leaves a relative residual near rounding.  The unknowns are
numbered in a tensor-grid order, x' slowest, that keeps the normal matrix a
narrow band, factored by LAPACK's band Cholesky ``dpbtrf``.  Only the
one-sided x' stencils at the two x' faces reach three slabs of x' nodes.
So on a grid of ten or more x' slabs the first and the last two slabs are
eliminated first as dense heads (LAPACK's ``dpotrf``), each head's Schur
update lands in the corner of the band at its own end, and the band's
half-bandwidth is two slabs instead of three.  No band unknown reaches past
the two slabs in the middle of that band, so they are a separator that
splits the factor into two arms, each a head plus its side of the band,
factored at once on two workers; the separator's Schur complement is
factored last.  A smaller grid is factored as one band.  ``_BandCholesky``
builds either layout from the normal matrix; the factor's storage is known
before it is allocated.  Every LAPACK and BLAS call goes through a ctypes
binding of scipy's own routines (``_routine``), which releases the GIL.

The matrix depends on the data bundle in no way, so ``LateralOperator``
factors it once and solves any number of bundles against it; the stability
sweep leans on that to rerun the solver across noise levels and fit an
empirical Holder exponent from the decreasing part of the error curve.  It
solves its levels in blocks of ``_SOLVE_BLOCK`` bundles: the factor is
applied to the whole block by blocked band triangular solves (BLAS-3
``dgemm`` and ``dtrsm`` on zero-copy windows of the band), which stream the
band once per block instead of once per bundle, the two arms on two workers,
and the residual check runs column by column in array arithmetic.  A single
bundle takes the same path as a block of one.  The workers are one per CPU
the process may run on, at most two, and the split does not depend on
them, so one CPU and two give the same bits.  Every BLAS call runs on one
thread of scipy's OpenBLAS, so the rounding does not depend on the BLAS
thread count either.

scipy is imported on first use, by the operator build and the band solves,
so a command that never builds an operator never loads it.
"""

from __future__ import annotations

import ctypes
import functools
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
    unn_face = trace(dxn2(u), Face.XN_ZERO)
    return unn_face.with_values(-unn_face.values / r_face.values)


# ---- lateral least squares --------------------------------------------------------


@dataclass(frozen=True)
class Regularization:
    """Parameters of the lateral least-squares solve.

    ``tikhonov_weight`` is the classical penalty on f and on grad(u);
    ``carleman_s`` switches the PDE rows to the weighted misfit (0 keeps the
    plain Tikhonov formulation); ``max_factor_gb`` caps the factor's
    storage, band, separator and heads, in GB (1e9 bytes).
    """

    tikhonov_weight: float
    carleman_s: float = 0.0
    max_factor_gb: float = 4.0

    def __post_init__(self):
        if not (self.tikhonov_weight > 0 and math.isfinite(self.tikhonov_weight)):
            raise ValidationError(
                f"tikhonov_weight must be positive, got {self.tikhonov_weight!r}"
            )
        if not (self.carleman_s >= 0 and math.isfinite(self.carleman_s)):
            raise ValidationError(f"carleman_s must be nonnegative, got {self.carleman_s!r}")
        if not self.max_factor_gb > 0:
            raise ValidationError(f"max_factor_gb must be positive, got {self.max_factor_gb!r}")


# weight of the data-side Cauchy rows and of the zero-trace rows at x_n = 0
_BOUNDARY_ROW_WEIGHT = 100.0


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

    _, gamma_idx = face_index(g, Face.GAMMA_SIDE)
    _, zero_idx = face_index(g, Face.XN_ZERO)
    t_gamma = sp.kron(_unit_row(nxp, gamma_idx), sp.kron(eye["xn"], eye["t"]), format="csr")
    t_zero = sp.kron(eye["xp"], sp.kron(_unit_row(nxn, zero_idx), eye["t"]), format="csr")

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
    # derivative steps applied to y = dxn(u) in order, then the data-side trace
    w_face = np.sqrt(quadrature_weights(g, FieldKind.AXIAL_TIME).ravel())
    cauchy_scale = sp.diags(math.sqrt(_BOUNDARY_ROW_WEIGHT) * w_face)
    for steps in BUNDLE_CHANNELS.values():
        op = dxn_v
        for step in steps:
            op = vol[step] @ op
        blocks.append([cauchy_scale @ (t_gamma @ op), None])

    # zero Cauchy data at the x_n = 0 face
    w0 = np.sqrt(quadrature_weights(g, FieldKind.CROSS_SECTION_TIME).ravel())
    face_scale = sp.diags(math.sqrt(_BOUNDARY_ROW_WEIGHT) * w0)
    blocks.append([face_scale @ t_zero, None])
    blocks.append([face_scale @ (t_zero @ dxn_v), None])

    # Tikhonov rows
    sqrt_mu = math.sqrt(reg.tikhonov_weight)
    blocks.append([None, sp.diags(sqrt_mu * w0)])
    blocks.append([sp.diags(sqrt_mu * wq) @ dxp_v, None])
    blocks.append([sp.diags(sqrt_mu * wq) @ dxn_v, None])

    return sp.bmat(blocks, format="csr")


def _lateral_rhs(bundle: BoundaryBundle, geometry: CylinderGeometry) -> np.ndarray:
    """Right-hand side matching the row layout of ``_lateral_matrix``."""
    if bundle.y.geometry != geometry:
        raise ValidationError("bundle grid does not match the reconstruction grid")
    g = geometry
    nq = g.nx_prime * g.nx_n * g.nt
    nf = g.nx_prime * g.nt
    w_face = np.sqrt(quadrature_weights(g, FieldKind.AXIAL_TIME).ravel())
    sqrt_wc = math.sqrt(_BOUNDARY_ROW_WEIGHT)
    rhs = [np.zeros(nq)]
    for name in BUNDLE_CHANNELS:
        rhs.append(sqrt_wc * w_face * getattr(bundle, name).values.ravel())
    rhs.extend([np.zeros(nf)] * 3)
    rhs.extend([np.zeros(nq)] * 2)
    return np.concatenate(rhs)


def _band_order(geometry: CylinderGeometry) -> np.ndarray:
    """Band position of each unknown of z = (u, f), indexed in z's own order.

    x_n varies fastest, f(x', t) takes one extra x_n slot right after
    u(x', :, t), then t varies and x' is slowest, one slab of
    nt * (nx_n + 1) positions per x' node.  Every stencil of the normal
    matrix then stays within about three slabs of the diagonal, and within
    two slabs away from the first and the last two.
    """
    g = geometry
    pos = np.arange(g.nx_prime * g.nt * (g.nx_n + 1)).reshape(g.nx_prime, g.nt, g.nx_n + 1)
    u_pos = pos[:, :, : g.nx_n].transpose(0, 2, 1)
    return np.concatenate([u_pos.ravel(), pos[:, :, g.nx_n].ravel()])


# bundles per block solve in a sweep.  One block of all 161 levels of a
# 21x17x21 sweep (one BLAS thread) raised peak RSS from 136 MB to 196 MB,
# and its wider BLAS-3 solves rounded differently: sweep.csv changed bytes
_SOLVE_BLOCK = 16
# largest relative normal residual |b - N x| / |b| a solution may leave
_MAX_REL_NORMAL_RESIDUAL = 1e-8
# rows per diagonal block of the blocked triangular solves; 32-48 ran fastest
# at half-bandwidths 1,170 and 2,324, where 128 took 1.4-2x as long
_BAND_BLOCK = 48
# x' slabs from which the factor has heads, two arms and a separator: each
# arm then keeps its head and at least the two band slabs the head couples with
_SPLIT_SLABS = 10


@functools.cache
def _openblas_threads():
    """Getter and setter of scipy's OpenBLAS thread count, or None if not exported.

    scipy's wheels vendor an OpenBLAS as ``scipy.libs/libscipy_openblas*.so``;
    loading it again by path returns the copy scipy already uses.
    """
    import scipy

    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if n.startswith("libscipy_openblas"))
    except OSError:
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get, put = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one thread of scipy's OpenBLAS, restoring the count after.

    Threaded ``dgemm`` rounds differently from the serial one, so without the
    pin the factor and its application, which call scipy's BLAS through
    ``_routine``, would depend on the thread count.  The count is the
    library's, not the calling thread's, so it holds on both workers.  No
    numpy BLAS call runs inside the pin: the residual check is a sparse
    product and ``np.sum`` column dots.  An OpenBLAS whose thread functions
    are not exported runs unpinned.
    """
    get, put = _openblas_threads() or (lambda: 1, lambda count: None)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# ---- LAPACK and BLAS without the GIL ----------------------------------------------

# each routine's arguments, all passed by pointer: c a character, i an int,
# d a double, p an array
_ROUTINES = {
    "dpotrf": "cipii",
    "dpbtrf": "ciipii",
    "dtrsm": "cccciidpipi",
    "dsyrk": "cciidpidpi",
    "dgemm": "cciiidpipidpi",
}


@functools.cache
def _routine(name: str):
    """scipy's LAPACK or BLAS routine ``name`` as a ctypes function.

    scipy exports its routines as capsules in ``scipy.linalg.cython_lapack``
    and ``cython_blas``.  A ctypes call through a capsule's pointer releases
    the GIL while the routine runs, which scipy's f2py wrappers do not, so two
    threads can factor and solve two arms at once.
    """
    from scipy.linalg import cython_blas, cython_lapack

    module = cython_lapack if name in ("dpotrf", "dpbtrf") else cython_blas
    capsule = module.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    address = get_pointer(capsule, get_name(capsule))
    types = {
        "c": ctypes.c_char_p,
        "i": ctypes.POINTER(ctypes.c_int),
        "d": ctypes.POINTER(ctypes.c_double),
        "p": ctypes.c_void_p,
    }
    return ctypes.CFUNCTYPE(None, *(types[t] for t in _ROUTINES[name]))(address)


@functools.cache
def _int(value: int) -> ctypes.c_int:
    """A C int holding ``value``; the cache keeps it alive for every call that reads it."""
    return ctypes.c_int(value)


@functools.cache
def _double(value: float) -> ctypes.c_double:
    """A C double holding ``value``, kept alive as ``_int``'s are."""
    return ctypes.c_double(value)


def _at(a: np.ndarray) -> tuple[int, int]:
    """Address and leading dimension of a column-major array, or of a window into one.

    The BLAS wrappers take their matrices as such pairs, so the blocked
    solves step through a band by address arithmetic, without an array view
    per call.
    """
    rows, cols = a.shape
    if rows > 1 and a.strides[0] != 8:
        raise ValueError(f"not a column-major window of doubles: strides {a.strides}")
    return a.ctypes.data, max(1, a.strides[1] // 8 if cols > 1 else rows)


def _dpotrf(a: np.ndarray, uplo: bytes = b"U") -> int:
    """Cholesky factor of the square window ``a`` in its ``uplo`` triangle, in place; LAPACK's info."""
    info = ctypes.c_int()
    address, ld = _at(a)
    _routine("dpotrf")(uplo, _int(a.shape[0]), address, _int(ld), info)
    return info.value


def _dpbtrf(ab: np.ndarray) -> int:
    """Upper band Cholesky factor of a window of LAPACK band storage, in place; LAPACK's info."""
    info = ctypes.c_int()
    rows, n = ab.shape
    address, ld = _at(ab)
    _routine("dpbtrf")(b"U", _int(n), _int(rows - 1), address, _int(ld), info)
    return info.value


def _dtrsm(
    m: int, n: int, a: tuple, b: tuple, *, side: bytes = b"L", uplo: bytes = b"U", trans: bytes = b"N"
) -> None:
    """The m x n b := op(a)^-1 b (side L) or b op(a)^-1 (side R), a triangular; in place."""
    _routine("dtrsm")(
        side, uplo, trans, b"N", _int(m), _int(n), _double(1.0),
        a[0], _int(a[1]), b[0], _int(b[1]),
    )


def _dsyrk(n: int, k: int, alpha: float, a: tuple, c: tuple) -> None:
    """Upper triangle of the n x n c := c + alpha a^T a, a being k x n; in place."""
    _routine("dsyrk")(
        b"U", b"T", _int(n), _int(k), _double(alpha), a[0], _int(a[1]), _double(1.0), c[0], _int(c[1])
    )


def _dgemm(
    m: int,
    n: int,
    k: int,
    alpha: float,
    a: tuple,
    b: tuple,
    c: tuple,
    *,
    trans_a: bytes = b"N",
    trans_b: bytes = b"N",
) -> None:
    """The m x n c := c + alpha op(a) op(b), k being the inner dimension; in place."""
    _routine("dgemm")(
        trans_a, trans_b, _int(m), _int(n), _int(k), _double(alpha),
        a[0], _int(a[1]), b[0], _int(b[1]), _double(1.0), c[0], _int(c[1]),
    )


def _workers() -> int:
    """Threads for the two arms: one per CPU this process may run on, at most two."""
    return min(2, len(os.sched_getaffinity(0)))


def _run(tasks: list) -> list:
    """Call each task and return their results in order.

    With two tasks and two workers a helper thread runs the second while the
    caller runs the first.  The helper is joined before this returns or
    raises, and either task's exception propagates.
    """
    from concurrent.futures import ThreadPoolExecutor

    if len(tasks) == 1 or _workers() == 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=1) as helper:
        second = helper.submit(tasks[1])
        return [tasks[0](), second.result()]


# ---- the band factor --------------------------------------------------------------


def _slice(positions: range) -> slice:
    """The slice that picks ``positions``, a range of step 1 or -1, out of an axis."""
    return slice(positions.start, positions.stop if positions.stop >= 0 else None, positions.step)


def _local(positions: range, index: np.ndarray) -> np.ndarray:
    """Place of each band-order index in ``positions`` (outside [0, len) if it is not there)."""
    return (index - positions.start) * positions.step


def _dense(
    normal: sp.csr_matrix, rows: range, cols: range, out: np.ndarray, triangle: int = 0
) -> None:
    """Write normal[rows][:, cols] into ``out``, for ranges of step 1 or -1.

    ``triangle`` 1 or -1 writes only the entries with i <= j or with i >= j.
    """
    lo = min(rows[0], rows[-1])
    sub = normal[lo : max(rows[0], rows[-1]) + 1].tocoo()
    i = _local(rows, sub.row.astype(np.intp) + lo)
    j = _local(cols, sub.col.astype(np.intp))
    keep = (j >= 0) & (j < len(cols)) & (triangle * (j - i) >= 0)
    out[i[keep], j[keep]] = sub.data[keep]


def _blocks(n: int, nb: int) -> list[tuple[int, int]]:
    return [(s, min(s + nb, n)) for s in range(0, n, nb)]


def _rows(address: int, width: int, i: int) -> tuple[int, int]:
    """Rows i on of a C-ordered array ``width`` wide, as a column-major window of its transpose."""
    return address + 8 * i * width, width


class _Arm:
    """One arm of the factor: a dense head, a band part and the part's coupling with the separator.

    ``positions`` holds the band-order positions of the part's k unknowns
    and then of the separator's s, in the arm's own order: a range of step
    1, or of step -1 for the arm numbered from its far end.  ``ab`` is their
    LAPACK upper band storage with nb - 1 zero rows below the diagonal row,
    nb = min(``_BAND_BLOCK``, b): (b + nb) x (k + s), with b = s.  U[i, j] =
    ab[b + i - j, j] sits at flat offset b + i + j*ld, ld = b + nb - 1, so
    the window from U[i, j] on is a column-major matrix with leading
    dimension ld (``_u``), and every entry outside the band that a window of
    at most nb columns reaches is an exact zero of the margin.  ``dpbtrf``
    factors the rows ab[: b + 1].  The head, if any, is given as (its h
    positions, the h x h window its factor goes to, whether that factor is
    stored as the lower L = U^T): U = chol(its own block), ``w`` = U^-T C
    with C its coupling with the part's first h unknowns, and W^T W is
    subtracted from the band's first h x h corner before ``dpbtrf``
    factors the part.

    The part's coupling with the separator sits in the separator's columns
    of ``ab``, rows k - s to k: by the band profile it is lower triangular
    in that s x s window, and it is overwritten by W_S = U_tri^-T C_S,
    U_tri the part factor's last triangle.  The upper triangle of the
    separator's own diagonal block receives -W_S^T W_S.
    """

    def __init__(self, positions: range, s: int, b: int, head: tuple | None = None):
        self.positions, self.s, self.b = positions, s, b
        self.k = len(positions) - s
        self.head = head
        self.w: np.ndarray | None = None
        self.nb = max(1, min(_BAND_BLOCK, b))
        self.ld = b + self.nb - 1
        self.ab = np.zeros((b + self.nb, len(positions)), order="F")
        self.u = as_strided(
            self.ab.reshape(-1, order="F")[b:], shape=(len(positions),) * 2, strides=(8, 8 * self.ld)
        )
        self.origin = self.ab.ctypes.data + 8 * b
        self.starts = _blocks(self.k, self.nb)

    def _u(self, i: int, j: int) -> tuple[int, int]:
        """The window of U from U[i, j] on, as (address, leading dimension)."""
        return self.origin + 8 * (i + j * self.ld), max(1, self.ld)

    def fill(self, i: np.ndarray, j: np.ndarray, values: np.ndarray) -> None:
        """Write the normal matrix's entries N[i, j], i <= j band-order positions, that are ours.

        The separator's own block is left out: the caller adds it once both
        arms have sent their updates.
        """
        i, j = _local(self.positions, i), _local(self.positions, j)
        i, j = np.minimum(i, j), np.maximum(i, j)
        mine = (i >= 0) & (j < len(self.positions)) & (i < self.k)
        self.u[i[mine], j[mine]] = values[mine]

    def factor(self, normal: sp.csr_matrix) -> None:
        """Eliminate the head, factor the band part and form the separator's update."""
        k, s, b = self.k, self.s, self.b
        if self.head:
            positions, own, lower = self.head
            h = len(positions)
            uplo = b"L" if lower else b"U"
            _dense(normal, positions, positions, own, -1 if lower else 1)
            info = _dpotrf(own, uplo)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dpotrf info = {info}: a {h}-unknown head is not positive definite"
                )
            self.w = np.zeros((h, h), order="F")
            _dense(normal, positions, self.positions[:h], self.w)
            _dtrsm(h, h, _at(own), _at(self.w), uplo=uplo, trans=b"N" if lower else b"T")
            _dsyrk(h, h, -1.0, _at(self.w), self._u(0, 0))
        info = _dpbtrf(self.ab[: b + 1, :k])
        if info != 0:
            raise np.linalg.LinAlgError(f"dpbtrf info = {info}: the band is not positive definite")
        top = k - s  # the part's first row that couples with the separator
        for q0, q1 in _blocks(s, self.nb):
            # the separator's columns J receive -(W_S^T W_S)[:q1, J]; the rows
            # of W_S above the block's diagonal are the margin's zeros
            nq, w = q1 - q0, self._u(top + q0, k + q0)
            _dtrsm(s - q0, nq, self._u(top + q0, top + q0), w, trans=b"T")
            _dgemm(q0, nq, s - q0, -1.0, self._u(top + q0, k), w, self._u(k, k + q0), trans_a=b"T")
            _dsyrk(nq, s - q0, -1.0, w, self._u(k + q0, k + q0))

    def forward(self, r: np.ndarray) -> tuple:
        """The arm's half of U^T y = r: head, then band part, then its separator update.

        Returns the part's solution (C-ordered, one row per unknown), the
        head's (None without a head) and -W_S^T times the part's last s
        rows, the update this arm sends the separator's right-hand side.
        """
        k, s, b, c = self.k, self.s, self.b, r.shape[1]
        x = np.array(r[_slice(self.positions[:k])], order="C")
        xa = x.ctypes.data
        y = None
        if self.head:
            positions, own, lower = self.head
            h = len(positions)
            y = np.array(r[_slice(positions)], order="F")
            _dtrsm(h, c, _at(own), _at(y), uplo=b"L" if lower else b"U", trans=b"N" if lower else b"T")
            _dgemm(c, h, h, -1.0, _at(y), _at(self.w), _rows(xa, c, 0), trans_a=b"T")
        for s0, e in self.starts:
            lo, xs = max(0, s0 - b), _rows(xa, c, s0)
            if lo < s0:
                _dgemm(c, e - s0, s0 - lo, -1.0, _rows(xa, c, lo), self._u(lo, s0), xs)
            _dtrsm(c, e - s0, self._u(s0, s0), xs, side=b"R")
        t = np.zeros((s, c))
        ta, top = t.ctypes.data, k - s
        for q0, q1 in _blocks(s, self.nb):
            w = self._u(top + q0, k + q0)
            _dgemm(c, q1 - q0, s - q0, -1.0, _rows(xa, c, top + q0), w, _rows(ta, c, q0))
        return x, y, t

    def backward(self, state: tuple, x_sep: np.ndarray) -> tuple:
        """The arm's half of U x = y, given the separator's solution (C-ordered) in the arm's order.

        ``state`` is what ``forward`` returned; returns the part's and the
        head's solutions.
        """
        k, s, b = self.k, self.s, self.b
        x, y, _ = state
        c = x.shape[1]
        xa, sa, top = x.ctypes.data, x_sep.ctypes.data, k - s
        for q0, q1 in _blocks(s, self.nb):
            w = self._u(top + q0, k + q0)
            _dgemm(c, s - q0, q1 - q0, -1.0, _rows(sa, c, q0), w, _rows(xa, c, top + q0), trans_b=b"T")
        for s0, e in reversed(self.starts):
            lo, xs = max(0, s0 - b), _rows(xa, c, s0)
            _dtrsm(c, e - s0, self._u(s0, s0), xs, side=b"R", trans=b"T")
            if lo < s0:
                _dgemm(c, s0 - lo, e - s0, -1.0, xs, self._u(lo, s0), _rows(xa, c, lo), trans_b=b"T")
        if self.head:
            positions, own, lower = self.head
            h = len(positions)
            _dgemm(h, c, h, -1.0, _at(self.w), _rows(xa, c, 0), _at(y), trans_b=b"T")
            _dtrsm(h, c, _at(own), _at(y), uplo=b"L" if lower else b"U", trans=b"T" if lower else b"N")
        return x, y


class _BandCholesky:
    """Upper Cholesky factor of a band-ordered normal matrix; ``solve`` applies its inverse.

    Built from the n x n normal matrix (CSR) and the size m of one x' slab;
    the grid alone sets the layout.  Below ``_SPLIT_SLABS`` slabs the factor
    is one ``_Arm`` over the whole matrix: a band of half-bandwidth about 3m,
    with no head and no separator.  From there on the first and the last two
    slabs are dense heads of h = 2m unknowns, the band between them has
    half-bandwidth b = 2m, and its two middle slabs are a separator of s = h
    unknowns, which no other band unknown reaches across.  The two heads
    share one (h + 1) x h array: the first head's U fills its upper
    triangle, and the second head's factor, stored as L = U^T, the lower
    triangle one row down.  The factor has two arms (see ``_Arm``): the left
    one holds head 1 and the band to the separator's left, the right one
    head 2 and the band to its right, numbered from the far end.  Each arm
    is factored on its own worker (``_run``), and the caller then adds the
    separator's block of the normal matrix to the left arm's update,
    subtracts the right arm's, always in that order, and factors the result
    with ``dpotrf`` in the left arm's storage.

    In the order (left arm, right arm, separator) the factor is upper
    triangular, so a solve runs the arms' forward halves, the separator,
    and the arms' backward halves, each arm keeping all of the block's
    columns, so a column's bits do not depend on the number of workers.  The
    factor stores n - h band columns, the separator's once in each arm, each
    b + 1 band entries over a margin of nb - 1 zeros, nb =
    min(``_BAND_BLOCK``, b); and 3 * h**2 + h head entries (h = 0 without
    the split).  A factor whose ``((b + nb) * (n - h) + 3 * h**2 + h) * 8``
    bytes exceed ``max_gb`` GB is refused with ValidationError before it is
    allocated; a head, band part or separator that is not positive definite
    raises LinAlgError.
    """

    def __init__(self, normal: sp.csr_matrix, slab: int, max_gb: float):
        n = normal.shape[0]
        slabs = n // slab
        # the heads and the separator are two slabs each and come only together
        h = s = 2 * slab if slabs >= _SPLIT_SLABS else 0
        # the band's lower triangle by rows is its upper triangle by columns
        sub = normal[h : n - h]
        rows = np.repeat(np.arange(h, n - h), np.diff(sub.indptr))
        cols = sub.indices.astype(np.intp)
        inner = (cols >= h) & (cols <= rows)
        cols, rows, values = cols[inner], rows[inner], sub.data[inner]
        del sub, inner
        # each head's update is written into an h x h corner of the band, which
        # needs b >= h; the stencils reach exactly two slabs between the heads,
        # so b = s
        b = self.half_bandwidth = max(int((rows - cols).max()), h)
        factor_gb = ((b + max(1, min(_BAND_BLOCK, b))) * (n - h) + 3 * h * h + h) * 8 / 1e9
        if factor_gb > max_gb:
            raise ValidationError(
                f"the band factor of the {n}-unknown normal matrix needs {factor_gb:.3g} GB "
                f"(half-bandwidth {b}), above max_factor_gb = {max_gb!r}"
            )
        if s:
            heads = np.zeros((h + 1, h), order="F")
            last = (range(n - 1, n - h - 1, -1), heads[1:], True)
            start = (slabs - 2) // 2 * slab  # the separator's first unknown
            self.arms = [
                _Arm(range(h, start + s), s, b, (range(h), heads[:h], False)),
                _Arm(range(n - h - 1, start - 1, -1), s, b, last),
            ]
        else:
            self.arms = [_Arm(range(n), 0, b)]
        for arm in self.arms:
            arm.fill(cols, rows, values)
        left = self.arms[0]
        self.sep = left.positions[left.k :]
        own = _local(self.sep, cols) >= 0
        own &= _local(self.sep, rows) < s
        i, j, values = _local(self.sep, cols[own]), _local(self.sep, rows[own]), values[own]
        del rows, cols
        _run([functools.partial(arm.factor, normal) for arm in self.arms])
        if s:
            # the separator's block, minus the left arm's update, minus the
            # right arm's, whose order runs the other way
            u = left.u[left.k :, left.k :]
            u[i, j] += values
            right = self.arms[1].u[-s:, -s:][::-1, ::-1].T
            for q0, q1 in _blocks(s, _BAND_BLOCK):
                u[:q0, q0:q1] += right[:q0, q0:q1]
                square = u[q0:q1, q0:q1]
                upper = np.triu(np.ones(square.shape, dtype=bool))
                np.add(square, right[q0:q1, q0:q1], out=square, where=upper)
            info = _dpotrf(u)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dpotrf info = {info}: the {s}-unknown separator is not positive definite"
                )
            self.u_sep = _at(u)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Apply the inverse to the columns of an n x k block, any k; F-ordered result."""
        states = _run([functools.partial(arm.forward, r) for arm in self.arms])
        x = np.empty(r.shape, order="F")
        sep = _slice(self.sep)
        x[sep] = r[sep]
        for arm, (_, _, t) in zip(self.arms, states):
            x[_slice(arm.positions[arm.k :])] += t
        if len(self.sep):
            xs = np.array(x[sep], order="C")
            s, c = xs.shape
            _dtrsm(c, s, self.u_sep, _at(xs.T), side=b"R")
            _dtrsm(c, s, self.u_sep, _at(xs.T), side=b"R", trans=b"T")
            x[sep] = xs
        tasks = [
            functools.partial(
                arm.backward, state, np.array(x[_slice(arm.positions[arm.k :])], order="C")
            )
            for arm, state in zip(self.arms, states)
        ]
        for arm, (part, y) in zip(self.arms, _run(tasks)):
            x[_slice(arm.positions[: arm.k])] = part
            if arm.head:
                x[_slice(arm.head[0])] = y
        return x


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
    of ``_band_order``, scales them, forms the normal matrix and hands it to
    ``_BandCholesky``, so the scaled matrix, the normal matrix, its factor
    and the solutions all live in band order and the solvers map the result
    back.  Below ten x' slabs the factor is one band over the whole normal
    matrix.  From ten on, its two dense heads are the first two and the
    last two x' slabs, 2 * nt * (nx_n + 1) unknowns each, whose one-sided
    face stencils would otherwise set the band's width, and the factor
    splits into two arms and a separator of the two middle slabs; the arms
    are factored and applied on two workers (see ``_BandCholesky``).
    ``solve_many`` solves several bundles as one block, and every
    application of the factor, to one column or to a block, runs the
    blocked triangular solves on plain windows of the band, whose storage
    keeps a zero margin for the entries outside it; ``solve`` is
    ``solve_many`` on one bundle.  The factorization and the solves run on
    one thread of scipy's OpenBLAS (see ``_one_blas_thread``).  A grid whose factor exceeds
    ``reg.max_factor_gb`` is refused with ValidationError before anything is
    allocated; a head, band or separator LAPACK finds not positive definite,
    or a factor that does not fit in memory, raises SolverError, whichever
    worker meets it.
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
        self.reg = reg
        a = _lateral_matrix(geometry, plan, p0, R, reg)
        self._band_pos = _band_order(geometry)
        a = sp.csr_matrix((a.data, self._band_pos[a.indices], a.indptr), shape=a.shape)
        a.sort_indices()
        col_norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=0)).ravel())
        col_norms[col_norms == 0.0] = 1.0
        self._col_norms = col_norms
        self._a_scaled = (a @ sp.diags(1.0 / col_norms)).tocsr()
        self._normal = (self._a_scaled.T @ self._a_scaled).tocsr()
        slab = geometry.nt * (geometry.nx_n + 1)
        try:
            with _one_blas_thread():
                self._factor = _BandCholesky(self._normal, slab, reg.max_factor_gb)
        except (np.linalg.LinAlgError, MemoryError) as exc:
            # LAPACK reports a matrix that is not positive definite as LinAlgError
            raise SolverError(
                f"factorization of the {self._normal.shape[0]}-unknown normal matrix failed "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    def _solve_block(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve the normal equations for an F-ordered n x k block and check the residuals.

        One application of the factor solves the nonzero columns; a zero
        column stays exactly zero.  Each column's normal residual b - N x is
        measured by column-wise array arithmetic that gives a column the same
        bits as a one-column solve.  Returns the solutions and each column's
        right-hand side and residual norms; raises SolverError if a relative
        residual is above ``_MAX_REL_NORMAL_RESIDUAL`` or is not finite.
        """
        norm0 = np.sqrt(_column_dots(rhs, rhs))
        cols = np.flatnonzero(norm0)
        y = np.zeros(rhs.shape, order="F")
        if cols.size:
            y[:, cols] = self._factor.solve(rhs[:, cols])
        r = np.asfortranarray(self._normal @ y)
        np.subtract(rhs, r, out=r)
        res = np.sqrt(_column_dots(r, r))
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
        (solution,) = self.solve_many([bundle])
        return solution

    def solve_many(self, bundles: Iterable[BoundaryBundle]) -> Iterator[LateralSolution]:
        """Solve for several data bundles as one block; yield a solution per bundle.

        The factor is applied to the whole block at once and each column's
        residual is checked (see ``_solve_block``).  The solutions are
        yielded in bundle order and built on demand, so a caller that drops
        each one keeps a single solution's fields alive.
        """
        bundles = list(bundles)
        rhs = np.empty((self._normal.shape[0], len(bundles)), order="F")
        for j, bundle in enumerate(bundles):
            rhs[:, j] = self._a_scaled.T @ _lateral_rhs(bundle, self.geometry)
        with _one_blas_thread():
            y, norm0, res = self._solve_block(rhs)
        g = self.geometry
        nq = g.nx_prime * g.nx_n * g.nt
        for j in range(len(bundles)):
            history = (float(norm0[j]), float(res[j])) if norm0[j] else (0.0,)
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
                iterations=len(history) - 1,
                residual_history=history,
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
    order, Jacobi column scaling uses exact column norms, and the
    factorization and the solve run on one thread of scipy's OpenBLAS
    (where its thread functions are exported) so they do not depend on the
    BLAS thread count.
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
