"""The band order of the lateral unknowns and the Cholesky factor of their normal matrix.

``band_order`` numbers the unknowns z = (u, f) of the lateral system x'
slowest, one slab of m = nt * (nx_n + 1) per x' node, so that the normal
matrix is a band that only the one-sided x' stencils at the two x' faces
widen to three slabs.  ``BandCholesky`` factors it once; ``solve`` applies
the inverse to a block of right-hand sides.

Below ten x' slabs the factor is one band (LAPACK's ``dpbtrf``).  From ten
on, the first and the last two slabs are dense heads eliminated first
(``dpotrf``), each head's Schur update lands in the corner of the band at
its own end, and the band's half-bandwidth is two slabs instead of three.
No band unknown reaches past the two middle slabs of that band, so they
are a separator that splits the factor into two arms, each a head plus its
side of the band, factored and applied at once on two workers; the
separator's Schur complement is factored last.  A solve runs blocked band
triangular solves (BLAS-3 ``dgemm`` and ``dtrsm``) on windows of the band,
which stream it once per block of columns; each arm stores its band over a
margin of zero rows, so every window is a plain matrix, and its head's
factor in the corner of that storage the band leaves unused.

Every LAPACK and BLAS call goes through a ctypes binding (``_routine``),
which releases the GIL, on one thread of scipy's OpenBLAS.  Where scipy
vendors that library (``scipy.libs/libscipy_openblas*.so``, as its wheels
do) the binding takes the routines straight from it and imports no scipy
module; elsewhere it reads them from the capsules of ``scipy.linalg``,
which wrap the same routines.  The arms run on the package's workers
(``workers.run``), and the layout does not depend on them, so the bits
depend on neither the CPU count nor the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import workers
from .errors import SolverError, ValidationError

if TYPE_CHECKING:
    import scipy.sparse as sp

    from .geometry import CylinderGeometry

__all__ = ["band_order", "check_size", "BandCholesky"]


def band_order(geometry: CylinderGeometry) -> np.ndarray:
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


# rows per diagonal block of the blocked triangular solves, which another width rounds
# differently; at half-bandwidth 1,512 a 48-column solve took 144 ms, 167 at 32, 198 at 128
_BAND_BLOCK = 48
# x' slabs from which the factor has heads, two arms and a separator: each
# arm then keeps its head and at least the two band slabs the head couples with
_SPLIT_SLABS = 10
# largest factor, in GB, that check_size admits
_MAX_FACTOR_GB = 4.0


def _band(geometry: CylinderGeometry) -> tuple[int, int]:
    """The factor's head size h and half-bandwidth b on ``geometry``, from the grid alone.

    With m = nt * (nx_n + 1) unknowns per x' slab: h = b = 2m from
    ``_SPLIT_SLABS`` slabs on, where the heads take the one-sided x'
    stencils; h = 0 and b = 3m + 2(nx_n + 1) below, where a PDE row at an x'
    face and a t face couples the one-sided x' stencil's three slabs with
    the one-sided t stencil's two steps.
    """
    m = geometry.nt * (geometry.nx_n + 1)
    if geometry.nx_prime >= _SPLIT_SLABS:
        return 2 * m, 2 * m
    return 0, 3 * m + 2 * (geometry.nx_n + 1)


def check_size(geometry: CylinderGeometry) -> None:
    """Refuse with ValidationError a factor on ``geometry`` above ``_MAX_FACTOR_GB`` GB.

    The factor keeps ((b + nb) * (n - h) + 2 * h**2) doubles (see
    ``BandCholesky`` and ``_band``).
    """
    n = geometry.nx_prime * geometry.nt * (geometry.nx_n + 1)
    h, b = _band(geometry)
    factor_gb = ((b + min(_BAND_BLOCK, b)) * (n - h) + 2 * h * h) * 8 / 1e9
    if factor_gb > _MAX_FACTOR_GB:
        raise ValidationError(
            f"the band factor of the {n}-unknown normal matrix needs {factor_gb:.3g} GB "
            f"(half-bandwidth {b}), above the limit of {_MAX_FACTOR_GB:g} GB"
        )


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """scipy's vendored OpenBLAS, or None where scipy vendors none (conda, distro builds).

    scipy's wheels ship it as ``scipy.libs/libscipy_openblas*.so``, next to
    the package; loading it by path returns the copy scipy's own modules
    use.  The package is found by its import spec, which imports nothing.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), "scipy.libs")
    try:
        name = min(n for n in os.listdir(libs) if n.startswith("libscipy_openblas"))
    except (OSError, ValueError):  # no scipy.libs, or no OpenBLAS in it
        return None
    return ctypes.CDLL(os.path.join(libs, name))


@functools.cache
def _openblas_threads():
    """Getter and setter of scipy's OpenBLAS thread count, or None if not exported."""
    try:
        lib = _openblas()
        get, put = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except AttributeError:  # no vendored OpenBLAS, or one without the functions
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def _one_blas_thread():
    """Run the body on one thread of scipy's OpenBLAS, restoring the count after.

    Threaded ``dgemm`` rounds differently from the serial one, so without the
    pin the factor and its application, which call scipy's BLAS through
    ``_routine``, would depend on the thread count.  The count is the
    library's, not the calling thread's, so it holds on both workers.  Only
    ``BandCholesky`` enters the pin, and no numpy BLAS call runs inside it.
    An OpenBLAS whose thread functions are not exported runs unpinned.
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

    The routine is the symbol ``scipy_<name>_`` of scipy's vendored OpenBLAS.
    Without that library it is read from the capsules that
    ``scipy.linalg.cython_lapack`` and ``cython_blas`` export, whose
    functions wrap the same symbols, so either way a call computes the same
    bits.  A ctypes call releases the GIL while the routine runs, which
    scipy's f2py wrappers do not, so two threads can factor and solve two
    arms at once.
    """
    types = {
        "c": ctypes.c_char_p,
        "i": ctypes.POINTER(ctypes.c_int),
        "d": ctypes.POINTER(ctypes.c_double),
        "p": ctypes.c_void_p,
    }
    prototype = ctypes.CFUNCTYPE(None, *(types[t] for t in _ROUTINES[name]))
    # getattr of None, or of a library without the symbol, gives the default
    symbol = getattr(_openblas(), f"scipy_{name}_", None)
    if symbol is not None:
        return prototype(ctypes.cast(symbol, ctypes.c_void_p).value)
    return prototype(_capsule(name))


def _capsule(name: str) -> int:
    """Address of routine ``name`` in the capsules of ``scipy.linalg``."""
    from scipy.linalg import cython_blas, cython_lapack

    module = cython_lapack if name in ("dpotrf", "dpbtrf") else cython_blas
    capsule = module.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    return get_pointer(capsule, get_name(capsule))


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
    m: int, n: int, k: int, alpha: float, a: tuple, b: tuple, c: tuple, *,
    trans_a: bytes = b"N", trans_b: bytes = b"N",
) -> None:
    """The m x n c := c + alpha op(a) op(b), k being the inner dimension; in place."""
    _routine("dgemm")(
        trans_a, trans_b, _int(m), _int(n), _int(k), _double(alpha),
        a[0], _int(a[1]), b[0], _int(b[1]), _double(1.0), c[0], _int(c[1]),
    )


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
    """Write normal[rows][:, cols] into ``out``, ranges of step 1 or -1; ``triangle`` -1: only i >= j."""
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
    factors the rows ab[: b + 1].  The head, if any, is the range of the h
    <= b positions eliminated first.  Its factor L = chol(its own block),
    lower, sits at L[i, j] = ab[i - j, j], flat offset i + j*ld, above the
    row b - j where band column j starts: ``l`` is that window, whose strict
    upper triangle aliases band entries, so only lower-triangle writes and
    routines touch it.  ``w`` = L^-1 C with C the head's coupling with the
    part's first h unknowns, and W^T W is subtracted from the band's first
    h x h corner before ``dpbtrf`` factors the part.

    The part's coupling with the separator sits in the separator's columns
    of ``ab``, rows k - s to k: by the band profile it is lower triangular
    in that s x s window, and it is overwritten by W_S = U_tri^-T C_S,
    U_tri the part factor's last triangle.  The upper triangle of the
    separator's own diagonal block receives -W_S^T W_S.
    """

    def __init__(self, positions: range, s: int, b: int, head: range | None = None):
        self.positions, self.s, self.b = positions, s, b
        self.k = len(positions) - s
        self.head = head
        self.w: np.ndarray | None = None
        self.nb = max(1, min(_BAND_BLOCK, b))
        self.ld = b + self.nb - 1
        self.ab = np.zeros((b + self.nb, len(positions)), order="F")
        flat = self.ab.reshape(-1, order="F")
        self.u = as_strided(flat[b:], shape=(len(positions),) * 2, strides=(8, 8 * self.ld))
        self.l = as_strided(flat, shape=(len(head),) * 2, strides=(8, 8 * self.ld)) if head else None
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
            h = len(self.head)
            _dense(normal, self.head, self.head, self.l, -1)
            info = _dpotrf(self.l, b"L")
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dpotrf info = {info}: a {h}-unknown head is not positive definite"
                )
            self.w = np.zeros((h, h), order="F")
            _dense(normal, self.head, self.positions[:h], self.w)
            _dtrsm(h, h, _at(self.l), _at(self.w), uplo=b"L")
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
        """The arm's half of U^T y = r, r C-ordered: the head, then the band part.

        The part's rows are solved in place where they are contiguous in
        ``r`` (an arm numbered forward), in a copy otherwise.  Returns the
        part's solution (C-ordered, one row per unknown) and the head's.
        """
        k, b, c = self.k, self.b, r.shape[1]
        x = np.ascontiguousarray(r[_slice(self.positions[:k])])
        xa = x.ctypes.data
        y = None
        if self.head:
            h = len(self.head)
            y = np.array(r[_slice(self.head)], order="F")
            _dtrsm(h, c, _at(self.l), _at(y), uplo=b"L")
            _dgemm(c, h, h, -1.0, _at(y), _at(self.w), _rows(xa, c, 0), trans_a=b"T")
        for s0, e in self.starts:
            lo, xs = max(0, s0 - b), _rows(xa, c, s0)
            if lo < s0:
                _dgemm(c, e - s0, s0 - lo, -1.0, _rows(xa, c, lo), self._u(lo, s0), xs)
            _dtrsm(c, e - s0, self._u(s0, s0), xs, side=b"R")
        return x, y

    def update(self, x: np.ndarray) -> np.ndarray:
        """-W_S^T times the last s rows of the part's solution ``x``, in band order."""
        k, s, c = self.k, self.s, x.shape[1]
        t = np.zeros((s, c))
        xa, ta, top = x.ctypes.data, t.ctypes.data, k - s
        for q0, q1 in _blocks(s, self.nb):
            w = self._u(top + q0, k + q0)
            _dgemm(c, q1 - q0, s - q0, -1.0, _rows(xa, c, top + q0), w, _rows(ta, c, q0))
        # numpy copies both operands of an in-place add into a view of step -1
        return t[:: self.positions.step]

    def backward(self, state: tuple, r: np.ndarray) -> None:
        """The arm's half of U x = y in the C-ordered block ``r``, which holds the separator's solution.

        ``state`` is what ``forward`` returned; the part's and the head's
        solutions are written to their rows of ``r``.
        """
        k, s, b, c = self.k, self.s, self.b, r.shape[1]
        x, y = state
        x_sep = np.ascontiguousarray(r[_slice(self.positions[k:])])
        xa, sa, top = x.ctypes.data, x_sep.ctypes.data, k - s
        for q0, q1 in _blocks(s, self.nb):
            w = self._u(top + q0, k + q0)
            _dgemm(c, s - q0, q1 - q0, -1.0, _rows(sa, c, q0), w, _rows(xa, c, top + q0), trans_b=b"T")
        for s0, e in reversed(self.starts):
            lo, xs = max(0, s0 - b), _rows(xa, c, s0)
            _dtrsm(c, e - s0, self._u(s0, s0), xs, side=b"R", trans=b"T")
            if lo < s0:
                _dgemm(c, s0 - lo, e - s0, -1.0, xs, self._u(lo, s0), _rows(xa, c, lo), trans_b=b"T")
        r[_slice(self.positions[:k])] = x  # no copy where x is a view of r
        if self.head:
            h = len(self.head)
            _dgemm(h, c, h, -1.0, _at(self.w), _rows(xa, c, 0), _at(y), trans_b=b"T")
            _dtrsm(h, c, _at(self.l), _at(y), uplo=b"L", trans=b"T")
            r[_slice(self.head)] = y


class BandCholesky:
    """Upper Cholesky factor of a band-ordered normal matrix; ``solve`` applies its inverse.

    Built from the n x n normal matrix (CSR) in ``band_order`` and its grid.
    Below ``_SPLIT_SLABS`` slabs the factor is one ``_Arm``, from there on
    two, with heads and separator of h = s = 2m unknowns, m per slab; the
    grid gives h and the half-bandwidth b (``_band``).  Each head's factor,
    stored as the lower L = U^T, sits in the unused top-left triangle of its
    own arm's band storage.  The right arm is numbered from the far end.
    Once both arms are factored (``workers.run``), the separator's block of the
    normal matrix is added to the left arm's update, then the right arm's,
    always in that order, and ``dpotrf`` factors the sum in the left arm's
    storage.  In the order (left arm, right arm, separator) the factor is
    upper triangular; a solve gives each arm all of the block's columns, so
    a column's bits do not depend on the number of workers.  A solve works
    in one copy of the block: the left arm and the separator in place, the
    right arm, numbered backwards, on a copy of its rows.

    The factor stores n - h band columns (the separator's once in each arm)
    of b + 1 entries over nb - 1 zeros, nb = min(``_BAND_BLOCK``, b), the
    heads' factors among them, and each arm's h x h coupling ``w`` (h = 0
    without the split); ``check_size`` counts them from the grid alone.  A
    normal matrix that reaches beyond b, a head, band part or separator that
    is not positive definite, or a factor that does not fit in memory raises
    SolverError, whichever worker meets it.
    """

    def __init__(self, normal: sp.csr_matrix, geometry: CylinderGeometry):
        try:
            with _one_blas_thread():
                self._build(normal, geometry)
        except (np.linalg.LinAlgError, MemoryError) as exc:
            # LAPACK reports a matrix that is not positive definite as LinAlgError
            raise SolverError(
                f"factorization of the {normal.shape[0]}-unknown normal matrix failed "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    def _build(self, normal: sp.csr_matrix, geometry: CylinderGeometry) -> None:
        """Lay the matrix out in arms of x' slabs and factor it."""
        slab = geometry.nt * (geometry.nx_n + 1)
        n = normal.shape[0]
        # the heads and the separator are two slabs each and come only together;
        # b >= h, the corner each head's update lands in
        h, b = _band(geometry)
        s, self.half_bandwidth = h, b
        # the band's lower triangle by rows is its upper triangle by columns
        sub = normal[h : n - h]
        rows = np.repeat(np.arange(h, n - h), np.diff(sub.indptr))
        cols = sub.indices.astype(np.intp)
        inner = (cols >= h) & (cols <= rows)
        cols, rows, values = cols[inner], rows[inner], sub.data[inner]
        del sub, inner
        # an entry beyond b would be lost from the band storage
        reach = int((rows - cols).max())
        if reach > b:
            raise SolverError(
                f"the normal matrix reaches {reach} off the diagonal, beyond the grid's "
                f"half-bandwidth {b}"
            )
        if s:
            start = (geometry.nx_prime - 2) // 2 * slab  # the separator's first unknown
            self.arms = [
                _Arm(range(h, start + s), s, b, range(h)),
                _Arm(range(n - h - 1, start - 1, -1), s, b, range(n - 1, n - h - 1, -1)),
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
        workers.run([functools.partial(arm.factor, normal) for arm in self.arms])
        if s:
            # the separator's block, minus the left arm's update, minus the
            # right arm's, whose order runs the other way
            u = left.u[left.k :, left.k :]
            u[i, j] += values
            right = self.arms[1].u[-s:, -s:][::-1, ::-1].T
            # only the upper triangle: the strict lower one of u aliases the band
            np.add(u, right, out=u, where=np.triu(np.ones((s, s), dtype=bool)))
            info = _dpotrf(u)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dpotrf info = {info}: the {s}-unknown separator is not positive definite"
                )
            self.u_sep = _at(u)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Apply the inverse to the columns of an n x k block, any k; C-ordered result."""
        with _one_blas_thread():
            x = np.array(r, dtype=np.float64, order="C")
            states = workers.run([functools.partial(arm.forward, x) for arm in self.arms])
            sep = _slice(self.sep)
            for arm, (part, _) in zip(self.arms, states):
                x[sep] += arm.update(part)
            if len(self.sep):
                xs = x[sep]  # a view: the solves run in place
                s, c = xs.shape
                _dtrsm(c, s, self.u_sep, _at(xs.T), side=b"R")
                _dtrsm(c, s, self.u_sep, _at(xs.T), side=b"R", trans=b"T")
            workers.run(
                [functools.partial(arm.backward, state, x) for arm, state in zip(self.arms, states)]
            )
            return x
