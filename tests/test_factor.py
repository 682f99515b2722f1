"""Tests for the band factor of the lateral normal matrix, through ``carleman_lab.factor``.

The layouts are checked on random, diagonally dominant SPD bands of
half-bandwidth two slabs, which every layout factors exactly and whose
condition number is small enough that a dense solve agrees to 1e-12.
"""

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded

from carleman_lab import factor, workers
from carleman_lab.errors import SolverError
from carleman_lab.geometry import CylinderGeometry, GammaSide


def _spd_band(n, b, seed):
    """LAPACK upper band storage of a random, diagonally dominant SPD band."""
    rng = np.random.default_rng(seed)
    ab = np.zeros((b + 1, n), order="F")
    ab[:b] = rng.uniform(-1.0, 1.0, (b, n))
    for i in range(b):  # entries above the first row of U do not exist
        ab[i, : b - i] = 0.0
    ab[b] = 2.0 * b + 1.0
    return ab


def _grid(slabs):
    """A grid of ``slabs`` x' slabs of nt * (nx_n + 1) = 30 unknowns each."""
    return CylinderGeometry(0.0, 1.0, 1.0, 1.0, GammaSide.HI, slabs, 5, 5)


def _band_matrix(g, seed):
    """The same kind of band as ``_spd_band``, two slabs wide, as a CSR matrix on ``g``."""
    m = g.nt * (g.nx_n + 1)
    n, b = g.nx_prime * m, 2 * m
    ab = _spd_band(n, b, seed)
    upper = sp.dia_matrix((ab, b - np.arange(b + 1)), shape=(n, n))
    return (upper + sp.triu(upper, 1).T).tocsr()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 700),
    b=st.integers(0, 400),
    k=st.sampled_from([1, 2, 17]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=700, b=300, k=17, seed=0)  # full windows, n not a multiple of the block
@example(n=500, b=factor._BAND_BLOCK // 2, k=2, seed=1)  # half-bandwidth below the block
@example(n=300, b=299, k=17, seed=2)  # a band as wide as the matrix
@example(n=40, b=90, k=2, seed=3)  # half-bandwidth above n - 1
def test_blocked_solve_matches_lapack(n, b, k, seed):
    # one arm with no heads and no separator: the band factor through the
    # binding, then the blocked forward and backward passes
    ab = _spd_band(n, b, seed)
    cb = cholesky_banded(ab)
    arm = factor._Arm(range(n), 0, b)
    arm.ab[: b + 1] = ab
    arm.factor(None)
    assert np.array_equal(arm.ab[: b + 1], cb)
    r = np.asfortranarray(np.random.default_rng(seed + 1).standard_normal((n, k)))
    got = r.copy(order="C")  # the passes work in place in a C-ordered block
    arm.backward(arm.forward(got), got)
    want = cho_solve_banded((cb, False), r)
    assert got.shape == (n, k)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("slabs", [9, 10, 13])
def test_band_cholesky_solves_a_band_in_either_layout(slabs):
    # one arm below ten slabs, two arms and a separator from ten on; the
    # grid gives the stored band, 3 * 30 + 2 * 6 = 102 below ten slabs,
    # which holds the two-slab band with zeros beyond it
    g = _grid(slabs)
    normal = _band_matrix(g, seed=slabs)
    chol = factor.BandCholesky(normal, g)
    assert chol.half_bandwidth == (60 if slabs >= factor._SPLIT_SLABS else 102)
    assert len(chol.arms) == (2 if slabs >= factor._SPLIT_SLABS else 1)
    r = np.asfortranarray(np.random.default_rng(slabs).standard_normal((normal.shape[0], 3)))
    got = chol.solve(r)
    want = np.linalg.solve(normal.toarray(), r)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_a_normal_matrix_wider_than_the_grids_band_raises_solver_error():
    # an entry beyond the grid's half-bandwidth would be lost from the band
    # storage, so the factor names both figures instead
    g = _grid(10)
    n, b = g.nx_prime * 30, 61
    upper = sp.dia_matrix((_spd_band(n, b, seed=0), b - np.arange(b + 1)), shape=(n, n))
    normal = (upper + sp.triu(upper, 1).T).tocsr()
    message = r"^the normal matrix reaches 61 off the diagonal, beyond the grid's half-bandwidth 60$"
    with pytest.raises(SolverError, match=message):
        factor.BandCholesky(normal, g)


def test_both_workers_solve_in_one_block_without_lost_writes(monkeypatch):
    # the arms write their own rows of one shared block at once; with thread
    # switches forced every microsecond, repeated solves keep every bit and
    # leave the right-hand sides as they were
    monkeypatch.setattr(workers, "count", lambda: 2)
    g = _grid(13)
    normal = _band_matrix(g, seed=4)
    r = np.random.default_rng(4).standard_normal((normal.shape[0], 5))
    untouched = r.copy()
    chol = factor.BandCholesky(normal, g)
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        first = chol.solve(r)
        for _ in range(20):
            assert np.array_equal(chol.solve(r), first)
    finally:
        sys.setswitchinterval(before)
    assert np.array_equal(r, untouched)
    want = np.linalg.solve(normal.toarray(), r)
    assert np.linalg.norm(first - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "slabs, negated, message",
    [(9, "matrix", r"dpbtrf info = 1: the band is not positive definite"),
     (10, "matrix", r"dpotrf info = 1: a 60-unknown head is not positive definite"),
     (10, "separator", r"dpotrf info = 1: the 60-unknown separator is not positive definite")],
    ids=["band", "head", "separator"],
)
def test_a_factor_that_is_not_positive_definite_raises_solver_error(slabs, negated, message):
    g = _grid(slabs)
    normal = _band_matrix(g, seed=0)
    n = normal.shape[0]
    if negated == "matrix":
        normal = -normal
    else:
        # the heads and both arms stay positive definite, so only the
        # separator's own factorization can fail
        sep = list(factor.BandCholesky(normal, g).sep)
        flip = np.zeros(n)
        flip[sep] = -2.0 * normal.diagonal()[sep]
        normal = (normal + sp.diags(flip)).tocsr()
    with pytest.raises(
        SolverError,
        match=rf"^factorization of the {n}-unknown normal matrix failed \(LinAlgError: {message}\)$",
    ):
        factor.BandCholesky(normal, g)


def test_the_capsule_binding_factors_and_solves_to_the_same_bits(monkeypatch):
    # without a vendored OpenBLAS every routine comes from scipy.linalg's
    # capsules, and the pin finds no thread functions: hold one BLAS thread
    # through the real ones meanwhile
    g = _grid(10)
    normal = _band_matrix(g, seed=2)
    r = np.random.default_rng(2).standard_normal((normal.shape[0], 3))
    vendored = factor.BandCholesky(normal, g)
    get, put = factor._openblas_threads()
    read = []

    def capsule(name, _original=factor._capsule):
        read.append(name)
        return _original(name)

    before = get()
    put(1)
    try:
        factor._routine.cache_clear()
        factor._openblas_threads.cache_clear()
        monkeypatch.setattr(factor, "_openblas", lambda: None)
        monkeypatch.setattr(factor, "_capsule", capsule)
        chol = factor.BandCholesky(normal, g)
        got = chol.solve(r)
        assert factor._openblas_threads() is None
    finally:
        monkeypatch.undo()
        factor._routine.cache_clear()
        factor._openblas_threads.cache_clear()
        put(before)
    assert sorted(read) == sorted(factor._ROUTINES)
    for arm, twin in zip(chol.arms, vendored.arms, strict=True):
        assert np.array_equal(arm.ab, twin.ab) and np.array_equal(arm.w, twin.w)
    assert np.array_equal(got, vendored.solve(r))


def test_the_blas_thread_pin_is_active():
    api = factor._openblas_threads()
    assert api is not None, "scipy's OpenBLAS exports no thread-count functions"
    get, put = api
    before = get()
    put(2)
    try:
        with factor._one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        put(before)


def test_the_factor_and_its_solves_run_on_one_blas_thread(monkeypatch):
    # every LAPACK and BLAS call, on either worker, sees one thread, and the
    # count is restored after the factor and after each solve
    get, put = factor._openblas_threads()
    seen = []
    for name in ("_dpotrf", "_dpbtrf", "_dtrsm", "_dsyrk", "_dgemm"):
        def recorded(*args, _original=getattr(factor, name), **kwargs):
            seen.append(get())
            return _original(*args, **kwargs)

        monkeypatch.setattr(factor, name, recorded)
    g = _grid(10)
    normal = _band_matrix(g, seed=1)
    before = get()
    put(2)
    try:
        chol = factor.BandCholesky(normal, g)
        assert get() == 2
        chol.solve(np.ones((normal.shape[0], 2), order="F"))
        assert get() == 2
    finally:
        put(before)
    assert seen and set(seen) == {1}
