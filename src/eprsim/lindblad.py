"""Two-mode dissipative dynamics with a correlated (pair-squeezed) bath.

The generator implemented here is, term for term,

    drho/dt =  G(N+1) sum_j (2 bj rho bj† - bj†bj rho - rho bj†bj)
             + G N     sum_j (2 bj† rho bj - bj bj† rho - rho bj bj†)
             + 2 G M (b1 rho b2 + b2 rho b1 - b1 b2 rho - rho b1 b2)
             + 2 G M (b1† rho b2† + b2† rho b1† - b1†b2† rho - rho b1†b2†)

with G the motional coupling rate and (N, M) the effective bath
parameters of the driving light.  The factor-of-2 convention is fixed by
the relaxation law <n_j>(t) = N (1 - exp(-2 G t)) from vacuum, which the
test suite enforces against closed forms and against the independent
Gaussian-covariance propagator.

An optional heating channel (thermal dissipator pair with occupation
n_th = 1, scaled by ``heating_rate``) models extraneous motional
decoherence; it is an add-on diagnostic, not part of the driven model.

The generator conserves the index difference
``delta = (m0 - n0) - (m1 - n1)`` of a matrix element
``<m0 m1| rho |n0 n1>``, and every state reachable from vacuum (and the
steady state itself) lives in the ``delta = 0`` sector.  Vacuum-start
integrations run on that sector, which cuts the unknown count from
``n_max**4`` to roughly ``n_max**3``.

The steady state is reduced further.  The generator has real
coefficients and treats the modes alike, so it commutes with the
Hermitian transpose T and the mode swap S; the steady state is real and
constant on the orbits of {1, T, S, TS}, about a quarter of the sector.
:func:`steady_state` solves for one value per orbit with one bordered
sparse LU and certifies the result on the unreduced space.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .hilbert import DensityMatrix, FockBasis
from .states import TruncationWarning

log = logging.getLogger(__name__)

STEADY_RESIDUAL_TOL = 1e-8
EVOLVE_RTOL = 1e-9
EVOLVE_ATOL = 1e-12


class NumericalError(RuntimeError):
    """A solver failed to reach its accuracy contract."""


@dataclass(frozen=True)
class LindbladModel:
    """Rates defining the two-mode master equation.

    gamma        : motional coupling rate (angular frequency units)
    n_param      : effective thermal occupation N of the driving bath
    m_param      : cross-mode correlation M, 0 <= M <= sqrt(N(N+1))
    heating_rate : optional extraneous heating channel rate (default 0)
    """

    gamma: float
    n_param: float
    m_param: float
    heating_rate: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "n_param", "m_param", "heating_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.n_param < 0:
            raise ValueError(f"n_param must be >= 0, got {self.n_param}")
        m_max = np.sqrt(self.n_param * (self.n_param + 1.0))
        if not 0 <= self.m_param <= m_max * (1 + 1e-12) + 1e-15:
            raise ValueError(
                f"m_param must satisfy 0 <= M <= sqrt(N(N+1)) = {m_max:.6g}, "
                f"got {self.m_param}"
            )
        if self.heating_rate < 0:
            raise ValueError(f"heating_rate must be >= 0, got {self.heating_rate}")


@dataclass(frozen=True)
class EvolutionResult:
    """Trajectory of density matrices with recorded second moments."""

    times: np.ndarray
    states: list[DensityMatrix]
    n1: np.ndarray        # <b1† b1>(t), real
    n2: np.ndarray        # <b2† b2>(t), real
    b1b2: np.ndarray      # <b1 b2>(t), complex


def _terms(model: LindbladModel, basis: FockBasis):
    """Generator as a list of (coeff, A, B) meaning sum coeff * A rho B.

    A and B are sparse (the ladder operators are banded); coefficients
    and matrix entries are real.
    """
    g, n_p, m_p, h = model.gamma, model.n_param, model.m_param, model.heating_rate
    ladder = sp.diags(np.sqrt(np.arange(1.0, basis.n_max)), 1, format="csr")
    eye_1 = sp.identity(basis.n_max, format="csr")
    b1 = sp.kron(ladder, eye_1, format="csr")
    b2 = sp.kron(eye_1, ladder, format="csr")
    b1d, b2d = b1.T.tocsr(), b2.T.tocsr()
    eye = sp.identity(basis.dimension, format="csr")
    terms = []

    def dissipator(rate, lop, lopd):
        # rate * (2 L rho L† - L†L rho - rho L†L)
        ldl = lopd @ lop
        terms.append((2.0 * rate, lop, lopd))
        terms.append((-rate, ldl, eye))
        terms.append((-rate, eye, ldl))

    for b, bd in ((b1, b1d), (b2, b2d)):
        dissipator(g * (n_p + 1.0), b, bd)
        dissipator(g * n_p, bd, b)
        if h > 0:
            dissipator(2.0 * h, b, bd)   # (n_th + 1) = 2
            dissipator(1.0 * h, bd, b)   # n_th = 1
    if m_p != 0:
        c = 2.0 * g * m_p
        pair = b1 @ b2
        paird = b1d @ b2d
        terms.append((c, b1, b2))
        terms.append((c, b2, b1))
        terms.append((-c, pair, eye))
        terms.append((-c, eye, pair))
        terms.append((c, b1d, b2d))
        terms.append((c, b2d, b1d))
        terms.append((-c, paird, eye))
        terms.append((-c, eye, paird))
    return terms


class Superoperator:
    """Linear map on vectorized (row-major) density matrices.

    Stores the generator as a list of left/right factor pairs; the sparse
    matrix ``kron(A, B.T)`` form is materialized on first access of
    :attr:`matrix` (cheap up to moderate ``n_max``; avoid for very large
    bases where :meth:`apply` suffices).
    """

    def __init__(self, basis: FockBasis, terms):
        self.basis = basis
        self.terms = terms

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        d = self.basis.dimension
        out = sp.csr_matrix((d * d, d * d))
        for coeff, a, b in self.terms:
            out = out + coeff * sp.kron(a, b.T, format="csr")
        return out

    def apply(self, rho_elements):
        """Generator applied to a (matrix-shaped) density operator.

        Takes a dense array or a sparse matrix and returns the same kind.
        """
        return sum(coeff * (a @ rho_elements @ b) for coeff, a, b in self.terms)

    def apply_to(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(self.basis, self.apply(rho.elements))


def build_superoperator(model: LindbladModel, basis: FockBasis) -> Superoperator:
    """Assemble the master-equation generator on a two-mode basis."""
    if basis.n_modes != 2:
        raise ValueError("the correlated-bath master equation is a two-mode model")
    return Superoperator(basis, _terms(model, basis))


# ---------------------------------------------------------------------------
# delta-sector machinery
# ---------------------------------------------------------------------------

def _sector_indices(basis: FockBasis) -> np.ndarray:
    """Sorted vec indices ``u * d + v`` of the conserved delta = 0 sector.

    Enumerated as (m0, m1, n0) with ``n1 = m1 - m0 + n0``, so the work and
    memory scale with the sector, not with the d*d vectorized space.
    """
    n, d = basis.n_max, basis.dimension
    m0, m1, n0 = np.indices((n, n, n)).reshape(3, -1)
    n1 = m1 - m0 + n0
    keep = (n1 >= 0) & (n1 < n)
    return ((m0 * n + m1) * d + n0 * n + n1)[keep]


def _position_map(basis: FockBasis, vec_indices, positions) -> np.ndarray:
    """Length-d*d map from vec index to ``positions`` (-1 elsewhere)."""
    out = np.full(basis.dimension**2, -1, dtype=np.int64)
    out[vec_indices] = positions
    return out


def _entries(indptr, keys):
    """Stored entries of the CSR rows (or CSC columns) ``keys``.

    Returns (owner, pos): ``pos`` indexes the matrix's ``indices``/``data``
    and ``owner`` is the position in ``keys`` each entry belongs to.
    """
    start = indptr[keys]
    counts = indptr[keys + 1] - start
    owner = np.repeat(np.arange(len(keys)), counts)
    pos = np.arange(owner.size) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    return owner, pos


def _sector_matrix(terms, basis: FockBasis, row_pos, col_pos, shape):
    """Generator restricted by two position maps, as sparse CSC.

    Keeps the rows whose vec index has ``row_pos >= 0`` and sums each
    column into ``col_pos`` of its vec index (entries at -1 drop out).
    Built generically from the (coeff, A, B) factor pairs: the superoperator
    entry ((u,v), (a,c)) of ``A rho B`` is ``A[u,a] * B[c,v]``, enumerated
    from the kept rows, so the work scales with their count.
    """
    d = basis.dimension
    tgt = np.nonzero(row_pos >= 0)[0]
    rows, cols, vals = [], [], []
    for coeff, a_mat, b_mat in terms:
        a_csr, b_csc = sp.csr_matrix(a_mat), sp.csc_matrix(b_mat)
        k, ia = _entries(a_csr.indptr, tgt // d)        # A[u, a]
        kb, ib = _entries(b_csc.indptr, tgt[k] % d)     # B[c, v]
        k, ia = k[kb], ia[kb]
        src = col_pos[a_csr.indices[ia] * d + b_csc.indices[ib]]
        keep = src >= 0
        rows.append(row_pos[tgt[k[keep]]])
        cols.append(src[keep])
        vals.append(coeff * a_csr.data[ia[keep]] * b_csc.data[ib[keep]])
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    )
    return mat.tocsc()


def _scatter(sector_vec, indices, basis: FockBasis) -> np.ndarray:
    d = basis.dimension
    full = np.zeros(d * d, dtype=complex)
    full[indices] = sector_vec
    return full.reshape(d, d)


def _orbits(indices, basis: FockBasis):
    """Orbit of each sector element under transpose T and mode swap S.

    T: (m0,m1;n0,n1) -> (n0,n1;m0,m1), S: (m0,m1;n0,n1) -> (m1,m0;n1,n0).
    Returns (orbit, reps): the orbit number of each entry of ``indices``
    and the sorted vec index of each orbit's representative (its smallest
    member), so the vacuum element |00><00| is orbit 0.
    """
    n, d = basis.n_max, basis.dimension
    u, v = indices // d, indices % d
    su, sv = (u % n) * n + u // n, (v % n) * n + v // n
    rep = np.minimum.reduce([indices, v * d + u, su * d + sv, sv * d + su])
    reps, orbit = np.unique(rep, return_inverse=True)
    return orbit, reps


def _top_level_population(rho: DensityMatrix) -> float:
    n = rho.basis.n_max
    pops = np.real(np.diag(rho.elements)).reshape(n, n)
    return float(pops[n - 1, :].sum() + pops[:, n - 1].sum() - pops[n - 1, n - 1])


def steady_state(
    model: LindbladModel,
    basis: FockBasis,
    residual_tol: float = STEADY_RESIDUAL_TOL,
) -> DensityMatrix:
    """Steady state of the master equation.

    One unknown per orbit of {1, T, S, TS} in the delta = 0 sector: rows are
    kept at the orbit representatives, columns summed over each orbit, and
    the vacuum row is replaced by the trace row (a diagonal orbit weighs its
    size).  One sparse LU solves this bordered system.  The full state is
    certified by the unreduced residual ``||L(rho)||_F < residual_tol``; a
    failed factorization or certification raises :class:`NumericalError`.
    """
    if basis.n_modes != 2:
        raise ValueError("the correlated-bath master equation is a two-mode model")
    # Every LindbladModel is symmetric between the modes (one gamma, one
    # heating_rate for both), so the mode-swap reduction always applies.
    t0 = time.perf_counter()
    d = basis.dimension
    terms = _terms(model, basis)
    indices = _sector_indices(basis)
    orbit, reps = _orbits(indices, basis)
    size = len(reps)
    col_pos = _position_map(basis, indices, orbit)
    # row 0 (the vacuum |00><00|) is left out and becomes the trace row
    row_pos = _position_map(basis, reps[1:], np.arange(1, size))
    diag = orbit[indices // d == indices % d]  # repeats sum to the orbit size
    trace_row = sp.csc_matrix((np.ones(len(diag)), (np.zeros_like(diag), diag)), (size, size))
    mat = _sector_matrix(terms, basis, row_pos, col_pos, (size, size)) + trace_row
    t1 = time.perf_counter()
    try:
        lu = spla.splu(mat, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # exactly singular factor
        raise NumericalError(f"steady-state factorization failed: {exc}") from exc
    rhs = np.zeros(size)
    rhs[0] = 1.0
    rho_sp = sp.csr_matrix((lu.solve(rhs)[orbit], (indices // d, indices % d)), (d, d))
    fill = lu.L.nnz + lu.U.nnz
    del lu  # release the factors before the dense state is built
    t2 = time.perf_counter()
    resid = float(spla.norm(Superoperator(basis, terms).apply(rho_sp)))
    t3 = time.perf_counter()
    log.info(
        "steady_state: sector %d, reduced %d, nnz %d, LU fill %d, residual %.3e; "
        "assemble %.3fs, factor %.3fs, certify %.3fs",
        len(indices), size, mat.nnz, fill, resid, t1 - t0, t2 - t1, t3 - t2,
    )
    if not resid < residual_tol:
        raise NumericalError(
            f"steady-state residual {resid:.3e} exceeds tolerance {residual_tol:.0e}"
        )

    rho = DensityMatrix(basis, rho_sp.toarray())
    pop = _top_level_population(rho)
    if pop > 1e-4:
        warnings.warn(
            f"steady_state: top Fock level holds population {pop:.2e}; "
            "increase n_max",
            TruncationWarning,
            stacklevel=2,
        )
    return rho


def evolve(rho0: DensityMatrix, model: LindbladModel, times) -> EvolutionResult:
    """Integrate the master equation through the given (increasing) times.

    ``rho0`` is the state at ``times[0]``.  Uses adaptive high-order
    explicit stepping at rtol 1e-9 on the vectorized state; the relevant
    eigenvalues scale like gamma * O(n_max), which is mild stiffness.
    States whose support lies in the conserved sector (e.g. vacuum or any
    number-diagonal-correlated start) are integrated on the sector alone.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    basis = rho0.basis
    if basis.n_modes != 2:
        raise ValueError("the correlated-bath master equation is a two-mode model")
    rho0.validate()

    if len(times) == 1:
        states = [rho0]
        return _with_moments(times, states, basis)

    terms = _terms(model, basis)
    indices = _sector_indices(basis)
    vec0 = rho0.elements.reshape(-1)
    outside = np.delete(vec0, indices)
    in_sector = not outside.size or float(np.max(np.abs(outside))) < 1e-15

    if in_sector:
        size = len(indices)
        positions = _position_map(basis, indices, np.arange(size))
        mat = _sector_matrix(terms, basis, positions, positions, (size, size))
        y0 = vec0[indices]
    else:
        mat = Superoperator(basis, terms).matrix
        y0 = vec0

    sol = solve_ivp(
        lambda _, y: mat @ y,
        (times[0], times[-1]),
        y0.astype(complex),
        method="DOP853",
        rtol=EVOLVE_RTOL,
        atol=EVOLVE_ATOL,
        t_eval=times,
    )
    if not sol.success:
        raise NumericalError(f"integrator failed: {sol.message}")

    states = []
    for k in range(sol.y.shape[1]):
        if in_sector:
            el = _scatter(sol.y[:, k], indices, basis)
        else:
            el = sol.y[:, k].reshape(basis.dimension, basis.dimension)
        el = (el + el.conj().T) / 2.0
        states.append(DensityMatrix(basis, el))
    return _with_moments(times, states, basis)


def _with_moments(times, states, basis: FockBasis) -> EvolutionResult:
    n = basis.n_max
    diag_n = np.arange(n, dtype=float)
    n1_op = np.kron(np.diag(diag_n), np.eye(n))
    n2_op = np.kron(np.eye(n), np.diag(diag_n))
    b = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
    b1b2 = np.kron(b, b)
    n1 = np.array([np.sum(s.elements * n1_op.T).real for s in states])
    n2 = np.array([np.sum(s.elements * n2_op.T).real for s in states])
    cross = np.array([complex(np.sum(s.elements * b1b2.T)) for s in states])
    return EvolutionResult(np.asarray(times, float), states, n1, n2, cross)


def purity(rho: DensityMatrix) -> float:
    """``trace(rho @ rho)`` — 1 for pure states, 1/d for maximally mixed."""
    el = rho.elements
    return float(np.sum(el * el.T).real)
