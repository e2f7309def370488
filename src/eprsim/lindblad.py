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
steady state itself) lives in the ``delta = 0`` sector, which has about
``n_max**3`` of the ``n_max**4`` unknowns.  The generator also has real
coefficients and treats the modes alike, so it commutes with the
Hermitian transpose T and the mode swap S.  A real state that is
constant on the orbits of {1, T, S, TS} stays so, and the orbits number
about a quarter of the sector.  Every term changes the total excitation
``m0 + m1 + n0 + n1`` by 0 or +-2, so ordered by the level (half that
sum) the orbit-space generator is block tridiagonal.  The generator is
held as the sparse factor pairs of :func:`_terms` (no d**2 x d**2
matrix is formed), and both solvers work on these orbits, with one
assembler (:func:`_sector_matrix`):

* :func:`steady_state` solves for one value per orbit by block
  elimination over the levels (dense blocks of at most a few hundred
  orbits) and certifies the result on the unreduced space;
* :func:`evolve` propagates one real value per orbit with
  ``expm_multiply`` from the vacuum, where the atoms start.

States come out as sparse :class:`~eprsim.hilbert.DensityMatrix` values.
The solvers scatter their solution into a sparse matrix of the sector
entries, and the positions of vec indices are looked up by
``searchsorted`` on the sorted sector indices, so no array of the d**2
vectorized entries is made.  :func:`moments` gives the second moments
and purity that the CLI and the acceptance criteria read off each state,
summed over stored entries only.

Only ``scipy.sparse`` is imported with the module: :func:`steady_state`
needs nothing else, and :func:`evolve` imports ``scipy.sparse.linalg``
for ``expm_multiply`` when it runs.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hilbert import DensityMatrix, FockBasis, NumericalError, TruncationWarning
from .states import TRUNCATION_POP_WARN, edge_population

log = logging.getLogger(__name__)

STEADY_RESIDUAL_TOL = 1e-8


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
    """Trajectory of density matrices with the :func:`moments` of each."""

    times: np.ndarray
    states: list[DensityMatrix]
    n1: np.ndarray          # <b1† b1>(t), real
    n2: np.ndarray          # <b2† b2>(t), real
    b1b2: np.ndarray        # <b1 b2>(t), complex
    var_sum_q: np.ndarray   # Var(Q1 + Q2)(t)
    var_diff_p: np.ndarray  # Var(P1 - P2)(t)
    purity: np.ndarray      # tr(rho(t)^2)


def _ladders(basis: FockBasis):
    """Sparse real annihilation operators (b1, b2) of a two-mode basis."""
    ladder = sp.diags(np.sqrt(np.arange(1.0, basis.n_max)), 1, format="csr")
    eye_1 = sp.identity(basis.n_max, format="csr")
    return sp.kron(ladder, eye_1, format="csr"), sp.kron(eye_1, ladder, format="csr")


def _terms(model: LindbladModel, basis: FockBasis):
    """Generator as a list of (coeff, A, B) meaning sum coeff * A rho B.

    A and B are sparse (the ladder operators are banded); coefficients
    and matrix entries are real.
    """
    g, n_p, m_p, h = model.gamma, model.n_param, model.m_param, model.heating_rate
    b1, b2 = _ladders(basis)
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


def _lookup(keys, values, wanted) -> np.ndarray:
    """``values`` at the position of each ``wanted`` in the sorted ``keys`` (-1 if absent)."""
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, values[at], -1)


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


def _sector_matrix(terms, basis: FockBasis, tgt, row_pos, members, col_pos, shape):
    """Generator restricted to given rows and summed into given columns, as CSC.

    Keeps the rows at the sorted vec indices ``tgt``, as matrix rows
    ``row_pos``, and sums each column at a sorted vec index ``members`` into
    matrix column ``col_pos`` (columns elsewhere drop out; lookups are
    ``searchsorted``, so nothing is allocated per vec index).  Built
    generically from the (coeff, A, B) factor pairs: the superoperator entry
    ((u,v), (a,c)) of ``A rho B`` is ``A[u,a] * B[c,v]``, enumerated from the
    kept rows, so the work scales with their count.
    """
    d = basis.dimension
    rows, cols, vals = [], [], []
    for coeff, a_mat, b_mat in terms:
        a_csr, b_csc = sp.csr_matrix(a_mat), sp.csc_matrix(b_mat)
        k, ia = _entries(a_csr.indptr, tgt // d)        # A[u, a]
        kb, ib = _entries(b_csc.indptr, tgt[k] % d)     # B[c, v]
        k, ia = k[kb], ia[kb]
        src = _lookup(members, col_pos, a_csr.indices[ia] * d + b_csc.indices[ib])
        keep = src >= 0
        rows.append(row_pos[k[keep]])
        cols.append(src[keep])
        vals.append(coeff * a_csr.data[ia[keep]] * b_csc.data[ib[keep]])
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    )
    return mat.tocsc()


def _level(vec_indices, basis: FockBasis) -> np.ndarray:
    """Excitation level ``(m0 + m1 + n0 + n1) // 2`` of each vec index.

    In the delta = 0 sector the sum is even, T and S keep it, and every
    generator term moves it by 0 or +-2, i.e. the level by 0 or +-1.
    """
    n, d = basis.n_max, basis.dimension
    u, v = vec_indices // d, vec_indices % d
    return (u // n + u % n + v // n + v % n) // 2


def _orbits(indices, basis: FockBasis):
    """Orbit of each sector element under transpose T and mode swap S.

    T: (m0,m1;n0,n1) -> (n0,n1;m0,m1), S: (m0,m1;n0,n1) -> (m1,m0;n1,n0).
    Returns (orbit, reps): the orbit number of each entry of ``indices``
    and the vec index of each orbit's representative (its smallest member).
    Orbits are ordered by :func:`_level`, then by representative, so each
    level is a contiguous range and the vacuum |00><00|, alone on level 0,
    is orbit 0.
    """
    n, d = basis.n_max, basis.dimension
    u, v = indices // d, indices % d
    su, sv = (u % n) * n + u // n, (v % n) * n + v // n
    rep = np.minimum.reduce([indices, v * d + u, su * d + sv, sv * d + su])
    keys, orbit = np.unique(_level(rep, basis) * d * d + rep, return_inverse=True)
    return orbit, keys % (d * d)


def _orbit_system(terms, basis: FockBasis, first_row: int):
    """The generator on the orbits of :func:`_orbits`, as CSR.

    Rows are kept at the representatives of orbits ``first_row`` and up
    (the vacuum's row is empty for ``first_row = 1``) and columns are summed
    over each orbit.  Returns (indices, orbit, reps, mat): the sector's vec
    indices, the orbit of each, each orbit's representative and the matrix.
    """
    indices = _sector_indices(basis)
    orbit, reps = _orbits(indices, basis)
    kept = np.argsort(reps[first_row:]) + first_row
    size = len(reps)
    mat = _sector_matrix(terms, basis, reps[kept], kept, indices, orbit, (size, size))
    return indices, orbit, reps, mat.tocsr()


def _eliminate_levels(mat, bounds):
    """Solve the steady-state equations level by level (block Thomas).

    ``mat`` (CSR) holds the generator on the orbits, with level ``l`` at
    orbits ``bounds[l]:bounds[l + 1]``; it is block tridiagonal over the
    levels, with blocks ``Lo_l``, ``D_l``, ``Up_l`` coupling level ``l`` to
    ``l - 1``, ``l``, ``l + 1``.  The vacuum (level 0) is pinned to 1 and
    its row, dependent because the trace is preserved, is not used.  For
    ``l = 1, 2, ...`` the dense Schur block ``S_l = D_l - Lo_l X_{l-1}``
    gives ``[X_l | y_l] = S_l^{-1} [Up_l | -Lo_l y_{l-1}]``, and back
    substitution ``x_l = y_l - X_l x_{l+1}`` the unnormalized solution.
    Returns it with the number of stored entries of the ``[X_l | y_l]``.
    """
    size = mat.shape[0]
    levels = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])] + [slice(size, size)]
    kept = []
    x_block, y = np.zeros((1, bounds[2] - bounds[1])), np.ones(1)  # X_0, y_0
    for lv in range(1, len(levels) - 1):
        rows = levels[lv]
        lower = mat[rows, levels[lv - 1]]
        schur = mat[rows, rows].toarray() - lower @ x_block
        rhs = np.column_stack([mat[rows, levels[lv + 1]].toarray(), -(lower @ y)])
        sol = np.linalg.solve(schur, rhs)
        x_block, y = sol[:, :-1], sol[:, -1]
        kept.append(sol)
    x = [y]
    for sol in reversed(kept[:-1]):
        x.append(sol[:, -1] - sol[:, :-1] @ x[-1])
    return np.concatenate([[1.0], *reversed(x)]), sum(sol.size for sol in kept)


def steady_state(model: LindbladModel, basis: FockBasis) -> DensityMatrix:
    """Steady state of the master equation.

    One unknown per orbit of {1, T, S, TS} in the delta = 0 sector: rows are
    kept at the orbit representatives and columns summed over each orbit.
    Ordered by excitation level, this system is block tridiagonal, and
    :func:`_eliminate_levels` solves it with dense level blocks and the
    vacuum pinned; the result is then divided by its trace and scattered
    into a sparse matrix of the sector entries, which is returned as is.
    The full state is certified by the unreduced residual
    ``||L(rho)||_F < STEADY_RESIDUAL_TOL``, the norm of the stored entries of
    L(rho) summed term by term from :func:`_terms` (so not by the assembler
    that built the solved system); a singular level block or a failed
    certification raises :class:`NumericalError`.  A
    :class:`~eprsim.hilbert.TruncationWarning` is emitted when the top Fock
    level holds more than :data:`~eprsim.states.TRUNCATION_POP_WARN` of the
    population.
    """
    # Every LindbladModel is symmetric between the modes (one gamma, one
    # heating_rate for both), so the mode-swap reduction always applies.
    t0 = time.perf_counter()
    d = basis.dimension
    terms = _terms(model, basis)
    indices, orbit, reps, mat = _orbit_system(terms, basis, first_row=1)
    size = len(reps)
    bounds = np.r_[0, np.cumsum(np.bincount(_level(reps, basis)))]
    t1 = time.perf_counter()
    try:
        x, stored = _eliminate_levels(mat, bounds)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady-state level elimination failed: {exc}") from exc
    diag = orbit[indices // d == indices % d]  # repeats sum to the orbit size
    rho_sp = sp.csr_matrix((x[orbit] / x[diag].sum(), (indices // d, indices % d)), (d, d))
    t2 = time.perf_counter()
    resid_mat = sum(coeff * (a @ rho_sp @ b) for coeff, a, b in terms)
    resid_mat.sum_duplicates()
    resid = float(np.linalg.norm(resid_mat.data))
    t3 = time.perf_counter()
    log.info(
        "steady_state: level elimination, sector %d, reduced %d, nnz %d, levels %d, "
        "largest level %d, stored %d, residual %.3e; assemble %.3fs, eliminate %.3fs, "
        "certify %.3fs",
        len(indices), size, mat.nnz, len(bounds) - 1, np.diff(bounds).max(), stored,
        resid, t1 - t0, t2 - t1, t3 - t2,
    )
    if not resid < STEADY_RESIDUAL_TOL:
        raise NumericalError(
            f"steady-state residual {resid:.3e} exceeds tolerance {STEADY_RESIDUAL_TOL:.0e}"
        )

    rho = DensityMatrix(basis, rho_sp)
    pop = edge_population(rho, fraction=0.0)  # the top level alone
    if pop > TRUNCATION_POP_WARN:
        warnings.warn(
            f"steady_state: top Fock level holds population {pop:.2e}; "
            "increase n_max",
            TruncationWarning,
            stacklevel=2,
        )
    return rho


def evolve(model: LindbladModel, basis: FockBasis, times) -> EvolutionResult:
    """Relax the vacuum |00><00| through ``times``.

    The vacuum is the state at ``times[0]``, and ``times`` must be strictly
    increasing and exactly ``np.linspace(times[0], times[-1], len(times))``.
    The vacuum is real and alone in its {1, T, S, TS} orbit (orbit 0), and
    the generator keeps a state real and constant on the orbits, so one real
    value per orbit is propagated, with the matrix :func:`steady_state`
    eliminates plus its vacuum row.  The generator does not depend on time,
    so the propagation is one ``expm_multiply`` call over the grid (Al-Mohy &
    Higham 2011) at its double-precision tolerance; a single time gives the
    vacuum alone.  The returned states are sparse, real and exactly
    symmetric.  A propagation that overflows raises
    :class:`~eprsim.hilbert.NumericalError`.
    """
    from scipy.sparse.linalg import expm_multiply

    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if not np.array_equal(times, np.linspace(times[0], times[-1], len(times))):
        raise ValueError("times must be the uniform grid np.linspace(times[0], times[-1], n)")

    t0 = time.perf_counter()
    d = basis.dimension
    indices, orbit, reps, mat = _orbit_system(_terms(model, basis), basis, first_row=0)
    vec = np.zeros(len(reps))
    vec[0] = 1.0  # the vacuum
    t1 = time.perf_counter()
    # expm_multiply picks its step count from estimated norms of powers of
    # L t; where those overflow (gamma ~ 1e40 and up) it would fail on a
    # NaN count, so the first overflow is raised as a numerical failure.
    with np.errstate(over="raise", invalid="raise"):
        try:
            vecs = [vec] if len(times) == 1 else expm_multiply(
                mat, vec, start=0.0, stop=times[-1] - times[0], num=len(times), endpoint=True)
        except FloatingPointError as exc:
            raise NumericalError(f"evolve: propagation overflowed ({exc})") from exc
    t2 = time.perf_counter()
    log.info(
        "evolve: orbits path, %d unknowns, nnz %d; assemble %.3fs, propagate %.3fs",
        len(reps), mat.nnz, t1 - t0, t2 - t1,
    )
    rows, cols = indices // d, indices % d
    states = [DensityMatrix(basis, sp.csr_matrix((vec[orbit], (rows, cols)), (d, d)))
              for vec in vecs]
    return EvolutionResult(times, states, **moments(states))


def moments(states) -> dict[str, np.ndarray]:
    """Second moments and purity of each two-mode density matrix in ``states``.

    Returns arrays ``n1``, ``n2`` (real), ``b1b2`` (complex ``<b1 b2>``),
    ``var_sum_q`` = Var(Q1 + Q2), ``var_diff_p`` = Var(P1 - P2) and
    ``purity``, with ``Q = b + b†`` and ``P = -i(b - b†)`` on the truncated
    basis (vacuum variance 1 per mode).  Each ``tr(rho O)`` is summed over
    the nonzero entries of the sparse operator ``O`` only.
    """
    b1, b2 = _ladders(states[0].basis)
    q_sum = b1 + b1.T + b2 + b2.T
    p_diff = -1j * (b1 - b1.T) + 1j * (b2 - b2.T)
    ops = {"n1": b1.T @ b1, "n2": b2.T @ b2, "b1b2": b1 @ b2,
           "q": q_sum, "q2": q_sum @ q_sum, "p": p_diff, "p2": p_diff @ p_diff}
    values = {}
    for key, op in ops.items():
        op = op.tocoo()
        values[key] = np.array([np.sum(op.data * _stored_at(s.matrix, op.col, op.row))
                                for s in states])
    return {
        "n1": values["n1"].real,
        "n2": values["n2"].real,
        "b1b2": values["b1b2"],
        "var_sum_q": values["q2"].real - values["q"].real ** 2,
        "var_diff_p": values["p2"].real - values["p"].real ** 2,
        "purity": np.array([purity(s) for s in states]),
    }


def purity(rho: DensityMatrix) -> float:
    """``trace(rho @ rho)`` — 1 for pure states, 1/d for maximally mixed.

    Summed over the stored entries of rho only.
    """
    coo = rho.matrix.tocoo()
    return float(np.sum(coo.data * _stored_at(rho.matrix, coo.col, coo.row)).real)


def _stored_at(mat, rows, cols) -> np.ndarray:
    """Entries ``mat[rows[k], cols[k]]`` of a sparse matrix (0 where none is stored)."""
    return np.asarray(mat[rows, cols]).ravel()
