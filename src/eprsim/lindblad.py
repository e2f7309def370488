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
held as the factor pairs of :func:`_terms` (no d**2 x d**2 matrix is
formed).  Each factor is a numpy ladder monomial, a shift per mode and a
weight per basis state, so it has at most one entry per row.  Both
solvers work on the orbits, with one assembler (:func:`_sector_matrix`,
which returns COO triplets):

* :func:`steady_state` solves for one value per orbit by block
  elimination over the levels.  It keeps the inverse of each level's dense
  Schur block (at most a few hundred orbits at n_max 40), built by a block
  recursion that is mostly matrix products (:func:`_inverse`); the
  couplings between levels have a few entries per row and per column, so
  each Schur update is row gathers of the inverse above (:func:`_coupled`).
  It solves by products with those inverses and refines the result with
  one more sweep through them; a singular or non-finite inverse raises
  :class:`NumericalError`, and the result is certified on the unreduced
  sector, term by term;
* :func:`evolve` propagates one real value per orbit from the vacuum,
  where the atoms start, with an Arnoldi (Krylov) basis of the orbit
  matrix and a Pade exponential of its small Hessenberg matrix
  (:func:`_krylov_propagate`, :func:`_expm`).

States come out as :class:`~eprsim.hilbert.DensityMatrix` values: the
sorted vec indices of the sector entries and their values.  A sector entry
is fixed by (m0, m1, n0), so positions of vec indices are read from one
(n_max, n_max, n_max) table (:func:`_position_table`), and no array of the
d**2 vectorized entries is made.  :func:`moments` is the one
routine for the Fock-route numbers that the CLI and the acceptance
criteria read off a state (mean phonon numbers, second moments and
purity); it builds its operators from the same ladder monomials as the
generator and reads rho at the stored entries only.

The module is numpy only.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityMatrix, FockBasis, NumericalError, TruncationWarning, _lookup
from .states import TRUNCATION_POP_WARN, edge_population

log = logging.getLogger(__name__)

STEADY_RESIDUAL_TOL = 1e-8

# Budgets that steady_state checks before it allocates: the bytes of the
# level inverses, 8 * sum n_l**2, and the elimination's work, sum n_l**3,
# over the orbit counts n_l of the levels (:func:`_level_sizes`).  n_max 80
# needs 0.65 GiB and 1.0e11 (6-8 s at one BLAS thread on a 2-core x86-64
# host), n_max 100, the largest that passes, 1.96 GiB and 4.8e11, and
# n_max 130 would need 7.2 GiB, near all the memory of an 8 GB host.
_STEADY_STORE_BUDGET = 2 * 2**30
_STEADY_WORK_BUDGET = 5e11

# The largest block that steady_state's block-recursive inverse
# (:func:`_inverse`) hands to np.linalg.inv.
_INVERSE_LEAF = 64

# Bound on ||L||_1 * (t_end - t_0) * nnz for one evolve call: the span
# ||L||_1 * (t_end - t_0) sets how many Krylov vectors and restarts the
# propagation needs, and the orbit matrix's nnz the cost of each vector.
# The shipped config needs 6.3e7 and the tests, demos and benchmark seeds at
# most 6.6e7; eps 0.3 at n_max 40 out to t = 31 needs 6.8e9, and gamma 1e6
# on a 6-level basis 3.6e11.
_EVOLVE_WORK_BUDGET = 1e9

# evolve's Krylov propagation (see _krylov_propagate): the a-posteriori
# estimate that certifies a step, the first basis size (each growth doubles
# it) and the cap.  A restart starts from a state that carries rounding
# error, which the propagator's transient growth then amplifies; the shipped
# config needs 224 vectors for its whole grid, so at 256 it needs no restart.
_KRYLOV_TOL = 1e-14
_KRYLOV_FIRST = 16
_KRYLOV_CAP = 256


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


def _shifted(weight, shift, basis: FockBasis) -> np.ndarray:
    """``weight`` at the state ``u + shift`` of each basis state u (0 outside the box)."""
    n = basis.n_max
    (s0, s1), w = shift, np.reshape(weight, (n, n))
    out = np.zeros_like(w)  # the slices below need |s0|, |s1| <= n; shifts here are <= 2
    out[max(-s0, 0):n - max(s0, 0), max(-s1, 0):n - max(s1, 0)] = (
        w[max(s0, 0):n - max(-s0, 0), max(s1, 0):n - max(-s1, 0)])
    return out.ravel()


def _flat(shift, basis: FockBasis) -> int:
    """The change of the composite index under a per-mode ``shift`` inside the box."""
    return shift[0] * basis.n_max + shift[1]


def _ladder(mode: int, basis: FockBasis):
    """The annihilation operator of mode 0 or 1 as a ladder monomial (see :func:`_terms`)."""
    m = np.divmod(np.arange(basis.dimension), basis.n_max)[mode]
    return (1 - mode, mode), np.sqrt(np.where(m < basis.n_max - 1, m + 1.0, 0.0))


def _product(a, b, basis: FockBasis):
    """The monomial ``A B``: ``(A B)[u, u + sa + sb] = A[u, u + sa] * B[u + sa, u + sa + sb]``."""
    (sa, wa), (sb, wb) = a, b
    return (sa[0] + sb[0], sa[1] + sb[1]), wa * _shifted(wb, sa, basis)


def _adjoint(a, basis: FockBasis):
    """The monomial ``A†``: ``A†[u, u - sa] = A[u - sa, u]``."""
    (s0, s1), wa = a
    return (-s0, -s1), _shifted(wa, (-s0, -s1), basis)


def _terms(model: LindbladModel, basis: FockBasis):
    """Generator as a list of (coeff, A, B) meaning sum coeff * A rho B.

    A and B are ladder monomials ``(shift, weight)``: row u of the operator
    holds ``weight[u]`` in the column of the state ``u + shift`` (a shift
    per mode), and a zero weight leaves the row empty.  Products and
    adjoints of monomials are monomials; coefficients and weights are real.
    """
    g, n_p, m_p, h = model.gamma, model.n_param, model.m_param, model.heating_rate
    b1, b2 = _ladder(0, basis), _ladder(1, basis)
    b1d, b2d = _adjoint(b1, basis), _adjoint(b2, basis)
    eye = ((0, 0), np.ones(basis.dimension))
    terms = []

    def dissipator(rate, lop, lopd):
        # rate * (2 L rho L† - L†L rho - rho L†L)
        ldl = _product(lopd, lop, basis)
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
        pair = _product(b1, b2, basis)
        paird = _product(b1d, b2d, basis)
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


def _position_table(members, positions, basis: FockBasis) -> np.ndarray:
    """``positions`` laid out by the sector vec indices ``members``, -1 elsewhere.

    A sector entry ``<m0 m1| rho |n0 n1>`` has ``n1 = m1 - m0 + n0``, so the
    (n_max, n_max, n_max) table indexed by (m0, m1, n0) has a place for each;
    read it with :func:`_find`, or flat at ``u * n_max + v // n_max`` for a
    sector entry at vec index ``u * d + v``.
    """
    n, d = basis.n_max, basis.dimension
    table = np.full((n, n, n), -1, dtype=np.intp)
    u, v = np.divmod(members, d)
    table.reshape(-1)[u * n + v // n] = positions
    return table


def _find(table, wanted, basis: FockBasis) -> np.ndarray:
    """The entry of :func:`_position_table`'s ``table`` at each vec index ``wanted``.

    -1 where ``wanted`` is outside the d x d matrix, outside the sector or
    not a member, so it equals ``hilbert._lookup(members, positions,
    wanted)`` for any integer ``wanted``; one pass, with no search.
    """
    n, d = basis.n_max, basis.dimension
    u, v = np.divmod(wanted, d)
    inside = (u >= 0) & (u < d)
    u = np.where(inside, u, 0)
    offset = np.arange(d) % n - np.arange(d) // n  # m1 - m0 of a row, n1 - n0 of a column
    inside &= offset[u] == offset[v]
    return np.where(inside, table.reshape(-1)[u * n + v // n], -1)


def _sector_matrix(terms, basis: FockBasis, tgt, row_pos, members, col_pos):
    """Generator restricted to given rows and summed into given columns, as COO triplets.

    Keeps the rows at the sorted vec indices ``tgt``, as matrix rows
    ``row_pos``, and sums each column at a sorted vec index ``members`` into
    matrix column ``col_pos`` (columns elsewhere drop out; ``members`` lie in
    the sector, and each term's columns are read from their
    :func:`_position_table` in one pass).  Built
    generically from the (coeff, A, B) monomial pairs: the superoperator
    entry ((u,v), (a,c)) of ``A rho B`` is ``A[u,a] * B[c,v]``, and a
    monomial has at most one entry per row and per column, so each kept row
    gives at most one entry per term.  Returns (rows, cols, vals): term by
    term, in the order of ``tgt`` within a term, with repeated (row, col)
    pairs not summed.
    """
    d = basis.dimension
    u, v = np.divmod(tgt, d)
    table = _position_table(members, col_pos, basis)
    rows, cols, vals = [], [], []
    for coeff, (sa, wa), (sb, wb) in terms:
        a_w = wa[u]                                              # A[u, u + sa]
        b_w = _shifted(wb, (-sb[0], -sb[1]), basis)[v]           # B[v - sb, v]
        src = _find(table, (u + _flat(sa, basis)) * d + v - _flat(sb, basis), basis)
        keep = (a_w != 0) & (b_w != 0) & (src >= 0)
        rows.append(row_pos[keep])
        cols.append(src[keep])
        vals.append(coeff * a_w[keep] * b_w[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _sector_residual(terms, basis: FockBasis, indices, values) -> np.ndarray:
    """L(rho) at the sorted sector vec ``indices``, for rho holding ``values`` there.

    Pushes each stored entry through the terms on its own, not through the
    assembler :func:`_sector_matrix`: ``A rho B`` takes the entry at (u, v)
    to (u - sa, v + sb) with the weight ``A[u - sa, u] * B[v, v + sb]``.
    Terms with the same shift pair (sa, sb) move every entry alike, so
    their weights are summed first (the 32 terms of a heated model have 13
    pairs) and each pair is scattered once.  The generator keeps the
    sector, so every target is one of ``indices``, and no two entries of
    one pair share a target, which is found in the :func:`_position_table`
    of ``indices``.
    """
    n, d = basis.n_max, basis.dimension
    u, v = np.divmod(indices, d)
    table = _position_table(indices, np.arange(len(indices)), basis).reshape(-1)
    pairs = {}  # (sa, sb) -> the (coeff, wa, wb) of its terms
    for coeff, (sa, wa), (sb, wb) in terms:
        pairs.setdefault((sa, sb), []).append((coeff, wa, wb))
    out = np.zeros(len(indices))
    for (sa, sb), group in pairs.items():
        w = sum(coeff * _shifted(wa, (-sa[0], -sa[1]), basis)[u] * wb[v] for coeff, wa, wb in group)
        keep = w != 0  # every entry a term moves out of the box has a zero weight
        tgt = (u[keep] - _flat(sa, basis)) * n + (v[keep] + _flat(sb, basis)) // n  # (m0, m1, n0)
        out[table[tgt]] += w[keep] * values[keep]
    return out


def _level(vec_indices, basis: FockBasis) -> np.ndarray:
    """Excitation level ``(m0 + m1 + n0 + n1) // 2`` of each vec index.

    In the delta = 0 sector the sum is even, T and S keep it, and every
    generator term moves it by 0 or +-2, i.e. the level by 0 or +-1.
    """
    n, d = basis.n_max, basis.dimension
    u, v = vec_indices // d, vec_indices % d
    return (u // n + u % n + v // n + v % n) // 2


def _level_sizes(n_max: int) -> np.ndarray:
    """The number of orbits of :func:`_orbits` on each level, in closed form.

    Level ``l`` of ``0 .. 2 n_max - 2`` holds ``(c**2 + 2 c + [l even]) // 4``
    orbits, with ``c = min(l, 2 n_max - 2 - l) + 1``; nothing is enumerated.
    """
    lv = np.arange(2 * n_max - 1)
    c = np.minimum(lv, 2 * n_max - 2 - lv) + 1
    return (c * c + 2 * c + (lv % 2 == 0)) // 4


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
    """The generator on the orbits of :func:`_orbits`, as COO triplets.

    Rows are kept at the representatives of orbits ``first_row`` and up
    (the vacuum's row is empty for ``first_row = 1``) and columns are summed
    over each orbit.  Returns (indices, orbit, reps, (rows, cols, vals)):
    the sector's vec indices, the orbit of each, each orbit's
    representative and the unsummed triplets of :func:`_sector_matrix`.
    """
    indices = _sector_indices(basis)
    orbit, reps = _orbits(indices, basis)
    kept = np.argsort(reps[first_row:]) + first_row
    return indices, orbit, reps, _sector_matrix(terms, basis, reps[kept], kept, indices, orbit)


def _summed(rows, cols, vals, size):
    """The triplets with each (row, col) once, repeats summed, sorted by row and column."""
    pairs = rows * size + cols
    order = np.argsort(pairs, kind="stable")
    pairs, vals = pairs[order], vals[order]
    del order  # at n_max 40 each of these arrays is a few MB
    first = np.flatnonzero(np.r_[True, pairs[1:] != pairs[:-1]])
    return (*np.divmod(pairs[first], size), np.add.reduceat(vals, first))


def _inverse(a: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the square ``a`` to ``out`` by a 2 x 2 block recursion.

    With ``a`` split at half its size into ``[[A, B], [C, D]]``, the inverse is
    ``[[A^-1 + A^-1 B S^-1 C A^-1, -A^-1 B S^-1], [-S^-1 C A^-1, S^-1]]`` with
    the Schur complement ``S = D - C A^-1 B``: six matrix products and two
    half-size inverses, which recurse.  Blocks of at most ``_INVERSE_LEAF``
    rows go to ``np.linalg.inv``.  The split does not pivot, so the caller
    refines what it solves with the result.
    """
    n = len(a)
    if n <= _INVERSE_LEAF:
        out[...] = np.linalg.inv(a)
        return
    h = n // 2
    inv_a, upper, lower, inv_s = out[:h, :h], out[:h, h:], out[h:, :h], out[h:, h:]
    _inverse(a[:h, :h], inv_a)
    c_inv_a = a[h:, :h] @ inv_a
    _inverse(a[h:, h:] - c_inv_a @ a[:h, h:], inv_s)
    np.negative(inv_s @ c_inv_a, out=lower)
    np.negative((inv_a @ a[:h, h:]) @ inv_s, out=upper)
    inv_a -= upper @ c_inv_a


def _slots(keys, others, vals, size: int):
    """Entries grouped by ``keys`` as padded (index, weight) slot arrays.

    Returns the ``(size, k)`` arrays ``idx`` and ``w``: row ``i`` holds the
    ``others`` and ``vals`` of the entries with key ``i``, in their given
    order, padded with index 0 and weight 0 to the largest count ``k``.
    """
    order = np.argsort(keys, kind="stable")
    keys, others, vals = keys[order], others[order], vals[order]
    counts = np.bincount(keys, minlength=size)
    slot = np.arange(len(keys)) - (np.cumsum(counts) - counts)[keys]
    idx = np.zeros((size, counts.max(initial=0)), dtype=np.intp)
    w = np.zeros(idx.shape)
    idx[keys, slot], w[keys, slot] = others, vals
    return idx, w


def _level_blocks(rows, cols, vals, bounds):
    """The orbit system's entries split by level, for :func:`_eliminate_levels`.

    ``(rows, cols, vals)`` are the generator's entries on the orbits, each
    (row, col) once and sorted by row, with level ``l`` at orbits
    ``bounds[l]:bounds[l + 1]``.  Every term moves the level by at most one,
    so the matrix is block tridiagonal over the levels, with blocks
    ``Lo_l``, ``D_l``, ``Up_l`` coupling level ``l`` to ``l - 1``, ``l``,
    ``l + 1``.  Returns, for each level ``l >= 1`` (entry 0 is None), those
    three blocks as (row, col, value) triplets in the block's own
    coordinates.
    """
    starts = np.searchsorted(rows, bounds)
    blocks = [None]
    for lv in range(1, len(bounds) - 1):
        at = slice(starts[lv], starts[lv + 1])
        r, c, v = rows[at] - bounds[lv], cols[at], vals[at]
        side = (c >= bounds[lv]).astype(np.int8) + (c >= bounds[lv + 1])
        blocks.append([(r[side == k], c[side == k] - bounds[lv - 1 + k], v[side == k])
                       for k in range(3)])
    return blocks


def _combine(idx, w, mat, out) -> None:
    """Write ``sum_s w[r, s] * mat[idx[r, s]]`` to each row ``out[r]`` (slots of :func:`_slots`).

    The rows of ``mat`` are gathered in chunks of at most ``_INVERSE_LEAF``,
    so the gather never holds all of the slots' rows at once.
    """
    step = max(1, _INVERSE_LEAF // max(1, idx.shape[1]))
    for i in range(0, len(idx), step):
        at = slice(i, i + step)
        out[at] = np.einsum("rs,rsj->rj", w[at], mat[idx[at]])


def _coupled(up, x, lo, size: int) -> np.ndarray:
    """``Up_l X Lo_{l+1}`` for the triplets ``up`` of ``Up_l`` and ``lo`` of ``Lo_{l+1}``.

    ``size`` is n_l, the number of orbits on level ``l``.  A level-changing
    shift pair gives at most one entry per row and per column, so ``Up_l``
    has a few entries per row and ``Lo_{l+1}`` per column; :func:`_slots`
    lays them out that way.  Row gathers of ``X`` by
    ``Up_l``'s rows give ``(Up_l X)^T``, and row gathers of that by
    ``Lo_{l+1}``'s columns give the product's transpose, whose transpose is
    returned: ``2 k n_l (n_{l+1} + n_l)`` flops for ``k`` slots, where two
    dense products take ``2 n_l n_{l+1} (n_{l+1} + n_l)``.  A padding slot
    adds ``0 * X[0]``, which is 0 because the caller checks that ``X`` is
    finite.  The slots are built per call, so none outlives its level.
    """
    upper = np.empty((len(x), size))  # (Up_l X)^T
    _combine(*_slots(*up, size), x, upper.T)
    out = np.empty((size, size))
    _combine(*_slots(lo[1], lo[0], lo[2], size), upper, out)
    return out.T


def _eliminate_levels(blocks, bounds):
    """Solve the steady-state equations level by level (block elimination).

    ``blocks`` are the ``Lo_l``, ``D_l``, ``Up_l`` of :func:`_level_blocks`,
    with level ``l`` at orbits ``bounds[l]:bounds[l + 1]``.  The vacuum
    (level 0) is pinned to 1 and its row, dependent because the trace is
    preserved, is not used.  From the top level down, each level's Schur
    block ``S_l = D_l - Up_l X_{l+1} Lo_{l+1}`` is formed by row gathers of
    ``X_{l+1}`` (:func:`_coupled`: ``Up_l`` and ``Lo_{l+1}`` have at most a
    few entries per row and per column), then inverted by :func:`_inverse`,
    and only its inverse ``X_l`` is kept; from the vacuum up,
    ``x_l = -X_l (Lo_l x_{l-1})``.  Eliminating from the top is the stable
    direction: near ``M = sqrt(N (N + 1))`` it leaves about a hundredth of
    the residual that eliminating from the vacuum does.  An explicit inverse is less accurate than a pivoted solve, so
    one sweep of iterative refinement with the same inverses always
    follows: with ``r`` the residual of the orbit equations,
    ``r'_l = r_l - Up_l X_{l+1} r'_{l+1}`` from the top down, then
    ``d_l = X_l (r'_l - Lo_l d_{l-1})`` from the vacuum up, and ``x_l += d_l``.
    A singular level block, or an inverse that is not finite, raises
    ``np.linalg.LinAlgError``.  Returns the solution, the number of stored
    inverse entries, and the residual's 2-norm before and after the
    refinement.
    """
    sizes = np.diff(bounds)
    top = len(sizes) - 1
    offsets = np.r_[0, np.cumsum(sizes[1:] ** 2)]  # X_l at offsets[l - 1]:offsets[l]
    # One buffer holds every X_l: its pages become resident level by level,
    # and the per-level temporaries are not scattered between them.
    store = np.empty(offsets[-1])

    def inverse(lv):
        return store[offsets[lv - 1]:offsets[lv]].reshape(sizes[lv], sizes[lv])

    def apply(lv, k, vec):
        """Level ``lv``'s block ``k`` times ``vec``."""
        r, c, v = blocks[lv][k]
        return np.bincount(r, v * vec[c], minlength=sizes[lv])

    def residual(x):
        """-(A x) on each level of the per-level vectors ``x``; level 0's row is not used."""
        return [None] + [-sum(apply(lv, k, x[lv - 1 + k]) for k in range(3 if lv < top else 2))
                         for lv in range(1, top + 1)]

    for lv in range(top, 0, -1):
        if lv < top:
            schur = _coupled(blocks[lv][2], inverse(lv + 1), blocks[lv + 1][0], sizes[lv])
        else:
            schur = np.zeros((sizes[lv], sizes[lv]))
        rows, cols, vals = blocks[lv][1]
        schur[rows, cols] -= vals
        np.negative(schur, out=schur)  # D_l - Up_l X_{l+1} Lo_{l+1}
        _inverse(schur, inverse(lv))
        del schur  # the next level's temporaries reuse its memory
        if not np.isfinite(inverse(lv)).all():
            raise np.linalg.LinAlgError(f"the inverse of level {lv} is not finite")
    x = [np.ones(1)]
    for lv in range(1, top + 1):
        x.append(-(inverse(lv) @ apply(lv, 0, x[-1])))
    res = residual(x)
    before = float(np.linalg.norm(np.concatenate(res[1:])))
    for lv in range(top - 1, 0, -1):  # r becomes r', from the top down
        res[lv] -= apply(lv, 2, inverse(lv + 1) @ res[lv + 1])
    delta = np.zeros(1)
    for lv in range(1, top + 1):
        delta = inverse(lv) @ (res[lv] - apply(lv, 0, delta))
        x[lv] += delta
    after = float(np.linalg.norm(np.concatenate(residual(x)[1:])))
    return np.concatenate(x), store.size, before, after


def steady_state(model: LindbladModel, basis: FockBasis) -> DensityMatrix:
    """Steady state of the master equation.

    One unknown per orbit of {1, T, S, TS} in the delta = 0 sector: rows are
    kept at the orbit representatives and columns summed over each orbit.
    Ordered by excitation level, this system is block tridiagonal, and
    :func:`_eliminate_levels` solves it with the inverses of dense level
    blocks, from the top level down, and the vacuum pinned, then refines the
    result once with the same inverses; the result is then divided by its
    trace and spread over the sector entries, which are returned as they
    are.  The full state is certified by the unreduced residual
    ``||L(rho)||_F < STEADY_RESIDUAL_TOL``, the norm of L(rho) on the sector
    summed term by term from :func:`_terms` (so not by the assembler that
    built the solved system).  :class:`NumericalError` is raised before
    anything is allocated when the stored inverses (8 * sum n_l**2 bytes)
    or the elimination's work (sum n_l**3) would exceed
    ``_STEADY_STORE_BUDGET`` or ``_STEADY_WORK_BUDGET``, and after the solve
    for a singular or non-finite level inverse or a failed certification.
    A :class:`~eprsim.errors.TruncationWarning` is emitted when the top Fock
    level holds more than :data:`~eprsim.states.TRUNCATION_POP_WARN` of the
    population.
    """
    counts = _level_sizes(basis.n_max)
    sizes = counts.astype(float)
    store_bytes, work = 8 * (sizes**2).sum(), (sizes**3).sum()
    if not store_bytes <= _STEADY_STORE_BUDGET:
        raise NumericalError(
            f"steady-state: the level inverses need 8 * sum n_l**2 = {store_bytes / 2**30:.3g} "
            f"GiB, over the budget {_STEADY_STORE_BUDGET / 2**30:.3g} GiB; lower n_max")
    if not work <= _STEADY_WORK_BUDGET:
        raise NumericalError(
            f"steady-state: the level elimination's work sum n_l**3 = {work:.3g} exceeds the "
            f"budget {_STEADY_WORK_BUDGET:.0e}; lower n_max")
    # Every LindbladModel is symmetric between the modes (one gamma, one
    # heating_rate for both), so the mode-swap reduction always applies.
    t0 = time.perf_counter()
    d = basis.dimension
    terms = _terms(model, basis)
    indices, orbit, reps, (rows, cols, vals) = _orbit_system(terms, basis, first_row=1)
    size = len(reps)
    rows, cols, vals = _summed(rows, cols, vals, size)  # frees the unsummed triplets
    bounds = np.r_[0, np.cumsum(counts)]
    nnz = len(vals)
    blocks = _level_blocks(rows, cols, vals, bounds)
    del rows, cols, vals  # the blocks hold every entry
    t1 = time.perf_counter()
    try:
        x, stored, before, after = _eliminate_levels(blocks, bounds)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady-state level elimination failed: {exc}") from exc
    diag = orbit[indices // d == indices % d]  # repeats sum to the orbit size
    values = x[orbit] / x[diag].sum()
    t2 = time.perf_counter()
    resid = float(np.linalg.norm(_sector_residual(terms, basis, indices, values)))
    t3 = time.perf_counter()
    log.info(
        "steady_state: level elimination, sector %d, reduced %d, nnz %d, levels %d, "
        "largest level %d, stored %d (%.1f MB), orbit residual %.3e refined to %.3e, "
        "residual %.3e; assemble %.3fs, eliminate %.3fs, certify %.3fs",
        len(indices), size, nnz, len(counts), counts.max(), stored,
        stored * 8 / 1e6, before, after, resid, t1 - t0, t2 - t1, t3 - t2,
    )
    if not resid < STEADY_RESIDUAL_TOL:
        raise NumericalError(
            f"steady-state residual {resid:.3e} exceeds tolerance {STEADY_RESIDUAL_TOL:.0e}"
        )

    rho = DensityMatrix(basis, indices, values)
    pop = edge_population(rho, fraction=0.0)  # the top level alone
    if pop > TRUNCATION_POP_WARN:
        warnings.warn(
            f"steady_state: top Fock level holds population {pop:.2e}; "
            "increase n_max",
            TruncationWarning,
            stacklevel=2,
        )
    return rho


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as a sum of block products, each at most 64 x 64 x 64, in a fixed order.

    OpenBLAS runs a product that small on one thread, so the result does not
    depend on the BLAS thread count; a whole product of larger matrices is
    split across threads and may move in its last bits.
    """
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], 64):
        for j in range(0, b.shape[1], 64):
            for k in range(0, a.shape[1], 64):
                out[i:i + 64, j:j + 64] += a[i:i + 64, k:k + 64] @ b[k:k + 64, j:j + 64]
    return out


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b by Gaussian elimination with partial pivoting on the augmented matrix [a | b].

    Only the rows within a's lower bandwidth are eliminated at each step:
    the Pade denominator of a Hessenberg matrix has 13 subdiagonals, and
    partial pivoting keeps that band.  Back substitution runs on blocks of
    64 rows, the bulk of it in :func:`_matmul`.
    """
    n = len(a)
    rows, cols = np.nonzero(a)
    band = int((rows - cols).max(initial=0))
    x = np.concatenate([a, b], axis=1)
    for k in range(n):
        end = min(k + band + 1, n)
        p = k + int(np.argmax(np.abs(x[k:end, k])))
        if p != k:
            x[[k, p]] = x[[p, k]]
        x[k + 1:end, k + 1:] -= (x[k + 1:end, k] / x[k, k])[:, None] * x[k, k + 1:]
    u, y = x[:, :n], x[:, n:]
    for k1 in range(n, 0, -64):
        k0 = max(k1 - 64, 0)
        for k in range(k1 - 1, k0 - 1, -1):
            y[k] /= u[k, k]
            y[k0:k] -= u[k0:k, k, None] * y[k]
        y[:k0] -= _matmul(u[:k0, k0:k1], y[k0:k1])
    return y


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a small dense matrix: the Pade 13 approximant with scaling and squaring.

    ``a`` is scaled by 2**-s until its 1-norm is at most theta_13, where the
    [13/13] Pade approximant is accurate to double precision, and the
    result is squared s times (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)).  Its products are :func:`_matmul`'s and its solve
    :func:`_solve`, so the result does not depend on the BLAS thread count.
    """
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    squarings = max(0, int(np.ceil(np.log2(norm / 5.371920351148152)))) if norm > 0 else 0
    a = a / 2.0 ** squarings
    eye = np.eye(len(a))
    a2 = _matmul(a, a)
    a4 = _matmul(a2, a2)
    a6 = _matmul(a2, a4)
    sums = []
    for k in (1, 0):  # the odd coefficients, then the even; each sum grows in one buffer
        w = b[12 + k] * a6
        w += b[10 + k] * a4
        w += b[8 + k] * a2
        w = _matmul(a6, w)
        w += b[6 + k] * a6
        w += b[4 + k] * a4
        w += b[2 + k] * a2
        w += b[k] * eye
        sums.append(w)
    del a2, a4, a6, w, eye
    u, v = _matmul(a, sums[0]), sums[1]
    del sums
    r = _solve(v - u, v + u)
    for _ in range(squarings):
        r = _matmul(r, r)
    return r


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a vector, summed by numpy (BLAS splits a long ``dot`` across threads)."""
    return float(np.sqrt(np.add.reduce(x * x)))


def _certified(hess, m, beta, tau, todo):
    """The vectors y_k = exp(k tau H_m) e_1, k = 1..todo, that Saad's estimate certifies.

    The estimate of step k is beta h_{m+1,m} |e_m^T y_k|; the steps up to the
    first one above :data:`_KRYLOV_TOL` are returned.
    """
    e = _expm(tau * hess[:m, :m])
    ys, y = [], e[:, 0]
    while len(ys) < todo and beta * hess[m, m - 1] * abs(y[-1]) <= _KRYLOV_TOL:
        ys.append(y)
        y = np.einsum("ij,j->i", e, y)
    return ys


def _krylov_propagate(rows, cols, vals, vec, h, steps):
    """The vectors exp(k h L) vec for k = 0..steps, L given by its summed triplets.

    Arnoldi on L from ``vec`` (two classical Gram-Schmidt passes per
    vector) gives an orthonormal basis V_m and the Hessenberg H_m, and
    exp(k tau L) vec ~ beta V_m y_k with y_k = E^k e_1 and E = exp(tau H_m),
    one small exponential for every step of the grid.  Step k is certified
    when Saad's a-posteriori estimate beta h_{m+1,m} |e_m^T y_k| is at most
    :data:`_KRYLOV_TOL` (Saad, SIAM J. Numer. Anal. 29, 209 (1992)).  The
    basis starts with :data:`_KRYLOV_FIRST` vectors and doubles until every
    step is certified or it holds :data:`_KRYLOV_CAP` vectors; there the
    certified steps are kept and Arnoldi restarts from the last of them.
    When not one step is certified at the cap, tau is halved on the same
    basis; the internal step stays ``h / substeps`` from then on.  A basis
    that spans all of L's space is exact.  Matrix-vector products are
    numpy's einsum, not BLAS (which splits long ones across threads), and
    :func:`_expm` multiplies in blocks, so the vectors do not depend on the
    BLAS thread count.  Returns the (steps + 1, size) array of vectors with
    (largest basis, restarts, largest certified estimate, substeps).
    """
    size = len(vec)
    out = np.empty((steps + 1, size))
    out[0] = vec
    cap = min(_KRYLOV_CAP, size)
    basis = np.empty((cap, size))  # pages are touched only as the basis grows
    hess = np.zeros((cap + 1, cap))
    start, pos, substeps = vec, 0, 1  # pos: the start's time in internal steps
    largest = restarts = 0
    worst = 0.0
    while pos < steps * substeps:
        beta = _norm(start)
        basis[0] = start / beta
        hess[:] = 0.0
        m = 0
        while True:  # double the basis until every step is certified, or to the cap
            for m in range(m + 1, min(max(2 * m, _KRYLOV_FIRST), cap) + 1):
                w = np.bincount(rows, vals * basis[m - 1][cols], minlength=size)
                for _ in range(2):
                    c = np.einsum("ij,j->i", basis[:m], w)
                    w -= np.einsum("i,ij->j", c, basis[:m])
                    hess[:m, m - 1] += c
                hess[m, m - 1] = 0.0 if m == size else _norm(w)
                if hess[m, m - 1] == 0.0:  # an invariant subspace: the basis is exact
                    break
                if m < cap:
                    basis[m] = w / hess[m, m - 1]
            ys = _certified(hess, m, beta, h / substeps, steps * substeps - pos)
            if len(ys) == steps * substeps - pos or m == cap or hess[m, m - 1] == 0.0:
                break
        while not ys:  # at the cap, not one step certified: halve the internal step
            if substeps >= 2 ** 30:
                raise NumericalError("evolve: the Krylov propagation certifies no step")
            substeps, pos = 2 * substeps, 2 * pos
            ys = _certified(hess, m, beta, h / substeps, steps * substeps - pos)
        largest = max(largest, m)
        worst = max(worst, beta * hess[m, m - 1] * max(abs(y[-1]) for y in ys))
        first = pos + 1
        pos += len(ys)
        keep = [k for k in range(first, pos + 1) if k % substeps == 0 or k == pos]
        states = [beta * np.einsum("i,ij->j", ys[k - first], basis[:m]) for k in keep]
        for k, state in zip(keep, states):
            if k % substeps == 0:
                out[k // substeps] = state
        start = states[-1]
        restarts += pos < steps * substeps
    return out, (largest, restarts, worst, substeps)


def evolve(model: LindbladModel, basis: FockBasis, times) -> list[DensityMatrix]:
    """The states the vacuum |00><00| relaxes through, one per entry of ``times``.

    The vacuum is the state at ``times[0]``, and ``times`` must be strictly
    increasing and exactly ``np.linspace(times[0], times[-1], len(times))``.
    The vacuum is real and alone in its {1, T, S, TS} orbit (orbit 0), and
    the generator keeps a state real and constant on the orbits, so one real
    value per orbit is propagated, with the matrix :func:`steady_state`
    eliminates plus its vacuum row.  The generator does not depend on time
    and the grid is uniform, so one Arnoldi basis from the vacuum and one
    small exponential carry the state across the grid, each step certified
    by an a-posteriori estimate (:func:`_krylov_propagate`); a single time
    gives the vacuum alone.  The states are real and exactly symmetric;
    :func:`moments` reads their second moments and purity.  The span
    ``||L||_1 * (times[-1] - times[0])`` sets how many basis vectors and
    restarts the propagation needs, and each vector costs a product with
    the orbit matrix's stored entries; where span times entries exceeds a
    fixed budget (1e9) :class:`~eprsim.errors.NumericalError` is raised
    before any propagation.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if not np.array_equal(times, np.linspace(times[0], times[-1], len(times))):
        raise ValueError("times must be the uniform grid np.linspace(times[0], times[-1], n)")

    t0 = time.perf_counter()
    indices, orbit, reps, (rows, cols, vals) = _orbit_system(
        _terms(model, basis), basis, first_row=0)
    size = len(reps)
    rows, cols, vals = _summed(rows, cols, vals, size)
    span = np.bincount(cols, np.abs(vals), minlength=size).max() * (times[-1] - times[0])
    work = span * len(vals)
    if not work <= _EVOLVE_WORK_BUDGET:
        raise NumericalError(
            f"evolve: work estimate ||L||_1 * (t_end - t_0) = {span:.2e} times nnz {len(vals)} "
            f"= {work:.2e} exceeds the budget {_EVOLVE_WORK_BUDGET:.0e}; shorten the time "
            "span, or lower gamma or n_max")
    vec = np.zeros(size)
    vec[0] = 1.0  # the vacuum
    t1 = time.perf_counter()
    steps = len(times) - 1
    vecs, (largest, restarts, worst, substeps) = _krylov_propagate(
        rows, cols, vals, vec, (times[-1] - times[0]) / max(steps, 1), steps)
    t2 = time.perf_counter()
    log.info(
        "evolve: orbits path, %d unknowns, nnz %d, Krylov basis %d, restarts %d, "
        "substeps %d, largest estimate %.1e; assemble %.3fs, propagate %.3fs",
        size, len(vals), largest, restarts, substeps, worst, t1 - t0, t2 - t1,
    )
    return [DensityMatrix(basis, indices, vec[orbit]) for vec in vecs]


def moments(states) -> dict[str, np.ndarray]:
    """Second moments and purity of each two-mode density matrix in ``states``.

    Returns arrays ``n1``, ``n2`` (real), ``b1b2`` (complex ``<b1 b2>``),
    ``var_sum_q`` = Var(Q1 + Q2), ``var_diff_p`` = Var(P1 - P2) and
    ``purity``, with ``Q = b + b†`` and ``P = -i(b - b†)`` on the truncated
    basis (vacuum variance 1 per mode).  Each operator is a sum of the
    ladder monomials of :func:`_terms`, and a monomial A with shift s gives
    ``tr(rho A) = sum_u A[u, u + s] rho[u + s, u]``, summed over its nonzero
    weights in basis order.  Each state's rho is looked up once, at the 13
    distinct shifts.
    """
    basis = states[0].basis
    d = basis.dimension
    b1, b2 = _ladder(0, basis), _ladder(1, basis)
    ladders = (b1, _adjoint(b1, basis), b2, _adjoint(b2, basis))  # b1, b1†, b2, b2†
    square = {(i, j): _product(a, b, basis)
              for i, a in enumerate(ladders) for j, b in enumerate(ladders)}
    q_c, p_c = (1.0, 1.0, 1.0, 1.0), (-1j, 1j, 1j, -1j)  # Q1 + Q2 and P1 - P2
    ops = {"n1": [(1.0, square[1, 0])], "n2": [(1.0, square[3, 2])],
           "b1b2": [(1.0, square[0, 2])], "q": zip(q_c, ladders), "p": zip(p_c, ladders),
           "q2": [(q_c[i] * q_c[j], op) for (i, j), op in square.items()],
           "p2": [(p_c[i] * p_c[j], op) for (i, j), op in square.items()]}
    weights = {}  # (key, shift): the operator's weights at that shift, monomials summed
    for key, op in ops.items():
        for c, (shift, w) in op:
            weights[key, shift] = weights.get((key, shift), 0.0) + c * w
    weights = {k: (np.flatnonzero(w), w[w != 0]) for k, w in weights.items()}
    shifts = sorted({shift for _, shift in weights})
    u = np.arange(d)
    wanted = (u + np.array([_flat(s, basis) for s in shifts])[:, None]) * d + u
    values = {key: np.zeros(len(states), dtype=complex) for key in ops}
    for i, state in enumerate(states):
        at = dict(zip(shifts, _lookup(state.keys, state.values, wanted, 0)))  # rho[u + s, u]
        for (key, s), (nz, w) in weights.items():
            values[key][i] += np.sum(w * at[s][nz])
    return {"n1": values["n1"].real, "n2": values["n2"].real, "b1b2": values["b1b2"],
            "var_sum_q": values["q2"].real - values["q"].real ** 2,
            "var_diff_p": values["p2"].real - values["p"].real ** 2,
            "purity": np.array([purity(s) for s in states])}


def purity(rho: DensityMatrix) -> float:
    """``trace(rho @ rho)`` — 1 for pure states, 1/d for maximally mixed.

    Requires rho to be exactly Hermitian, as every state the solvers
    return is: then ``trace(rho @ rho)`` is the sum of ``|rho_ij|**2`` over
    the stored entries, with no lookup of each entry's transpose.  The
    products and their pairwise sum are those of
    :func:`~eprsim.metrics.fidelity` of rho with itself, so the two agree
    bit for bit.
    """
    return float(np.sum(rho.values * rho.values.conj()).real)
