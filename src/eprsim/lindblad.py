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
weight per basis state, so it has at most one entry per row.  The terms
with one shift pair (sa, sb) read one entry per row, and a heated model's
32 terms have 13 pairs: 5 keep the level, 4 lower it and 4 raise it.  Both
solvers work on the orbits, with one assembler (:func:`_orbit_blocks`).
It writes each row's entries into fixed-width slots, one block each for
the pairs that lower, keep and raise the level, with no sort over the
sector.  The slots are the only form of the orbit matrix: both solvers
multiply by it with one product (:func:`_apply`), which uses no BLAS:

* :func:`steady_state` solves for one value per orbit by block
  elimination over the levels, on the model in units of a power of two of
  its rates.  It keeps the float32 inverse of each level's dense Schur
  block (at most a few hundred orbits at n_max 40), built by a block
  recursion that is mostly matrix products (:func:`_inverse`); the
  couplings between levels have at most 4 slots a row, so each Schur
  update is row gathers of the inverse above (:func:`_coupled`).
  It solves by products with those inverses and refines the result in
  float64 sweeps through them, on residuals from :func:`_apply`, until a
  sweep gains less than 10 times; a singular or non-finite inverse raises
  :class:`NumericalError`, and the result is certified on the unreduced
  sector, term by term.  A box that misses more than half of each mode's
  thermal state (:func:`_tail`) is refused first;
* :func:`evolve` propagates one real value per orbit from the vacuum,
  where the atoms start, with an Arnoldi (Krylov) basis of the orbit
  matrix, each vector a slot product, and a Taylor exponential of its small
  Hessenberg matrix from blocked products (:func:`_krylov_propagate`,
  :func:`_expm`).

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
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import DensityMatrix, FockBasis, NumericalError, _lookup
from .states import _warn_if_truncated

log = logging.getLogger(__name__)

STEADY_RESIDUAL_TOL = 1e-8

# Before it allocates, steady_state refuses a box that misses more than
# _TAIL_BOUND of each mode's state (:func:`_tail`; the float32 refinement
# stalls only where it misses 0.9 or more), and an elimination whose work,
# sum n_l**3 over the orbit counts n_l of the levels (:func:`_level_sizes`),
# exceeds _STEADY_WORK_BUDGET; so the float32 inverses, 4 * sum n_l**2 bytes,
# stay under 1 GiB.  n_max 80 needs 1.0e11 and 0.33 GiB, and runs in 3.7-4.1 s
# with maxrss 391 MB at one BLAS thread on a 2-core x86-64 host; n_max 100,
# the largest that passes, needs 4.79e11 and 0.98 GiB.
_TAIL_BOUND = 0.5
_STEADY_WORK_BUDGET = 5e11

# The largest block that steady_state's block-recursive inverse
# (:func:`_inverse`) hands to np.linalg.inv.
_INVERSE_LEAF = 64

# The rows of a Schur product that steady_state gathers at a time (:func:`_combine`).
# At n_max 40, 32 rows of 4 slots gather at most 225 kB; 16 rows took 1.6 times as
# long, and 64 rows raised the solve's peak memory by 0.1 MB.
_GATHER_ROWS = 32

# steady_state's float64 refinement sweeps (:func:`_eliminate_levels`).
_REFINE_SWEEPS = 6

# Bound on ||L||_1 * (t_end - t_0) * nnz for one evolve call: the span
# ||L||_1 * (t_end - t_0) sets how many Krylov vectors and restarts the
# propagation needs, and the orbit matrix's nnz the cost of each vector.
# The shipped config needs 6.3e7 and the tests, demos and benchmark seeds at
# most 6.6e7; eps 0.3 at n_max 40 out to t = 31 needs 6.8e9, and gamma 1e6
# on a 6-level basis 3.6e11.
_EVOLVE_WORK_BUDGET = 1e9

# evolve's Krylov propagation (see _krylov_propagate): the a-posteriori
# estimate that certifies a step, the first basis size (each growth doubles
# it) and the cap.  The basis holds cap x orbits floats, and a restart
# starts from a state that carries rounding error, which the propagator's
# transient growth then amplifies.  At 128 the shipped config restarts twice;
# its states stay within 3.2e-14 of scipy's expm_multiply route (2.6e-14 at
# 256, where it does not restart) and its traced peak memory is 3.4 MB (8.5 MB
# at 256).
_KRYLOV_TOL = 1e-14
_KRYLOV_FIRST = 16
_KRYLOV_CAP = 128


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
    m0, m1, n0 = np.ogrid[:n, :n, :n]
    vec = m1 - m0 + n0  # n1
    keep = (vec >= 0) & (vec < n)
    vec += n0 * n
    vec += (m0 * n + m1) * d
    return vec[keep]


def _position_table(members, positions, basis: FockBasis) -> np.ndarray:
    """``positions`` laid out by the sector vec indices ``members``, -1 elsewhere.

    A sector entry ``<m0 m1| rho |n0 n1>`` has ``n1 = m1 - m0 + n0``, so the
    (n_max, n_max, n_max) table indexed by (m0, m1, n0) has a place for each.
    Read it flat at ``vec // n_max`` for a sector entry at vec index
    ``vec = u * d + v``, which is ``u * n_max + v // n_max``; only sector
    entries have a place, so a caller reads it where a term meets its source.
    """
    n = basis.n_max
    table = np.full((n, n, n), -1, dtype=np.intp)
    table.reshape(-1)[members // n] = positions
    return table


def _pairs(terms) -> dict:
    """The (coeff, wa, wb) of the terms of :func:`_terms` by shift pair (sa, sb), in term order."""
    pairs = {}
    for coeff, (sa, wa), (sb, wb) in terms:
        pairs.setdefault((sa, sb), []).append((coeff, wa, wb))
    return pairs


def _sector_residual(terms, basis: FockBasis, indices, values) -> np.ndarray:
    """L(rho) at the sorted sector vec ``indices``, for rho holding ``values`` there.

    Pushes each stored entry through the terms on its own, not through the
    assembler :func:`_orbit_blocks`: ``A rho B`` takes the entry at (u, v)
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
    out = np.zeros(len(indices))
    for (sa, sb), group in _pairs(terms).items():
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
    ``indices`` are the sorted sector vec indices of :func:`_sector_indices`.
    Returns (orbit, reps): the orbit number of each entry of ``indices``
    and the vec index of each orbit's representative (its smallest member).
    Orbits are ordered by :func:`_level`, then by representative, so each
    level is a contiguous range and the vacuum |00><00|, alone on level 0,
    is orbit 0.  Only the representatives are sorted, by level.
    """
    n, d = basis.n_max, basis.dimension
    u, v = np.divmod(indices, d)  # at n_max 40 each of these arrays is 0.3 MB, so few are kept
    rep = v * d
    rep += u
    np.minimum(rep, indices, out=rep)  # T
    su, sv = u % n, v % n
    su *= n
    sv *= n
    su += np.floor_divide(u, n, out=u)
    sv += np.floor_divide(v, n, out=v)
    del u, v
    image = su * d
    image += sv
    np.minimum(rep, image, out=rep)  # S
    np.multiply(sv, d, out=image)
    image += su
    np.minimum(rep, image, out=rep)  # TS
    del su, sv, image
    reps = indices[rep == indices]
    order = np.argsort(_level(reps, basis), kind="stable")
    rank = np.empty(len(reps), dtype=np.intp)
    rank[order] = np.arange(len(reps))
    return np.take(rank, np.searchsorted(reps, rep), out=rep), reps[order]


def _neighbour_starts(bounds, kind) -> np.ndarray:
    """The first orbit of level ``l - 1 + kind`` for each orbit on level ``l``.

    Level ``l`` is at orbits ``bounds[l]:bounds[l + 1]``, and ``kind`` 0, 1
    or 2 names the level below, the same level or the level above; the
    missing levels below level 0 and above the top are replaced by the level
    itself, where the blocks of :func:`_orbit_blocks` have no entry.
    """
    top = len(bounds) - 2
    levels = np.minimum(np.maximum(np.arange(top + 1) + kind - 1, 0), top)
    return np.repeat(bounds[levels], np.diff(bounds))


def _orbit_blocks(terms, basis: FockBasis):
    """The generator on the orbits of :func:`_orbits`, as three blocks of slots.

    Row ``i`` is kept at orbit ``i``'s representative and each column is
    summed over an orbit.  ``A rho B`` takes row (u, v) from the entry at
    (u + sa, v - sb), with the weight ``A[u, u + sa] * B[v - sb, v]``, so the
    terms with one shift pair (sa, sb) reach one column per row, the orbit
    that :func:`_position_table` holds for that entry, read only at the rows
    where some term's weights meet.  Each term's product is made once.  A pair
    moves the level of :func:`_level` by ``(sum(sa) - sum(sb)) / 2``: of the
    at most 13 pairs, 4 lower it, 5 keep it and 4 raise it, so ordered by
    level the system is block tridiagonal, with blocks ``Lo_l``, ``D_l`` and
    ``Up_l`` coupling level ``l`` to ``l - 1``, ``l`` and ``l + 1``.
    Returns (bounds, blocks): the level bounds (level ``l`` at orbits
    ``bounds[l]:bounds[l + 1]``) and, for the lowering, level-keeping and
    raising pairs, the (pairs, orbits) slot arrays ``idx`` (int16, or int32
    past 32767 orbits a level) and ``w`` (float64).  Row ``i`` has the
    weight ``w[s, i]`` in column ``idx[s, i]`` of the level its block
    reaches, counted from that level's first orbit.  A row's slots hold its
    distinct columns in ascending order, then column 0 with weight 0; pairs
    that reach one column share a slot.  A weight is its first term's plus
    the later ones summed in term order, pair by pair where pairs share a
    slot: :func:`evolve`'s golden output depends on that order to the last
    bit.  Level ``l``'s blocks are the slots at its orbits; nothing is
    sorted.
    """
    n, d = basis.n_max, basis.dimension
    counts = _level_sizes(n)
    bounds = np.r_[0, np.cumsum(counts)]
    itype = np.int16 if counts.max() <= np.iinfo(np.int16).max else np.int32
    pairs = _pairs(terms)
    # 0, 1 or 2 as the pair lowers, keeps or raises the level
    kinds = {(sa, sb): (sa[0] + sa[1] - sb[0] - sb[1]) // 2 + 1 for sa, sb in pairs}
    # The blocks come first, so the temporaries below are freed above them in memory.
    shapes = [(list(kinds.values()).count(kind), bounds[-1]) for kind in range(3)]
    blocks = [(np.zeros(shape, itype), np.zeros(shape)) for shape in shapes]
    indices = _sector_indices(basis)
    orbit, reps = _orbits(indices, basis)
    table = _position_table(indices, orbit, basis).reshape(-1)
    del indices, orbit
    u, v = np.divmod(reps, d)
    del reps
    for kind, (idx, w) in enumerate(blocks):
        start = _neighbour_starts(bounds, kind)
        cols, tops, rests = [], [], []  # by pair: its column (-1 where no term meets), weights
        for (sa, sb), group in pairs.items():
            if kinds[sa, sb] != kind:
                continue
            top = rest = 0.0  # the pair's first weight at each row, and its later ones summed
            met = False
            for coeff, wa, wb in group:
                a, b = wa[u], _shifted(wb, (-sb[0], -sb[1]), basis)[v]  # A[u, u + sa], B[v - sb, v]
                weight, hit = coeff * a * b, a * b != 0
                top = np.where(met | ~hit, top, weight)
                rest = np.where(met & hit, rest + weight, rest)
                met = met | hit
            col = np.full(len(u), -1, itype)
            src = (u[met] + _flat(sa, basis)) * n + (v[met] - _flat(sb, basis)) // n  # (m0, m1, n0)
            col[met] = table[src] - start[met]
            cols.append(col)
            tops.append(top)
            rests.append(rest)
        cols = np.array(cols)
        first = cols >= 0  # the first slot of each distinct column of a row
        for s in range(1, len(cols)):
            first[s] &= ~((cols[:s] == cols[s]) & first[:s]).any(axis=0)
        head, seen = np.zeros(w.shape), np.zeros(w.shape, dtype=bool)  # w holds the later weights
        for col, top, rest in zip(cols, tops, rests):
            slot = np.sum(first & (cols < col), axis=0)  # the rank of its column in the row
            for s in range(len(cols)):
                at = (slot == s) & (col >= 0)
                head[s] = np.where(at & ~seen[s], top, head[s])
                w[s] = np.where(at, np.where(seen[s], w[s] + top + rest, rest), w[s])
                seen[s] |= at
                idx[s] = np.where(at, col, idx[s])
        w += head
    return bounds, blocks


def _apply(blocks, starts, x) -> np.ndarray:
    """The system of :func:`_orbit_blocks` times ``x``, with no BLAS.

    ``starts`` are the :func:`_neighbour_starts` of the three blocks, which
    the caller computes once for its many products.  Each row sums its
    slots in order: the levels below, at and above its own, each in
    ascending column, so a row's entries are summed in the order of their
    columns.  A slot with weight 0 adds ``0 * x[...]``, which changes no
    sum while ``x`` is finite.
    """
    out = np.zeros(len(x))
    for (idx, w), start in zip(blocks, starts):
        for i, ws in zip(idx, w):
            out += ws * x[i + start]
    return out


def _inverse(a: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the square ``a`` to ``out`` by a 2 x 2 block recursion.

    With ``a`` split at half its size into ``[[A, B], [C, D]]``, the inverse is
    ``[[A^-1 + A^-1 B S^-1 C A^-1, -A^-1 B S^-1], [-S^-1 C A^-1, S^-1]]`` with
    the Schur complement ``S = D - C A^-1 B``: six matrix products and two
    half-size inverses, which recurse.  Blocks of at most ``_INVERSE_LEAF``
    rows go to ``np.linalg.inv``.  Every product and leaf stays in ``a``'s
    dtype.  The split does not pivot, so the caller refines what it solves
    with the result.
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


def _lowering_by_column(blocks, bounds, dtype) -> np.ndarray:
    """``Lo_{l+1}`` transposed, as weights in the slots of ``Up_l`` (:func:`_orbit_blocks`).

    Each pair that lowers the level undoes one that raises it, and T and S
    map the raising pairs onto one another, so ``Lo_{l+1}[j, i]`` is
    nonzero only where some member of orbit ``i`` rises to orbit ``j``,
    that is where a slot of ``Up_l``'s row ``i`` holds column ``j``.
    Returns the (pairs, orbits) weights ``Lo_{l+1}[idx[s, i], i]`` at
    Up_l's slots ``idx[s, i]``, in ``dtype``, and 0 where those weigh 0.
    A row's slots of ``Lo_{l+1}`` hold distinct columns, so one of them at
    most matches and the weight is not rounded before its cast.
    """
    (lo_idx, lo_w), _, (up_idx, up_w) = blocks
    place = np.arange(bounds[-1]) - _neighbour_starts(bounds, 1)  # from its level's first orbit
    above = _neighbour_starts(bounds, 2)
    out = np.zeros(up_idx.shape, dtype)
    for lowered, up, w in zip(out, up_idx, up_w):
        rows = up + above  # the orbits of level l + 1 that Up_l reaches
        for idx, lo in zip(lo_idx, lo_w):
            lowered += np.where(idx[rows] == place, lo[rows], 0.0)
        lowered[w == 0] = 0.0
    return out


def _combine(idx, w, mat, out) -> None:
    """Write ``sum_s w[s, r] * mat[idx[s, r]]`` to each row ``out[r]``.

    The weights are cast to ``mat``'s dtype, and the rows of ``out`` are
    made ``_GATHER_ROWS`` at a time, so the gather never holds all of the
    slots' rows at once.  Each row's sum runs over its slots in order, so
    the result does not depend on the chunks.
    """
    w = w.astype(mat.dtype)
    for r in range(0, idx.shape[1], _GATHER_ROWS):
        at = slice(r, r + _GATHER_ROWS)
        out[at] = np.einsum("rs,rsj->rj", w[:, at].T, mat[idx[:, at].T])


def _coupled(idx, up, lowered, x, space) -> np.ndarray:
    """``Up_l X Lo_{l+1}`` from the slots of Up_l, in ``X``'s dtype.

    ``idx`` and ``up`` are Up_l's columns and weights, and ``lowered`` holds
    ``Lo_{l+1}`` transposed in the same slots (:func:`_lowering_by_column`).
    Row gathers of ``X`` give ``(Up_l X)[i] = sum_s up[s, i] X[idx[s, i]]``,
    and row gathers of its transpose give the product's transpose, with rows
    ``sum_s lowered[s, i] (Up_l X)^T[idx[s, i]]``: ``2 k n_l (n_{l+1} +
    n_l)`` flops for ``k`` slots, where two dense products take ``2 n_l
    n_{l+1} (n_{l+1} + n_l)``.  A slot with weight 0 adds ``0 * X[0]``,
    which is 0 because the caller checks that ``X`` is finite.  ``space``, of
    ``n_{l+1} n_l + max(n_{l+1}, n_l) n_l`` entries, holds ``(Up_l X)^T``, then
    ``Up_l X`` in contiguous rows (transposed once) and in its place the
    product's transpose, whose view of the product is returned.
    """
    size, above = idx.shape[1], len(x)
    upper = space[:above * size].reshape(above, size)  # (Up_l X)^T
    rows = space[above * size:2 * above * size].reshape(size, above)  # Up_l X
    _combine(idx, up, x, rows)
    upper[...] = rows.T
    out = space[above * size:(above + size) * size].reshape(size, size)
    _combine(idx, lowered, upper, out)
    return out.T


def _eliminate_levels(blocks, bounds, dtype):
    """Solve the steady-state equations level by level (block elimination).

    ``blocks`` are the slots of ``Lo_l``, ``D_l`` and ``Up_l`` from
    :func:`_orbit_blocks`, with level ``l`` at orbits
    ``bounds[l]:bounds[l + 1]``.  The vacuum (level 0) is pinned to 1 and
    its row, dependent because the trace is preserved, is not used.  From
    the top level down, each level's Schur block
    ``S_l = D_l - Up_l X_{l+1} Lo_{l+1}`` is formed by row gathers of
    ``X_{l+1}`` over Up_l's slots, with ``Lo_{l+1}`` read into the same
    slots (:func:`_coupled`, :func:`_lowering_by_column`), then inverted by
    :func:`_inverse`, and only its inverse ``X_l`` is kept, in ``dtype``:
    :func:`steady_state` runs float32, which halves the store and the time,
    and float64 is the reference it is tested against.  The Schur block and the
    gathered product are built in the store's space of the levels not
    eliminated yet, so the largest level's temporaries take no memory of
    their own.  Eliminating from the top is the stable direction: near
    ``M = sqrt(N (N + 1))`` it leaves about a hundredth of the residual
    that eliminating from the vacuum does.  The solve is a sweep of
    iterative refinement from the vacuum alone: with ``r`` the float64
    residual of the orbit equations, ``r'_l = r_l - Up_l X_{l+1} r'_{l+1}``
    from the top down, then ``d_l = X_l (r'_l - Lo_l d_{l-1})`` from the
    vacuum up, and ``x_l += d_l``, each product with ``X_l`` taking its
    vector in ``dtype`` and giving it back in float64.  The residual is
    ``-(A x)`` by :func:`_apply`, a gather per slot over all the levels.  Up to
    ``_REFINE_SWEEPS`` more sweeps follow, until one cuts the normwise
    backward error ``eta = ||r||_inf / (||A||_inf ||x||_inf)`` by less than
    10 times.  A singular level block, or an inverse that is not finite,
    raises ``np.linalg.LinAlgError``.  Returns the solution, the number and
    itemsize of the stored inverse entries, and ``eta`` after the solve and
    after each refinement sweep.
    """
    sizes = np.diff(bounds)
    top = len(sizes) - 1
    (lo_idx, lo_w), (d_idx, d_w), (up_idx, up_w) = blocks
    norm_a = sum(np.abs(ws) for _, w in blocks for ws in w)[bounds[1]:].max()  # ||A||_inf
    lowered = _lowering_by_column(blocks, bounds, dtype)
    offsets = np.r_[0, np.cumsum(sizes[1:] ** 2)]  # X_l at offsets[l - 1]:offsets[l]
    # One buffer holds every X_l: its pages become resident level by level,
    # and the per-level temporaries are not scattered between them.
    store = np.empty(offsets[-1], dtype)

    def inverse(lv):
        return store[offsets[lv - 1]:offsets[lv]].reshape(sizes[lv], sizes[lv])

    def level(lv):
        return slice(bounds[lv], bounds[lv + 1])

    def times(lv, vec):
        """``X_l vec`` in float64, from ``vec`` cast to the store's dtype."""
        return (inverse(lv) @ vec.astype(dtype)).astype(float)

    def apply(idx, w, lv, vec):
        """Level ``lv``'s rows of the block with slots ``idx``, ``w``, times ``vec``."""
        at = level(lv)
        return np.einsum("sr,sr->r", w[:, at], vec[idx[:, at]])

    for lv in range(top, 0, -1):
        at, n = level(lv), sizes[lv]
        if lv < top:
            space = store[:offsets[lv - 1]]  # the levels below, not eliminated yet
            if len(space) < (sizes[lv + 1] + max(sizes[lv + 1], n)) * n:
                space = np.empty((sizes[lv + 1] + max(sizes[lv + 1], n)) * n, dtype)
            schur = _coupled(up_idx[:, at], up_w[:, at], lowered[:, at], inverse(lv + 1), space)
        else:
            schur = np.zeros((n, n), dtype)
        rows = np.arange(n)
        for idx, w in zip(d_idx[:, at], d_w[:, at]):  # a slot has one entry per row
            schur[rows, idx] -= w
        np.negative(schur, out=schur)  # D_l - Up_l X_{l+1} Lo_{l+1}
        _inverse(schur, inverse(lv))
        if not np.isfinite(inverse(lv)).all():
            raise np.linalg.LinAlgError(f"the inverse of level {lv} is not finite")
    del lowered

    starts = [_neighbour_starts(bounds, kind) for kind in range(3)]
    x = np.zeros(bounds[-1])
    x[0] = 1.0
    res, etas = -_apply(blocks, starts, x), []  # the vacuum's row is not used
    while len(etas) <= _REFINE_SWEEPS and (len(etas) < 2 or etas[-1] < etas[-2] / 10):
        for lv in range(top - 1, 0, -1):  # r becomes r', from the top down
            res[level(lv)] -= apply(up_idx, up_w, lv, times(lv + 1, res[level(lv + 1)]))
        delta = np.zeros(1)
        for lv in range(1, top + 1):
            delta = times(lv, res[level(lv)] - apply(lo_idx, lo_w, lv, delta))
            x[level(lv)] += delta
        res = -_apply(blocks, starts, x)
        etas.append(float(np.abs(res[bounds[1]:]).max() / (norm_a * np.abs(x).max())))
    return x, store.size, store.itemsize, etas


def _tail(model: LindbladModel, n_max: int):
    """nbar of each mode's thermal steady state, and p = (nbar / (nbar + 1))**n_max outside the box.

    ``nbar = (gamma N + h) / (gamma + h)`` is the mean of N and 1 weighted by
    gamma and h over their larger, so no finite model overflows.
    """
    s = max(model.gamma, model.heating_rate)
    w_n, w_1 = model.gamma / s, model.heating_rate / s
    nbar = (w_n * model.n_param + w_1) / (w_n + w_1)
    return nbar, (nbar / (nbar + 1.0)) ** n_max


def _rate_scaled(model: LindbladModel):
    """The rate scale ``s = 2**round(log2(max(gamma, heating_rate)))`` and the model in units of s.

    s is at most 2**1023, the largest finite power of two.  Dividing by a
    power of two keeps every bit of a normal rate and of a subnormal gamma,
    and the larger rate becomes about 1, so nothing formed from the rates
    overflows or rounds to a few bits.  A gamma below 2**-1075 s, which
    would round to 0, is held at 2**-1074, where no sum with the heating
    rate (about 1) sees it either.
    """
    scale = np.ldexp(1.0, min(int(np.round(np.log2(max(model.gamma, model.heating_rate)))), 1023))
    gamma = max(model.gamma / scale, 5e-324)
    return scale, replace(model, gamma=gamma, heating_rate=model.heating_rate / scale)


def steady_state(model: LindbladModel, basis: FockBasis) -> DensityMatrix:
    """Steady state of the master equation.

    One unknown per orbit of {1, T, S, TS} in the delta = 0 sector: rows are
    kept at the orbit representatives and columns summed over each orbit.
    Ordered by excitation level, this system is block tridiagonal, and
    :func:`_orbit_blocks` assembles it straight into the slot blocks of
    each level.  Its terms are built from the model in units of the rate
    scale ``s = 2**round(log2(max(gamma, heating_rate)))`` (:func:`_rate_scaled`),
    which keeps its entries in float32's range (gamma may be 5e-324 or
    1e308) and, as a power of two, changes no float64 bit of the rates.
    :func:`_eliminate_levels` solves it with float32 inverses of dense level
    blocks, from the top level down, and the vacuum pinned, then refines the
    result in float64 sweeps with the same inverses.  The elimination holds
    the slot blocks and the store alone: the sector's entries and their
    orbits are made after it, when the blocks are freed.  The result is
    then divided by its trace and spread over the sector entries, which are
    returned as they are.  The full state is certified by the unreduced
    residual ``||L(rho)||_F / s < STEADY_RESIDUAL_TOL``, the norm of L(rho)
    on the sector summed term by term from :func:`_terms` (so not by the
    assembler that built the solved system): L scales with its rates while
    the state depends only on their ratios.  :class:`NumericalError` is
    raised before anything is allocated when the box misses more than
    ``_TAIL_BOUND`` of each mode's state (:func:`_tail`) or the work sum
    n_l**3 exceeds ``_STEADY_WORK_BUDGET``, and after the solve for a
    singular or non-finite level inverse or a failed certification.  A
    :class:`~eprsim.errors.TruncationWarning` is emitted, by the check the
    Bell and Wigner routines use, when the top Fock level alone holds more
    than :data:`~eprsim.states.TRUNCATION_POP_WARN` of the population.
    """
    nbar, tail = _tail(model, basis.n_max)
    if not tail <= _TAIL_BOUND:
        raise NumericalError(
            f"steady-state: an n_max {basis.n_max} box misses p = (nbar / (nbar + 1))**n_max "
            f"= {tail:.3g} of each mode's thermal state (nbar = {nbar:.3g}), over the bound "
            f"{_TAIL_BOUND}; raise n_max")
    counts = _level_sizes(basis.n_max)
    work = (counts.astype(float) ** 3).sum()
    if not work <= _STEADY_WORK_BUDGET:
        raise NumericalError(
            f"steady-state: the level elimination's work sum n_l**3 = {work:.3g} exceeds the "
            f"budget {_STEADY_WORK_BUDGET:.0e}; lower n_max")
    # Every LindbladModel is symmetric between the modes (one gamma, one
    # heating_rate for both), so the mode-swap reduction always applies.
    t0 = time.perf_counter()
    d = basis.dimension
    scale, model = _rate_scaled(model)
    bounds, blocks = _orbit_blocks(_terms(model, basis), basis)
    size = bounds[-1]
    nnz = sum(np.count_nonzero(w[:, bounds[1]:]) for _, w in blocks)
    slot_bytes = sum(idx.nbytes + w.nbytes for idx, w in blocks)
    t1 = time.perf_counter()
    try:
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite inverse or residual
            x, stored, itemsize, etas = _eliminate_levels(blocks, bounds, np.float32)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady-state level elimination failed: {exc}") from exc
    del blocks  # the sector's entries and their orbits are made again, after the elimination
    indices = _sector_indices(basis)
    orbit, _ = _orbits(indices, basis)
    diag = orbit[indices // d == indices % d]  # repeats sum to the orbit size
    values = x[orbit] / x[diag].sum()
    del x, orbit
    t2 = time.perf_counter()
    resid = float(np.linalg.norm(_sector_residual(_terms(model, basis), basis, indices, values)))
    t3 = time.perf_counter()
    log.info(
        "steady_state: level elimination, sector %d, reduced %d, nnz %d, levels %d, "
        "largest level %d, stored %d (%.1f MB; slot blocks %.1f MB), tail bound p %.1e, "
        "backward error %.1e refined to %.1e in %d sweeps, residual %.3e in units of s = %g; "
        "assemble %.3fs, eliminate %.3fs, certify %.3fs",
        len(indices), size, nnz, len(counts), counts.max(), stored, stored * itemsize / 1e6,
        slot_bytes / 1e6, tail, etas[0], etas[-1], len(etas) - 1, resid, scale,
        t1 - t0, t2 - t1, t3 - t2,
    )
    if not resid < STEADY_RESIDUAL_TOL:
        raise NumericalError(
            f"steady-state residual {resid:.3e} (in units of s = {scale:g}) exceeds "
            f"tolerance {STEADY_RESIDUAL_TOL:.0e}"
        )

    rho = DensityMatrix(basis, indices, values)
    _warn_if_truncated(rho, "steady_state", fraction=0.0)  # the top level alone
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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a small dense matrix: the degree-55 Taylor polynomial with scaling and squaring.

    ``a`` is scaled by 2**-s until its 1-norm is at most theta_55 = 9.9 (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488 (2011), whose theta_m scipy's ``expm_multiply`` uses), the
    series is summed by Horner's rule in a^5 over blocks of the stored powers a .. a^5
    (Paterson-Stockmeyer), and the result is squared s times.  Every product is
    :func:`_matmul`'s, so the result does not depend on the BLAS thread count.
    """
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    squarings = max(0, int(np.ceil(np.log2(norm / 9.9)))) if norm > 0 else 0
    powers = [a / 2.0 ** squarings]
    for _ in range(4):
        powers.append(_matmul(powers[-1], powers[0]))
    fact = [float(math.factorial(k)) for k in range(56)]
    r = powers[4] / fact[55]
    for j in range(50, -1, -5):  # r = r a^5 + sum_i a^i / (j + i)!, i = 0..4
        if j < 50:
            r = _matmul(r, powers[4])
        for i in range(1, 5):
            r += powers[i - 1] / fact[j + i]
        r[np.diag_indices(len(a))] += 1.0 / fact[j]
    del powers
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


def _krylov_propagate(blocks, bounds, vec, h, steps):
    """The vectors exp(k h L) vec for k = 0..steps, L the slot blocks of :func:`_orbit_blocks`.

    Arnoldi on L from ``vec`` (two classical Gram-Schmidt passes per
    vector) gives an orthonormal basis V_m and the Hessenberg H_m, and
    exp(k tau L) vec ~ beta V_m y_k with y_k = E^k e_1 and E = exp(tau H_m),
    one small exponential for every step of the grid.  Step k is certified
    when Saad's a-posteriori estimate beta h_{m+1,m} |e_m^T y_k| is at most
    :data:`_KRYLOV_TOL` (Saad, SIAM J. Numer. Anal. 29, 209 (1992)).  The
    basis starts with :data:`_KRYLOV_FIRST` vectors and doubles until every
    step is certified or it holds :data:`_KRYLOV_CAP` vectors; there the
    certified steps are kept and Arnoldi restarts from the last of them
    (twice on the shipped grid, which would need 224 vectors at once).
    When not one step is certified at the cap, tau is halved on the same
    basis; the internal step stays ``h / substeps`` from then on.  A basis
    that spans all of L's space is exact.  Products with L are
    :func:`_apply`'s, with the level starts of the slot blocks computed once,
    and the Gram-Schmidt products numpy's einsum, neither BLAS (which
    splits long ones across threads), and :func:`_expm`
    multiplies in blocks, so the vectors do not depend on the BLAS thread
    count.  Returns the (steps + 1, size) array of vectors with
    (largest basis, restarts, largest certified estimate, substeps).
    """
    size = len(vec)
    starts = [_neighbour_starts(bounds, kind) for kind in range(3)]
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
                w = _apply(blocks, starts, basis[m - 1])
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
    and the grid is uniform, so an Arnoldi basis of at most
    :data:`_KRYLOV_CAP` vectors from the vacuum and one small exponential
    carry the state across the grid, each step certified by an a-posteriori
    estimate, and the basis restarts from the last certified step where the
    cap is reached (:func:`_krylov_propagate`); a single time gives the
    vacuum alone.  The states are real and exactly symmetric;
    :func:`moments` reads their second moments and purity.  The span
    ``||L||_1 * (times[-1] - times[0])`` sets how many basis vectors and
    restarts the propagation needs, and each vector costs a product with
    the orbit matrix's nonzero slots (nnz); where span times nnz exceeds a
    fixed budget (1e9) :class:`~eprsim.errors.NumericalError` is raised
    before any propagation.  Both are read from the slots of
    :func:`_orbit_blocks`, and every product with the orbit matrix is
    :func:`_apply`'s, which uses no BLAS, so the states do not depend on
    the BLAS thread count.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if not np.array_equal(times, np.linspace(times[0], times[-1], len(times))):
        raise ValueError("times must be the uniform grid np.linspace(times[0], times[-1], n)")

    t0 = time.perf_counter()
    bounds, blocks = _orbit_blocks(_terms(model, basis), basis)
    size = bounds[-1]
    nnz = sum(np.count_nonzero(w) for _, w in blocks)
    columns = sum(np.bincount((idx + _neighbour_starts(bounds, k)).ravel(), np.abs(w).ravel(), size)
                  for k, (idx, w) in enumerate(blocks))  # of |L|, whose 1-norm is their largest
    span = columns.max() * (times[-1] - times[0])
    work = span * nnz
    if not work <= _EVOLVE_WORK_BUDGET:
        raise NumericalError(
            f"evolve: work estimate ||L||_1 * (t_end - t_0) = {span:.2e} times nnz {nnz} "
            f"= {work:.2e} exceeds the budget {_EVOLVE_WORK_BUDGET:.0e}; shorten the time "
            "span, or lower gamma or n_max")
    vec = np.zeros(size)
    vec[0] = 1.0  # the vacuum
    t1 = time.perf_counter()
    steps = len(times) - 1
    vecs, (largest, restarts, worst, substeps) = _krylov_propagate(
        blocks, bounds, vec, (times[-1] - times[0]) / max(steps, 1), steps)
    t2 = time.perf_counter()
    log.info(
        "evolve: orbits path, %d unknowns, nnz %d, Krylov basis %d, restarts %d, "
        "substeps %d, largest estimate %.1e; assemble %.3fs, propagate %.3fs",
        size, nnz, largest, restarts, substeps, worst, t1 - t0, t2 - t1,
    )
    indices = _sector_indices(basis)
    orbit, _ = _orbits(indices, basis)
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
