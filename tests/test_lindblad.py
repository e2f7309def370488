import json
import logging
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from conftest import dense_validate, expm_multiply_evolve, slot_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from eprsim import (
    CovarianceState,
    DensityMatrix,
    FockBasis,
    LindbladModel,
    NopaParams,
    NumericalError,
    TruncationWarning,
    effective_N_M,
    epr_variances,
    evolve,
    evolve_covariance,
    model_from_lindblad,
    moments,
    purity,
    steady_covariance,
    steady_state,
    tmss_fock,
    vacuum_state,
)
from eprsim import lindblad
from eprsim.hilbert import _lookup
from eprsim.lindblad import (
    _apply,
    _coupled,
    _eliminate_levels,
    _expm,
    _flat,
    _inverse,
    _krylov_propagate,
    _level,
    _level_sizes,
    _lowering_by_column,
    _orbit_blocks,
    _orbits,
    _position_table,
    _rate_scaled,
    _sector_indices,
    _sector_residual,
    _shifted,
    _terms,
)
from eprsim.metrics import fidelity
from eprsim.states import TmssSpec


def half_model(eps, heating=0.0):
    n_p, m_p = effective_N_M(NopaParams(eps, 1.0))
    return LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p, heating_rate=heating)


def random_density(basis, rng):
    d = basis.dimension
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return DensityMatrix(basis, np.arange(d * d), rho / np.trace(rho))


def dense_monomial(factor, n):
    """The dense d x d operator of a ladder monomial (shift, weight) of ``_terms``."""
    (s0, s1), weight = factor
    d = n * n
    out = np.zeros((d, d))
    for u in np.flatnonzero(weight):
        out[u, u + s0 * n + s1] = weight[u]
    return out


def apply_terms(model, basis, rho):
    """L(rho) of a dense rho, summed term by term over the monomials of ``_terms``."""
    n = basis.n_max
    return sum(coeff * (dense_monomial(a, n) @ rho @ dense_monomial(b, n))
               for coeff, a, b in _terms(model, basis))


def sector_matrix(model, basis):
    """The generator on the whole delta = 0 sector, as a scipy sparse matrix from ``_terms``.

    Row (u, v) of ``A rho B`` reads the entry at (u + sa, v - sb) with the
    weight ``A[u, u + sa] * B[v - sb, v]``; the column is found by
    searchsorted on the sorted sector indices, and repeats are summed.
    """
    d = basis.dimension
    indices = _sector_indices(basis)
    u, v = np.divmod(indices, d)
    rows, cols, vals = [], [], []
    for coeff, (sa, wa), (sb, wb) in _terms(model, basis):
        a_w, b_w = wa[u], _shifted(wb, (-sb[0], -sb[1]), basis)[v]
        keep = (a_w != 0) & (b_w != 0)
        src = ((u + _flat(sa, basis)) * d + v - _flat(sb, basis))[keep]
        cols.append(np.searchsorted(indices, src))
        assert np.array_equal(indices[cols[-1]], src)  # the generator keeps the sector
        rows.append(np.flatnonzero(keep))
        vals.append(coeff * a_w[keep] * b_w[keep])
    shape = (len(indices), len(indices))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=shape).tocsc()


def dense_orbit_matrix(model, basis):
    """The generator on the orbits, written out densely from the monomials of ``_terms``.

    The superoperator entry ((u, v), (a, c)) of ``A rho B`` is
    ``A[u, a] * B[c, v]``.  Rows are kept at the orbit representatives and
    the columns of the delta = 0 sector are summed over each orbit.
    """
    n, d = basis.n_max, basis.dimension
    indices = _sector_indices(basis)
    orbit, reps = _orbits(indices, basis)
    (u, v), (a, c) = np.divmod(reps, d), np.divmod(indices, d)
    by_orbit = np.zeros((len(indices), len(reps)))
    by_orbit[np.arange(len(indices)), orbit] = 1.0
    out = np.zeros((len(reps), len(reps)))
    for coeff, left, right in _terms(model, basis):
        mat_a, mat_b = dense_monomial(left, n), dense_monomial(right, n)
        out += (coeff * mat_a[u][:, a] * mat_b[c][:, v].T) @ by_orbit
    return out


def check_slots(blocks, bounds):
    """Each slot of a level-l row reads an orbit on its block's level, or is empty.

    The blocks reach levels l - 1, l and l + 1.  A row's filled slots hold
    ascending orbit numbers, then the empty ones, each the row's own orbit
    with weight 0.
    """
    size = bounds[-1]
    level = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    for kind, (idx, w) in enumerate(blocks):
        assert np.all((idx >= 0) & (idx < size)), kind
        filled = w != 0
        reached = np.searchsorted(bounds, idx, side="right") - 1  # the level of each column
        assert np.all(np.where(filled, reached == level + kind - 1, idx == np.arange(size))), kind
        assert np.all(~filled[1:] | (filled[:-1] & (idx[1:] > idx[:-1]))), kind


def pair_expectation(rho):
    """<b1 b2> = tr(rho b1 b2) with the dense kron ladders."""
    n = rho.basis.n_max
    b, eye = np.diag(np.sqrt(np.arange(1.0, n)), k=1), np.eye(n)
    return np.trace(rho.elements @ np.kron(b, eye) @ np.kron(eye, b))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": 0.0, "n_param": 1.0, "m_param": 0.0},
        {"gamma": -1.0, "n_param": 1.0, "m_param": 0.0},
        {"gamma": 1.0, "n_param": -0.1, "m_param": 0.0},
        {"gamma": 1.0, "n_param": 1.0, "m_param": 1.5},  # M > sqrt(N(N+1))
        {"gamma": 1.0, "n_param": 1.0, "m_param": -0.5},
        {"gamma": 1.0, "n_param": 1.0, "m_param": 1.0, "heating_rate": -0.01},
        {"gamma": float("nan"), "n_param": 1.0, "m_param": 0.0},
        {"gamma": float("inf"), "n_param": 1.0, "m_param": 0.0},
        {"gamma": 1.0, "n_param": float("inf"), "m_param": 0.0},
        {"gamma": 1.0, "n_param": 1.0, "m_param": float("nan")},
        {"gamma": 1.0, "n_param": 1.0, "m_param": 0.0, "heating_rate": float("nan")},
        {"gamma": 1.0, "n_param": 1.0, "m_param": 0.0, "heating_rate": float("inf")},
    ],
)
def test_model_validation(kwargs):
    with pytest.raises(ValueError):
        LindbladModel(**kwargs)


def test_maximal_correlation_allowed():
    # M = sqrt(N(N+1)) exactly (pure two-mode squeezed bath) must pass.
    n = 16.0 / 9.0
    LindbladModel(gamma=1.0, n_param=n, m_param=np.sqrt(n * (n + 1.0)))


@pytest.mark.parametrize("n_max", [2, 3, 5])
def test_shifted_matches_the_index_formula(n_max, rng):
    """The slice copy against ``weight[u + shift]`` for u + shift inside the box, else 0."""
    basis = FockBasis(n_max)
    weight = rng.standard_normal(basis.dimension)
    m0, m1 = np.divmod(np.arange(basis.dimension), n_max)
    for s0 in range(-2, 3):
        for s1 in range(-2, 3):
            t0, t1 = m0 + s0, m1 + s1
            inside = (t0 >= 0) & (t0 < n_max) & (t1 >= 0) & (t1 < n_max)
            expected = np.where(inside, weight[np.where(inside, t0 * n_max + t1, 0)], 0.0)
            assert np.array_equal(_shifted(weight, (s0, s1), basis), expected), (s0, s1)


def test_superoperator_matrix_matches_apply(rng):
    basis = FockBasis(4)
    model = half_model(0.4, heating=0.05)
    rho = random_density(basis, rng)
    via_apply = apply_terms(model, basis, rho.elements)
    via_matrix = (kron_generator(model, 4) @ rho.elements.reshape(-1)).reshape(rho.elements.shape)
    assert np.max(np.abs(via_apply - via_matrix)) < 1e-12


def test_generator_preserves_trace_and_hermiticity(rng):
    basis = FockBasis(4)
    rho = random_density(basis, rng)
    out = apply_terms(half_model(0.3), basis, rho.elements)
    assert abs(np.trace(out)) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_uncorrelated_bath_gives_thermal_product():
    """With M = 0 the steady state is a thermal state in each mode."""
    n_p = 0.25
    model = LindbladModel(gamma=1.0, n_param=n_p, m_param=0.0)
    basis = FockBasis(14)
    rho = steady_state(model, basis)
    pops = np.real(np.diag(rho.elements)).reshape(14, 14)
    m = np.arange(14)
    geom = (n_p / (n_p + 1.0)) ** m / (n_p + 1.0)
    assert np.allclose(pops, np.outer(geom, geom), atol=1e-8)
    assert moments([rho])["n1"][0] == pytest.approx(n_p, abs=1e-6)
    assert purity(rho) == pytest.approx(1.0 / (2.0 * n_p + 1.0) ** 2, abs=1e-6)


def test_steady_state_moments_and_fidelity():
    model = half_model(0.2)
    basis = FockBasis(12)
    rho = steady_state(model, basis)
    dense_validate(rho.elements)
    assert moments([rho])["n1"][0] == pytest.approx(model.n_param, abs=1e-6)
    assert moments([rho])["n2"][0] == pytest.approx(model.n_param, abs=1e-6)
    corr = pair_expectation(rho)
    assert corr.real == pytest.approx(-model.m_param, abs=1e-6)
    assert abs(corr.imag) < 1e-8
    r = np.arcsinh(np.sqrt(model.n_param))
    assert fidelity(rho, tmss_fock(TmssSpec(r), basis)) > 0.99999
    assert purity(rho) > 0.9999


def test_steady_state_agrees_with_long_time_integration():
    """The level-elimination solve and brute-force integration agree."""
    model = half_model(0.25)
    basis = FockBasis(8)
    direct = steady_state(model, basis)
    times = np.array([0.0, 30.0])
    integrated = evolve(model, basis, times)[-1]
    assert np.max(np.abs(direct.elements - integrated.elements)) < 1e-8


def reference_steady_state(model, basis):
    """Unreduced delta-sector generator, vacuum row bordered by the trace row."""
    d = basis.dimension
    indices = _sector_indices(basis)
    size = len(indices)
    mat = sector_matrix(model, basis).tolil()
    mat[0, :] = 0.0
    mat[0, np.nonzero(indices // d == indices % d)[0]] = 1.0
    rhs = np.zeros(size)
    rhs[0] = 1.0
    full = np.zeros(d * d)
    full[indices] = splu(mat.tocsc()).solve(rhs)
    return full.reshape(d, d)


def test_dense_orbit_oracle_matches_the_master_equation():
    """The test's orbit matrix from ``_terms`` against the generator from the master equation."""
    basis = FockBasis(5)
    model = half_model(0.3, heating=0.05)
    full = kron_generator(model, 5)
    indices = _sector_indices(basis)
    orbit, reps = _orbits(indices, basis)
    by_orbit = np.zeros((len(indices), len(reps)))
    by_orbit[np.arange(len(indices)), orbit] = 1.0
    want = full[np.ix_(reps, indices)] @ by_orbit
    assert np.max(np.abs(dense_orbit_matrix(model, basis) - want)) < 1e-14
    # the sector is closed: no generator entry leads out of it
    outside = np.setdiff1d(np.arange(basis.dimension**2), indices)
    assert np.max(np.abs(full[np.ix_(outside, indices)])) == 0.0


# The last two have zero rates: N = 0 leaves the terms of rate g N with
# weight 0, and the pure decay has no heating either (the source off).
ORBIT_MODELS = pytest.mark.parametrize("model", [
    half_model(0.5, heating=0.1), half_model(0.5), LindbladModel(1.0, 0.3, 0.0),
    LindbladModel(1.0, 0.0, 0.0, 0.05), LindbladModel(1.0, 0.0, 0.0),
], ids=["heated", "unheated", "m0", "n0-heated", "decay"])


@pytest.mark.parametrize("n_max", [2, 3, 5, 8, 10])
@ORBIT_MODELS
def test_orbit_blocks_match_the_dense_orbit_matrix(model, n_max, rng):
    """Every slot block, ``Lo_{l+1}`` read into Up_l's slots, and the slot product, entry by entry.

    The blocks hold each entry at its level: ``Lo_l``, ``D_l`` and ``Up_l``
    reach levels ``l - 1``, ``l`` and ``l + 1``; no slot leaves the orbits.
    ``_apply`` sums each row in the order of its columns, as the CSR
    product of the entries sorted by row and column does, bit for bit: the
    bytes of ``golden/evolve_vacuum.csv`` depend on that order.
    """
    basis = FockBasis(n_max)
    want = dense_orbit_matrix(model, basis)
    bounds, blocks = _orbit_blocks(_terms(model, basis), basis)
    assert [len(idx) for idx, _ in blocks] == ([4, 5, 4] if model.m_param else [2, 1, 2])
    check_slots(blocks, bounds)
    mat = slot_matrix(blocks, bounds[-1])
    got = mat.toarray()
    assert np.array_equal(got != 0, want != 0)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    for x in rng.standard_normal((3, bounds[-1])):
        got = _apply(blocks, x)
        assert np.all(np.abs(got - want @ x) <= 1e-13 * (np.abs(want) @ np.abs(x)))
        assert np.array_equal(got, mat @ x)
    (up_idx, _) = blocks[2]
    transposed = slot_matrix([(up_idx, _lowering_by_column(blocks, float))], bounds[-1]).toarray()
    level = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    upper = level[:, None] + 1 == level[None, :]
    assert np.all(np.abs(transposed - want.T * upper) <= 1e-15 * np.abs(want.T))


@pytest.mark.parametrize("n_max, orbits, itype", [(57, 32509, np.int16), (58, 34220, np.int32)])
def test_slot_columns_widen_to_int32_past_the_int16_orbits(n_max, orbits, itype, rng):
    """Orbit numbers fit int16 through n_max 57; from n_max 58 the slot columns are int32.

    On the heated eps/kappa 0.7, h 0.02 model every slot reads its block's
    level or is empty, and ``_apply`` equals the CSR product of the same
    slots bit for bit.
    """
    basis = FockBasis(n_max)
    bounds, blocks = _orbit_blocks(_terms(half_model(0.7, heating=0.02), basis), basis)
    assert bounds[-1] == orbits
    assert [idx.dtype for idx, _ in blocks] == [np.dtype(itype)] * 3
    check_slots(blocks, bounds)
    x = rng.standard_normal(orbits)
    assert np.array_equal(_apply(blocks, x), slot_matrix(blocks, orbits) @ x)


def test_sector_residual_matches_dense_generator(rng):
    """The certification route: L(rho) pushed entry by entry equals the dense generator."""
    basis = FockBasis(5)
    model = half_model(0.3, heating=0.05)
    indices = _sector_indices(basis)
    values = rng.normal(size=len(indices))
    full = kron_generator(model, 5)
    expected = full[np.ix_(indices, indices)] @ values
    got = _sector_residual(_terms(model, basis), basis, indices, values)
    assert np.max(np.abs(got - expected)) < 1e-13


@pytest.mark.parametrize("n_max", [2, 3, 7])
def test_position_table_matches_searchsorted_lookup(n_max, rng):
    """The table read flat at ``vec // n_max`` against ``_lookup`` on the sorted members.

    Every sector index is read; the members are the whole sector and a
    random half of it, so the other half reads -1.
    """
    basis = FockBasis(n_max)
    indices = _sector_indices(basis)
    half = np.sort(rng.choice(indices, len(indices) // 2, replace=False))
    for members in (indices, half):
        positions = rng.permutation(len(members))
        table = _position_table(members, positions, basis)
        assert table.shape == (n_max, n_max, n_max)
        got = table.reshape(-1)[indices // n_max]
        assert np.array_equal(got, _lookup(members, positions, indices))


def searchsorted_residual(terms, basis, indices, values):
    """``_sector_residual`` with each target found by ``searchsorted`` on ``indices``."""
    d = basis.dimension
    u, v = np.divmod(indices, d)
    pairs = {}
    for coeff, (sa, wa), (sb, wb) in terms:
        pairs.setdefault((sa, sb), []).append((coeff, wa, wb))
    out = np.zeros(len(indices))
    for (sa, sb), group in pairs.items():
        w = sum(coeff * _shifted(wa, (-sa[0], -sa[1]), basis)[u] * wb[v] for coeff, wa, wb in group)
        keep = w != 0
        tgt = (u[keep] - _flat(sa, basis)) * d + v[keep] + _flat(sb, basis)
        out[np.searchsorted(indices, tgt)] += w[keep] * values[keep]
    return out


def test_sector_residual_matches_searchsorted_reference():
    """On a solved heated state the position table scatters exactly as searchsorted does."""
    model, basis = half_model(0.3, heating=0.05), FockBasis(12)
    rho = steady_state(model, basis)
    indices = _sector_indices(basis)
    values = _lookup(rho.keys, rho.values.real, indices, 0.0)
    terms = _terms(model, basis)
    got = _sector_residual(terms, basis, indices, values)
    assert np.array_equal(got, searchsorted_residual(terms, basis, indices, values))
    assert np.abs(got).max() > 0.0


@pytest.mark.parametrize("n_max", [8, 20])
@ORBIT_MODELS
def test_coupled_product_matches_dense_products(model, n_max, rng):
    """Every level's gathered Up_l X Lo_{l+1} against the two dense products, within 1e-13."""
    basis = FockBasis(n_max)
    bounds, blocks = _orbit_blocks(_terms(model, basis), basis)
    lowered = _lowering_by_column(blocks, float)
    sizes = np.diff(bounds)
    _, _, (up_idx, up_w) = blocks
    assert len(up_idx) <= 4  # one slot per level-raising shift pair
    mat = slot_matrix(blocks, bounds[-1])
    for lv in range(1, len(sizes) - 1):
        at, above = slice(bounds[lv], bounds[lv + 1]), slice(bounds[lv + 1], bounds[lv + 2])
        x = rng.standard_normal((sizes[lv + 1], sizes[lv + 1]))
        want = mat[at, above].toarray() @ x @ mat[above, at].toarray()
        space = np.empty((sizes[lv + 1] + max(sizes[lv + 1], sizes[lv])) * sizes[lv])
        got = _coupled(up_idx[:, at] - bounds[lv + 1], up_w[:, at], lowered[:, at], x, space)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), lv


def test_steady_state_memory_is_the_store_three_level_blocks_and_the_slots():
    """At n_max 30 (largest level 240) the whole solve holds no sector-wide triplet array.

    The traced peak of the steady_state call stays below the float32 store
    and three float32 blocks of the largest level, plus the slot arrays:
    int16 columns and float64 weights for 13 shift pairs, and the float32
    weights of ``Lo_{l+1}`` transposed in the 4 slots of ``Up_l``.
    """
    model, basis = half_model(0.5, heating=0.05), FockBasis(30)
    sizes = _level_sizes(30).astype(float)
    tracemalloc.start()
    try:
        steady_state(model, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = (13 * (2 + 8) + 4 * 4) * sizes.sum()
    assert peak < 4 * ((sizes[1:] ** 2).sum() + 3 * sizes.max() ** 2) + slots


def check_against_reference(model, basis):
    """The steady state is real, T/S invariant and equal to the unreduced reference."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rho = steady_state(model, basis).elements
    assert np.max(np.abs(rho - reference_steady_state(model, basis))) <= 1e-12
    # real, and invariant under Hermitian transpose T and mode swap S
    n = basis.n_max
    assert np.max(np.abs(rho.imag)) == 0.0
    assert np.array_equal(rho, rho.T)
    swapped = rho.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
    assert np.array_equal(rho, swapped)
    return rho


# (eps/kappa, heating, gamma, n_max).  From n_max 20 the largest level
# (110 orbits, 240 at n_max 30) is past _INVERSE_LEAF, so the inverse recurses.
@pytest.mark.parametrize("eps, heating, gamma, n_max", [
    *[pytest.param(0.5, h, 1.0, n, id=f"{h}-{n}") for h in (0.0, 0.1) for n in (10, 20, 30)],
    *[pytest.param(0.8, 0.05, 1.0, n, id=f"eps0.8-h0.05-{n}") for n in (20, 30)],
    *[pytest.param(0.5, 0.1, 1e3, n, id=f"eps0.5-h0.1-gamma1e3-{n}") for n in (20, 30)],
])
def test_steady_state_matches_unreduced_reference(eps, heating, gamma, n_max):
    n_p, m_p = effective_N_M(NopaParams(eps, 1.0))
    model = LindbladModel(gamma=gamma, n_param=n_p, m_param=m_p, heating_rate=heating)
    check_against_reference(model, FockBasis(n_max))


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(0.05, 0.6),
    heating=st.floats(0.0, 0.2),
    n_max=st.integers(4, 12),
)
def test_steady_state_properties(eps, heating, n_max):
    """Certified, unit trace, positive and equal to the reference over the model range."""
    rho = check_against_reference(half_model(eps, heating=heating), FockBasis(n_max))
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho.real).min() >= -1e-10


def test_steady_state_uncertified_raises(monkeypatch):
    monkeypatch.setattr(lindblad, "STEADY_RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericalError, match="residual"):
        steady_state(half_model(0.2), FockBasis(6))


@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # eps 0.7 at n_max 10
@pytest.mark.parametrize("n_max", [10, 25])
def test_steady_state_certifies_relative_to_the_rates(caplog, n_max):
    """At eps/kappa 0.7 and gamma 1e3 the residual is certified in units of s = 1024.

    The state agrees with gamma 1's as far as the system's condition number
    (1e4 to 1e5) allows: 2.8e-14 at n_max 10.
    """
    model = half_model(0.7)
    fast = LindbladModel(1e3, model.n_param, model.m_param)
    with caplog.at_level(logging.INFO, logger="eprsim.lindblad"):
        rho = steady_state(fast, FockBasis(n_max))
    (line,) = [r.getMessage() for r in caplog.records if r.name == "eprsim.lindblad"]
    assert "in units of s = 1024;" in line
    ref = steady_state(model, FockBasis(n_max)).values
    assert np.abs(rho.values - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # eps 0.5 and 0.7 at small n_max
@pytest.mark.parametrize("eps, n_max", [
    (0.3, 5), (0.3, 8), (0.3, 20), (0.5, 5), (0.5, 8), (0.5, 20), (0.7, 8), (0.7, 20)])
def test_subnormal_gamma_gives_gamma_1s_state(eps, n_max):
    """gamma 5e-324 without heating is 1 in units of s = 2**-1074: the state is gamma 1's, bit for bit.

    Rates multiplied by N + 1, N and 2M before the division by s would
    round to a few bits, and the residual of these models would be 6.6 to
    35 in units of s.
    """
    model = half_model(eps)
    rho = steady_state(LindbladModel(5e-324, model.n_param, model.m_param), FockBasis(n_max))
    ref = steady_state(model, FockBasis(n_max))
    assert np.array_equal(rho.keys, ref.keys)
    assert np.array_equal(rho.values, ref.values)


def test_singular_level_block_raises(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(NumericalError, match="level elimination failed: Singular matrix"):
        steady_state(half_model(0.2), FockBasis(6))


def test_non_finite_level_inverse_raises(monkeypatch):
    """A leaf inverse of NaNs stops the elimination at the top level (10 at n_max 6)."""
    monkeypatch.setattr(np.linalg, "inv", lambda a: np.full_like(a, np.nan))
    with pytest.raises(NumericalError,
                       match="^steady-state level elimination failed: "
                             "the inverse of level 10 is not finite$"):
        steady_state(half_model(0.2), FockBasis(6))


@pytest.mark.parametrize("size", [1, 64, 65, 127, 421])
def test_block_inverse_matches_numpy(size, rng):
    """Sizes at and just past the leaf, and odd splits, against np.linalg.inv."""
    a = rng.standard_normal((size, size)) + size * np.eye(size)
    got = np.empty_like(a)
    _inverse(a, got)
    assert np.max(np.abs(got - np.linalg.inv(a))) <= 1e-14 * np.max(np.abs(got))


@pytest.mark.parametrize("n_max", [2, 3, 5, 8, 13, 40])
def test_level_sizes_count_the_orbits(n_max):
    basis = FockBasis(n_max)
    indices = _sector_indices(basis)
    _, reps = _orbits(indices, basis)
    assert np.array_equal(_level_sizes(n_max), np.bincount(_level(reps, basis)))


def test_steady_state_budgets_admit_n_max_80():
    """The work budget admits n_max 80 and 100 and refuses n_max 101."""
    work = {n: (_level_sizes(n).astype(float) ** 3).sum() for n in (80, 100, 101)}
    assert work[80] <= work[100] <= lindblad._STEADY_WORK_BUDGET < work[101]
    with pytest.raises(NumericalError, match=r"work sum n_l\*\*3 = 5.13e\+11 exceeds"):
        steady_state(half_model(0.5), FockBasis(101))


@pytest.mark.parametrize("n_max, work_budget, work, budget", [
    (130, None, r"2.96e\+12", r"5e\+11"),
    (55108, None, r"\S+", r"5e\+11"),
    (130, 2.0**40, r"2.96e\+12", r"1e\+12"),
], ids=["130-None-the level inverses would need 4 * sum n_l**2 = 3.59 GiB",
        "55108",
        "130-1099511627776.0-the work budget raised to 2**40 still refuses"])
def test_steady_state_over_budget_raises_before_allocating(monkeypatch, n_max, work_budget,
                                                           work, budget):
    """The work budget is the only gate on the box's size, read when steady_state runs."""
    if work_budget is not None:
        monkeypatch.setattr(lindblad, "_STEADY_WORK_BUDGET", work_budget)
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError,
                           match=f"^steady-state: the level elimination's work sum n_l\\*\\*3 = "
                                 f"{work} exceeds the budget {budget}; lower n_max$"):
            steady_state(half_model(0.5), FockBasis(n_max))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20  # the level sizes alone: 2 n_max - 1 counts


def nan_model():
    """A model whose N is NaN, set past LindbladModel's own check."""
    model = half_model(0.5)
    object.__setattr__(model, "n_param", float("nan"))
    return model


@pytest.mark.parametrize("model, n_max, p, nbar", [
    (half_model(0.97), 25, "0.977", "1.08e+03"),
    (half_model(0.97), 100, "0.911", "1.08e+03"),
    (nan_model(), 6, "nan", "nan"),
], ids=["eps0.97-25", "eps0.97-100", "nan"])
def test_steady_state_refuses_a_box_the_state_does_not_fit(model, n_max, p, nbar):
    """At eps/kappa 0.97 (N = 1078) the box misses most of the state, and nothing is allocated.

    At n_max 100 the work budget would admit the solve, with a 0.98 GiB
    store.  A tail that is not a number is refused too.
    """
    message = (f"steady-state: an n_max {n_max} box misses p = (nbar / (nbar + 1))**n_max = {p} "
               f"of each mode's thermal state (nbar = {nbar}), over the bound 0.5; raise n_max")
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            steady_state(model, FockBasis(n_max))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**16


def test_tail_without_heating_is_the_tmss_tail():
    """nbar is N, and p is tanh(r)**(2 n_max) for the TMSS of sinh(r)**2 = N."""
    for eps in (0.0, 0.3, 0.5, 0.7, 0.9):
        model = half_model(eps)
        r = np.arcsinh(np.sqrt(model.n_param))
        for n_max in (6, 25, 60):
            assert lindblad._tail(model, n_max) == (
                model.n_param, pytest.approx(np.tanh(r) ** (2 * n_max), rel=1e-12, abs=0.0))


def test_tail_is_the_marginal_tail_of_the_heated_fock_state():
    """Each mode's population at or above K is the thermal tail q**K, with q = nbar / (nbar + 1).

    The box renormalises the share p = q**n_max it misses, so the
    population it holds at or above K is ``(q**K - p) / (1 - p)``; the
    plain ``q**K`` is p (1 - q**K) above it, 1.3e-8 of it at K = 20.
    """
    model, n_max = half_model(0.5, heating=0.05), 60
    rho = steady_state(model, FockBasis(n_max))
    u, v = np.divmod(rho.keys, n_max * n_max)
    diag = u == v
    for mode, level in enumerate(np.divmod(u[diag], n_max)):
        pops = np.bincount(level, rho.values.real[diag], n_max)
        nbar, p = lindblad._tail(model, n_max)
        q = nbar / (nbar + 1.0)
        for k in (5, 10, 20):
            assert pops[k:].sum() == pytest.approx((q**k - p) / (1.0 - p), rel=1e-12), (mode, k)


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e), n_param=st.floats(0.0, 50.0),
       m_frac=st.floats(0.0, 1.0), heating=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)))
def test_tail_occupation_is_the_gaussian_routes(gamma, n_param, m_frac, heating):
    """The closed-form nbar equals the Gaussian steady state's (cov[0, 0] - 1) / 2."""
    model = LindbladModel(gamma, n_param, m_frac * np.sqrt(n_param * (n_param + 1.0)), heating)
    cov = steady_covariance(model_from_lindblad(model)).cov
    assert lindblad._tail(model, 10)[0] == pytest.approx((cov[0, 0] - 1.0) / 2.0,
                                                         rel=1e-12, abs=1e-15)


def test_steady_state_logs_solver_figures(caplog):
    with caplog.at_level(logging.INFO, logger="eprsim.lindblad"):
        steady_state(half_model(0.2), FockBasis(8))
    (line,) = [r.getMessage() for r in caplog.records if r.name == "eprsim.lindblad"]
    assert re.search(
        r"^steady_state: level elimination, sector 344, reduced 120, nnz 1069, levels 15, "
        r"largest level 20, stored 1475 \(0\.0 MB; slot blocks 0\.0 MB\), tail bound p 2\.3e-07, "
        r"backward error \S+ refined to \S+ in [1-6] sweeps, residual \S+ in units of s = 1; "
        r"assemble \S+s, eliminate \S+s, certify \S+s$", line
    ), line


def float64_reference(model, basis):
    """The state from ``_eliminate_levels`` in float64, called directly, and its residual.

    The steps steady_state takes around its float32 elimination: the model
    in units of the rate scale s, the trace normalised over the sector, the
    unreduced residual in units of s.  (None, inf) where a level inverse is
    singular or not finite.
    """
    _, model = _rate_scaled(model)
    bounds, blocks = _orbit_blocks(_terms(model, basis), basis)
    try:
        with np.errstate(all="ignore"):
            x = _eliminate_levels(blocks, bounds, np.float64)[0]
    except np.linalg.LinAlgError:
        return None, np.inf
    d = basis.dimension
    indices = _sector_indices(basis)
    orbit, _ = _orbits(indices, basis)
    values = x[orbit] / x[orbit[indices // d == indices % d]].sum()
    resid = np.linalg.norm(_sector_residual(_terms(model, basis), basis, indices, values))
    return DensityMatrix(basis, indices, values), resid


@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # eps 0.7 at n_max 6
@pytest.mark.parametrize("n_max", [6, 12])
def test_float32_elimination_certifies_what_float64_certifies(n_max):
    """Each model is refused by the tail bound, or certifies exactly when float64 does.

    The float64 elimination is called directly.  At eps/kappa 0.9 and 0.97
    the box misses more than half of each mode's state and is refused, but
    for gamma 1e-300 with heating, where nbar is 1.
    """
    models = {(eps, h, g): LindbladModel(g, *effective_N_M(NopaParams(eps, 1.0)), h)
              for eps in (0.3, 0.7, 0.9, 0.97) for h in (0.0, 0.02) for g in (1.0, 1e3, 1e-300)}
    refused = set()
    for key, model in models.items():
        try:
            steady_state(model, FockBasis(n_max))
            certified = True
        except NumericalError as exc:
            if "box misses p" in str(exc):
                refused.add(key)
                continue
            certified = False
        _, resid = float64_reference(model, FockBasis(n_max))
        assert certified == (resid < lindblad.STEADY_RESIDUAL_TOL), key
    assert refused == {(eps, h, g) for eps, h, g in models if eps >= 0.9 and not (h and g < 1)}


@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # eps 0.7 at n_max 10
@pytest.mark.parametrize("n_max", [10, 20, 30])
@pytest.mark.parametrize("eps, heating", [(0.3, 0.0), (0.3, 0.05), (0.7, 0.0), (0.7, 0.05)])
def test_float32_state_agrees_with_the_float64_state(eps, heating, n_max):
    """The refined float32 state against the float64 one, relative to its largest entry.

    Both are backward stable to about 1e-17, but at eps/kappa 0.7 the orbit
    system's condition number (1e4 to 1e5) leaves each about 1e-13 from a
    refinement with long double residuals, in the direction the trace
    normalises: at n_max 10 without heating float32 is 9.3e-14 from it and
    float64 1.3e-13, on opposite sides, so the two differ by 2.2e-13.
    """
    model = half_model(eps, heating=heating)
    rho = steady_state(model, FockBasis(n_max))
    ref, _ = float64_reference(model, FockBasis(n_max))
    assert np.array_equal(rho.keys, ref.keys)
    assert np.abs(rho.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()


def test_near_threshold_steady_state():
    """Criterion 02's checks at eps/kappa = 0.6 (N about 3.5), n_max = 60."""
    model = half_model(0.6)
    basis = FockBasis(60)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        rho = steady_state(model, basis)
    r = np.arcsinh(np.sqrt(model.n_param))
    assert fidelity(rho, tmss_fock(TmssSpec(r), basis)) > 0.999
    assert purity(rho) > 0.998
    assert abs(moments([rho])["n1"][0] - model.n_param) < 1e-3


def test_steady_state_is_unique_zero_mode():
    """The full generator has exactly one vanishing singular value."""
    sv = scipy.linalg.svdvals(kron_generator(half_model(0.3), 4))
    assert sv[-1] < 1e-12 * sv[0]
    assert sv[-2] > 1e-6 * sv[0]


def test_steady_state_with_heating():
    """Extra heating mixes the state exactly as the moment equations say."""
    gamma, h = 1.0, 0.15
    model = half_model(0.2, heating=h)
    # heating widens the number distribution, so this needs more headroom
    # than the h = 0 cases to hit the 1e-6 oracle tolerance
    basis = FockBasis(16)
    rho = steady_state(model, basis)
    n_expected = (gamma * model.n_param + h) / (gamma + h)
    assert moments([rho])["n1"][0] == pytest.approx(n_expected, abs=1e-6)
    corr_expected = -gamma * model.m_param / (gamma + h)
    assert pair_expectation(rho).real == pytest.approx(corr_expected, abs=1e-6)
    # heating destroys purity
    assert purity(rho) < 0.99


def test_steady_state_truncation_warning():
    model = half_model(0.6)  # N is about 3.5: far too hot for n_max = 8
    with pytest.warns(TruncationWarning, match=r"^steady_state: population \S+ in the top Fock level"):
        steady_state(model, FockBasis(8))


def test_evolve_relaxation_matches_closed_form():
    model = half_model(0.3)
    basis = FockBasis(14)
    times = np.linspace(0.0, 3.0, 7)
    result = moments(evolve(model, basis, times))
    decay = 1.0 - np.exp(-2.0 * times)
    assert np.allclose(result["n1"], model.n_param * decay, atol=1e-7)
    assert np.allclose(result["n2"], model.n_param * decay, atol=1e-7)
    assert np.allclose(result["b1b2"].real, -model.m_param * decay, atol=1e-7)
    assert np.max(np.abs(result["b1b2"].imag)) < 1e-9


def kron_generator(model, n):
    """Dense generator on row-major vec(rho), written out from the master equation.

    ``A rho B`` vectorizes to ``kron(A, B.T)``.
    """
    b = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
    eye_n, eye = np.eye(n), np.eye(n * n)
    b1, b2 = np.kron(b, eye_n), np.kron(eye_n, b)

    def sandwich(a, c):
        return np.kron(a, c.T)

    def dissipator(rate, lop):
        ldl = lop.T @ lop
        return rate * (2.0 * sandwich(lop, lop.T) - sandwich(ldl, eye) - sandwich(eye, ldl))

    g, n_p, m_p, h = model.gamma, model.n_param, model.m_param, model.heating_rate
    gen = sum(dissipator(g * (n_p + 1.0), bj) + dissipator(g * n_p, bj.T)
              + dissipator(2.0 * h, bj) + dissipator(h, bj.T) for bj in (b1, b2))
    for x1, x2 in ((b1, b2), (b1.T, b2.T)):
        gen += 2.0 * g * m_p * (sandwich(x1, x2) + sandwich(x2, x1)
                                - sandwich(x1 @ x2, eye) - sandwich(eye, x1 @ x2))
    return gen


@pytest.mark.parametrize("start", ["vacuum"])
def test_evolve_matches_dense_expm(caplog, start):
    """Heated relaxation of the vacuum from t = 0 over long steps, on the orbits path."""
    model = half_model(0.3, heating=0.1)
    basis = FockBasis(6)
    times = np.linspace(0.0, 5.0, 4)
    prop = scipy.linalg.expm(kron_generator(model, 6) * (times[1] - times[0]))
    with caplog.at_level(logging.INFO, logger="eprsim.lindblad"):
        states = evolve(model, basis, times)
    assert "evolve: orbits path" in caplog.text
    vec = vacuum_state(basis).elements.reshape(-1)
    for state in states:
        assert np.max(np.abs(state.elements.reshape(-1) - vec)) <= 1e-10
        vec = prop @ vec


@pytest.mark.parametrize("start", ["vacuum"])
def test_evolve_on_uniform_grid_matches_dense_expm(start):
    """Heated relaxation of the vacuum on a uniform grid that starts at t = 1."""
    model = half_model(0.3, heating=0.1)
    basis = FockBasis(6)
    times = np.linspace(1.0, 3.0, 5)
    prop = scipy.linalg.expm(kron_generator(model, 6) * (times[1] - times[0]))
    states = evolve(model, basis, times)
    vec = vacuum_state(basis).elements.reshape(-1)
    for state in states:
        assert np.max(np.abs(state.elements.reshape(-1) - vec)) <= 1e-10
        assert np.array_equal(state.elements, state.elements.T)
        vec = prop @ vec


def test_evolve_restarts_on_the_shipped_grid(caplog):
    """configs/evolve_vacuum.json restarts the capped basis and stays with expm_multiply.

    The whole grid would need 224 vectors, so the 128-vector basis keeps its
    certified steps and restarts from the last of them.  Each restart starts
    from a state that carries rounding; the states stay within 1e-12 of
    scipy's expm_multiply route element by element (3.2e-14 measured).
    """
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "evolve_vacuum.json").read_text(encoding="utf-8"))
    model = half_model(cfg["model"]["epsilon_over_kappa"])
    basis, times = FockBasis(cfg["n_max"]), np.linspace(**cfg["times"])
    with caplog.at_level(logging.INFO, logger="eprsim.lindblad"):
        states = evolve(model, basis, times)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "eprsim.lindblad"]
    basis_size, restarts = map(int, re.search(r"Krylov basis (\d+), restarts (\d+),", line).groups())
    assert basis_size == lindblad._KRYLOV_CAP
    assert restarts > 0
    for got, want in zip(states, expm_multiply_evolve(model, basis, times), strict=True):
        assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_evolve_logs_path_and_figures(caplog):
    with caplog.at_level(logging.INFO, logger="eprsim.lindblad"):
        evolve(half_model(0.2), FockBasis(8), [0.0, 1.0])
    (line,) = [r.getMessage() for r in caplog.records if r.name == "eprsim.lindblad"]
    assert re.search(
        r"^evolve: orbits path, 120 unknowns, nnz 1072, Krylov basis \d+, restarts 0, "
        r"substeps 1, largest estimate \S+; assemble \S+s, propagate \S+s$", line
    ), line


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(0.05, 0.6),
    heating=st.floats(0.0, 0.1),
    n_max=st.integers(4, 12),
    span=st.floats(0.05, 10.0),
    num=st.integers(2, 11),
)
def test_evolve_matches_expm_multiply(eps, heating, n_max, span, num):
    """The Krylov propagation against scipy's expm_multiply, element by element."""
    model, basis = half_model(eps, heating=heating), FockBasis(n_max)
    times = np.linspace(0.0, span, num)
    for got, want in zip(evolve(model, basis, times), expm_multiply_evolve(model, basis, times)):
        assert np.max(np.abs(got.elements - want.elements)) <= 1e-12


@pytest.mark.parametrize("n_max", [4, 5, 6, 7, 8, 9, 10])
@pytest.mark.parametrize("heating", [0.0, 0.1])
def test_evolve_ends_the_basis_on_an_invariant_subspace(caplog, heating, n_max):
    """With M = 0 the vacuum reaches few orbits, and Arnoldi ends where they are spanned.

    Gram-Schmidt leaves there a remainder of rounding, not an exact zero;
    normalised, it grew the Hessenberg until the exponential overflowed, and
    n_max 6-8 certified no step.  The basis now ends without a restart or a
    halved step, and the states stay within 1e-12 of expm_multiply's
    (4.2e-15 measured), with no RuntimeWarning.
    """
    model, basis = LindbladModel(1.0, 0.3, 0.0, heating), FockBasis(n_max)
    times = np.linspace(0.0, 3.0, 7)
    with warnings.catch_warnings(), caplog.at_level(logging.INFO, logger="eprsim.lindblad"):
        warnings.simplefilter("error")
        states = evolve(model, basis, times)
    assert "restarts 0, substeps 1," in caplog.text
    for got, want in zip(states, expm_multiply_evolve(model, basis, times), strict=True):
        assert np.max(np.abs(got.values - want.values)) <= 1e-12


@pytest.mark.parametrize("gamma, heating, n_max", [(1e-3, 1e-4, 6), (1e3, 0.0, 6), (1e4, 0.0, 4)])
def test_evolve_in_units_of_the_rate_scale_keeps_every_bit(gamma, heating, n_max):
    """evolve assembles in units of s = 2**-10, 2**10 or 2**13 and steps by s: the unscaled states.

    The rates, the slots, the Arnoldi vectors and tau * H_m all move by the
    power of two alone, and the step estimates are read in the model's
    units, so the propagation takes the same steps and restarts.  Read in
    units of s instead, the estimate at gamma 1e3 certified a basis whose
    last state's trace is off by 1.0.
    """
    base = half_model(0.3)
    model, basis = LindbladModel(gamma, base.n_param, base.m_param, heating), FockBasis(n_max)
    times = np.linspace(0.0, 5.0, 3)
    bounds, blocks = _orbit_blocks(_terms(model, basis), basis)  # in the model's own units
    vec = np.zeros(bounds[-1])
    vec[0] = 1.0
    want, _ = _krylov_propagate(blocks, vec, 2.5, 2)
    indices = _sector_indices(basis)
    orbit, _ = _orbits(indices, basis)
    for got, w in zip(evolve(model, basis, times), want, strict=True):
        assert np.array_equal(got.values, DensityMatrix(basis, indices, w[orbit]).values)


def test_unsqueezed_relaxation_matches_closed_form():
    """At M = 0, n_max 20, <n1> relaxes as N (1 - e^{-2t}) within 1e-11 (3.2e-12 measured)."""
    model = LindbladModel(1.0, 0.3, 0.0)
    times = np.linspace(0.0, 3.0, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n1 = moments(evolve(model, FockBasis(20), times))["n1"]
    assert np.max(np.abs(n1 - model.n_param * (1.0 - np.exp(-2.0 * times)))) <= 1e-11


def relative_gap(got, want):
    return np.abs(got - want).sum(axis=0).max() / np.abs(want).sum(axis=0).max()


def with_norm(h, norm):
    """``h`` scaled to the 1-norm ``norm`` (in [8, 16)) exactly.

    The entries are put on a 2**-20 grid a little below ``norm``, so every
    column sum is exact, and the largest entry of the largest column is
    topped up by the difference.
    """
    h = np.round(h * (0.999 * norm / np.abs(h).sum(axis=0).max()) * 2.0 ** 20) / 2.0 ** 20
    col = np.abs(h).sum(axis=0).argmax()
    row = np.abs(h[:, col]).argmax()
    h[row, col] += np.copysign(norm - np.abs(h[:, col]).sum(), h[row, col])
    assert np.abs(h).sum(axis=0).max() == norm
    return h


def test_expm_matches_scipy(rng):
    """The degree-55 Taylor exponential on the zero matrix, random matrices and generator Hessenbergs.

    The Hessenbergs are scaled to 1-norms from 1e-3 to 1e3, among them
    theta_55 = 9.9 exactly, which takes no squaring, the next float above
    it, which takes one, and 310, about the largest ||tau H||_1 that evolve
    exponentiates on the shipped grid (307.7).
    """
    assert relative_gap(_expm(np.zeros((4, 4))), np.eye(4)) <= 1e-13
    for n in (1, 3, 10, 40):
        a = rng.standard_normal((n, n))
        assert relative_gap(_expm(a), scipy.linalg.expm(a)) <= 1e-13, n
    basis = FockBasis(8)
    bounds, blocks = _orbit_blocks(_terms(half_model(0.3, heating=0.1), basis), basis)
    dense = slot_matrix(blocks, bounds[-1]).toarray()
    hess = scipy.linalg.hessenberg(dense)
    for h in (hess, hess[:64, :64]):
        norms = (1e-3, 1.0, 10.0, 100.0, 310.0, 1e3)
        scaled = [h * (norm / np.abs(h).sum(axis=0).max()) for norm in norms]
        for a in scaled + [with_norm(h, 9.9), with_norm(h, np.nextafter(9.9, 10.0))]:
            assert relative_gap(_expm(a), scipy.linalg.expm(a)) <= 1e-13, np.abs(a).sum(axis=0).max()


def test_evolve_basis_memory_is_bounded_by_the_cap():
    """At n_max 40 a square Arnoldi basis would take 1 GB; the propagation holds the cap.

    The traced peak covers the basis (cap x size), the output vectors, eight
    orbit-length vectors (the slot product's temporaries and Arnoldi's) and
    16 cap x cap matrices: the Hessenberg matrix and the small exponential's.
    """
    basis = FockBasis(40)
    bounds, blocks = _orbit_blocks(_terms(half_model(0.3), basis), basis)
    size = bounds[-1]
    vec = np.zeros(size)
    vec[0] = 1.0
    tracemalloc.start()
    try:
        out, (largest, _, _, _) = _krylov_propagate(blocks, vec, 0.4, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cap = lindblad._KRYLOV_CAP
    assert largest == cap < size
    assert peak <= 8 * (size * (cap + len(out) + 8) + 16 * cap ** 2)


def test_evolve_uncertified_raises(monkeypatch):
    """A step no basis or step halving can certify ends in NumericalError, not a loop."""
    monkeypatch.setattr(lindblad, "_KRYLOV_TOL", -1.0)
    with pytest.raises(NumericalError, match="certifies no step"):
        evolve(half_model(0.2), FockBasis(6), [0.0, 1.0])


def test_heated_relaxation_approaches_the_gaussian_route():
    """Fock Var(Q1 + Q2) against the closed-form covariance at eps 0.5, h 0.05, t in [0, 5].

    The gap is the truncation's (0.61 / 0.19 / 0.054 at n_max 12 / 16 / 20).
    """
    model = half_model(0.5, heating=0.05)
    times = np.linspace(0.0, 5.0, 11)
    dd, vac = model_from_lindblad(model), CovarianceState(np.eye(4))
    exact = np.array([epr_variances(evolve_covariance(vac, dd, t))[0] for t in times])
    gaps = [np.abs(moments(evolve(model, FockBasis(n_max), times))["var_sum_q"] - exact).max()
            for n_max in (12, 16, 20)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.06


def test_orbit_generator_relaxes_at_the_gaussian_rate():
    """The slowest nonzero decay rate rises with n_max toward the drift's 2 (gamma + h).

    A quadratic Lindbladian's rates are sums of its drift's (Prosen, New J.
    Phys. 10, 043026 (2008)); the truncation slows the slowest.
    """
    model = half_model(0.3, heating=0.05)
    rates = []
    for n_max in (4, 6, 8, 10):
        basis = FockBasis(n_max)
        bounds, blocks = _orbit_blocks(_terms(model, basis), basis)
        dense = slot_matrix(blocks, bounds[-1]).toarray()
        decay = -np.linalg.eigvals(dense).real
        rates.append(decay[decay > 1e-9].min())
    assert np.all(np.diff(rates) > 0), rates
    assert abs(rates[-1] - 2.0 * (model.gamma + model.heating_rate)) <= 0.01, rates


def test_evolve_output_states_are_physical():
    model = half_model(0.3)
    basis = FockBasis(10)
    final = evolve(model, basis, np.array([0.0, 1.5]))[-1]
    dense_validate(final.elements)
    assert np.trace(final.elements).real == pytest.approx(1.0, abs=1e-9)


def test_evolve_time_grid_validation():
    model = half_model(0.2)
    basis = FockBasis(6)
    with pytest.raises(ValueError):
        evolve(model, basis, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        evolve(model, basis, np.array([2.0, 2.0]))
    with pytest.raises(ValueError, match="uniform"):
        evolve(model, basis, np.array([0.0, 0.3, 1.7, 5.0]))


def test_purity_range(rng):
    basis = FockBasis(5)
    pure = vacuum_state(basis)
    assert purity(pure) == pytest.approx(1.0, abs=1e-12)
    mixed = random_density(basis, rng)
    assert 0.0 < purity(mixed) < 1.0
