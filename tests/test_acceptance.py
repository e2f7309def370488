"""End-to-end acceptance checks.

Each criterion test prints one ``[criterion NN] PASS/FAIL`` line
(outside pytest's capture) and then asserts, so a plain ``pytest -v`` run
yields a visible per-criterion scoreboard.  Tolerances are part of the package contract
and are asserted exactly as documented in the README.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from eprsim import (
    CovarianceState,
    FockBasis,
    LindbladModel,
    NopaParams,
    TmssSpec,
    cascade_model,
    effective_N_M,
    epr_criterion,
    epr_variances,
    evolve,
    evolve_covariance,
    fidelity,
    mean_phonon,
    model_from_lindblad,
    moments,
    purity,
    squeeze_parameter,
    squeezing_spectra,
    steady_covariance,
    steady_state,
    tmss_fock,
    wigner_analytic,
    wigner_from_density,
)
from eprsim.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def _sparse_ladder(n):
    return sp.csr_matrix(np.diag(np.sqrt(np.arange(1.0, n)), k=1))


def _sparse_expect(rho_elements, op):
    coo = sp.coo_matrix(op)
    return complex(np.sum(coo.data * rho_elements[coo.col, coo.row]))


def _fock_epr_variances(rho):
    """Var(Q1+Q2) and Var(P1-P2) evaluated directly on a density matrix."""
    n = rho.basis.n_max
    b = _sparse_ladder(n)
    eye = sp.identity(n, format="csr")
    b1 = sp.kron(b, eye, format="csr")
    b2 = sp.kron(eye, b, format="csr")
    q_sum = b1 + b1.T + b2 + b2.T
    p_diff = -1j * (b1 - b1.T) + 1j * (b2 - b2.T)
    out = []
    for op in (q_sum, p_diff):
        mean = _sparse_expect(rho.elements, op).real
        second = _sparse_expect(rho.elements, (op @ op).tocsr()).real
        out.append(second - mean**2)
    return tuple(out)


def test_criterion_01_nm_identities(capsys):
    start = time.perf_counter()
    eps_grid = np.arange(0.05, 1.0, 0.05)
    worst = 0.0
    for eps in eps_grid:
        n, m = effective_N_M(NopaParams(eps, 1.0))
        # relative for M^2 = N(N+1): the product reaches ~1e5 near threshold,
        # where an absolute 1e-12 would be tighter than one float64 ulp
        worst = max(worst, abs(m**2 - n * (n + 1.0)) / (n * (n + 1.0)))
        gap = np.sqrt(n + 1.0) - np.sqrt(n)
        worst = max(worst, abs(gap - (1.0 - eps) / (1.0 + eps)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _report(capsys, 1, ok, f"N/M identities, worst residual {worst:.2e} in {elapsed:.3f}s")


def test_criterion_02_steady_state_reproduction(capsys, steady_half_coupling):
    model, basis, rho, elapsed = steady_half_coupling
    target = tmss_fock(TmssSpec(np.log(3.0)), basis)
    fid = fidelity(rho, target)
    pur = purity(rho)
    n1 = mean_phonon(rho, 0)
    ok = (
        fid > 0.999
        and pur > 0.998
        and abs(n1 - 16.0 / 9.0) < 1e-3
        and elapsed < 300.0
    )
    _report(
        capsys, 2, ok,
        f"fidelity {fid:.6f}, purity {pur:.6f}, <n1> {n1:.6f} (target 16/9), "
        f"solve took {elapsed:.1f}s at n_max=40",
    )


def test_criterion_03_epr_variance_chain(capsys, steady_half_coupling):
    model, basis, rho, _ = steady_half_coupling
    target = 2.0 / 9.0  # 2 exp(-2 ln 3)

    sigma = steady_covariance(model_from_lindblad(model))
    gauss_q, gauss_p = epr_variances(sigma)
    gauss_err = max(abs(gauss_q - target), abs(gauss_p - target))

    fock_q, fock_p = _fock_epr_variances(rho)
    fock_err = max(abs(fock_q - target), abs(fock_p - target))

    entangled_everywhere = True
    for eps in np.arange(0.05, 1.0, 0.05):
        n_p, m_p = effective_N_M(NopaParams(eps, 1.0))
        dd = model_from_lindblad(LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p))
        vq, vp = epr_variances(steady_covariance(dd))
        _, entangled = epr_criterion(vq, vp)
        entangled_everywhere = entangled_everywhere and entangled

    ok = gauss_err < 1e-10 and fock_err < 1e-3 and entangled_everywhere
    _report(
        capsys, 3, ok,
        f"Gaussian EPR variance error {gauss_err:.2e}, Fock error {fock_err:.2e}, "
        f"entangled for all drive strengths: {entangled_everywhere}",
    )


def test_moments_match_direct_operator_sums():
    """Not a criterion: ``moments`` against the sums criterion 03 uses, on a heated state."""
    n_p, m_p = effective_N_M(NopaParams(0.3, 1.0))
    model = LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p, heating_rate=0.1)
    rho = steady_state(model, FockBasis(14))
    got = moments([rho])
    fock_q, fock_p = _fock_epr_variances(rho)
    b = _sparse_ladder(14)
    assert abs(got["var_sum_q"][0] - fock_q) <= 1e-12
    assert abs(got["var_diff_p"][0] - fock_p) <= 1e-12
    assert abs(got["b1b2"][0] - _sparse_expect(rho.elements, sp.kron(b, b))) <= 1e-12
    assert abs(got["n1"][0] - mean_phonon(rho, 0)) <= 1e-12
    assert abs(got["n2"][0] - mean_phonon(rho, 1)) <= 1e-12
    assert abs(got["purity"][0] - purity(rho)) <= 1e-12
    assert got["purity"][0] < 0.99  # heating mixes the state


def test_criterion_04_relaxation_oracle(capsys):
    eps = 0.3
    n_p, m_p = effective_N_M(NopaParams(eps, 1.0))
    model = LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p)
    times = np.linspace(0.0, 5.0, 11)
    decay = 1.0 - np.exp(-2.0 * times)

    basis = FockBasis(20)
    result = moments(evolve(model, basis, times))
    fock_n_err = np.max(np.abs(result["n1"] - n_p * decay))
    fock_c_err = np.max(np.abs(result["b1b2"] - (-m_p) * decay))

    dd = model_from_lindblad(model)
    vac = CovarianceState(np.eye(4))
    cov_n = np.empty_like(times)
    cov_c = np.empty_like(times, dtype=complex)
    for k, t in enumerate(times):
        c = evolve_covariance(vac, dd, t).cov
        cov_n[k] = (c[0, 0] + c[1, 1]) / 4.0 - 0.5
        cov_c[k] = (c[0, 2] - c[1, 3]) / 4.0 + 1j * (c[0, 3] + c[1, 2]) / 4.0
    cov_n_err = np.max(np.abs(cov_n - n_p * decay))
    cov_c_err = np.max(np.abs(cov_c - (-m_p) * decay))

    cross_err = max(np.max(np.abs(result["n1"] - cov_n)),
                    np.max(np.abs(result["b1b2"] - cov_c)))

    worst = max(fock_n_err, fock_c_err, cov_n_err, cov_c_err)
    ok = worst < 1e-6 and cross_err < 1e-6
    _report(
        capsys, 4, ok,
        f"closed-form deviation {worst:.2e}, integrator-vs-covariance gap "
        f"{cross_err:.2e} over Gamma*t in [0, 5]",
    )


def test_criterion_05_wigner_consistency(capsys):
    spec = TmssSpec(0.5)
    axis = np.linspace(-2.0, 2.0, 5)
    basis = FockBasis(30)
    rho = tmss_fock(spec, basis)
    values = wigner_from_density(rho, axis, axis, axis, axis)
    mesh = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    reference = wigner_analytic(spec, *mesh)
    max_dev = float(np.max(np.abs(values - reference)))

    quad_axis = np.linspace(-4.0, 4.0, 51)
    qmesh = np.meshgrid(quad_axis, quad_axis, quad_axis, quad_axis,
                        indexing="ij", sparse=True)
    w = wigner_analytic(spec, *qmesh)
    total = w
    for _ in range(4):
        total = np.trapezoid(total, quad_axis, axis=-1)
    norm_err = abs(float(total) - 1.0)

    ok = max_dev < 1e-3 and norm_err < 1e-3
    _report(
        capsys, 5, ok,
        f"max |W_rho - W_analytic| = {max_dev:.2e} on the 5^4 grid, "
        f"quadrature norm off by {norm_err:.2e}",
    )


def test_criterion_06_nopa_spectra(capsys):
    eps_values = (0.1, 0.3, 0.5, 0.9)
    omega_values = (0.0, 0.5, 1.0, 2.0, 10.0)
    worst = 0.0
    for eps in eps_values:
        var = squeezing_spectra(NopaParams(eps, 1.0), np.array(omega_values))
        exact = ((1.0 - eps) ** 2 + np.array(omega_values) ** 2) / (
            (1.0 + eps) ** 2 + np.array(omega_values) ** 2
        )
        worst = max(worst, float(np.max(np.abs(var - exact))))

    # threshold limit: perfect squeezing of the low-frequency output
    ladder = [
        squeezing_spectra(NopaParams(1.0 - delta, 1.0), np.array([0.0]))[0]
        for delta in (1e-2, 1e-4, 1e-6)
    ]
    ok = (
        worst < 1e-12
        and ladder[0] > ladder[1] > ladder[2]
        and ladder[2] < 1e-12
    )
    _report(
        capsys, 6, ok,
        f"20 spot checks worst error {worst:.2e}; on-resonance variance falls to "
        f"{ladder[2]:.1e} as the drive approaches threshold",
    )


def test_criterion_07_bell_violation(capsys, tmp_path):
    golden = json.loads((REPO_ROOT / "golden" / "bell_sweep_max.json").read_text())

    out = tmp_path / "bell.csv"
    code = main(
        ["bell-sweep", "--config", str(REPO_ROOT / "configs" / "bell_default.json"),
         "--out", str(out)]
    )
    summary = json.loads((tmp_path / "bell.csv.summary.json").read_text())

    vac_out = tmp_path / "vacuum.csv"
    vac_code = main(
        ["bell-sweep", "--config", str(REPO_ROOT / "configs" / "bell_vacuum.json"),
         "--out", str(vac_out)]
    )
    vac_rows = [line.split(",") for line in vac_out.read_text().splitlines()[1:]]
    vac_max = max(float(row[2]) for row in vac_rows)

    ok = (
        code == 0
        and vac_code == 0
        and summary["max_b"] > 2.0
        and abs(summary["max_b"] - golden["max_b"]) < 1e-9
        and abs(summary["r"] - golden["r"]) < 1e-12
        and abs(summary["j"] - golden["j"]) < 1e-12
        and vac_max <= 2.0 + 1e-9
    )
    _report(
        capsys, 7, ok,
        f"default sweep peaks at B = {summary['max_b']:.6f} (golden "
        f"{golden['max_b']:.6f}) at r = {summary['r']:.2f}, J = {summary['j']:.2f}; "
        f"vacuum control max {vac_max:.6f}",
    )


def test_criterion_08_white_noise_limit(capsys):
    params = NopaParams(0.5, 1.0)
    n_p, m_p = effective_N_M(params)
    target = 2.0 * (1.0 + 2.0 * n_p - 2.0 * m_p)
    ratios = np.array([10.0, 100.0, 1000.0])
    rel_errors = []
    for ratio in ratios:
        sigma = steady_covariance(cascade_model(params, gamma=1.0 / ratio)).cov[4:, 4:]
        var_q = sigma[0, 0] + sigma[2, 2] + 2.0 * sigma[0, 2]
        rel_errors.append(abs(var_q - target) / target)
    rel_errors = np.array(rel_errors)

    monotone = rel_errors[0] > rel_errors[1] > rel_errors[2]
    x = 1.0 / ratios
    slope, intercept = np.polyfit(x, rel_errors, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((rel_errors - fitted) ** 2))
    ss_tot = float(np.sum((rel_errors - rel_errors.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot

    ok = monotone and r_squared > 0.99
    _report(
        capsys, 8, ok,
        f"relative errors {rel_errors[0]:.3e} > {rel_errors[1]:.3e} > "
        f"{rel_errors[2]:.3e}, linear in Gamma/kappa_c with R^2 = {r_squared:.5f}",
    )


def test_criterion_09_feasibility_arithmetic(capsys):
    from eprsim import ExperimentParams, check_all, cooperativity, coupling_rate

    two_pi = 2.0 * np.pi
    kappa_a = two_pi * 1.0e6
    gamma_atom = two_pi * 5.0e6
    base = dict(
        kappa_a=kappa_a,
        gamma_atom=gamma_atom,
        delta_big=two_pi * 1.0e9,
        eta_x=0.1,
        nu_x=two_pi * 5.0e7,
        kappa_c=two_pi * 1.0e6,
        t_decoherence=1.0e-3,
    )

    p1 = ExperimentParams(g0=np.sqrt(70.0 * kappa_a * gamma_atom),
                          e_laser=two_pi * 1.0e8, **base)
    c1_err = abs(cooperativity(p1) - 70.0) / 70.0

    # choose E_L so that g0 eta_x E_L / Delta = 0.1 kappa_a exactly
    g0 = two_pi * 1.0e7
    e_laser = 0.1 * kappa_a * base["delta_big"] / (g0 * base["eta_x"])
    p2 = ExperimentParams(g0=g0, e_laser=e_laser, **base)
    gamma_err = abs(coupling_rate(p2) - 0.01 * kappa_a) / (0.01 * kappa_a)

    r = 0.8
    report = check_all(p1, r)
    ld = next(c for c in report["checks"] if c["name"] == "lamb_dicke_refined")
    ld_err = abs(ld["ratio"] - 1.0 / (base["eta_x"] * np.cosh(r)))

    ok = c1_err < 1e-12 and gamma_err < 1e-12 and ld_err < 1e-12
    _report(
        capsys, 9, ok,
        f"C1 = 70 reproduced (rel err {c1_err:.1e}), Gamma = 0.01 kappa_a "
        f"(rel err {gamma_err:.1e}), Lamb-Dicke check uses cosh(r) exactly",
    )


def test_criterion_10_cli_determinism(capsys, tmp_path):
    grid1 = {"start": 0.0, "stop": 0.5, "num": 2}
    configs = {
        "nopa-spectrum": {
            "schema_version": 1,
            "epsilon_over_kappa": 0.5,
            "omega_grid": {"start": -2.0, "stop": 2.0, "num": 9},
        },
        "steady-state": {
            "schema_version": 1,
            "model": {"epsilon_over_kappa": 0.2},
            "n_max": 8,
        },
        "evolve": {
            "schema_version": 1,
            "model": {"epsilon_over_kappa": 0.2},
            "n_max": 6,
            "times": {"start": 0.0, "stop": 1.0, "num": 3},
        },
        "wigner": {
            "schema_version": 1,
            "r": 0.4,
            "grid": {"q1": grid1, "p1": grid1, "q2": grid1, "p2": grid1},
            "from_density": True,
            "n_max": 10,
        },
        "bell-sweep": {
            "schema_version": 1,
            "state": "tmss",
            "n_max": 8,
            "r_grid": {"start": 0.2, "stop": 0.6, "num": 2},
            "j_grid": {"start": 0.05, "stop": 0.1, "num": 2},
        },
        "feasibility": {
            "schema_version": 1,
            "experiment": {
                "g0": 2.5132741228718345e8,
                "kappa_a": 1.2566370614359172e7,
                "gamma_atom": 3.7699111843077517e7,
                "delta_big": 2.5132741228718346e10,
                "eta_x": 0.05,
                "e_laser": 2.5132741228718347e9,
                "nu_x": 6.283185307179586e8,
                "kappa_c": 6.283185307179586e6,
                "t_decoherence": 1.0e-3,
            },
            "r": 1.0986122886681098,
        },
        "cascade": {
            "schema_version": 1,
            "epsilon_over_kappa": 0.5,
            "kappa_over_gamma": [10.0, 100.0],
        },
    }

    stable = []
    for verb, payload in configs.items():
        cfg = tmp_path / f"{verb}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{verb}-{tag}.out"
            code = main([verb, "--config", str(cfg), "--out", str(out)])
            assert code == 0, f"{verb} exited {code}"
            blob = out.read_bytes()
            for suffix in (".summary.json", ".meta.json"):
                side = out.with_name(out.name + suffix)
                if side.exists():
                    blob += side.read_bytes()
            outs.append(blob)
        stable.append(outs[0] == outs[1])

    ok = all(stable)
    _report(
        capsys, 10, ok,
        f"{sum(stable)}/{len(stable)} commands byte-identical across reruns",
    )
