import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprsim import TruncationWarning
from eprsim.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_nopa_spectrum_stdout(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "epsilon_over_kappa": 0.5,
            "omega_grid": {"start": -1.0, "stop": 1.0, "num": 3},
        },
    )
    assert main(["nopa-spectrum", "--config", cfg]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["omega_over_kappa", "sum_x_var", "diff_y_var"]
    assert len(rows) == 3
    mid = rows[1]
    assert mid[0] == 0.0
    assert mid[1] == 0.25 / 2.25  # exact 17-digit round trip
    assert mid[2] == mid[1]


def test_steady_state_report(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "model": {"epsilon_over_kappa": 0.2}, "n_max": 10},
    )
    assert main(["steady-state", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_max"] == 10
    assert report["entangled"] is True
    assert report["epr_value"] < 4.0
    assert report["fidelity_tmss"] > 0.999
    assert report["mean_phonon_1"] == pytest.approx(report["n_param"], abs=1e-4)


def test_steady_state_report_reads_moments(tmp_path, capsys):
    """``mean_phonon_1/2`` and ``purity`` are ``moments([rho])``, bit for bit."""
    from eprsim import FockBasis, LindbladModel, NopaParams, effective_N_M, moments, steady_state

    cfg = write_config(tmp_path, {"schema_version": 1,
                                  "model": {"epsilon_over_kappa": 0.2, "heating_rate": 0.05},
                                  "n_max": 12})
    assert main(["steady-state", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    n_p, m_p = effective_N_M(NopaParams(0.2, 1.0))
    rho = steady_state(LindbladModel(1.0, n_p, m_p, heating_rate=0.05), FockBasis(12))
    m = moments([rho])
    assert (report["mean_phonon_1"], report["mean_phonon_2"], report["purity"]) == (
        m["n1"][0], m["n2"][0], m["purity"][0])


def test_n_max_override(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "model": {"epsilon_over_kappa": 0.2}, "n_max": 10},
    )
    assert main(["steady-state", "--config", cfg, "--n-max", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_max"] == 8


def _axis(lo, hi, num):
    return {"start": lo, "stop": hi, "num": num}


# Small configs of the four commands that truncate a Fock space.
TRUNCATING = {
    "steady-state": {"model": {"epsilon_over_kappa": 0.2}},
    "evolve": {"model": {"epsilon_over_kappa": 0.2}, "times": _axis(0.0, 1.0, 3)},
    "wigner": {"r": 0.3, "from_density": True,
               "grid": {name: _axis(-0.5, 0.5, 2) for name in ("q1", "p1", "q2", "p2")}},
    "bell-sweep": {"r_grid": _axis(0.1, 0.2, 2), "j_grid": _axis(0.05, 0.1, 2)},
}


@pytest.mark.parametrize("command, config", [
    ("steady-state", None), ("evolve", None), ("wigner", None), ("bell-sweep", None),
    ("nopa-spectrum", "nopa_spectrum"), ("feasibility", "feasibility_example"),
    ("cascade", "cascade"),
])
def test_n_max_flag_only_on_truncating_commands(tmp_path, capsys, command, config):
    if config is not None:
        cfg = str(REPO_ROOT / "configs" / f"{config}.json")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--n-max", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-max 3" in capsys.readouterr().err
        return
    outputs = []
    for n_cfg, flag in ((6, []), (9, ["--n-max", "6"])):
        cfg = write_config(tmp_path, {"schema_version": 1, **TRUNCATING[command], "n_max": n_cfg})
        out = tmp_path / f"config-{n_cfg}.out"
        assert main([command, "--config", cfg, "--out", str(out), *flag]) == 0
        outputs.append([p.read_bytes() for p in sorted(tmp_path.glob(f"{out.name}*"))])
    assert outputs[0] == outputs[1]


def test_steady_state_density_dump(tmp_path, capsys):
    dump = tmp_path / "rho.csv"
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"epsilon_over_kappa": 0.1},
            "n_max": 4,
            "density_csv": str(dump),
        },
    )
    out = tmp_path / "report.json"
    assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(dump.read_text())
    assert header == ["row", "col", "re", "im"]
    assert len(rows) == 16 * 16
    trace = sum(row[2] for row in rows if row[0] == row[1])
    assert trace == pytest.approx(1.0, abs=1e-12)


def test_evolve_rows(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"epsilon_over_kappa": 0.2},
            "n_max": 8,
            "times": {"start": 0.0, "stop": 1.0, "num": 3},
        },
    )
    assert main(["evolve", "--config", cfg]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header[:3] == ["t", "n1", "n2"]
    assert len(rows) == 3
    t0 = rows[0]
    assert t0[0] == 0.0
    assert t0[1] == 0.0  # vacuum start
    assert t0[5] == pytest.approx(2.0, abs=1e-12)  # vacuum Var(Q1+Q2)
    assert t0[7] == pytest.approx(1.0, abs=1e-12)  # purity
    assert rows[2][1] > rows[1][1] > 0.0


def test_wigner_csv_and_meta(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "r": 0.0,
            "grid": {
                "q1": {"start": 0.0, "stop": 0.0, "num": 1},
                "p1": {"start": 0.0, "stop": 0.0, "num": 1},
                "q2": {"start": 0.0, "stop": 0.0, "num": 1},
                "p2": {"start": 0.0, "stop": 0.0, "num": 1},
            },
            "from_density": True,
            "n_max": 8,
        },
    )
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out.read_text())
    assert header[-2:] == ["w_analytic", "w_from_rho"]
    assert rows[0][4] == pytest.approx(4.0 / np.pi**2, rel=1e-12)
    assert rows[0][5] == pytest.approx(4.0 / np.pi**2, rel=1e-9)
    meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
    assert meta["from_density"] is True
    assert meta["truncation_warning"] is False


def test_wigner_empty_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "r": 0.5,
            "grid": {
                "q1": {"start": 0.0, "stop": 0.0, "num": 0},
                "p1": {"start": 0.0, "stop": 0.0, "num": 1},
                "q2": {"start": 0.0, "stop": 0.0, "num": 1},
                "p2": {"start": 0.0, "stop": 0.0, "num": 1},
            },
        },
    )
    assert main(["wigner", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert text == "q1,p1,q2,p2,w_analytic\n"


@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # n_max 6 is coarse on purpose
def test_wigner_empty_grid_from_density(tmp_path, capsys):
    axis = {"start": 0.0, "stop": 0.0, "num": 1}
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "r": 0.5, "from_density": True, "n_max": 6,
         "grid": {"q1": {"start": 0.0, "stop": 0.0, "num": 0}, "p1": axis, "q2": axis,
                  "p2": axis}},
    )
    assert main(["wigner", "--config", cfg]) == 0
    assert capsys.readouterr().out == "q1,p1,q2,p2,w_analytic,w_from_rho\n"


def test_bell_sweep_summary(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "state": "tmss",
            "n_max": 12,
            "r_grid": {"start": 0.4, "stop": 0.8, "num": 2},
            "j_grid": {"start": 0.05, "stop": 0.1, "num": 2},
        },
    )
    out = tmp_path / "bell.csv"
    assert main(["bell-sweep", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out.read_text())
    assert header == ["r", "J", "B"]
    assert len(rows) == 4
    summary = json.loads((tmp_path / "bell.csv.summary.json").read_text())
    assert summary["max_b"] == max(row[2] for row in rows)


def test_bell_sweep_vacuum_classical(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "state": "vacuum",
            "n_max": 10,
            "r_grid": {"start": 0.1, "stop": 0.1, "num": 1},
            "j_grid": {"start": 0.05, "stop": 0.5, "num": 4},
        },
    )
    out = tmp_path / "vac.csv"
    assert main(["bell-sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out.read_text())
    assert all(row[2] <= 2.0 + 1e-9 for row in rows)


def test_bell_sweep_vacuum_evaluates_each_setting_once(tmp_path, monkeypatch):
    """The vacuum control's row does not depend on r: 10 CHSH values for 12 x 10 rows."""
    import eprsim.metrics

    calls = []
    chsh_value = eprsim.metrics.chsh_value

    def counted(state, settings):
        calls.extend(settings)
        return chsh_value(state, settings)

    monkeypatch.setattr(eprsim.metrics, "chsh_value", counted)
    cfg = json.loads((REPO_ROOT / "configs" / "bell_vacuum.json").read_text())
    cfg["n_max"] = 8
    out = tmp_path / "vac.csv"
    assert main(["bell-sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out.read_text())
    assert len(rows) == 120 and len(calls) == 10
    assert [row[2] for row in rows] == [row[2] for row in rows[:10]] * 12


def test_feasibility_json(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "experiment": {
                "g0": 2.5132741228718345e8,
                "kappa_a": 1.2566370614359172e7,
                "gamma_atom": 3.7699111843077517e7,
                "delta_big": 2.5132741228718346e10,
                "eta_x": 0.05,
                "e_laser": 2.387610416728243e9,
                "nu_x": 6.283185307179586e8,
                "kappa_c": 6.283185307179586e6,
                "t_decoherence": 1.0e-3,
            },
            "r": 1.0986122886681098,
        },
    )
    assert main(["feasibility", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["checks"]) == 10
    assert all(c["verdict"] == "pass" for c in report["checks"])


def test_cascade_error_decreases(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "epsilon_over_kappa": 0.5,
            "kappa_over_gamma": [10.0, 100.0],
        },
    )
    assert main(["cascade", "--config", cfg]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header[0] == "kappa_over_gamma"
    assert rows[0][3] > rows[1][3]
    n_p = 16.0 / 9.0
    m_p = 20.0 / 9.0
    assert rows[0][2] == pytest.approx(2.0 * (1.0 + 2.0 * n_p - 2.0 * m_p), rel=1e-12)


# --- failure modes ---------------------------------------------------------


def test_missing_config_file(tmp_path, capsys):
    assert main(["steady-state", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["steady-state", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_wrong_schema_version(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 99})
    assert main(["nopa-spectrum", "--config", cfg]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_missing_field_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "model": {"n_param": 0.5}})
    assert main(["steady-state", "--config", cfg]) == 2
    assert "model.m_param" in capsys.readouterr().err


def test_invalid_epsilon(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "epsilon_over_kappa": 1.5,
            "omega_grid": {"start": 0.0, "stop": 1.0, "num": 2},
        },
    )
    assert main(["nopa-spectrum", "--config", cfg]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_evolve_rejects_unknown_initial(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"epsilon_over_kappa": 0.2},
            "n_max": 6,
            "times": {"start": 0.0, "stop": 1.0, "num": 2},
            "initial": "coherent",
        },
    )
    assert main(["evolve", "--config", cfg]) == 2
    assert "initial" in capsys.readouterr().err


@pytest.mark.parametrize("times", [
    {"start": 5.0, "stop": 0.0, "num": 3},
    {"start": 1.0, "stop": 1.0, "num": 3},
    {"start": 0.0, "stop": 5e-324, "num": 4},  # linspace repeats values
], ids=["decreasing", "constant", "repeating"])
def test_evolve_rejects_non_increasing_times(tmp_path, capsys, times):
    cfg = write_config(tmp_path, {"schema_version": 1, "model": {"epsilon_over_kappa": 0.2},
                                  "n_max": 6, "times": times})
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("config error: times")
    assert stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_evolve_single_time_is_the_vacuum(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "model": {"epsilon_over_kappa": 0.2},
                                  "n_max": 6, "times": {"start": 2.0, "stop": 5.0, "num": 1}})
    assert main(["evolve", "--config", cfg]) == 0
    assert capsys.readouterr().out == (
        "t,n1,n2,re_b1b2,im_b1b2,var_sum_q,var_diff_p,purity\n2,0,0,0,0,2,2,1\n")


def test_bell_sweep_validates_settings(tmp_path, capsys):
    base = {
        "schema_version": 1,
        "state": "tmss",
        "n_max": 8,
        "r_grid": {"start": 0.2, "stop": 0.2, "num": 1},
        "j_grid": {"start": 0.05, "stop": 0.05, "num": 1},
    }
    cfg = write_config(tmp_path, {**base, "beta2_sign": 0.5}, "sign.json")
    assert main(["bell-sweep", "--config", cfg]) == 2
    assert "beta2_sign" in capsys.readouterr().err

    cfg = write_config(
        tmp_path,
        {**base, "j_grid": {"start": 10.0, "stop": 10.0, "num": 1}},
        "big.json",
    )
    assert main(["bell-sweep", "--config", cfg]) == 2
    assert "j_grid" in capsys.readouterr().err


@pytest.mark.parametrize("sign", ["abc", None, [1], True])
def test_bell_sweep_rejects_non_numeric_beta2_sign(tmp_path, capsys, sign):
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "n_max": 6, "beta2_sign": sign,
         "r_grid": {"start": 0.2, "stop": 0.2, "num": 1},
         "j_grid": {"start": 0.05, "stop": 0.05, "num": 1}},
    )
    out = tmp_path / "sweep.csv"
    assert main(["bell-sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: beta2_sign: expected a number")
    assert err.count("\n") == 1
    assert not out.exists()
    assert not (tmp_path / "sweep.csv.summary.json").exists()


def shipped_config(name):
    return json.loads((REPO_ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "command, config, field, value",
    [
        ("bell-sweep", "bell_default", "r_grid", 5),
        ("bell-sweep", "bell_default", "j_grid", [0.05, 0.5]),
        ("feasibility", "feasibility_example", "ratio_threshold", "abc"),
        ("feasibility", "feasibility_example", "ratio_threshold", True),
        ("wigner", "wigner_slice", "from_density", "no"),
        ("wigner", "wigner_slice", "from_density", 1),
    ],
)
def test_optional_fields_are_type_checked(tmp_path, capsys, command, config, field, value):
    cfg = write_config(tmp_path, {**shipped_config(config), field: value})
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: expected ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]  # no sidecar either


@pytest.mark.parametrize(
    "command, config, field, default",
    [
        ("bell-sweep", "bell_default", "r_grid", {"start": 0.1, "stop": 1.2, "num": 12}),
        ("bell-sweep", "bell_default", "j_grid", {"start": 0.05, "stop": 0.5, "num": 10}),
        ("feasibility", "feasibility_example", "ratio_threshold", 10.0),
        ("wigner", "wigner_slice", "from_density", False),
    ],
)
@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # n_max 6 is coarse on purpose
def test_optional_field_defaults(tmp_path, command, config, field, default):
    payload = {**shipped_config(config), "n_max": 6}
    payload.pop(field, None)
    outputs = []
    for name, cfg in (("omitted", payload), ("explicit", {**payload, field: default})):
        out = tmp_path / f"{name}.out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_no_output_written_on_config_error(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 1, "model": {"n_param": 0.5}})
    out = tmp_path / "report.json"
    assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), "abc", True])
def test_non_finite_or_non_numeric_gamma_rejected(tmp_path, capsys, gamma):
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "model": {"epsilon_over_kappa": 0.2, "gamma": gamma}, "n_max": 6},
    )
    out = tmp_path / "report.json"
    assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: model.gamma:")
    assert err.count("\n") == 1
    assert not out.exists()


def test_singular_level_block_exits_3(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "model": {"epsilon_over_kappa": 0.2}, "n_max": 6},
    )
    out = tmp_path / "report.json"
    assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: steady-state level elimination failed: Singular matrix\n"
    assert not out.exists()


@pytest.mark.parametrize("command, module, solver", [
    ("steady-state", "lindblad", "steady_state"),
    ("evolve", "lindblad", "evolve"),
    ("wigner", "states", "wigner_from_density"),
    ("bell-sweep", "states", "tmss_fock"),
])
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, command, module, solver):
    """A truncation too large for memory is a numerical failure; nothing is allocated here."""
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 TiB for an array")

    monkeypatch.setattr(importlib.import_module(f"eprsim.{module}"), solver, exhausted)
    cfg = write_config(tmp_path, {"schema_version": 1, **TRUNCATING[command], "n_max": 6})
    out = tmp_path / "artifact"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: out of memory (Unable to allocate 74.5 TiB for an array); "
        "lower n_max\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command, config, module, solver", [
    ("nopa-spectrum", "nopa_spectrum", "nopa", "squeezing_spectra"),
    ("feasibility", "feasibility_example", "feasibility", "check_all"),
    ("cascade", "cascade", "gaussian", "steady_covariance"),
])
def test_out_of_memory_without_n_max_exits_3(tmp_path, capsys, monkeypatch, command, config,
                                             module, solver):
    """A command without --n-max does not suggest lowering it."""
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 TiB for an array")

    monkeypatch.setattr(importlib.import_module(f"eprsim.{module}"), solver, exhausted)
    cfg = REPO_ROOT / "configs" / f"{config}.json"
    out = tmp_path / "artifact"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: out of memory (Unable to allocate 74.5 TiB for an array)\n")
    assert not out.exists()


def test_wigner_reemits_and_records_a_truncation_warning(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, **TRUNCATING["wigner"], "r": 0.8,
                                  "n_max": 4})
    out = tmp_path / "w.csv"
    with pytest.warns(TruncationWarning, match="wigner_from_density"):
        assert main(["wigner", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "w.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["truncation_warning"] is True
    # The re-emitted warning is the one report: no log line repeats it.
    assert "truncation warning raised" not in capsys.readouterr().err


def test_non_finite_number_rejected_in_any_command(tmp_path, capsys):
    axis = {"start": 0.0, "stop": 0.0, "num": 1}
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "r": float("nan"),
         "grid": {"q1": axis, "p1": axis, "q2": axis, "p2": axis}},
    )
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: r: expected a finite number, got nan\n"
    assert not out.exists()


# --- extreme but finite values -------------------------------------------------


def _point_grid():
    axis = {"start": 0.0, "stop": 0.0, "num": 1}
    return {"q1": axis, "p1": axis, "q2": axis, "p2": axis}


def _experiment(**overrides):
    """The shipped feasibility config's experiment block, with ``overrides``."""
    cfg = json.loads((REPO_ROOT / "configs" / "feasibility_example.json").read_text())
    return {**cfg["experiment"], **overrides}


def _edge_of_m_bound():
    """M at the top of the tolerance ``LindbladModel`` allows, with N = 1e4."""
    return {"n_param": 1e4, "m_param": math.sqrt(1e4 * (1e4 + 1.0)) * (1.0 + 1e-12)}


@pytest.mark.parametrize("command, payload, code, err", [
    ("cascade", {"epsilon_over_kappa": 0.5, "kappa_over_gamma": [float("inf")]}, 2,
     "config error: kappa_over_gamma: expected a non-empty list of positive finite numbers"),
    ("cascade", {"epsilon_over_kappa": 0.5, "kappa_over_gamma": [10.0, float("nan")]}, 2,
     "config error: kappa_over_gamma: expected a non-empty list of positive finite numbers"),
    ("cascade", {"epsilon_over_kappa": 0.5, "kappa_over_gamma": [1e-308]}, 3,
     "numerical failure: cascade at kappa_over_gamma 1e-308: "
     "diffusion 2 gamma overflows at gamma = 1e+308"),
    ("cascade", {"epsilon_over_kappa": 0.5, "kappa_over_gamma": [5e-324]}, 3,
     "numerical failure: cascade at kappa_over_gamma 5e-324: gamma must be finite, got inf"),
    ("steady-state", {"model": _edge_of_m_bound(), "n_max": 8}, 3,
     "numerical failure: steady-state: an n_max 8 box misses p = (nbar / (nbar + 1))**n_max "
     "= 0.999 of each mode's thermal state (nbar = 1e+04), over the bound 0.5; raise n_max\n"),
    ("evolve", {"model": {"epsilon_over_kappa": 0.3, "gamma": 1e300}, "n_max": 6,
                "times": {"start": 0.0, "stop": 5.0, "num": 3}}, 3,
     "numerical failure: evolve: work estimate ||L||_1 * (t_end - t_0) = "),
    # a rate whose generator terms overflowed (IndexError), and a span whose product warned
    ("evolve", {"model": {"epsilon_over_kappa": 0.3, "heating_rate": 9e307}, "n_max": 4,
                "times": {"start": 0.0, "stop": 1.0, "num": 2}}, 3,
     "numerical failure: evolve: work estimate ||L||_1 * (t_end - t_0) = inf "),
    ("evolve", {"model": {"epsilon_over_kappa": 0.3}, "n_max": 4,
                "times": {"start": 0.0, "stop": 1e308, "num": 2}}, 3,
     "numerical failure: evolve: work estimate ||L||_1 * (t_end - t_0) = inf "),
    # N so large that the Arnoldi norms of a short enough span overflowed
    ("evolve", {"model": {"n_param": 1e200, "m_param": 0.0}, "n_max": 4,
                "times": {"start": 0.0, "stop": 1e-250, "num": 2}}, 3,
     "numerical failure: evolve: the generator's rates reach 6.4e+201 in units of s = 1, "
     "past what its norms can square; lower n_param\n"),
    ("wigner", {"r": 1e300, "from_density": True, "n_max": 6, "grid": _point_grid()}, 3,
     "numerical failure: wigner_analytic: exp(2r) overflows at r = 1e+300"),
    # 2r is inf, and 0 * inf warned of an invalid value
    ("wigner", {"r": 1e308, "grid": _point_grid()}, 3,
     "numerical failure: wigner_analytic: exp(2r) overflows at r = 1e+308\n"),
    # a coordinate past what the displacement generator can hold: eigh raised LinAlgError
    ("wigner", {"r": 0.0, "from_density": True, "n_max": 2,
                "grid": {**_point_grid(), "p2": {"start": 0.0, "stop": 1e308, "num": 2}}}, 3,
     "numerical failure: wigner_from_density: the displacement generator overflows "
     "at a coordinate of 1e+308\n"),
    ("bell-sweep", {"n_max": 6, "r_grid": {"start": 1e300, "stop": 1e300, "num": 1},
                    "j_grid": {"start": 0.1, "stop": 0.1, "num": 1}}, 3,
     "numerical failure: tmss_fock: cosh(r) overflows at r = 1e+300"),
    # cosh(r) is finite, but every squared amplitude underflows (was nan after RuntimeWarnings)
    ("bell-sweep", {"n_max": 3, "r_grid": {"start": 500.0, "stop": 500.0, "num": 1},
                    "j_grid": {"start": 0.1, "stop": 0.1, "num": 1}}, 3,
     "numerical failure: tmss_fock: 1 / cosh(r)**2 underflows at r = 500\n"),
    ("feasibility", {"experiment": _experiment(), "r": 1000.0}, 3,
     "numerical failure: lamb_dicke_refined: cosh(r) overflows at r = 1000\n"),
    ("feasibility", {"experiment": _experiment(g0=1e200), "r": 1.0}, 3,
     "numerical failure: gamma_eff overflows at g0 eta_x e_laser / delta_big = 4.75e+197\n"),
    ("feasibility", {"experiment": _experiment(g0=1e155), "r": 1.0}, 3,
     "numerical failure: cooperativity: g0**2 overflows at g0 = 1e+155\n"),
    ("feasibility", {"experiment": _experiment(kappa_a=1e-200, gamma_atom=1e-200), "r": 1.0}, 3,
     "numerical failure: cooperativity: 6.31655e+16 / 0 is not a finite number\n"),
    ("feasibility", {"experiment": _experiment(kappa_a=1e-320), "r": 1.0}, 3,
     "numerical failure: gamma_eff: 1.42517e+12 / 9.99989e-321 is not a finite number\n"),
    ("feasibility", {"experiment": _experiment(delta_big=1e-320), "r": 1.0}, 3,
     "numerical failure: gamma_eff overflows at g0 eta_x e_laser / delta_big = inf\n"),
    ("feasibility", {"experiment": _experiment(delta_big=1e308), "r": 1.0}, 3,
     "numerical failure: nopa_bandwidth_over_gamma: 6.28319e+06 / 0 is not a finite number\n"),
    ("feasibility", {"experiment": _experiment(e_laser=1e-320), "r": 1.0}, 3,
     "numerical failure: detuning_over_drive: 2.51327e+10 / 9.99989e-321 "
     "is not a finite number\n"),
    ("feasibility", {"experiment": _experiment(eta_x=1e-320), "r": 1.0}, 3,
     "numerical failure: cavity_decay_over_raman_rate: 1.25664e+07 / 2.35927e-313 "
     "is not a finite number\n"),
    ("feasibility", {"experiment": _experiment(t_decoherence=1e308), "r": 1.0}, 3,
     "numerical failure: decoherence_budget: t_decoherence * gamma_eff overflows "
     "at gamma_eff = 113411\n"),
    ("steady-state", {"model": {"epsilon_over_kappa": 0.5}, "n_max": 10**11}, 2,
     "config error: n_max must be below 55109 for int64 keys, got 100000000000\n"),
    ("nopa-spectrum", {"epsilon_over_kappa": 0.5,
                       "omega_grid": {"start": -1e308, "stop": 1e308, "num": 5}}, 3,
     "numerical failure: omega_grid: stop - start overflows from -1e+308 to 1e+308\n"),
    ("evolve", {"model": {"epsilon_over_kappa": 0.3}, "n_max": 6,
                "times": {"start": 0.0, "stop": 5.0, "num": 0}}, 2,
     "config error: times.num: must be >= 1, got 0\n"),
    ("bell-sweep", {"n_max": 6, "r_grid": {"start": 0.5, "stop": 0.5, "num": 0}}, 2,
     "config error: r_grid.num: must be >= 1, got 0\n"),
    ("bell-sweep", {"n_max": 6, "j_grid": {"start": 0.1, "stop": 0.1, "num": 0}}, 2,
     "config error: j_grid.num: must be >= 1, got 0\n"),
    ("feasibility", {"experiment": _experiment(), "r": -1.0}, 2,
     "config error: r must be >= 0, got -1.0\n"),
    ("feasibility", {"experiment": _experiment(), "r": 1.0, "ratio_threshold": -5.0}, 2,
     "config error: ratio_threshold must be > 0, got -5.0\n"),
    ("steady-state", {"model": {"epsilon_over_kappa": 0.5}, "n_max": 130}, 3,
     "numerical failure: steady-state: the level elimination's work sum n_l**3 = 2.96e+12 "
     "exceeds the budget 5e+11; lower n_max\n"),
    ("steady-state", {"model": {"epsilon_over_kappa": 0.97}, "n_max": 25}, 3,
     "numerical failure: steady-state: an n_max 25 box misses p = (nbar / (nbar + 1))**n_max "
     "= 0.977 of each mode's thermal state (nbar = 1.08e+03), over the bound 0.5; raise n_max\n"),
    # integers past the float range, and grids of more points than numpy can index
    ("steady-state", {"model": {"epsilon_over_kappa": 0.5, "gamma": 10**400}, "n_max": 4}, 2,
     f"config error: model.gamma: expected a finite number, got {10**400}\n"),
    ("bell-sweep", {"n_max": 6, "r_grid": {"start": 0.5, "stop": 10**400, "num": 2}}, 2,
     f"config error: r_grid.stop: expected a finite number, got {10**400}\n"),
    ("wigner", {"r": -10**400, "grid": _point_grid()}, 2,
     f"config error: r: expected a finite number, got {-10**400}\n"),
    ("feasibility", {"experiment": _experiment(g0=10**400), "r": 1.0}, 2,
     f"config error: experiment.g0: expected a finite number, got {10**400}\n"),
    ("cascade", {"epsilon_over_kappa": 0.5, "kappa_over_gamma": [10**400]}, 2,
     "config error: kappa_over_gamma: expected a non-empty list of positive finite numbers\n"),
    ("nopa-spectrum", {"epsilon_over_kappa": 0.5,
                       "omega_grid": {"start": 0.0, "stop": 1.0, "num": 10**20}}, 2,
     "config error: omega_grid.num: 100000000000000000000 points exceed the largest array "
     "numpy can hold\n"),
    ("wigner", {"r": 0.5, "grid": {name: {"start": 0.0, "stop": 1.0, "num": 10**5}
                                   for name in ("q1", "p1", "q2", "p2")}}, 2,
     "config error: grid: 100000000000000000000 points exceed the largest array numpy can hold\n"),
    # a grid numpy can index but memory cannot hold: no n_max is read, so the line names the grid
    ("wigner", {"r": 0.5, "from_density": False,
                "grid": {name: {"start": 0.0, "stop": 1.0, "num": 10**4}
                         for name in ("q1", "p1", "q2", "p2")}}, 3,
     "numerical failure: out of memory on the grid of 10000000000000000 points ("),
    ("bell-sweep", {"n_max": 6, "r_grid": {"start": 0.1, "stop": 1.0, "num": 10**15}}, 3,
     "numerical failure: r_grid: out of memory on the grid of 1000000000000000 points ("),
    ("evolve", {"model": {"epsilon_over_kappa": 0.3}, "n_max": 6,
                "times": {"start": 0.0, "stop": 1.0, "num": 10**15}}, 3,
     "numerical failure: times: out of memory on the grid of 1000000000000000 points ("),
    ("nopa-spectrum", {"epsilon_over_kappa": 0.5,
                       "omega_grid": {"start": 0.0, "stop": 1.0, "num": 10**15}}, 3,
     "numerical failure: omega_grid: out of memory on the grid of 1000000000000000 points ("),
], ids=["cascade-inf", "cascade-nan", "cascade-gamma-1e300", "cascade-gamma-inf",
        "steady-state-edge-of-m-bound", "evolve-gamma-1e300", "evolve-heating-9e307",
        "evolve-span-1e308", "evolve-n-param-1e200", "wigner-r-1e300",
        "wigner-r-1e308", "wigner-density-coordinate-1e308",
        "bell-sweep-r-1e300", "bell-sweep-r-500", "feasibility-r-1000", "feasibility-g0-1e200",
        "feasibility-g0-1e155", "feasibility-kappa-gamma-1e-200", "feasibility-kappa-1e-320",
        "feasibility-delta-1e-320", "feasibility-delta-1e308", "feasibility-e-laser-1e-320",
        "feasibility-eta-1e-320", "feasibility-t-decoherence-1e308", "steady-state-n-max-1e11",
        "nopa-spectrum-omega-1e308",
        "evolve-times-num-0", "bell-sweep-r-num-0", "bell-sweep-j-num-0", "feasibility-r-negative",
        "feasibility-threshold-negative", "steady-state-n-max-130", "steady-state-tail-eps-0.97",
        "steady-state-gamma-int-1e400", "bell-sweep-stop-int-1e400", "wigner-r-int-minus-1e400",
        "feasibility-g0-int-1e400", "cascade-ratio-int-1e400", "nopa-spectrum-num-1e20",
        "wigner-grid-1e5-per-axis", "wigner-grid-1e4-per-axis", "bell-sweep-r-num-1e15",
        "evolve-times-num-1e15", "nopa-spectrum-num-1e15"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_values_exit_with_one_line(tmp_path, capsys, command, payload, code, err):
    cfg = write_config(tmp_path, {"schema_version": 1, **payload})
    out = tmp_path / "artifact"
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    stderr = capsys.readouterr().err
    assert stderr.startswith(err)
    assert stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_an_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    """json refuses an integer of more than 4300 digits with a ValueError: exit 2, one line."""
    cfg = tmp_path / "config.json"
    cfg.write_text('{"schema_version": 1, "epsilon_over_kappa": 0.5, "kappa_over_gamma": [1%s]}'
                   % ("0" * 5000), encoding="utf-8")
    assert main(["cascade", "--config", str(cfg), "--out", str(tmp_path / "artifact")]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("config error: config is not valid JSON: Exceeds the limit")
    assert stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# Model fields near and past their bounds, non-finite, and of the wrong type.
_ODD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0, -0.0, 0.0,
                               5e-324, 1e308, True, None, "0.5", [0.5], {"v": 0.5}])
_MODEL_FIELDS = {
    "epsilon_over_kappa": st.one_of(st.floats(0.0, 1e-6), st.floats(0.999, 1.001),
                                    st.floats(0.0, 1.0), _ODD_VALUES),
    "heating_rate": st.one_of(st.floats(0.0, 1e3), _ODD_VALUES),
    "gamma": st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e), _ODD_VALUES),
    "n_param": st.one_of(st.floats(0.0, 10.0), _ODD_VALUES),
    "m_param": st.one_of(st.floats(0.0, 3.5), _ODD_VALUES),
}


def _exit_contract(command, payload, out_name):
    """Run ``command`` on ``payload`` in a fresh directory and check the exit contract.

    Exit 0, 2 or 3.  A failure is one stderr line, no artifact and no
    shown warning; a success shows no warning but the TruncationWarning.
    A numpy RuntimeWarning is raised as an error, so one on either path
    fails the test.  Returns the exit code and the artifact's text.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), {"schema_version": 1, **payload})
        out = Path(tmp) / out_name
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", cfg, "--out", str(out)])
        noisy = [str(w.message) for w in caught if not issubclass(w.category, TruncationWarning)]
        assert code in (0, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json"]
            assert not caught, [str(w.message) for w in caught]
            return code, None
        assert not noisy, noisy
        return code, out.read_text(encoding="utf-8")


@settings(max_examples=80, deadline=None)
@given(model=st.one_of(st.fixed_dictionaries({}, optional=_MODEL_FIELDS), _ODD_VALUES),
       n_max=st.one_of(st.integers(2, 12), st.sampled_from([1, 2.5, "8", None])))
@example(model={"heating_rate": 1e308, "n_param": 1e308, "m_param": 0.0}, n_max=2)
@example(model={"gamma": 5e-324, "heating_rate": 1e3, "n_param": 1e308, "m_param": 0.0}, n_max=2)
def test_generated_steady_state_configs_keep_the_exit_contract(model, n_max):
    """Exit 0, 2 or 3; a failure is one stderr line, no file and no warning; a success is finite.

    A success records no warning but the TruncationWarning.  The examples
    are N 1e308 under heating that admits it (nbar about 2 and 1): the Fock
    route certifies them in units of the rates, and the Gaussian diffusion
    must not overflow after the Fock route has warned of truncation.
    """
    code, text = _exit_contract("steady-state", {"model": model, "n_max": n_max}, "report.json")
    if code == 0:
        report = json.loads(text)
        numbers = [v for v in report.values() if not isinstance(v, bool)]
        assert all(math.isfinite(v) for v in numbers), report


# Positive numbers drawn log-uniformly over the whole float range, subnormals
# included: evolve's failures sat at its two ends.
_LOG_FLOATS = st.floats(-324.0, 308.25).map(lambda e: 10.0 ** e)
_LOG_RATES = st.one_of(_LOG_FLOATS, _ODD_VALUES)
# Valid models and grids, most of the draws, and the odd fields beside them.
_EVOLVE_MODELS = st.one_of(
    st.fixed_dictionaries({"epsilon_over_kappa": st.floats(0.0, 0.999)},
                          optional={"gamma": _LOG_FLOATS, "heating_rate": _LOG_FLOATS}),
    st.fixed_dictionaries({"n_param": st.floats(0.0, 10.0), "m_param": st.just(0.0)},
                          optional={"gamma": _LOG_FLOATS, "heating_rate": _LOG_FLOATS}),
    st.fixed_dictionaries({}, optional={**_MODEL_FIELDS, "gamma": _LOG_RATES,
                                        "heating_rate": _LOG_RATES}),
    _ODD_VALUES)
_EVOLVE_TIMES = st.one_of(
    st.builds(lambda start, span, num: {"start": start, "stop": start + span, "num": num},
              st.floats(-3.0, 3.0), st.one_of(st.floats(0.0, 10.0), _LOG_FLOATS),
              st.integers(1, 40)),
    st.fixed_dictionaries({"start": st.one_of(st.floats(-3.0, 10.0), _ODD_VALUES),
                           "stop": st.one_of(st.floats(-3.0, 10.0), _LOG_FLOATS, _ODD_VALUES),
                           "num": st.one_of(st.integers(0, 40), _ODD_VALUES)}),
    _ODD_VALUES)


@settings(max_examples=150, deadline=None)
@given(model=_EVOLVE_MODELS, times=_EVOLVE_TIMES,
       n_max=st.one_of(st.integers(2, 10), st.sampled_from([2, 6, 10, 1, 2.5, "8", None])))
@example(model={"epsilon_over_kappa": 0.3, "heating_rate": 9e307}, n_max=4,
         times={"start": 0.0, "stop": 1.0, "num": 2})
@example(model={"epsilon_over_kappa": 0.3, "gamma": 1e308}, n_max=4,
         times={"start": 0.0, "stop": 1.0, "num": 1})
@example(model={"epsilon_over_kappa": 0.0, "heating_rate": 5e-324}, n_max=2,
         times={"start": 0.0, "stop": 1.0, "num": 2})
@example(model={"epsilon_over_kappa": 0.3}, n_max=4,
         times={"start": 0.0, "stop": 1e308, "num": 2})
@example(model={"heating_rate": 1.0, "n_param": 1e308, "m_param": 0.0}, n_max=2,
         times={"start": 0.0, "stop": 0.0, "num": 1})
@example(model={"n_param": 1e200, "m_param": 0.0}, n_max=4,
         times={"start": 0.0, "stop": 1e-250, "num": 2})
def test_generated_evolve_configs_keep_the_exit_contract(model, n_max, times):
    """Exit 0, 2 or 3; a failure is one stderr line, no file and no warning; a success is finite.

    The examples failed before evolve assembled its generator in units of
    the rate scale: a heating rate of 9e307 overflowed the generator's
    terms into an IndexError, and gamma 1e308 did so even with one time
    point.  A subnormal heating rate made the small exponential's
    squaring count log2(0), an OverflowError, and a span of 1e308 warned of
    an overflow before the budget refused it.  N 1e308 overflowed the
    terms in units of s too, and N 1e200 over a span short enough for the
    budget overflowed the Arnoldi norms; evolve now refuses both.  Most
    draws are config errors; about one in five exits 0.
    """
    code, text = _exit_contract("evolve", {"model": model, "n_max": n_max, "times": times},
                                "evolve.csv")
    if code == 0:
        _, rows = read_csv(text)
        assert rows and all(math.isfinite(v) for row in rows for v in row), text


@pytest.mark.parametrize("command, payload, out_name, code", [
    ("bell-sweep", {"n_max": 3, "r_grid": {"start": 1.0, "stop": 1e300, "num": 2},
                    "j_grid": {"start": 0.1, "stop": 0.1, "num": 1}}, "sweep.csv", 3),
    ("steady-state", {"model": {"epsilon_over_kappa": 0.5}, "n_max": 6}, "missing/report.json", 2),
    ("wigner", {"r": 1.0, "from_density": True, "n_max": 4, "grid": _point_grid()},
     "missing/wigner.csv", 2),
], ids=["bell-sweep-overflow-at-the-last-r", "steady-state-unwritable", "wigner-unwritable"])
def test_a_failure_after_a_truncation_warning_is_one_line(command, payload, out_name, code):
    """A run that warns of truncation and then fails shows the error line alone."""
    assert _exit_contract(command, payload, out_name)[0] == code


def test_a_crash_shows_the_warnings_before_it(tmp_path, monkeypatch):
    """An exception the exit contract does not map leaves with the warnings that preceded it."""
    from eprsim import cli

    def crash(cfg, out):
        warnings.warn("overflow before the crash", RuntimeWarning)
        raise IndexError("unmapped")

    monkeypatch.setitem(cli._COMMANDS, "feasibility", crash)
    cfg = write_config(tmp_path, {"schema_version": 1})
    with warnings.catch_warnings(record=True) as caught, pytest.raises(IndexError):
        warnings.simplefilter("always")
        main(["feasibility", "--config", cfg])
    assert [str(w.message) for w in caught] == ["overflow before the crash"]


def _finite(text):
    """Whether every number in a CSV or JSON artifact is finite."""
    if text.startswith("{"):
        def numbers(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [x for item in node for x in numbers(item)]
            return [node] if isinstance(node, float) else []
        return all(math.isfinite(x) for x in numbers(json.loads(text)))
    return all(math.isfinite(x) for row in read_csv(text)[1] for x in row)


def _small_axis(ends, least=0):
    """Grid blocks of at most three points between draws of ``ends``: no draw allocates much."""
    return st.fixed_dictionaries({"start": ends, "stop": ends, "num": st.integers(least, 3)})


def _odd_axis(ends):
    """Grid blocks with fields left out or odd, and odd values in their place."""
    field = st.one_of(ends, _ODD_VALUES)
    return st.one_of(
        st.fixed_dictionaries({}, optional={"start": field, "stop": field,
                                            "num": st.one_of(st.integers(0, 3), _ODD_VALUES)}),
        _ODD_VALUES)


def _configs(fields, odd):
    """Configs with every field from ``fields``, valid values near their bounds (most exit 0),
    or with each field from ``fields`` or ``odd`` (``_ODD_VALUES`` where ``odd`` has none)."""
    return st.one_of(st.fixed_dictionaries(fields), st.fixed_dictionaries(
        {name: st.one_of(valid, odd.get(name, _ODD_VALUES)) for name, valid in fields.items()}))


_SIGNED_FLOATS = st.one_of(st.floats(-3.0, 3.0), _LOG_FLOATS, _LOG_FLOATS.map(lambda x: -x))
_EPSILONS = st.one_of(st.floats(0.0, 1.0), st.floats(0.999, 1.001))
_SMALL_N_MAX = st.integers(2, 8)
_ODD_N_MAX = st.sampled_from([1, 2.5, "8", None])


@settings(max_examples=80, deadline=None)
@given(cfg=_configs({"epsilon_over_kappa": _EPSILONS, "omega_grid": _small_axis(_SIGNED_FLOATS)},
                    {"omega_grid": _odd_axis(_SIGNED_FLOATS)}))
def test_generated_nopa_spectrum_configs_keep_the_exit_contract(cfg):
    """Exit 0, 2 or 3; a failure is one stderr line, no file and no warning; a success is finite."""
    code, text = _exit_contract("nopa-spectrum", cfg, "spectrum.csv")
    assert code or _finite(text), text


_WIGNER_AXES = ("q1", "p1", "q2", "p2")


@settings(max_examples=80, deadline=None)
@given(cfg=_configs(
    {"r": st.one_of(st.floats(0.0, 3.0), _LOG_FLOATS),
     "grid": st.fixed_dictionaries({name: _small_axis(_SIGNED_FLOATS) for name in _WIGNER_AXES}),
     "from_density": st.booleans(), "n_max": _SMALL_N_MAX},
    {"grid": st.one_of(st.fixed_dictionaries({name: _odd_axis(_SIGNED_FLOATS)
                                              for name in _WIGNER_AXES}), _ODD_VALUES),
     "n_max": _ODD_N_MAX}))
@example(cfg={"r": 0.0, "grid": {**_point_grid(), "p2": {"start": 0.0, "stop": 1e154, "num": 2}},
              "from_density": False, "n_max": 2})
def test_generated_wigner_configs_keep_the_exit_contract(cfg):
    """Exit 0, 2 or 3; a failure is one stderr line, no file and no warning; a success is finite.

    In the example the exponent of W overflows to -inf at p2 1e154, where W
    is 0: that warned of an overflow.
    """
    code, text = _exit_contract("wigner", cfg, "wigner.csv")
    assert code or _finite(text), text


_R_ENDS = st.one_of(st.floats(0.0, 2.0), _LOG_FLOATS)
_J_ENDS = st.one_of(st.floats(0.0, 10.0), _LOG_FLOATS)  # |alpha| = sqrt(J) is bound by 3


@settings(max_examples=80, deadline=None)
@given(cfg=_configs(
    {"state": st.sampled_from(["tmss", "vacuum"]), "n_max": _SMALL_N_MAX,
     "r_grid": _small_axis(_R_ENDS, least=1), "j_grid": _small_axis(_J_ENDS, least=1),
     "beta2_sign": st.sampled_from([1, -1, 1.0, -1.0])},
    {"n_max": _ODD_N_MAX, "r_grid": _odd_axis(_R_ENDS), "j_grid": _odd_axis(_J_ENDS)}))
def test_generated_bell_sweep_configs_keep_the_exit_contract(cfg):
    """Exit 0, 2 or 3; a failure is one stderr line, no file and no warning; a success is finite."""
    code, text = _exit_contract("bell-sweep", cfg, "sweep.csv")
    assert code or _finite(text), text


_EXPERIMENT_FIELDS = sorted(_experiment())


@settings(max_examples=100, deadline=None)
@given(cfg=_configs(
    {"experiment": st.dictionaries(st.sampled_from(_EXPERIMENT_FIELDS), _LOG_FLOATS,
                                   max_size=3).map(lambda rates: _experiment(**rates)),
     "r": st.one_of(st.floats(0.0, 5.0), _LOG_FLOATS), "ratio_threshold": _LOG_FLOATS},
    {"experiment": st.dictionaries(st.sampled_from(_EXPERIMENT_FIELDS), _ODD_VALUES,
                                   min_size=1, max_size=3).map(lambda odd: _experiment(**odd))}))
def test_generated_feasibility_configs_keep_the_exit_contract(cfg):
    """Exit 0, 2 or 3; a failure is one stderr line, no file and no warning; a success is finite.

    The rates are the shipped ones with up to three of them replaced.
    """
    code, text = _exit_contract("feasibility", cfg, "report.json")
    assert code or _finite(text), text


@settings(max_examples=80, deadline=None)
@given(cfg=_configs(
    {"epsilon_over_kappa": _EPSILONS,
     "kappa_over_gamma": st.lists(_LOG_FLOATS, min_size=1, max_size=3)},
    {"kappa_over_gamma": st.one_of(st.lists(st.one_of(_LOG_FLOATS, _ODD_VALUES), max_size=3),
                                   _ODD_VALUES)}))
def test_generated_cascade_configs_keep_the_exit_contract(cfg):
    """Exit 0, 2 or 3; a failure is one stderr line, no file and no warning; a success is finite."""
    code, text = _exit_contract("cascade", cfg, "cascade.csv")
    assert code or _finite(text), text


def test_cascade_solves_the_broadband_extreme(tmp_path, capsys):
    """kappa/gamma 1e300 gives the white-noise variance, as the limit should."""
    cfg = write_config(tmp_path, {"schema_version": 1, "epsilon_over_kappa": 0.5,
                                  "kappa_over_gamma": [1e300]})
    assert main(["cascade", "--config", cfg]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert rows[0][0] == 1e300
    assert rows[0][1] == pytest.approx(rows[0][2], rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cascade_solves_the_narrowband_extreme(tmp_path, capsys):
    """kappa/gamma 1e-20 and 1e-300 give the vacuum limit var_sum_q = 2 without a warning."""
    cfg = write_config(tmp_path, {"schema_version": 1, "epsilon_over_kappa": 0.5,
                                  "kappa_over_gamma": [1e-20, 1e-300]})
    assert main(["cascade", "--config", cfg]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert [row[0] for row in rows] == [1e-20, 1e-300]
    for row in rows:
        assert abs(row[1] - 2.0) <= 1e-9


def test_evolve_over_its_work_budget_exits_3_at_once(tmp_path, capsys):
    """gamma 1e6 would keep the propagation busy for hours; the estimate refuses it first."""
    cfg = write_config(tmp_path, {"schema_version": 1, "n_max": 6,
                                  "model": {"epsilon_over_kappa": 0.3, "gamma": 1e6},
                                  "times": {"start": 0.0, "stop": 5.0, "num": 3}})
    out = tmp_path / "artifact.csv"
    start = time.perf_counter()
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: evolve: work estimate ||L||_1 * (t_end - t_0) = ")
    assert "exceeds the budget 1e+09" in err
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_evolve_past_its_work_budget_at_n_max_40_exits_3_at_once(tmp_path, capsys):
    """||L||_1 * (t_end - t_0) = 4.9e4 is light, but times the orbit matrix's nnz it is not.

    The propagation would take about 17 s; the budget counts the 137,840
    stored entries each step multiplies and refuses it before any step.
    """
    cfg = write_config(tmp_path, {"schema_version": 1, "n_max": 40,
                                  "model": {"epsilon_over_kappa": 0.3},
                                  "times": {"start": 0.0, "stop": 31.0, "num": 3}})
    out = tmp_path / "artifact.csv"
    start = time.perf_counter()
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: evolve: work estimate ||L||_1 * (t_end - t_0) = "
                          "4.91e+04 times nnz 137840 = 6.77e+09 exceeds the budget 1e+09")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_steady_state_report_is_independent_of_a_tiny_gamma(tmp_path):
    """gamma only sets the time scale, from the subnormal 5e-324 to 1.7e308.

    Both routes solve in units of a power of two near gamma, so 5e-324 keeps
    its bits and 1.7e308 does not overflow the Gaussian diffusion.
    """
    reports = []
    gammas = (1.0, 1e-300, 5e-324, 1.7e308)
    for gamma in gammas:
        cfg = write_config(tmp_path, {"schema_version": 1, "n_max": 10,
                                      "model": {"epsilon_over_kappa": 0.2, "gamma": gamma}})
        out = tmp_path / "report.json"
        assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    for gamma, report in zip(gammas, reports):
        assert report.pop("gamma") == gamma
    for gamma, report in zip(gammas[1:], reports[1:]):
        assert report == pytest.approx(reports[0], rel=1e-13, abs=1e-15), gamma


@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # nbar 1 at n_max 8
def test_steady_state_report_where_heating_outweighs_gamma_past_the_float_range(tmp_path):
    """gamma 5e-324 under heating 8, and gamma 1 under heating 1e308, give one heating-only state.

    In units of the heating rate the first gamma rounds below the smallest
    subnormal and is held there; neither gamma moves a sum with the heating.
    """
    reports = []
    for gamma, heating in ((5e-324, 8.0), (1.0, 1e308)):
        cfg = write_config(tmp_path, {"schema_version": 1, "n_max": 8, "model": {
            "epsilon_over_kappa": 0.3, "gamma": gamma, "heating_rate": heating}})
        out = tmp_path / "report.json"
        assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        reports.append({k: v for k, v in report.items() if k not in ("gamma", "heating_rate")})
    assert reports[0]["var_sum_q"] == pytest.approx(6.0, rel=1e-14)  # 2 (1 + 2 nbar), nbar 1
    assert reports[1] == pytest.approx(reports[0], rel=1e-13, abs=1e-15)


@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # N = 16/9 at n_max 8
def test_steady_state_certifies_a_large_gamma(tmp_path):
    """The residual is certified in units of the rates: gamma 3e6 exits 0 with gamma 1's state."""
    states = []
    for gamma in (1.0, 3e6):
        dump = tmp_path / f"rho_{gamma:g}.csv"
        cfg = write_config(tmp_path, {"schema_version": 1, "n_max": 8, "density_csv": str(dump),
                                      "model": {"n_param": 16 / 9, "m_param": 20 / 9,
                                                "gamma": gamma}})
        assert main(["steady-state", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        _, rows = read_csv(dump.read_text(encoding="utf-8"))
        states.append(np.array(rows))
    assert np.abs(states[1] - states[0]).max() <= 1e-12


# --- unwritable outputs -----------------------------------------------------


def _small_configs(tmp_path):
    axis = {"start": -1.0, "stop": 1.0, "num": 2}
    return {
        "steady-state": {"schema_version": 1, "model": {"epsilon_over_kappa": 0.2},
                         "n_max": 6},
        "wigner": {"schema_version": 1, "r": 0.3, "from_density": True, "n_max": 8,
                   "grid": {"q1": axis, "p1": axis, "q2": axis, "p2": axis}},
        "bell-sweep": {"schema_version": 1, "n_max": 8,
                       "r_grid": {"start": 0.1, "stop": 0.2, "num": 2},
                       "j_grid": {"start": 0.05, "stop": 0.1, "num": 2}},
        "feasibility": json.loads(
            (REPO_ROOT / "configs" / "feasibility_example.json").read_text(encoding="utf-8")),
    }


@pytest.mark.parametrize("command", ["steady-state", "wigner", "bell-sweep", "feasibility"])
def test_out_in_missing_directory_exits_2(tmp_path, capsys, command):
    """The artifact and its sidecar (.meta.json, .summary.json) are all or nothing."""
    cfg = write_config(tmp_path, _small_configs(tmp_path)[command])
    out = tmp_path / "missing" / "artifact"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command, suffix", [("wigner", ".meta.json"),
                                             ("bell-sweep", ".summary.json")])
def test_failed_sidecar_takes_back_the_artifact(tmp_path, capsys, command, suffix):
    cfg = write_config(tmp_path, _small_configs(tmp_path)[command])
    out = tmp_path / "artifact.csv"
    (tmp_path / f"artifact.csv{suffix}").mkdir()  # the sidecar cannot replace a directory
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot write {out}{suffix}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"artifact.csv{suffix}", "config.json"]


@pytest.mark.parametrize("command", ["wigner", "bell-sweep"])
def test_stdout_holds_the_csv_alone(tmp_path, capsys, command):
    """Without --out, stdout is the --out file byte for byte; the sidecar is not printed."""
    cfg = write_config(tmp_path, _small_configs(tmp_path)[command])
    out = tmp_path / "artifact.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_unwritable_density_csv_leaves_no_report(tmp_path, capsys):
    payload = _small_configs(tmp_path)["steady-state"]
    payload["density_csv"] = str(tmp_path / "missing" / "rho.csv")
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot write {payload['density_csv']}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # n_max 5 is coarse on purpose
def test_density_csv_lists_every_entry_in_dense_order(tmp_path):
    """The sparse writer keeps the d**2-row format of the dense matrix, zeros included."""
    from eprsim import FockBasis, steady_state
    from eprsim.cli import _csv, _parse_model

    dump = tmp_path / "rho.csv"
    payload = {"schema_version": 1, "model": {"epsilon_over_kappa": 0.3, "heating_rate": 0.05},
               "n_max": 5, "density_csv": str(dump)}
    cfg = write_config(tmp_path, payload)
    assert main(["steady-state", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    dense = steady_state(_parse_model(payload), FockBasis(5)).elements
    d = dense.shape[0]
    idx = np.arange(d * d)
    flat = dense.reshape(-1)
    expected = _csv(["row", "col", "re", "im"], [idx // d, idx % d, flat.real, flat.imag])
    assert dump.read_text(encoding="utf-8") == expected


@pytest.mark.filterwarnings("ignore::eprsim.TruncationWarning")  # the n_max 4 warm-up
def test_steady_state_cli_allocates_no_dense_density_matrix(tmp_path):
    """At n_max 40 the traced peak stays below one complex d x d array (41 MB)."""
    import tracemalloc

    cfg = write_config(tmp_path, {"schema_version": 1, "model": {"epsilon_over_kappa": 0.5},
                                  "n_max": 40})
    out = str(tmp_path / "report.json")
    # Warm up at a small n_max, so the lazily imported modules are not counted.
    assert main(["steady-state", "--config", cfg, "--out", out, "--n-max", "4"]) == 0
    tracemalloc.start()
    try:
        assert main(["steady-state", "--config", cfg, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1600**2 * 16


# --- determinism and wiring ------------------------------------------------


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "epsilon_over_kappa": 0.37,
            "omega_grid": {"start": -3.0, "stop": 3.0, "num": 33},
        },
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["nopa-spectrum", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["nopa-spectrum", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bell_sweep_reproduces_golden_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = REPO_ROOT / "configs" / "bell_default.json"
    assert main(["bell-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == (REPO_ROOT / "golden" / "bell_sweep.csv").read_bytes()


def test_evolve_reproduces_golden_csv(tmp_path):
    out = tmp_path / "evolve.csv"
    cfg = REPO_ROOT / "configs" / "evolve_vacuum.json"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == (REPO_ROOT / "golden" / "evolve_vacuum.csv").read_bytes()


def test_evolve_csv_is_independent_of_the_blas_thread_count():
    """The shipped evolve CSV from fresh interpreters at 1 and 2 BLAS threads, byte for byte.

    Its products use no BLAS and its small exponential multiplies in
    blocks that BLAS runs on one thread, so the thread count moves no bit.
    """
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "eprsim", "evolve", "--config",
             str(REPO_ROOT / "configs" / "evolve_vacuum.json")],
            capture_output=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == (REPO_ROOT / "golden" / "evolve_vacuum.csv").read_bytes()


# Shipped configs whose artifacts equal their golden files byte for byte.
_SHIPPED_GOLDENS = [
    ("nopa-spectrum", "nopa_spectrum", ["nopa_spectrum.csv"]),
    ("feasibility", "feasibility_example", ["feasibility_example.json"]),
    ("wigner", "wigner_slice", ["wigner_slice.csv", "wigner_slice.csv.meta.json"]),
    ("cascade", "cascade", ["cascade.csv"]),
    ("bell-sweep", "bell_beta2_negative",
     ["bell_beta2_negative.csv", "bell_beta2_negative.csv.summary.json"]),
    ("bell-sweep", "bell_vacuum", ["bell_vacuum.csv", "bell_vacuum.csv.summary.json"]),
]


@pytest.mark.parametrize("command, config, goldens", _SHIPPED_GOLDENS, ids=[
    "nopa-spectrum", "feasibility", "wigner", "cascade", "bell-beta2-negative", "bell-vacuum"])
def test_shipped_config_reproduces_golden(tmp_path, command, config, goldens):
    """Each artifact of a shipped config, byte for byte (the first is ``--out``).

    The command runs in a fresh ``python -m eprsim`` process, where a numpy
    RuntimeWarning is an error, so no state left by another test can help it.
    """
    cfg = REPO_ROOT / "configs" / f"{config}.json"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "eprsim", command,
                    "--config", str(cfg), "--out", str(tmp_path / goldens[0])],
                   env=env, check=True)
    for name in goldens:
        assert (tmp_path / name).read_bytes() == (REPO_ROOT / "golden" / name).read_bytes()


def test_steady_state_reproduces_golden_report(tmp_path):
    """The shipped steady-state report: exact, except the fields summed over the Fock state.

    Those four are sums over about 10^4 stored entries of the state the
    level elimination solves, and they are held to 1e-12.  This report's
    bytes are the same at 1, 2 and 4 OpenBLAS threads, but a larger solve
    (n_max 60, epsilon/kappa 0.5, heating 0.05) still changes in its last
    digits with the thread count.  The model, the Gaussian route and the
    warning flag are compared exactly.
    """
    out = tmp_path / "steady_state.json"
    cfg = REPO_ROOT / "configs" / "steady_state.json"
    assert main(["steady-state", "--config", str(cfg), "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((REPO_ROOT / "golden" / "steady_state.json").read_text(encoding="utf-8"))
    fock = ("fidelity_tmss", "purity", "mean_phonon_1", "mean_phonon_2")
    assert sorted(got) == sorted(want)
    for key in fock:
        assert abs(got[key] - want[key]) <= 1e-12, key
    assert {k: v for k, v in got.items() if k not in fock} == {
        k: v for k, v in want.items() if k not in fock}


# Shipped configs and golden files checked by a test other than the byte test
# above: config -> (golden files, the test that compares them).  The Bell
# summary bell_sweep_max.json is read by test_acceptance.py's criterion 7.
_OWN_GOLDEN_TESTS = {
    "bell_default": (["bell_sweep.csv", "bell_sweep_max.json"],
                     test_bell_sweep_reproduces_golden_csv),
    "evolve_vacuum": (["evolve_vacuum.csv"], test_evolve_reproduces_golden_csv),
    "steady_state": (["steady_state.json"], test_steady_state_reproduces_golden_report),
}


def test_every_shipped_config_and_golden_file_is_checked():
    """Each ``configs/*.json`` has a golden check, and each ``golden/`` file is compared."""
    checked = {config: goldens for _, config, goldens in _SHIPPED_GOLDENS}
    checked.update({config: goldens for config, (goldens, _) in _OWN_GOLDEN_TESTS.items()})
    assert sorted(checked) == sorted(p.stem for p in (REPO_ROOT / "configs").glob("*.json"))
    assert sorted(name for goldens in checked.values() for name in goldens) == sorted(
        p.name for p in (REPO_ROOT / "golden").iterdir())


@pytest.mark.parametrize("argv", [
    ["evolve", "--config", "c.json", "--n-max", "7", "--out", "o.csv"],
    ["cascade", "--config=c.json", "--bogus"],
    ["nopa-spectrum", "--config", "c.json", "--n-max", "3"],
    ["steady-state", "--conf", "c.json", "extra"],
    ["wigner", "--config", "c.json", "--n-max", "x"],
    ["bell-sweep", "--out", "o.csv"],
    ["feasibility", "--help"],
])
def test_one_command_parser_matches_the_full_parser(argv, capsys):
    """The parser built for the named command alone gives the same values and messages."""
    from eprsim.cli import _build_parser

    def parse(parser):
        try:
            return vars(parser.parse_args(argv)), capsys.readouterr()
        except SystemExit as exc:
            return exc.code, capsys.readouterr()

    assert parse(_build_parser(argv[0])) == parse(_build_parser())


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "eprsim", "nopa-spectrum", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--config" in proc.stdout


def test_log_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EPRSIM_LOG", "INFO")
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "r": 0.1,
            "grid": {
                "q1": {"start": 0.0, "stop": 0.0, "num": 1},
                "p1": {"start": 0.0, "stop": 0.0, "num": 1},
                "q2": {"start": 0.0, "stop": 0.0, "num": 1},
                "p2": {"start": 0.0, "stop": 0.0, "num": 1},
            },
        },
    )
    assert main(["wigner", "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert "sidecar .meta.json, not written to stdout" in err
