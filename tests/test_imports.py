"""Import boundaries and the lazily resolved package namespace.

Each probe runs in a fresh interpreter, so modules loaded by other tests
do not hide what an import statement pulls in by itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eprsim

SRC = str(Path(eprsim.__file__).resolve().parent.parent)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fresh_output(code):
    """Stdout lines of ``code`` run in a fresh interpreter that imports this eprsim."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.split()


def modules_after(statement):
    return fresh_output(f"import sys\n{statement}\nprint('\\n'.join(sys.modules))")


def test_cli_import_loads_no_scipy():
    loaded = modules_after("import eprsim.cli")
    assert "eprsim.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_package_import_loads_no_submodule():
    loaded = modules_after("import eprsim")
    assert [m for m in loaded if m.split(".")[0] == "eprsim"] == ["eprsim"]


def test_solver_layers_do_not_load_scipy_integrate():
    """Nor any other scipy module: each layer imports scipy inside the routines that use it."""
    loaded = modules_after(
        "import eprsim.hilbert, eprsim.states, eprsim.metrics, eprsim.lindblad, eprsim.gaussian")
    assert "eprsim.lindblad" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_moments_loads_no_scipy():
    loaded = modules_after(
        "from eprsim import FockBasis, moments, vacuum_state\n"
        "assert moments([vacuum_state(FockBasis(4))])['var_sum_q'][0] == 2.0")
    assert "eprsim.lindblad" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def scipy_after_command(tmp_path, command, config, *args, **fields):
    """The scipy modules loaded by one CLI run in a fresh interpreter.

    ``fields`` are set in a copy of the shipped config.
    """
    path = CONFIGS / config
    if fields:
        payload = json.loads(path.read_text(encoding="utf-8"))
        path = tmp_path / config
        path.write_text(json.dumps({**payload, **fields}), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), *args]
    loaded = modules_after(
        f"from eprsim.cli import main\nassert main({argv!r}) == 0")
    return {m for m in loaded if m.split(".")[0] == "scipy"}


@pytest.mark.parametrize("dump", [False, True], ids=["report", "density-csv"])
def test_steady_state_loads_no_scipy(tmp_path, dump):
    """The solve, its certification, the report and the density CSV are numpy only."""
    fields = {"density_csv": str(tmp_path / "rho.csv")} if dump else {}
    assert scipy_after_command(
        tmp_path, "steady-state", "steady_state.json", "--n-max", "6", **fields) == set()
    assert (tmp_path / "rho.csv").exists() == dump


def test_evolve_loads_no_scipy(tmp_path):
    """The Krylov propagation and its small matrix exponential are numpy only."""
    assert scipy_after_command(tmp_path, "evolve", "evolve_vacuum.json", "--n-max", "6") == set()


def test_evolve_loads_no_metrics_or_gaussian(tmp_path):
    """``moments`` reads the purity off the stored values, not through ``metrics.fidelity``."""
    argv = ["evolve", "--config", str(CONFIGS / "evolve_vacuum.json"),
            "--out", str(tmp_path / "out"), "--n-max", "6"]
    loaded = modules_after(f"from eprsim.cli import main\nassert main({argv!r}) == 0")
    assert "eprsim.lindblad" in loaded
    assert {"eprsim.metrics", "eprsim.gaussian"}.isdisjoint(loaded)


@pytest.mark.parametrize("command, config", [
    ("cascade", "cascade.json"),
    ("nopa-spectrum", "nopa_spectrum.json"),
    ("feasibility", "feasibility_example.json"),
])
def test_gaussian_and_rate_commands_load_no_scipy(tmp_path, command, config):
    assert scipy_after_command(tmp_path, command, config) == set()


@pytest.mark.parametrize("command, config", [
    ("bell-sweep", "bell_default.json"),
    ("bell-sweep", "bell_vacuum.json"),
    ("wigner", "wigner_slice.json"),
], ids=["bell-sweep-tmss", "bell-sweep-vacuum", "wigner"])
def test_displaced_parity_commands_load_no_scipy(tmp_path, command, config):
    """Each displaced parity is one numpy ``eigh``, not a scipy matrix exponential."""
    assert scipy_after_command(tmp_path, command, config) == set()


def test_dir_lists_every_public_name_before_any_import():
    listed = fresh_output("import eprsim\nprint('\\n'.join(dir(eprsim)))")
    assert set(eprsim.__all__) <= set(listed)


def test_every_public_name_resolves():
    for name in eprsim.__all__:
        value = getattr(eprsim, name)
        if name != "__version__":
            assert value.__module__.startswith("eprsim."), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eprsim.no_such_name
    assert not hasattr(eprsim, "no_such_name")


def test_error_types_are_shared_by_every_module():
    import eprsim.hilbert
    import eprsim.lindblad
    import eprsim.states

    assert eprsim.NumericalError is eprsim.hilbert.NumericalError
    assert eprsim.NumericalError is eprsim.lindblad.NumericalError
    for module in (eprsim.hilbert, eprsim.lindblad, eprsim.states):
        assert module.TruncationWarning is eprsim.TruncationWarning
