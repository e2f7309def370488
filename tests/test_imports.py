"""Import boundaries and the lazily resolved package namespace.

Each probe runs in a fresh interpreter, so modules loaded by other tests
do not hide what an import statement pulls in by itself.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eprsim
from eprsim.cli import _COMMANDS

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


def loaded_from(loaded, *packages):
    return [m for m in loaded if m.split(".")[0] in packages]


def test_cli_import_loads_no_numpy():
    """The front end imports numpy inside the functions that compute with it."""
    loaded = modules_after("import eprsim.cli")
    assert "eprsim.cli" in loaded
    assert loaded_from(loaded, "numpy") == []


def test_feasibility_run_loads_no_numpy(tmp_path):
    """The shipped feasibility grading is plain ``math``, end to end."""
    argv = ["feasibility", "--config", str(CONFIGS / "feasibility_example.json"),
            "--out", str(tmp_path / "out.json")]
    loaded = modules_after(f"from eprsim.cli import main\nassert main({argv!r}) == 0")
    assert "eprsim.feasibility" in loaded
    assert loaded_from(loaded, "numpy", "scipy") == []
    assert (tmp_path / "out.json").exists()


def test_usage_error_loads_no_numpy():
    """``python -m eprsim`` with no arguments prints its usage and exits 2 before any numpy."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "eprsim"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2
    assert "usage: eprsim" in proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "eprsim.cli" in imported
    assert loaded_from(imported, "numpy") == []


def _bad_config(tmp_path, case):
    """The path of a config that fails in the way ``case`` names."""
    if case == "unreadable":
        return tmp_path / "missing.json"
    path = tmp_path / "config.json"
    path.write_text("{not json" if case == "invalid-json" else '{"schema_version": 99}',
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("case", ["unreadable", "invalid-json", "wrong-schema"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_config_errors_load_no_numpy(tmp_path, command, case):
    argv = [command, "--config", str(_bad_config(tmp_path, case))]
    loaded = modules_after(f"from eprsim.cli import main\nassert main({argv!r}) == 2")
    assert loaded_from(loaded, "numpy") == []


def test_package_import_loads_no_submodule():
    loaded = modules_after("import eprsim")
    assert [m for m in loaded if m.split(".")[0] == "eprsim"] == ["eprsim"]


def test_evolve_loads_no_metrics_or_gaussian(tmp_path):
    """``moments`` reads the purity off the stored values, not through ``metrics.fidelity``."""
    argv = ["evolve", "--config", str(CONFIGS / "evolve_vacuum.json"),
            "--out", str(tmp_path / "out"), "--n-max", "6"]
    loaded = modules_after(f"from eprsim.cli import main\nassert main({argv!r}) == 0")
    assert "eprsim.lindblad" in loaded
    assert {"eprsim.metrics", "eprsim.gaussian"}.isdisjoint(loaded)


def test_no_module_imports_scipy():
    """numpy is the only runtime dependency, also in code that no command reaches."""
    paths = sorted(Path(SRC, "eprsim").glob("*.py"))
    assert "gaussian.py" in {path.name for path in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


# The first meta-path finder of a scipy probe: it refuses scipy and every
# scipy.* and records each attempt, so an ImportError that the code catches
# still shows.
_REFUSE_SCIPY = """
import sys


class RefuseScipy:
    attempts = []

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            self.attempts.append(name)
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, RefuseScipy())
"""


def scipy_probe(statement):
    """The modules loaded by ``statement`` in a fresh interpreter that refuses scipy.

    Returns ``(loaded, scipy)``: every module loaded, and the scipy modules
    that were loaded or asked for.
    """
    lines = fresh_output(f"{_REFUSE_SCIPY}\n{statement}\n"
                         "print('\\n'.join([*sys.modules, '--', *RefuseScipy.attempts]))")
    cut = lines.index("--")
    loaded, attempts = lines[:cut], lines[cut + 1:]
    return loaded, set(loaded_from(loaded, "scipy")) | set(attempts)


def test_cli_import_loads_no_scipy():
    loaded, scipy = scipy_probe("import eprsim.cli")
    assert "eprsim.cli" in loaded
    assert scipy == set()


def test_solver_layers_do_not_load_scipy_integrate():
    """Nor any other scipy module."""
    loaded, scipy = scipy_probe(
        "import eprsim.hilbert, eprsim.states, eprsim.metrics, eprsim.lindblad, eprsim.gaussian")
    assert "eprsim.lindblad" in loaded
    assert scipy == set()


def test_moments_loads_no_scipy():
    loaded, scipy = scipy_probe(
        "from eprsim import FockBasis, moments, vacuum_state\n"
        "assert moments([vacuum_state(FockBasis(4))])['var_sum_q'][0] == 2.0")
    assert "eprsim.lindblad" in loaded
    assert scipy == set()


def test_public_names_and_gaussian_routines_load_no_scipy():
    """Every public name resolves, and the Gaussian relaxation and steady state run."""
    loaded, scipy = scipy_probe(
        "import numpy as np\n"
        "import eprsim\n"
        "for name in eprsim.__all__:\n"
        "    getattr(eprsim, name)\n"
        "dd = eprsim.model_from_lindblad(eprsim.LindbladModel(1.0, 16 / 9, 20 / 9, 0.05))\n"
        "eprsim.evolve_covariance(eprsim.CovarianceState(np.eye(4)), dd, 1.0)\n"
        "eprsim.steady_covariance(dd)")
    assert "eprsim.gaussian" in loaded
    assert scipy == set()


def scipy_after_command(tmp_path, command, config, *args, **fields):
    """The scipy modules one CLI run loads or asks for, in a fresh interpreter.

    ``fields`` are set in a copy of the shipped config.
    """
    path = CONFIGS / config
    if fields:
        payload = json.loads(path.read_text(encoding="utf-8"))
        path = tmp_path / config
        path.write_text(json.dumps({**payload, **fields}), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), *args]
    return scipy_probe(f"from eprsim.cli import main\nassert main({argv!r}) == 0")[1]


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


_GAUSSIAN_AND_RATE_RUNS = [
    ("cascade", "cascade.json"),
    ("nopa-spectrum", "nopa_spectrum.json"),
    ("feasibility", "feasibility_example.json"),
]
_DISPLACED_PARITY_RUNS = [
    ("bell-sweep", "bell_default.json"),
    ("bell-sweep", "bell_vacuum.json"),
    ("bell-sweep", "bell_beta2_negative.json"),
    ("wigner", "wigner_slice.json"),
]


@pytest.mark.parametrize("command, config", _GAUSSIAN_AND_RATE_RUNS)
def test_gaussian_and_rate_commands_load_no_scipy(tmp_path, command, config):
    assert scipy_after_command(tmp_path, command, config) == set()


@pytest.mark.parametrize(
    "command, config", _DISPLACED_PARITY_RUNS,
    ids=["bell-sweep-tmss", "bell-sweep-vacuum", "bell-sweep-beta2-negative", "wigner"])
def test_displaced_parity_commands_load_no_scipy(tmp_path, command, config):
    """Each displaced parity is one numpy ``eigh``, not a scipy matrix exponential."""
    assert scipy_after_command(tmp_path, command, config) == set()


def test_scipy_probes_cover_every_command_and_config():
    """A new command or shipped config needs a scipy probe of its own."""
    runs = [("steady-state", "steady_state.json"), ("evolve", "evolve_vacuum.json"),
            *_GAUSSIAN_AND_RATE_RUNS, *_DISPLACED_PARITY_RUNS]
    assert {command for command, _ in runs} == set(_COMMANDS)
    assert {config for _, config in runs} == {p.name for p in CONFIGS.glob("*.json")}


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
    for module in (eprsim.hilbert, eprsim.states):  # lindblad warns through states
        assert module.TruncationWarning is eprsim.TruncationWarning
