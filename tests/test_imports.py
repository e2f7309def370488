"""Import boundaries and the lazily resolved package namespace.

Each probe runs in a fresh interpreter, so modules loaded by other tests
do not hide what an import statement pulls in by itself.
"""

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
    loaded = modules_after("import eprsim.lindblad, eprsim.gaussian, eprsim.states")
    assert "scipy.sparse" in loaded
    assert [m for m in loaded if m.startswith("scipy.integrate")] == []


def scipy_after_command(tmp_path, command, config, *args):
    """The scipy modules loaded by one CLI run in a fresh interpreter."""
    argv = [command, "--config", str(CONFIGS / config), "--out", str(tmp_path / "out"), *args]
    loaded = modules_after(
        f"from eprsim.cli import main\nassert main({argv!r}) == 0")
    return {m for m in loaded if m.split(".")[0] == "scipy"}


def test_steady_state_loads_scipy_sparse_alone(tmp_path):
    """No scipy.linalg, scipy.sparse.linalg or csgraph, unless scipy.sparse brings them.

    Some older scipy releases load csgraph, which may bring the other two,
    from ``import scipy.sparse`` itself.
    """
    loaded = scipy_after_command(tmp_path, "steady-state", "steady_state.json", "--n-max", "6")
    assert "scipy.sparse" in loaded
    assert loaded <= set(modules_after("import scipy.sparse"))


@pytest.mark.parametrize("command, config", [
    ("cascade", "cascade.json"),
    ("nopa-spectrum", "nopa_spectrum.json"),
    ("feasibility", "feasibility_example.json"),
])
def test_gaussian_and_rate_commands_load_no_scipy(tmp_path, command, config):
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
