"""Simulation toolkit for entangling the motion of two distant trapped atoms.

Two cavity-trapped atoms driven by the quadrature-entangled output of a
nondegenerate parametric oscillator relax into a two-mode squeezed state
of their motional modes.  The package provides the source spectra, the
effective two-mode master equation with its exact steady state, Gaussian
covariance propagation (including the finite-bandwidth source cascade),
entanglement and Bell-inequality diagnostics on the motional state, and
an order-of-magnitude feasibility screen for candidate experiments.
"""

import importlib

__version__ = "0.1.0"

# Public names by defining module.  Each module is imported on first access
# to one of its names (PEP 562), so a command pays only for what it uses.
_EXPORTS = {
    "hilbert": (
        "FockBasis", "DensityMatrix", "NumericalError", "TruncationWarning", "vacuum_state",
    ),
    "nopa": (
        "NopaParams", "transfer_function", "squeezing_spectra",
        "effective_N_M", "squeeze_parameter",
    ),
    "states": (
        "TmssSpec", "tmss_fock", "wigner_analytic", "wigner_from_density",
        "edge_population",
    ),
    "lindblad": (
        "LindbladModel", "steady_state", "evolve", "moments", "purity",
    ),
    "gaussian": (
        "CovarianceState", "DriftDiffusion", "symplectic_form", "model_from_lindblad",
        "steady_covariance", "evolve_covariance", "cascade_model", "epr_variances",
    ),
    "metrics": (
        "BellSettings", "fidelity", "mean_phonon", "epr_criterion", "chsh_value",
        "log_negativity",
    ),
    "feasibility": (
        "ExperimentParams", "coupling_rate", "cooperativity", "check_all",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
