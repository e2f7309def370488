"""The package's error and warning types.

They live in a module of their own, with no imports, so the command-line
front end can catch a numerical failure, and ``feasibility`` raise one,
without loading numpy.  :mod:`eprsim.hilbert` re-exports both.
"""


class NumericalError(RuntimeError):
    """A solver failed to reach its accuracy contract."""


class TruncationWarning(UserWarning):
    """State has significant population near the truncation edge."""
