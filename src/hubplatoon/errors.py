"""Exception types shared across the package."""


class InputError(ValueError):
    """A precondition on caller-supplied data failed."""


class FormatError(InputError):
    """A file or document does not match its schema."""


class SupportTooLargeError(InputError):
    """Joint scenario support exceeds the enumeration cap; use sampling."""


class NonConvergenceError(RuntimeError):
    """An iteration hit its cap without settling: best-response rounds,
    or the steps of a simulated day."""


class ModelInconsistencyError(RuntimeError):
    """Observed history is impossible under the declared distribution."""
