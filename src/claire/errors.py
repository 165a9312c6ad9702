"""Exception types shared across the package."""


class ClaireError(Exception):
    """Base class for every error raised by this package."""


class InputError(ClaireError):
    """Bad external input: missing files, malformed rows, out-of-range knobs."""


class ShapeError(ClaireError):
    """Array dimensions incompatible with the requested operation."""


class StateError(ClaireError):
    """Operation called in the wrong lifecycle state (e.g. apply before fit)."""


class DegenerateDataError(ClaireError):
    """Dataset cannot support the operation (empty, single class, all dropped)."""


class ConditioningError(ClaireError):
    """Linear system remained unsolvable even after ridge damping."""


class NumericError(ClaireError):
    """A computed quantity is non-finite or out of numeric bounds."""


class DivergenceError(NumericError):
    """Phase-1 training blew up: a loss value of a step was non-finite or
    larger in magnitude than the guard. Carries the epoch, the batch and the
    value's name: recon, latent, clf, ent (the unweighted terms) or total."""

    def __init__(self, message: str, epoch: int, batch: int, term: str):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.term = term


class InterfaceError(ClaireError):
    """A user-supplied callable broke its contract (shape or width drift)."""
