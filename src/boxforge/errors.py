"""Exception taxonomy shared across the package."""


class BoxforgeError(Exception):
    """Base class for all library errors."""


class DegenerateBoxError(BoxforgeError):
    """A box violates the strictly-positive-area invariant."""


class WindowTooLargeError(BoxforgeError):
    """A query window is larger than the feature map it is scanned over."""


class EmptyDatasetError(BoxforgeError):
    """Mining requires at least one image with proposals."""


class NoPositivesError(BoxforgeError):
    """Region selection produced an empty positive set."""


class NoFramesError(BoxforgeError):
    """Frame sampling produced no frames to match against."""


class EmptyPoolError(BoxforgeError):
    """Minibatch sampling was asked to draw from an empty pool."""


class NoGroundTruthError(BoxforgeError):
    """Evaluation requires ground-truth boxes."""


class ConfigInvalidError(BoxforgeError):
    """Configuration violates its invariants."""


class MissingInputError(BoxforgeError):
    """A required input file does not exist."""
