"""Exception types shared across the package."""


class BoxdynError(Exception):
    """Base class for all boxdyn errors."""


class PointOutsideDomain(BoxdynError):
    """A point lies outside the phase-space rectangle."""


class GridMismatch(BoxdynError):
    """Two objects built over different grids were combined."""


class NodeNotRecurrent(BoxdynError):
    """A Morse-graph operation was invoked on a non-recurrent component."""


class CarrierNotAcyclic(BoxdynError):
    """A chain-map carrier failed the acyclicity requirement.

    Carries the offending cell so the caller can report it.  The usual
    remedies are refining the grid or adjusting the inflation radius rho.
    """

    def __init__(self, cell, detail=""):
        self.cell = cell
        msg = f"carrier of cell {cell} is not acyclic"
        if detail:
            msg += f" ({detail})"
        msg += "; refine the grid or adjust rho"
        super().__init__(msg)


class ParseError(BoxdynError):
    """An input file failed to parse; message includes the location."""


class DimensionMismatch(BoxdynError):
    """Layer or data dimensions do not chain correctly."""


class EmptyDataset(BoxdynError):
    """A trajectory-data file contained no samples."""


class ConfigError(BoxdynError):
    """Invalid analysis configuration."""
