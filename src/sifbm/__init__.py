"""Simulation and verification lab for set-indexed fractional Brownian motion
over origin-anchored rectangles, with exact Gaussian sampling, flow
projections, measure recovery, and a discretized moving-average
representation.  Import names from their modules (``sifbm.gaussian``,
``sifbm.flows``, ``sifbm.recovery``, ...); the package re-exports none."""

__version__ = "0.1.0"

# numpy >= 2 loads these submodules on first attribute access.  The package
# uses both (np.random for every random stream; np.unique reads np.ma), so
# they load with the package rather than inside the first command run.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401
