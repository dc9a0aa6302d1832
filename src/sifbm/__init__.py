"""Simulation and verification lab for set-indexed fractional Brownian motion
over origin-anchored rectangles, with exact Gaussian sampling, flow
projections, measure recovery, and a discretized moving-average
representation.  Import names from their modules (``sifbm.gaussian``,
``sifbm.flows``, ``sifbm.recovery``, ...); the package re-exports none."""

__version__ = "0.1.0"

# numpy >= 2 loads np.random on first attribute access.  Every random stream
# uses it, so it loads with the package rather than inside the first command
# run.  np.ma is left to load where it is read: a plain np.unique(x) reads it,
# np.unique with return_inverse does not.
import numpy.random  # noqa: F401
