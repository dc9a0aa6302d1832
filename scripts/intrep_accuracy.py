#!/usr/bin/env python3
"""Discretization-accuracy sweep for the moving-average representation.

Prints, per Hurst value, the exact (quadrature-implied, noise-free) covariance
error of the scheme against the closed-form fBm covariance, across step
refinement levels of the integration grid (the window stays; the tails beyond
it are exact).  This is the table to consult when choosing grid parameters
for a new mass range.
"""

import sys

import numpy as np

from sifbm.gaussian import HurstParam
from sifbm.intrep import GridSpec, KernelLaw, fbm_covariance


def run(hursts=(0.1, 0.2, 0.3, 0.35, 0.45), masses=(0.5, 0.75, 1.0), levels=3):
    masses = list(masses)
    print(f"masses = {masses}")
    header = "H      " + "  ".join(f"level {k} (x{2**k})" for k in range(levels))
    print(header)
    law = KernelLaw(HurstParam(hv) for hv in hursts)
    got = [law.covariances(masses, GridSpec().refine(2**k)) for k in range(levels)]
    for hi, (hv, h) in enumerate(zip(hursts, law.hs)):
        want = fbm_covariance(masses, h)
        errs = [np.max(np.abs(level[hi] - want)) for level in got]
        print(f"{hv:<5}  " + "  ".join(f"{e:12.3e}" for e in errs))


if __name__ == "__main__":
    args = [float(a) for a in sys.argv[1:]]
    run(masses=args or (0.5, 0.75, 1.0))
