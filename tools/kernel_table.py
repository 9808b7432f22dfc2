"""Print the branches of the radius kernel that capsmooth builds for each
(m, sigma) of a grid, one line per kernel:

    m sigma lower upper

where each branch reads the number of Chebyshev coefficients it keeps,
`miss` where its full table misses the certificate (the Halley inverse
then serves it), or `-` where the kernel has no such branch.  A kernel
whose law has a radial mass I_m(sigma) below the normal double range
prints `underflow` in place of both branches.

    PYTHONPATH=src python tools/kernel_table.py
    PYTHONPATH=src python tools/kernel_table.py --m 1.5,3 --sigma 0.5,1

The default grid is m = 1, 4, ..., 1000 by sigma in {0.5, 0.8, 0.9,
0.95, 0.97, 0.98, 0.99, 1}, 2,672 kernels, where the certificate is at
its margin; it takes a few minutes.  Comparing two trees' tables with
diff shows every branch that a change to the kernel moves.
"""

import argparse

import numpy as np

from capsmooth.distributions import AdversarialLaw, Cap

M_GRID = range(1, 1001, 3)
SIGMA_GRID = (0.5, 0.8, 0.9, 0.95, 0.97, 0.98, 0.99, 1.0)


def branches(m, sigma):
    """The (lower, upper) cells of the kernel for m = n - beta and
    sigma, or None when the law's radial mass underflows."""
    # the smallest n above m, so beta = n - m is in (0, 1]
    n = int(m) + 1
    center = np.zeros(n + 1)
    center[0] = 1.0
    law = AdversarialLaw(Cap(center, sigma), n - m)
    try:
        law.inverse_radial_cdf(0.5)
    except ArithmeticError:
        return None
    kernel = law._inverse

    def cell(fit, present):
        if not present:
            return "-"
        return "miss" if fit is None else str(len(fit.coef))
    return (cell(kernel._lower, True),
            cell(kernel._upper, kernel.top > kernel.split))


def _numbers(text):
    return [float(v) for v in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--m", type=_numbers, default=list(M_GRID),
                        help="comma-separated m = n - beta values")
    parser.add_argument("--sigma", type=_numbers, default=list(SIGMA_GRID),
                        help="comma-separated cap radii")
    args = parser.parse_args(argv)
    for m in args.m:
        for sigma in args.sigma:
            cells = branches(m, sigma)
            print("%g %g %s" % (m, sigma, "underflow" if cells is None
                                else " ".join(cells)), flush=True)


if __name__ == "__main__":
    main()
