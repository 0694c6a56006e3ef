"""Look at the assembled nonlocal kernel before any solving.

Prints how the pairwise weights decay with cell distance, how the
boundary tails grow toward the domain ends, and how both scale when
the domain is stretched.  Useful as a first sanity pass on a new
parameter choice.
"""

import argparse

import numpy as np

from fracbif import KernelMatrix, build_mesh


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma", type=float, default=0.9,
                    help="kernel order p*s, in (0, 1)")
    ap.add_argument("--n", type=int, default=16, help="mesh cells")
    args = ap.parse_args()

    # the full n x n kernel: its rows run over every cell, not only the
    # first half that the solvers' even kernel keeps
    mesh = build_mesh(-1.0, 1.0, args.n)
    kern = KernelMatrix.full_from_sigma(mesh, args.sigma)

    print("kernel order sigma = %.3f on (-1, 1) with %d cells (h = %.4f)"
          % (args.sigma, args.n, mesh.h))
    print()
    row = kern.K[0]
    print("weights from the first cell (distance in cells, weight):")
    for j in range(1, min(args.n, 8)):
        print("  %3d   %.6e" % (j, row[j]))
    slope = np.log(row[3] / row[6]) / np.log(2.0)
    print("doubling the distance from 3 to 6 cells divides the weight by")
    print("2^%.3f; far apart the decay exponent approaches 1 + sigma = %.3f"
          % (slope, 1.0 + args.sigma))
    print()

    print("tail weights (distance to boundary, weight):")
    order = np.argsort(mesh.dist)
    for i in order[:4]:
        print("  d = %.4f   T = %.6e" % (mesh.dist[i], kern.T[i]))
    mid = order[-1]
    print("  d = %.4f   T = %.6e  (domain center)"
          % (mesh.dist[mid], kern.T[mid]))
    print()

    wide = KernelMatrix.full_from_sigma(build_mesh(-2.0, 2.0, args.n),
                                        args.sigma)
    factor = wide.K[0, 1] / kern.K[0, 1]
    print("stretching the domain by 2 scales every weight by "
          "2^(1-sigma) = %.6f (measured %.6f)"
          % (2.0 ** (1.0 - args.sigma), factor))


if __name__ == "__main__":
    main()
