"""Compute the principal eigenvalue of the discrete nonlocal operator.

Runs the eigen iteration (damped Newton steps on the bordered eigen
system) for a few mesh sizes and prints the eigenvalue, the
first-order residual, and the shape of the eigenfunction.  For p = 2
the result is checked against a dense matrix eigendecomposition on the
spot.
"""

import argparse

import numpy as np

from fracbif import KernelMatrix, build_mesh, principal_eigenpair


def dense_reference(mesh, sigma):
    # for p = 2 the operator is linear: its matrix on the full n x n
    # kernel, which sees the odd eigenvectors too
    kern = KernelMatrix.full_from_sigma(mesh, sigma)
    M = 2.0 * (np.diag(kern.K.sum(axis=1) + kern.T) - kern.K)
    return float(np.linalg.eigvalsh(M / mesh.h)[0])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--s", type=float, default=0.4)
    args = ap.parse_args()

    print("principal eigenvalue, p = %.2f, s = %.2f" % (args.p, args.s))
    print()
    print("  n    lambda_1          residual    iters  converged")
    for n in (16, 32, 64, 128):
        mesh = build_mesh(-1.0, 1.0, n)
        kern = KernelMatrix.from_sigma(mesh, args.p * args.s)
        pair = principal_eigenpair(kern, args.p)
        print("%5d  %.10e  %.2e  %5d  %s"
              % (n, pair.value, pair.residual, pair.iterations,
                 pair.converged))
        if abs(args.p - 2.0) < 1e-12:
            ref = dense_reference(mesh, args.p * args.s)
            rel = abs(pair.value - ref) / ref
            print("       dense check: %.10e  (rel diff %.1e)" % (ref, rel))

    mesh = build_mesh(-1.0, 1.0, 64)
    kern = KernelMatrix.from_sigma(mesh, args.p * args.s)
    pair = principal_eigenpair(kern, args.p)
    u = pair.eigenfunction.values
    print()
    print("eigenfunction at n = 64: positive everywhere (min %.3e)," % u.min())
    print("symmetric about the center (asymmetry %.1e),"
          % np.max(np.abs(u - u[::-1])))
    peak = np.argmax(u)
    print("peaked at node %d of %d." % (peak, mesh.n))


if __name__ == "__main__":
    main()
