"""Walk the energy along a path from zero to the large solution.

The small solution is a mountain pass: every path from the zero
solution to the energy minimizer has to climb over an energy barrier,
and the lowest crossing point is itself a solution.  This script
solves for the minimizer, asks the saddle finder to keep its final
path, and prints the energy profile along it so the barrier is
visible as numbers.
"""

import argparse

from fracbif import (KernelMatrix, ReactionModel, SolverOptions, build_mesh,
                     find_saddle, minimize_multistart, select_solution,
                     validate_params)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=10.0)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": args.lam})
    mesh = build_mesh(-1.0, 1.0, args.n)
    kern = KernelMatrix.from_sigma(mesh, params.p * params.s)
    model = ReactionModel.plain(params)

    opts = SolverOptions()
    reports = minimize_multistart(kern, model, opts, seed=args.seed)
    u = select_solution(reports, opts.zero_tol)
    if u.solution.sup_norm == 0.0:
        print("zero is the only minimizer at lambda = %.3f; raise --lam"
              % args.lam)
        return
    print("minimizer: sup %.6f, energy %.6f" % (u.solution.sup_norm, u.energy))

    v, path = find_saddle(kern, params, u.solution.values, opts,
                          return_path=True)
    print("saddle:    sup %.6f, energy %.6f (path point %d of %d)"
          % (v.solution.sup_norm, v.energy, path.max_index,
             len(path.points)))
    print()

    energies = list(path.energies)
    top = max(energies)
    width = 48
    print("the climb out of zero (bars scaled to the barrier height):")
    k = 0
    while k < len(energies) and energies[k] > -0.5 * top:
        bar = "#" * int(round(width * max(energies[k], 0.0) / top))
        marker = "  <-- barrier" if k == path.max_index else ""
        print("  %3d  % .6f  %s%s" % (k, energies[k], bar, marker))
        k += 1
    print()
    print("past the barrier the energy drops far below zero on the way")
    print("down to the minimizer:")
    for j in range(k, len(energies), 4):
        print("  %3d  % .6f" % (j, energies[j]))
    print("  %3d  % .6f  (minimizer)" % (len(energies) - 1, energies[-1]))
    print()
    print("the barrier height %.6f is the mountain-pass level; the saddle"
          % top)
    print("solver refines that crossing point until the gradient vanishes.")


if __name__ == "__main__":
    main()
