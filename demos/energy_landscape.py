"""Walk the energy along the rays from zero through both solutions.

Along the ray of a nonnegative profile w the energy E(t w) rises from
E(0) = 0 and, where the reaction wins, peaks and falls to a trough
before it rises again.  The small solution v is the mountain pass: the
least of those peaks over all rays, so E(t v) peaks exactly at t = 1.
The large solution u, the energy minimizer, is the trough of its own
ray, at t = 1.  This script solves for both and prints E(t u) and
E(t v) for t in [0, 1.5], so the barrier and the well show as numbers.
"""

import argparse

import numpy as np

from fracbif import (KernelMatrix, ReactionModel, SolverOptions, build_mesh,
                     find_saddle, minimize_multistart, mirror_fold,
                     select_solution, total_energy, validate_params)


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
    v = find_saddle(kern, params, u.solution.values, opts)
    print("minimizer u: sup %.6f, energy % .6e" % (u.solution.sup_norm,
                                                   u.energy))
    print("saddle v:    sup %.6f, energy % .6e" % (v.solution.sup_norm,
                                                   v.energy))
    print()

    # on the even kernel the energy of a folded point is the energy of
    # the full-mesh profile
    ts = np.arange(31) / 20.0
    Eu = [total_energy(kern, model, t * mirror_fold(u.solution.values))
          for t in ts]
    Ev = [total_energy(kern, model, t * mirror_fold(v.solution.values))
          for t in ts]
    top = max(Ev)
    width = 32
    print("   t     E(t u)         E(t v)")
    for t, a, b in zip(ts, Eu, Ev):
        bar = "#" * int(round(width * max(b, 0.0) / top))
        marker = "  <-- v peaks, u bottoms out" if t == 1.0 else ""
        print("  %4.2f  % .6e  % .6e  %s%s" % (t, a, b, bar, marker))
    print()
    print("the peak %.6e of E(t v) is the mountain-pass level: the rays"
          % top)
    print("near v peak higher.")


if __name__ == "__main__":
    main()
