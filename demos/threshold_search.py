"""Locate the existence threshold and trace the solution branch.

Below some critical reaction strength lambda* the only solution is
zero; above it two positive solutions appear.  This script prints the
closed-form lower bound on lambda* that the principal eigenfunction
proves, then estimates lambda* as the turning point lambda*_h of the
minimizer branch: a Newton solve of the fold system, started from the
minimizer at the upper end of the starting bracket, and bracketed by
two existence predicates a quarter width either side of it (answered
without a search below that bound, and elsewhere by a descent from the
minimizer at the bracket's upper end, with a multi-start only where
that descent collapses).  Where the fold solve does not converge, or
the predicates disagree with it, bisection finishes the bracket.  One
descent at the bracket's lower end, from the minimizer at its upper
end, checks it (the branch must be gone there, or a warning is
printed), and then the script walks the branch upward printing both
solution sizes.  A small mesh keeps the whole run under a minute.
"""

import argparse

import numpy as np

from fracbif import (KernelMatrix, build_diagram, build_mesh,
                     lambda_lower_bound, principal_eigenpair,
                     validate_params)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=48)
    ap.add_argument("--lo", type=float, default=5.0)
    ap.add_argument("--hi", type=float, default=9.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 1.0})
    mesh = build_mesh(-1.0, 1.0, args.n)
    kern = KernelMatrix.from_sigma(mesh, params.p * params.s)

    eig = principal_eigenpair(kern, params.p)
    print("principal eigenvalue lambda_1 = %.6f" % eig.value)
    low = lambda_lower_bound(kern, params, eigenpair=eig)
    if low is None:
        print("no nonexistence certificate from this eigenfunction")
    else:
        print("zero is the only solution below lambda_low = %.6f" % low)
    print()

    grid = np.linspace(args.lo + 1.0, args.hi + 4.0, 6)
    diagram = build_diagram(kern, params, grid, (args.lo, args.hi),
                            seed=args.seed)
    rec = diagram.method_record
    if rec["fold_estimate"] is None:
        print("fold solve did not converge: %s" % rec["fold_note"])
    else:
        print("fold solve         lambda*_h = %.10f  (residual %.1e, %d "
              "Newton steps)" % (rec["fold_estimate"], rec["fold_residual"],
                                 rec["fold_iterations"]))
    print("bisection bracket  [%.6f, %.6f]" % tuple(rec["bisection_bracket"]))
    print("lambda* estimate   %.6f  (bracket width %.4f, %d predicates, "
          "%d settled by the bound)"
          % (diagram.lambda_star_estimate, diagram.bracket_width,
             rec["predicate_evaluations"], rec["certified_predicates"]))
    if rec["agreement_rel"] is not None:
        print("lambda*_h vs midpoint  %.1e apart" % rec["agreement_rel"])
    for w in rec["warnings"]:
        print("warning: %s" % w)
    print()

    print("branch above the threshold:")
    print("  lambda      sup u       sup v     E(u)")
    for pt in diagram.points:
        d = pt.diagnostics
        if not np.isfinite(d["sup_u"]) or d["sup_u"] == 0.0:
            print("  %7.3f   (zero only)" % pt.lam)
            continue
        print("  %7.3f  %9.5f  %9.5f  %9.4f"
              % (pt.lam, d["sup_u"], d["sup_v"], d["energy_u"]))
    print()
    print("the large branch grows with lambda while the saddle branch")
    print("shrinks; they collide at the fold when lambda drops to lambda*.")


if __name__ == "__main__":
    main()
