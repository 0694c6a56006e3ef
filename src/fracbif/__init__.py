"""Discrete fractional p-Laplacian with a two-power reaction.

Assembles the nonlocal Dirichlet form of (-Delta)_p^s on a uniform 1-D
mesh, minimizes the associated energy for the reaction
lam*t^(q-1) - t^(r-1) (1 < r < q < p), finds the second mountain-pass
solution, and traces both against the reaction strength to locate the
existence threshold lambda*.
"""

__version__ = "0.1.0"

from .core import (GridFunction, Mesh1D, MeshError, MeshMismatchError,
                   ParameterError, ProblemParams, build_mesh, mirror_fold,
                   mirror_unfold, odd_power, validate_params, with_lambda)
from .kernel import (KernelError, KernelMatrix, apply_operator,
                     assemble_kernel, operator_hessian, pairing,
                     pairwise_energy, seminorm_energy,
                     seminorm_energy_and_operator)
from .reaction import (F_values, ReactionModel, df_values, f_values,
                       scan_reaction_slack, sign_threshold_delta)
from .solvers import (EigenResult, FoldResult, MountainPassPath,
                      SaddleNotFound, SolveReport, SolverError, SolverOptions,
                      find_saddle, minimize, minimize_multistart,
                      principal_eigenpair, select_solution, solve_fold,
                      total_energy, total_gradient, total_hessian)
from .diagnostics import (boundary_ratios, check_ordering, gradient_check,
                          hopf_ratio, verify_operator_properties)
from .bifurcation import (BifurcationDiagram, BranchPoint, build_diagram,
                          continue_branch, estimate_lambda_star,
                          lambda_lower_bound, solve_at_lambda)
from .config import RunConfig, ConfigError, config_hash, parse_config_file, resolve
from .verify import (pair_weight_quadrature, run_verification,
                     tail_weight_quadrature)
