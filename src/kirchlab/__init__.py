"""Numerical laboratory for the nonlocal Dirichlet problem
-(a(x) + b(x) * integral |grad u|^2) Lap u = h(x) on rectangles: enumerate all
solutions by a scalar fixed-point reduction, solve the associated weighted
eigenproblem, and certify uniqueness of the solution from the ratio a/b.
"""

from .grid import (FaceField, Grid, ScalarField, dirichlet_lambda1, divergence,
                   grad_inner, grad_norm_sq, gradient, integrate, laplacian,
                   read_field, write_field)
from .expr import DomainError, ExprError, eval_field, parse
from .linalg import (NoConvergence, Pencil, apply_weighted_laplacian,
                     assemble_weighted_laplacian, lobpcg_smallest_positive,
                     pencil_eigensolve, poisson_solve, smallest_positive)
from .kirchhoff import (NonlocalSolution, Problem, ScanReport, SingularJacobian,
                        diffusion_coefficient, energy_upper_bound,
                        fixed_point_map, fixed_point_scan, jacobian_functional,
                        jacobian_identity, linearized_solve, newton_solve,
                        residual, solve_frozen)
from .eigen import (EigenCurve, EigenPair, eigen_curve, eigen_weight,
                    eigenvalue_lower_bound, is_admissible, principal_eigenpair,
                    rayleigh_quotient, weight_flux)
from .certify import (Certificate, ConstructionFailed, certify,
                      pointwise_certified_ratio, pointwise_criterion, ratio_criterion,
                      ratio_gap)

__version__ = "0.1.0"
