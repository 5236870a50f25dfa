"""Self-validated enclosures for interval parametric linear systems.

The package covers the full chain: interval arithmetic with outward
rounding, affine parametric systems and their optimal rank-one LDR
rewriting, three enclosure solvers (p,l, p,g and the numerical hull)
returning the uniform parameterized form x(q) = x_check + [U | diag(l_hat)]
q, sharp bounds for secondary quantities, truss finite-element front ends,
and point evaluation of solutions and their polytope projections.
"""

from types import ModuleType as _ModuleType

from .intervals import (Interval, IntervalVector, affine_image_hull,
                        mat_interval_product)
from .secondary import (SecondaryResult, SecondarySpec, bilinear_secondary,
                        linear_secondary, overestimation_percent)
from .solvers import (EnclosureReport, MidpointSingular, ParamSolution,
                      RegularityViolation, evaluate_solution,
                      kolev_pl_solution, pg_solution, rank_one_enclosure,
                      rohn_inverse, spectral_radius)
from .systems import (CenteredSystem, LdrSystem, ParamLinearSystem,
                      build_ldr, center, make_system, rank_one_factorize)
from .truss import (Element, ForceRecovery, LoadTerm, TrussModel, assemble,
                    cantilever_truss, force_map, six_bar_reference_force_map,
                    six_bar_truss)

# the submodules are attributes of the package, not public names
__all__ = [name for name, obj in sorted(globals().items())
           if not (name.startswith("_") or isinstance(obj, _ModuleType))]
