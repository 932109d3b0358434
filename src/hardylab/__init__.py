"""hardylab: a numerical laboratory for sharp constants of Hardy-type
averaging operators on products of Heisenberg groups.

Exact Koranyi geometry and closed-form oracles sit next to Monte Carlo and
adaptive quadrature so every headline constant is checked by at least two
independent routes.
"""

from .closedform import (
    extremal_lower_bound,
    indicator_quotient,
    power_family_quotient,
    sharp_constant,
)
from .hgroup import GroupDims, ProductSpec, koranyi_norm, unit_ball_volume
from .measure import Estimate, lp_norm, mc_integrate, radial_integral
from .funcs import (
    BumpMixture,
    PowerInside,
    PowerOutside,
    RadialProduct,
)
from .operators import (
    MonomialWeight,
    hardy_eval,
    norm_quotient,
    weight_bound_integral,
)

__version__ = "0.1.0"

__all__ = [
    "Estimate",
    "GroupDims",
    "ProductSpec",
    "PowerInside",
    "PowerOutside",
    "RadialProduct",
    "BumpMixture",
    "MonomialWeight",
    "koranyi_norm",
    "unit_ball_volume",
    "mc_integrate",
    "radial_integral",
    "lp_norm",
    "hardy_eval",
    "weight_bound_integral",
    "norm_quotient",
    "sharp_constant",
    "power_family_quotient",
    "extremal_lower_bound",
    "indicator_quotient",
    "__version__",
]
