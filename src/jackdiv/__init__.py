"""Jack-polynomial calculus over the real normed division algebras.

Submodules
----------
core
    Division-algebra parameter, partitions, hooks.
jack
    Jack polynomial evaluation (C and J normalizations).
special
    Multivariate gamma/beta functions and generalized Pochhammer symbols.
hypergeom
    Truncated hypergeometric series of one and two matrix arguments.
wishart
    Wishart sampling and extreme-eigenvalue distribution functions.
verify
    Monte Carlo verification of the library's integral identities.
cli
    Command-line interface (``jackdiv``).
"""

from .core import (
    ALL_ALGEBRAS,
    COMPLEX,
    OCTONION,
    QUATERNION,
    REAL,
    SAMPLEABLE_ALGEBRAS,
    DivisionAlgebra,
    DomainError,
    Partition,
    UnsupportedParameterError,
    conjugate,
    dominance_leq,
    enumerate_partitions,
    format_partition,
    hook_product,
    parse_partition,
)
from .jack import (
    JackTable,
    SpectralArgument,
    get_table,
    jack_C,
    jack_C_at_identity,
    jack_C_batch,
    jack_J,
)
from .special import (
    WeightedGammaQuery,
    gen_pochhammer,
    mv_beta,
    mv_gamma,
    mv_gamma_ln,
    mv_gamma_weighted,
    mv_gamma_weighted_ln,
)
from .hypergeom import (
    HypergeomSpec,
    SeriesResult,
    SeriesTruncation,
    euler_2f1,
    kummer_1f1,
    pfq,
    pfq_two,
)
from .wishart import (
    WishartModel,
    cdf_lambda_max,
    cdf_lambda_min,
    cdf_wishart_region,
    joint_eigen_density,
    sample_wishart_eigs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
