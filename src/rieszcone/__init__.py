"""Riesz measures on the positive semidefinite cone.

Symmetric-matrix primitives, admissible-parameter arithmetic, exact
samplers for the (possibly singular) measures, and verification oracles
(closed-form Laplace transforms, low-rank profiles, adaptive quadrature).
"""

from .algebra import (  # noqa: F401
    SymElement,
    spectral,
    minors,
    generalized_power,
)
from .gindikin import (  # noqa: F401
    GindikinParam,
    BlockPartition,
    s_from_u,
    u_from_s,
    param_from_u,
    build_partition,
    log_gamma_omega,
    membership_report,
)
from .sampling import (  # noqa: F401
    RieszSpec,
    SampleBatch,
    sample_stream,
    sample_gamma,
    sample_chunks,
    sample_riesz,
    log_density_ac,
)
from .verify import (  # noqa: F401
    laplace_exact,
    laplace_mc,
    quadrature_check_r2,
    identity_suite,
    rank_profile,
    run_selftest,
)

__version__ = "0.1.0"
