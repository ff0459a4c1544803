"""zetakit: exact and floating-point machinery for rational zeta series,
the Clausen function, and series representations of Apery's constant.

Layers: `exact` (Bernoulli/Euler/binomial rationals and pi-power closed
forms), `specfun` (zeta, Hurwitz zeta, Dirichlet beta, Cl2 by four methods),
`catalog` (the identity registry with tail bounds), `verifier`
(tolerance-driven checks plus singular quadrature), `convergence`
(terms-to-tolerance benchmarking), and `cli`.
"""

from .exact import (
    LaurentCoeff,
    PiPower,
    Rational,
    bernoulli,
    beta_odd_exact,
    binomial,
    euler_number,
    taylor_coeff,
    zeta_e_exact,
    zeta_even_exact,
)
from .specfun import (
    CL2_METHODS,
    EvalResult,
    catalan,
    clausen_cl2,
    dirichlet_beta,
    euler_gamma,
    hurwitz_zeta,
    polygamma,
    riemann_zeta,
    zeta_e_weighted,
    zeta_minus_one,
)
from .catalog import (
    CatalogKey,
    IdentityDescriptor,
    assembled_sum,
    assembly,
    closed_form,
    depth_for,
    evaluate,
    list_identities,
    partial_sum,
    partial_sums,
    printed_closed_form,
    registry,
    tail_bound,
    term,
)
from .quadrature import QuadratureResult, tanh_sinh
from .verifier import (
    InconclusiveError,
    VerificationReport,
    check_binomial_identity,
    check_reciprocal_identity,
    cross_check_clausen,
    quadrature,
    verify,
    verify_all,
    verify_integral_identity,
)
from .convergence import ConvergenceProfile, compare, export, profile

__version__ = "0.1.0"
