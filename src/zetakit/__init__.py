"""zetakit: exact and floating-point machinery for rational zeta series,
the Clausen function, and series representations of Apery's constant.

Layers: `exact` (Bernoulli/Euler/binomial rationals and pi-power closed
forms), `specfun` (zeta, Hurwitz zeta, Dirichlet beta, Cl2 by four methods),
`catalog` (the identity registry with tail bounds), `verifier`
(tolerance-driven checks plus singular quadrature), `convergence`
(terms-to-tolerance benchmarking), and `cli`.

`import zetakit` loads none of them: each public name below, and each
submodule, is imported on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exact": (
        "LaurentCoeff", "PiPower", "bernoulli", "beta_odd_exact", "binomial", "euler_number",
        "taylor_coeff", "zeta_e_exact", "zeta_even_exact",
    ),
    "specfun": (
        "CL2_METHODS", "EvalResult", "catalan", "clausen_cl2", "dirichlet_beta", "euler_gamma",
        "hurwitz_zeta", "polygamma", "riemann_zeta", "zeta_e_weighted", "zeta_minus_one",
    ),
    "catalog": (
        "CatalogKey", "IdentityDescriptor", "assembled_sum", "assembly", "closed_form",
        "depth_for", "evaluate", "list_identities", "partial_sum", "partial_sums",
        "printed_closed_form", "registry", "tail_bound", "term",
    ),
    "quadrature": ("QuadratureResult", "tanh_sinh"),
    "verifier": (
        "InconclusiveError", "VerificationReport", "check_binomial_identity",
        "check_reciprocal_identity", "cross_check_clausen", "verify", "verify_all",
        "verify_integral_identity",
    ),
    "convergence": ("ConvergenceProfile", "compare", "export", "profile"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("catalog", "cli", "convergence", "exact", "quadrature", "specfun", "summation",
               "verifier")

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
