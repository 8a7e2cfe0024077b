"""Discrete-calculus toolkit.

Indefinite sums (antidifferences) computed as finite floor-bounded sums,
particular solutions of linear difference equations with factored shift
operators, difference inequalities, a Green-kernel convolution form, and a
numerical verifier for the identities the machinery satisfies.

Importing the package imports none of its modules: each name below is
looked up in its module on first use (PEP 562), so ``from adiff import
antidifference`` loads only what that name needs, and a command-line call
loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "antidiff": (
        "AntidiffValue",
        "RealFunction",
        "antidifference",
        "backward_antidifference",
        "definite_sum",
        "resolvent_sum",
    ),
    "convkernel": ("GreenKernel", "convolve", "kernel_weights"),
    "errors": (
        "AdiffError",
        "BoundsError",
        "CapExceeded",
        "CrossCheckError",
        "DomainError",
        "EvalError",
        "NoConvergence",
        "NonFiniteInput",
        "NonPositiveShift",
        "ParseError",
        "PeriodicityViolation",
        "PoleError",
        "SignViolation",
        "TermBudgetExceeded",
        "ZeroLambda",
    ),
    "exprlang": ("as_function", "evaluate", "parse", "unparse"),
    "inequality": (
        "Direction",
        "InequalityReport",
        "InequalitySpec",
        "Periodicity",
        "SolutionFunction",
        "build_solution",
        "check_inequality",
        "check_membership",
    ),
    "numkit": (
        "FloorModResult",
        "digamma",
        "floor_mod",
        "frac_mod",
        "ln_gamma",
    ),
    "opalgebra": (
        "FactoredOperator",
        "LinearFactor",
        "TermBudget",
        "apply_operator",
        "estimate_terms",
        "particular_solution",
        "repeated_factor_solution",
        "solve_rows",
        "verify_particular",
    ),
    "verify": (
        "cos_antidifference",
        "exp_antidifference",
        "factorization_identity_check",
        "falling_factorial",
        "gamma_ratio_product",
        "mueller_sum",
        "offset_residual",
        "periodic_antidifference",
        "poly_antidifference",
        "rising_factorial",
        "sin_antidifference",
        "stirling2",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import a submodule, or an exported name's module, on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
