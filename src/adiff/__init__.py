"""Discrete-calculus toolkit.

Indefinite sums (antidifferences) computed as finite floor-bounded sums,
particular solutions of linear difference equations with factored shift
operators, difference inequalities, a Green-kernel convolution form, and a
numerical verifier for the identities the machinery satisfies.
"""

from .antidiff import (
    AntidiffValue,
    RealFunction,
    antidifference,
    backward_antidifference,
    cos_antidifference,
    definite_sum,
    exp_antidifference,
    gamma_ratio_product,
    mueller_sum,
    offset_residual,
    periodic_antidifference,
    poly_antidifference,
    resolvent_sum,
    sin_antidifference,
)
from .convkernel import GreenKernel, convolve, kernel_weights
from .errors import (
    AdiffError,
    BoundsError,
    CapExceeded,
    CrossCheckError,
    DomainError,
    EvalError,
    NoConvergence,
    NonFiniteInput,
    NonPositiveShift,
    ParseError,
    PeriodicityViolation,
    PoleError,
    SignViolation,
    TermBudgetExceeded,
    ZeroLambda,
)
from .exprlang import as_function, evaluate, parse, unparse
from .inequality import (
    Direction,
    InequalityReport,
    InequalitySpec,
    Periodicity,
    SolutionFunction,
    build_solution,
    check_inequality,
    check_membership,
)
from .numkit import (
    FloorModResult,
    digamma,
    falling_factorial,
    floor_mod,
    frac_mod,
    ln_gamma,
    rising_factorial,
    stirling2,
)
from .opalgebra import (
    FactoredOperator,
    LinearFactor,
    TermBudget,
    apply_operator,
    estimate_terms,
    factorization_identity_check,
    particular_solution,
    repeated_factor_solution,
    solve_rows,
    verify_particular,
)

__version__ = "0.1.0"
