"""Exact computations for Lah numbers and the Bell polynomial families built on them.

Everything here is integer arithmetic end to end: counting kernels, witness
enumeration for constrained partitions, sparse multivariate polynomials, the
polynomial families themselves, truncated generating-series expansion, and a
verification harness that re-derives each identity by independent routes.
"""

from .bell import (
    FACTORIALS,
    ONES,
    SequenceSpec,
    complete_bell,
    complete_lah_bell,
    complete_r_bell,
    complete_r_lah_bell,
    complete_r_lah_bell_expansion,
    incomplete_bell,
    incomplete_lah_bell,
    incomplete_r_bell,
    incomplete_r_lah_bell,
    lah_bell_polynomial,
    moments_from_cumulants,
)
from .exact_core import (
    IntegralityError,
    binomial,
    exact_div,
    factorial,
    lah,
    lah_bell_number,
    multinomial,
    r_lah_bell_number,
    rlah,
)
from .partitions import (
    enumerate_lambda,
    enumerate_pi,
    lah_via_pi,
    rlah_via_lambda,
)
from .poly import (
    SCALAR_X,
    Monomial,
    PolyAccumulator,
    SparsePolynomial,
    Variable,
    const,
    term,
    var,
)
from .series import (
    DerivativeCheck,
    GF_FAMILIES,
    TruncatedSeries,
    exp,
    faa_di_bruno_check,
    from_sequence,
    gf_expand,
)
from .verify import SUITE_NAMES, IdentityResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "DerivativeCheck",
    "FACTORIALS",
    "GF_FAMILIES",
    "IdentityResult",
    "IntegralityError",
    "Monomial",
    "ONES",
    "PolyAccumulator",
    "SCALAR_X",
    "SUITE_NAMES",
    "SequenceSpec",
    "SparsePolynomial",
    "TruncatedSeries",
    "Variable",
    "binomial",
    "complete_bell",
    "complete_lah_bell",
    "complete_r_bell",
    "complete_r_lah_bell",
    "complete_r_lah_bell_expansion",
    "const",
    "enumerate_lambda",
    "enumerate_pi",
    "exact_div",
    "exp",
    "faa_di_bruno_check",
    "factorial",
    "from_sequence",
    "gf_expand",
    "incomplete_bell",
    "incomplete_lah_bell",
    "incomplete_r_bell",
    "incomplete_r_lah_bell",
    "lah",
    "lah_bell_number",
    "lah_bell_polynomial",
    "lah_via_pi",
    "moments_from_cumulants",
    "multinomial",
    "r_lah_bell_number",
    "rlah",
    "rlah_via_lambda",
    "run_suites",
    "term",
    "var",
]
