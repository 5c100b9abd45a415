"""Exact two-variable Hodge-Poincare series for moduli of principal bundles
on smooth projective curves, for products of classical groups.

Quick start::

    from hodge_series import parse_group, hp_semistable_closed
    spec = parse_group("GL2")
    f = hp_semistable_closed(spec, (1,), g=2)   # exact rational function
    f.expand(6)                                 # truncated power series
"""

from .formulas import (
    NotCoprime,
    NotGoodCase,
    a_series,
    chi_t_fixed_det_formula,
    hp_classifying,
    hp_moduli_fixed_det,
    hp_moduli_space,
    hp_semistable_classical,
    hp_semistable_closed,
    specialize,
    stack_poincare_series,
)
from .ratfun import (
    BivarPoly,
    RatFun1,
    RatFun2,
    TruncSeries2,
    UniPoly,
    to_polynomial,
)
from .recursion import (
    HNType,
    codim,
    enumerate_hn_types,
    hn_gl_oracle,
    hn_types_to_csv,
    recursion_rhs,
    verify_recursion,
)
from .rootdata import (
    GroupSpec,
    build_root_system,
    frac_rep,
    good_case,
    parse_degree,
    parse_group,
)
from .vhs import (
    PeriodMatrix,
    QC,
    basis_change_consistent,
    theta_coefficients,
    validate_period_matrix,
)

__version__ = "0.1.0"
