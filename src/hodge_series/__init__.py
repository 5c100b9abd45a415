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

__version__ = "0.1.0"

#: names of ``vhs``, which no command runs: it and they load on first access
_VHS_NAMES = ("PeriodMatrix", "QC", "basis_change_consistent",
              "theta_coefficients", "validate_period_matrix")

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")]
    + list(_VHS_NAMES) + ["vhs"])


def __getattr__(name):
    if name == "vhs" or name in _VHS_NAMES:
        from importlib import import_module

        vhs = import_module(__name__ + ".vhs")
        return vhs if name == "vhs" else getattr(vhs, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
