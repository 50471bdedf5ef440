"""Exact Monge-Ampere measures for radial piecewise-linear psh profiles.

Everything is driven by the convex profile chi of u(z) = chi(log ||z||):
measures, truncations, nonpolar parts, extremal functions and
capacities are closed-form in the knots and slopes, so convergence
theorems can be probed with exactly computed series instead of
discretization error.
"""

from importlib import import_module

# each module's public names, bound here at import.  Loading the submodule
# .capacity sets the package attribute `capacity` to that module; binding
# eagerly, after the load, keeps `radialma.capacity` the function, where a
# loader on first use would lose it to `import radialma.cli`
_PUBLIC = {
    ".capacity": (
        "ExtremalResult",
        "capacity",
        "condition_level",
        "condition_sublevel",
        "extremal",
        "extremal_profile",
    ),
    ".convergence": (
        "HarnessReport",
        "ProfileSequence",
        "cegrell_f_diagnostic",
        "check_decreasing",
        "clipped_sequence",
        "counterexample_sequence",
        "generalized_condition",
        "ma_domain_membership",
        "maximality_check",
        "random_decreasing_sequence",
        "setwise_gap",
        "shifted_sequence",
        "truncation_analysis",
        "truncation_sequence",
        "weak_convergence_test",
    ),
    ".errors": (
        "CompactTouchesBoundary",
        "ConvexityViolation",
        "EmptyCompact",
        "GridTooCoarse",
        "GridTooLarge",
        "MassOverflow",
        "MonotonicityViolation",
        "NegativeSecondDifference",
        "NonMonotoneSequence",
        "NonStabilized",
        "NotAdmissible",
        "NotConverged",
        "NotConvexOnGrid",
        "OutOfDomain",
        "RadialMAError",
        "UnorderedBreakpoints",
    ),
    ".families": (
        "PowerTail",
        "constant_profile",
        "default_battery",
        "linear_cap_profile",
        "log_profile",
        "max_const_profile",
        "power_tail_profile",
        "punctured_battery",
        "random_compact",
        "random_profile",
        "sample_analytic",
        "standard_exhaustion",
    ),
    ".measures": (
        "RadialMeasure",
        "RadialTestFunction",
        "annular_plateau",
        "distribution_function",
        "hat",
        "ma_measure",
        "nonpolar_part",
        "plateau",
    ),
    ".oracle": (
        "Grid1D",
        "fd_riesz_measure",
        "oracle_capacity",
        "relaxation_envelope",
    ),
    ".profiles": (
        "ConvexProfile",
        "FiniteValue",
        "MinusInfinity",
        "RadialCompact",
        "annulus",
        "closed_ball",
        "empty_compact",
        "make_compact",
        "make_profile",
        "sphere",
    ),
    ".series": (
        "CONVERGING_TO_POSITIVE",
        "CONVERGING_TO_ZERO",
        "INCONCLUSIVE",
        "DiagnosticSeries",
        "build_series",
        "geometric_schedule",
    ),
}

for _module, _names in _PUBLIC.items():
    _source = import_module(_module, __name__)
    for _name in _names:
        globals()[_name] = getattr(_source, _name)
del import_module, _module, _names, _source, _name

__version__ = "0.1.0"

__all__ = sorted(name for names in _PUBLIC.values() for name in names)
