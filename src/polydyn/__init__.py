"""polydyn: polynomial functors, lenses, and mode-dependent dynamics.

The names below come from polydyn.core; those that core keeps in its
cold half are read from it on first use, so importing the package does
not compile them.
"""

from polydyn.core import (
    FinSet,
    SetFn,
    FinPoly,
    Lens,
    make_poly,
    constant,
    linear,
    monomial,
    ZERO,
    ONE,
    Y,
    UNIT_SET,
    is_monomial,
    lens_id,
    lens_compose,
    _lazy_names,
)

__all__ = [
    "FinSet",
    "SetFn",
    "FinPoly",
    "Lens",
    "make_poly",
    "constant",
    "linear",
    "representable",
    "monomial",
    "ZERO",
    "ONE",
    "Y",
    "UNIT_SET",
    "eval_poly",
    "canonical_form",
    "is_monomial",
    "lens_id",
    "lens_compose",
    "is_vertical",
    "is_cartesian",
    "is_epi",
    "pullback_set",
    "coequalizer_set",
    "poly_to_json",
    "poly_from_json",
    "lens_to_json",
    "lens_from_json",
    "canonical_json",
]

_CORE_NAMES, __getattr__, __dir__ = _lazy_names(
    globals(),
    "polydyn.core",
    """
    representable eval_poly canonical_form is_vertical is_cartesian is_epi
    pullback_set coequalizer_set poly_to_json poly_from_json lens_to_json
    lens_from_json canonical_json
    """,
)

__version__ = "0.1.0"
