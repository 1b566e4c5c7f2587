"""Exact filtrations and graded rings from locally nilpotent derivations.

The package computes, in exact rational arithmetic: degree functions of a
locally nilpotent derivation on a presented affine ring, the induced
filtration and its associated graded ring via weighted initial ideals,
properness certificates (lattice-ideal primality, with an empirical
fallback), bounded searches for all derivations of a given shape, and
automorphism and isomorphism verdicts for families of Danielewski-type
hypersurfaces.

It holds what the command line reaches, plus the dunders and small defs
that tests/test_reachability.py lists.  The slow oracles for the paper's
claims (iteration D^k, conjugation, the P1-P4 properties of gr, the
closed-form layers, the joint kernel of a search) live with the tests.
"""

from .derivations import (BoundExceeded, Derivation, NilpotencyCertificate,
                          NotWellDefined, RingPresentation)
from .families import (FamilyInstance, LndCandidate, LndSearchResult,
                       bounded_lnd_search, make_danielewski,
                       make_koras_russell2, make_new_family)
from .filtration import (FiltrationSpec, GradedPresentation, LayerGenerator,
                         PreconditionError, PropernessResult)
from .ideals import (BinomialPrimality, Budget, BudgetExhausted, Ideal,
                     MonomialOrder, binomial_prime, ideal_equal,
                     initial_ideal, member, normal_form)
from .linalg import (rational_kth_root, rational_roots, smith_normal_form,
                     smith_with_transforms, solve_combination)
from .morphisms import (AutomorphismData, CongruenceError, IsoDecision,
                        MorphismError, RingMorphism, build_auto_danielewski,
                        build_auto_newfamily, identity_morphism, iso_decide,
                        normalize_subleading, verify_degree_preservation)
from .parser import ParseError, parse_polynomial
from .poly import NEG_INF, Context, Polynomial, random_polynomial
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "AutomorphismData", "BinomialPrimality", "BoundExceeded", "Budget",
    "BudgetExhausted", "CongruenceError", "Context", "Derivation",
    "FamilyInstance", "FiltrationSpec", "GradedPresentation", "Ideal",
    "IsoDecision", "LayerGenerator", "LndCandidate", "LndSearchResult",
    "MonomialOrder", "MorphismError", "NEG_INF", "NilpotencyCertificate",
    "NotWellDefined", "ParseError", "Polynomial", "PreconditionError",
    "PropernessResult", "RingMorphism", "RingPresentation",
    "binomial_prime", "bounded_lnd_search", "build_auto_danielewski",
    "build_auto_newfamily", "ideal_equal",
    "identity_morphism", "initial_ideal", "iso_decide", "make_danielewski",
    "make_koras_russell2", "make_new_family", "member", "normal_form",
    "normalize_subleading", "parse_polynomial", "random_polynomial",
    "rational_kth_root", "rational_roots", "run_selftest",
    "smith_normal_form", "smith_with_transforms", "solve_combination",
    "verify_degree_preservation",
]
