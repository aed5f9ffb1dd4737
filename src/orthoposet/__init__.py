"""Irreducible orthoscalar projection families on two-part posets."""

from .poset import (CATALOG, CHAIN_TAME, ONE_PARAMETER, TWO_WIDTH_TAME, WILD,
                    BadSplit, ChainDecomposition, NotTame, Poset, PosetError,
                    classify, decompose, dual, essential_catalog_match,
                    generate_posets, is_isomorphic, split_two_one_parameter,
                    width)
from .spectrum import (CONTINUOUS, DISCRETE, OUTSIDE, Character, DeltaSet,
                       NotOneParameter, OutsideContinuum, SingularDenominator,
                       SpectrumError, delta_of, membership, near_boundary,
                       restore_epsilon)
from .chain import (DISCRETE_IN_DELTA1, DISCRETE_IN_DELTA2, ESCAPED,
                    ChainContext, ChainEngineError, EigenChain,
                    NoRepresentation, Prediction, StepLimit, TwoPointFamily,
                    ZeroLambdaCap, dimension_bound, enumerate_dim1,
                    enumerate_irreducibles, lambda_zero_case, make_context,
                    predict, run_chain, run_degeneracy_filter)
from .builder import (BasicPairParams, BuilderError, ChainShapeMismatch,
                      COutOfRange, DeltaUnsolvable, ProjectionFamily,
                      SumNotExceedingOne, SumNotTwo, TauOutOfRange, basic_pair,
                      build_from_chain, build_quadruple,
                      build_quadruple_continuous, disjoint_union, dualize,
                      lift_to_catalog)
from .verify import (DimensionMismatch, VerificationReport, VerifierError,
                     check_all, check_essential, commutant_dim, spectrum_match)
from .oracle import (CrossValidation, OracleError, SearchConfig, cross_validate,
                     cross_validate_split, rank_profiles, search_numeric)

__version__ = "1.0.0"
