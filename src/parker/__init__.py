"""Magic squares of squares over finite carriers, and hourglass search in Z[i]."""

from .algebra import (MAX_ORDER, Carrier, ExtensionField, Integers,
                      ModularRing, NonInvertibleError, PrimeField,
                      center_pairs, consecutive_square_triples,
                      divisor_representatives, make_carrier, squares)
from .core import (ValidationReport, dihedral_orbit, magic_from_params,
                   validate_hourglass, validate_square)
from .gaussian import (CongruumTriple, GaussianFactorization, GaussianInt,
                       HourglassCandidate, HourglassConditionReport,
                       chi, congruum_triple, gaussian_factor,
                       hourglass_condition, hourglass_generators,
                       hourglass_guess, pow4_parts, search_hourglass,
                       two_square_reps)
from .search import (SearchResult, brute_force_oracle, count_field, count_ring,
                     msos_field, msos_ring, oracle_agreement, prefilter_field)
from .survey import (RecordBreakerTable, ScanRecord, record_breakers,
                     scan_fields, scan_rings)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
