"""Magic squares of squares over finite carriers, and hourglass search in Z[i].

The public names below load their module on first access (PEP 562), so
`import parker` imports no submodule and each command pays only for the
modules it runs: the scans need algebra, search and survey, never
compile listing (the tuples of msos_field and msos_ring) or oracle, and
compile extension only for a field of order p**r, r >= 2, which
make_carrier builds on demand; the hourglass search needs hourglass alone,
and gaussian, the arithmetic of Z[i], only to verify a hit.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it; each submodule is public too
_EXPORTS = {
    name: module
    for module, names in (
        ("algebra", ("MAX_ORDER", "Carrier", "Integers", "ModularRing",
                     "PrimeField", "make_carrier", "squares")),
        ("core", ("ValidationReport", "dihedral_orbit", "magic_from_params",
                  "validate_hourglass", "validate_square")),
        ("extension", ("ExtensionField",)),
        ("gaussian", ("CongruumTriple", "GaussianInt", "HourglassCandidate",
                      "HourglassConditionReport", "chi", "congruum_triple",
                      "hourglass_condition", "hourglass_generators",
                      "hourglass_guess", "pow4_parts", "two_square_reps")),
        ("hourglass", ("search_hourglass",)),
        ("listing", ("SearchResult", "msos_field", "msos_ring")),
        ("oracle", ("brute_force_oracle", "divisor_representatives",
                    "oracle_agreement")),
        ("search", ("count_field", "count_ring", "prefilter_field")),
        ("survey", ("ScanRecord", "record_breakers", "scan_fields",
                    "scan_rings")))
    for name in (module, *names)
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def _info_logger(name):
    """The logger `name` when it emits INFO records, else None.

    Nothing in the package imports logging unless something may listen:
    the CLI loads it for -v only.  Until logging is imported nobody can
    have set a handler or a level, so INFO is off, and the test for it
    loads no module.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(name)
    return log if log.isEnabledFor(logging.INFO) else None


def __dir__():
    return sorted({*globals(), *_EXPORTS})
