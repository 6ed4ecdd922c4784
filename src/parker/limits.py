"""The input limits: the largest carrier order and hourglass norm bounds,
and the serial pass of a scan before its process pool may start.

algebra, hourglass and survey apply them; the CLI's help text names them,
and importing this module alone lets the parser do so without loading any
of those.
"""

# Largest field order or ring modulus a carrier may have.  Scans only count
# (search.count_field and count_ring, timed in process, best of 7 fresh
# interpreters, with the peak RSS of the interpreter, on a 2-CPU x86 VM:
# Z/32768Z in 0.02 s and 16 MB, Z/32749Z in 0.07 s and 16 MB, Z/32765Z in
# under 0.01 s, F_28561 in 0.06 s and 18 MB, F_32749 in 0.03 s and 16 MB,
# F_32761 in 0.05 s and 19 MB), but
# msos_field and msos_ring, and with them `parker field/ring --list`, keep
# every tuple, and their count grows about as the square of the order.  At
# the limit F_32749 gives 524866 tuples in 2.9 s and 86 MB, and the largest
# case, Z/32768Z, 2228796 tuples in 10 s and 293 MB; twice the limit would
# need about four times that.  The text listings peak about there (fresh
# processes, Python 3.11.7): `parker ring 32768 --list` at 290 MB,
# `field 32749 --list` at 83 MB and `field 28561 --list`, 401302 tuples, at
# 70 MB.  A separate, higher limit for counting needs its own time and
# memory measurements.
MAX_ORDER = 2**15

# Largest accepted hourglass norm bound per search mode: at most about two
# minutes of search on a 2-CPU x86 VM.  Measured in process at the limit
# (Python 3.11.7, two runs each): exhaustive 38.1-38.6 s in 17 MB peak RSS,
# product-first 3.9 s in 190 MB.  Exhaustive time grows with the square of
# its positive slopes (12736 at the limit); it keeps one least norm per
# positive slope, not its points.  Product-first time and memory go to the
# walk over the 3.1M points of norm <= bound/25 and its table of 0.64M
# positive slopes (about 2.3 s) and to the kernel's 3.5M pairs (about
# 1.7 s); both grow about linearly, and the table's memory keeps the limit
# here.
MAX_BOUND = {"exhaustive": 80_000, "product-first": 100_000_000}

# A pool costs about 10 ms to import concurrent.futures, 4 ms to start two
# workers and run a task on each, and 17 ms of CPU in all, the import
# included (Python 3.11, 2 vCPUs), so a scan runs serially until it has
# spent this many milliseconds, and only the orders still pending then go to
# a pool.  A long scan loses at most SERIAL_MS * (1 - 1/workers) of wall
# time, and its workers fork with the parent's caches warm.
SERIAL_MS = 250
