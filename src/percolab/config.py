"""Global numeric tolerance, size guards for exhaustive enumeration, the
block size shared by enumeration and sampling, the witness-search budget
of disjoint occurrence, and the cap on Monte Carlo samples."""

# Absolute tolerance for exact verdicts.  Exact enumeration over dyadic edge
# probabilities is correct to accumulated rounding only, so inequality slacks
# are compared against this rather than 0.
DEFAULT_TOL = 1e-12

# Exhaustive-enumeration caps.  These bound what the exact engine will even
# attempt; they are not performance promises at the cap.
MAX_EXACT_EDGES = 24       # 2^E configurations
MAX_PAIR_EDGES = 12        # 4^E configuration pairs
MAX_SPLICE_EDGES = 10      # joint-law table over pairs of configurations
MAX_CONTINUATION_EDGES = 16
MAX_ZIPPER_STATES = 10**6  # product of per-edge symbol-set sizes

# Configurations × (vertices + edges) per block.  Monte Carlo draws and
# counts its samples, and exact enumeration its masks, one block of about
# this many cells at a time, so memory stays flat in the number of
# configurations; results do not depend on it.
BLOCK_CELLS = 1 << 22

# Nodes the witness search of one disjoint-occurrence query may visit.  A
# node evaluates both operands on a few configurations: about 0.5 ms on the
# 112 edges of grid:8,8 (2 vCPU Xeon VM), where a query that exhausts the
# budget is refused after 4.5 to 5 s.
MAX_WITNESS_NODES = 10_000

MAX_SAMPLES = 10**10  # per MC estimate: a,b on cycle:3 takes about 13 s at the cap
