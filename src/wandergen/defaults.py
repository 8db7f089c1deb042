"""Default numerical tolerances and size caps, overridable per call and via the CLI."""

# Relative rank / singularity cutoff, applied by _linalg.cutoff alone: a
# singular value (or Gram eigenvalue) counts as zero at or below
# TOL_RANK_REL * max(largest value at that point, 1).  The four tests kept
# apart (oracle.py's copies, the QR's detected rank, pinv's rcond, the
# condition limit of the seeded draws in are_equivalent and
# wandering_complement_general) are listed with their reasons in _linalg.
TOL_RANK_REL = 1e-9

# Biorthogonality / wandering residual tolerance; exact mode's is also the
# non-abelian character and witness tolerance.
TOL_BIO_EXACT = 1e-9
TOL_BIO_SAMPLED = 1e-6

# Fixed tolerance of a Representation's checks on its matrices (identity,
# unitarity, homomorphism) and of its character's class constancy.
TOL_REPRESENTATION = 1e-10

# Dense oracle cap on |G| * channels * members.
ORACLE_SIZE_LIMIT = 4096

# Cap on the order n of a finite group, builtin Z<n> or Cayley table: the table
# holds n^2 entries, and naming a non-associative triple takes up to n^3 steps.
GROUP_ORDER_LIMIT = 256

# Default torus grid for shift-mode systems.
DEFAULT_GRID = 64
