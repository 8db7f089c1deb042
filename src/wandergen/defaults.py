"""Default numerical tolerances and size caps, overridable per call and via the CLI."""

# Relative rank / singularity cutoff, applied by _linalg.cutoff alone: a
# singular value (or Gram eigenvalue) counts as zero at or below
# TOL_RANK_REL * max(largest value at that point, 1).  The four tests kept
# apart (oracle.py's copies, the QR's detected rank, pinv's rcond,
# are_equivalent's cond_limit) are listed with their reasons in _linalg.
TOL_RANK_REL = 1e-9

# Biorthogonality / wandering residual tolerance.
TOL_BIO_EXACT = 1e-9
TOL_BIO_SAMPLED = 1e-6

# Dense oracle cap on |G| * channels * members.
ORACLE_SIZE_LIMIT = 4096

# Default torus grid for shift-mode systems.
DEFAULT_GRID = 64
