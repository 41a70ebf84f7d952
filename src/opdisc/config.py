"""Numerical tolerances, kept in one place so tests and the CLI report the values in force."""

from __future__ import annotations

# Hermiticity checks allow this much max-entry deviation in ||A - A^dag||.
HERMITICITY_TOL = 1e-9

# Probability vectors must sum to 1 this tightly.
PROBABILITY_TOL = 1e-12

# Kraus completeness: ||sum K^dag K - I||_max must stay below this.
COMPLETENESS_TOL = 1e-9

# Density matrices may have eigenvalues down to -STATE_POSITIVITY_FLOOR.
STATE_POSITIVITY_FLOOR = 1e-9

# Matrices claimed unitary must satisfy ||U^dag U - I||_max below this.
UNITARITY_TOL = 1e-9

# Unitary families count as orthogonal when |Tr[U_m^dag U_n]| (m != n)
# stays below this.
ORTHOGONALITY_TOL = 1e-8

# POVM elements may dip this far below positivity / completeness.
POVM_TOL = 1e-9

# The optimizer's stopping policy: a start stops once one see-saw step gains at
# most FTOL (converged) or after MAX_STEPS steps. Gains shrink by only ~0.8 a
# step, so at FTOL = 1e-9 a random qubit pair's dual certificate read 6e-6.
MAX_STEPS = 2000
FTOL = 1e-12

# The bracket pe_entangled aims for between its value and its dual certificate.
# A reporting target only: pe_entangled runs its seed starts either way, and
# reports converged = False when their best stays wider.
CERTIFIED_GAP = 1e-6
