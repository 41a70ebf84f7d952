"""Numerical tolerances and the optimizer's stopping policy, kept in one place so
tests and the CLI report the values in force. Outside input is held to one
tolerance, INPUT_TOL; each tolerance kept apart from it says why it differs.
"""

from __future__ import annotations

# Outside input may miss an exact property by this much: Hermiticity
# (||A - A^dag||_max), Kraus completeness and unitarity (||sum K^dag K - I||_max,
# ||U^dag U - I||_max), a state's or POVM element's lowest eigenvalue (down to
# -INPUT_TOL), a state's unit trace, a bipartite input's unit norm, a POVM's
# completeness and a command-line weight vector's sum, so matrices and weights
# written out to ten decimals pass. linalg.trace_norm takes its Hermitian path
# within it too.
INPUT_TOL = 1e-9

# Probability vectors passed to the library must sum to 1 this tightly: they
# are used as given, where the CLI renormalizes the weights it reads.
PROBABILITY_TOL = 1e-12

# Unitary families count as orthogonal when |Tr[U_m^dag U_n]| (m != n)
# stays below this: a Gram entry sums d entries of U_m^dag U_n, so it is
# looser than INPUT_TOL.
ORTHOGONALITY_TOL = 1e-8

# The optimizer's stopping policy: a start stops once one evaluation gains at
# most FTOL over its best (converged) or after MAX_STEPS step calls. A plain
# see-saw step's gains shrink by only ~0.8 to ~0.95 a step, so a small gain can
# sit far from the optimum: stopping at FTOL = 1e-9, the plain see-saw left a
# random qubit pair's dual certificate 6e-6 wide. maximize's extrapolation
# takes fewer steps to reach a gain of FTOL, not a looser stop.
MAX_STEPS = 2000
FTOL = 1e-12

# The bracket pe_entangled aims for between its value and its dual certificate.
# A reporting target only: pe_entangled runs its one start either way, and
# reports converged = False when its bracket stays wider.
CERTIFIED_GAP = 1e-6
