"""The qubit worked example: identity vs completely depolarizing.

With equal priors the best unentangled strategy errs with probability 1/4,
while feeding half of a maximally entangled pair through the unknown channel
halves that to 1/8. The script shows the closed forms, reproduces both
numbers with the numeric optimizers, and points at the diagnostic summary
that explains why entanglement helps here.
"""

import numpy as np

from opdisc import (
    DiscriminationProblem,
    bound_max_entangled,
    pauli_channel,
    pauli_delta_summary,
    pe_entangled,
    pe_unentangled,
)

q_id = [1, 0, 0, 0]
q_dep = [0.25, 0.25, 0.25, 0.25]

summary = pauli_delta_summary(q_id, q_dep, 0.5)
print("closed forms")
print(f"  r vector            {np.round(summary.r, 6)}")
print(f"  pe (entangled)      {summary.pe_entangled}")
print(f"  pe (unentangled)    {summary.pe_unentangled}")
print(f"  sign of r0*r1*r2*r3 {summary.det_sign}   -> entanglement needed: {summary.entanglement_needed}")
print(f"  best product input  eigenstate of sigma_{summary.optimal_unentangled_axis}")

prob = DiscriminationProblem(pauli_channel(q_id), pauli_channel(q_dep), 0.5)
# pe_entangled has no settings (it runs its 2 seed starts);
# pe_unentangled takes its number of starts and their seed
res_e = pe_entangled(prob)
res_u = pe_unentangled(prob, num_starts=8)

print()
print("numeric optimizers")
print(f"  pe (entangled)      {res_e.pe_entangled:.12f}")
print(f"  pe (unentangled)    {res_u.pe_unentangled:.12f}")
print(f"  upper bound         {bound_max_entangled(prob):.12f}   (max-entangled input)")
print(f"  certified lower     {res_e.lower_bound:.12f}   (dual bound on the returned input)")
print(f"  starts used         {res_e.diagnostics.n_starts}, converged: {res_e.diagnostics.converged}")

# the optimizer lands on the maximally entangled input: xi proportional to I
print()
print("optimal input reshaping (xi), should be I/sqrt(2):")
print(np.round(res_e.optimal_xi, 4))
