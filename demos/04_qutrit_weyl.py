"""Beyond qubits: shift-and-phase channels in dimension 3.

The d*d shift-and-phase unitaries form an orthogonal family, so mixtures of
them admit an exact entangled-input error formula in any dimension. Here the
qutrit identity is pitted against the uniform mixture (the completely
depolarizing channel), giving pe = 1/18, and the numeric optimizer is asked
to reproduce it from scratch.
"""

import numpy as np

from opdisc import (
    DiscriminationProblem,
    pe_entangled,
    pe_random_unitary_bounds,
    pe_random_unitary_exact,
    weyl_channel,
    weyl_unitaries,
)

d = 3
ch_id = weyl_channel(d, [1.0] + [0.0] * (d * d - 1))
ch_dep = weyl_channel(d, [1.0 / (d * d)] * (d * d))

exact = pe_random_unitary_exact(ch_id, ch_dep, 0.5)
print(f"exact entangled-input error: {exact:.12f}   (1/18 = {1 / 18:.12f})")

lower, upper = pe_random_unitary_bounds(ch_id, ch_dep, 0.5)
print(f"bounds collapse for an orthogonal family: lower {lower:.12f}, upper {upper:.12f}")

prob = DiscriminationProblem(ch_id.as_operation(), ch_dep.as_operation(), 0.5)
# pe_entangled has no settings: it runs its one start, the maximally entangled input
numeric = pe_entangled(prob).pe_entangled
print(f"numeric optimizer over 9x9 inputs:  {numeric:.12f}   (dev {abs(numeric - exact):.1e})")

# the family really is orthogonal: Tr[U_a^dag U_b] = d * delta_ab
us = weyl_unitaries(d)
gram = np.array([[np.trace(a.conj().T @ b) for b in us] for a in us])
print()
print("family Gram matrix Tr[Ua^dag Ub] (should be d on the diagonal, 0 off it):")
print(np.round(np.abs(gram), 10))
