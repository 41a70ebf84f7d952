"""Cross-checking the optimizer against a brute-force oracle.

The brute-force routines know nothing about closed forms or clever
parametrizations: one walks a dense grid of product inputs, the other samples
random entangled inputs, and both just call the two-state measurement bound
on every candidate. Their values can only overshoot the true minimum, so they
make a good independent referee for the library numbers.
"""

import numpy as np

from opdisc import (
    DiscriminationProblem,
    brute_force_entangled,
    brute_force_unentangled,
    make_operation,
    pe_entangled,
    pe_unentangled,
)

# a random two-Kraus qubit operation vs a fixed rotation
rng = np.random.default_rng(11)
g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
iso = np.linalg.qr(g)[0]
op1 = make_operation([iso[:2], iso[2:]])
angle = 0.4
op2 = make_operation([np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]], dtype=complex)])
prob = DiscriminationProblem(op1, op2, 0.5)

# neither call has a setting here: pe_unentangled solves a qubit pair exactly
lib_u = pe_unentangled(prob).pe_unentangled
lib_e = pe_entangled(prob).pe_entangled

oracle_u = brute_force_unentangled(prob, grid_density=120)
oracle_e = brute_force_entangled(prob, samples=400)

print("random two-Kraus channel vs a rotation, equal priors")
print(f"  library   unentangled {lib_u:.9f}   entangled {lib_e:.9f}")
print(f"  oracle    unentangled {oracle_u:.9f}   entangled {oracle_e:.9f}")
print(f"  oracle excess:        {oracle_u - lib_u:+.2e}             {oracle_e - lib_e:+.2e}")
print()
print("the oracle can only sit above the true minimum; a negative excess")
print("beyond tolerance would expose an optimizer bug:",
      oracle_u >= lib_u - 1e-9 and oracle_e >= lib_e - 1e-9)
