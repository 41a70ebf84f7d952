"""Minimal-error discrimination of two fixed states.

Given two density matrices with prior probabilities, the best two-outcome
measurement projects onto the positive and negative parts of the weighted
difference p1*rho1 - p2*rho2. This script builds that measurement for the
textbook pair |0> vs |+> and then checks that a batch of random measurements
never does better.
"""

import numpy as np

from opdisc import TwoOutcomePovm, helstrom, povm_error

rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
rho_plus = np.full((2, 2), 0.5, dtype=complex)

pe, povm = helstrom(rho0, rho_plus, 0.5)
print("states         |0><0|  vs  |+><+|, equal priors")
print(f"minimal error  {pe:.12f}")
print(f"closed form    {0.5 * (1 - 1 / np.sqrt(2)):.12f}   (half of 1 - 1/sqrt(2))")
print()
print("optimal projector for outcome 1:")
print(np.round(povm.pi1.real, 6))

# no random measurement should improve on the optimum
rng = np.random.default_rng(0)
best_random = 1.0
for _ in range(200):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = np.linalg.qr(g)[0]
    pi1 = u @ np.diag(rng.uniform(0, 1, size=2)) @ u.conj().T
    err = povm_error(rho0, rho_plus, 0.5, TwoOutcomePovm(pi1, np.eye(2) - pi1))
    best_random = min(best_random, err)

print()
print(f"best of 200 random measurements: {best_random:.12f}")
print(f"optimal measurement:             {pe:.12f}")
print("random search never beats the eigenprojector measurement:", best_random >= pe - 1e-12)
