"""Random-object generators and reference code shared across the test modules.

Every random helper takes an explicit numpy Generator or seed, so each test
file owns its seeds and reruns stay bit-identical.
"""

from numbers import Integral

import numpy as np

from opdisc import DiscriminationProblem, TwoOutcomePovm, make_operation
from opdisc.linalg import check_count, require_matrix


def haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    # fix the phase freedom of QR so the distribution is Haar
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_pure_state(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_prob_vector(n, rng):
    w = rng.uniform(0.0, 1.0, size=n)
    return w / w.sum()


def random_kraus_operation(d, n_kraus, rng):
    # columns of a Haar-ish isometry, cut into d x d blocks: completeness is
    # exact by construction
    z = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, _ = np.linalg.qr(z)
    return make_operation([q[i * d:(i + 1) * d, :] for i in range(n_kraus)])


def random_qubit_problem(rng):
    op1 = random_kraus_operation(2, int(rng.integers(1, 5)), rng)
    op2 = random_kraus_operation(2, int(rng.integers(1, 5)), rng)
    return DiscriminationProblem(op1, op2, float(rng.uniform(0.05, 0.95)))


def probe_problem(d, s, base=0):
    """Pair s of the d-dimensional random probe: default_rng(base + 1000 d + s) draws two Kraus
    lists of ranks 1..d^2, then p1 in [0.1, 0.9)."""
    rng = np.random.default_rng(base + 1000 * d + s)
    op1 = random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng)
    op2 = random_kraus_operation(d, int(rng.integers(1, d * d + 1)), rng)
    return DiscriminationProblem(op1, op2, float(rng.uniform(0.1, 0.9)))


def random_two_outcome_povm(d, rng):
    u = haar_unitary(d, rng)
    evals = rng.uniform(0.0, 1.0, size=d)
    pi1 = (u * evals) @ u.conj().T
    return TwoOutcomePovm(pi1=pi1, pi2=np.eye(d) - pi1)


def partial_trace(a, dims, which):
    """Trace out subsystem `which` (0 or 1) of a (d1*d2) x (d1*d2) matrix.

    Returns the reduced matrix on the surviving subsystem. dims must be a
    pair of integers >= 1, and which the integer 0 or 1 (numpy's too, bool
    not). The library no longer traces out subsystems; tests use this as
    reference code, and it keeps its argument checks so that a reference
    called wrongly fails instead of tracing out the wrong subsystem.
    """
    try:
        d1, d2 = dims
    except (TypeError, ValueError):
        raise ValueError(f"dims must be a pair of integers, got {dims!r}") from None
    d1, d2 = check_count(d1, "dims", 1), check_count(d2, "dims", 1)
    a = require_matrix(a, f"matrix on {d1}x{d2} subsystems", d1 * d2)
    if isinstance(which, bool) or not isinstance(which, Integral) or which not in (0, 1):
        raise ValueError(f"which must be 0 (trace out first) or 1 (trace out second), got {which!r}")
    t = a.reshape(d1, d2, d1, d2)
    if which == 0:
        return np.einsum("ijik->jk", t)
    return np.einsum("ijkj->ik", t)
