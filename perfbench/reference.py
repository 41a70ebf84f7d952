"""Reference computations the benchmark checks opdisc's outputs against.

Nothing here imports opdisc. Channels are applied through explicit Kraus sums
and explicit ``K (x) I`` Kronecker products, two-state errors come straight
from ``eigvalsh``, the shift-and-phase matrices are built as powers of the
shift and clock matrices, and entangled optima are certified by the dual of
the simplified diamond-norm SDP (Watrous, arXiv:1207.5726).

Conventions match the paper: an input operator xi stands for the bipartite
vector with component xi[n, m] at index n*d + m, the channel acts on the first
factor and the ancilla is the second.
"""

from __future__ import annotations

import numpy as np

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Eigenstates of sigma_z, sigma_x and sigma_y, the candidate best product
# inputs for a pair of qubit Pauli channels.
PAULI_AXIS_STATES = (
    np.array([1, 0], dtype=complex),
    np.array([1, 1], dtype=complex) / np.sqrt(2),
    np.array([1, 1j], dtype=complex) / np.sqrt(2),
)


# ---------------------------------------------------------------- generators


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_kraus(d: int, rank: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators cut from a random isometry, so completeness is exact."""
    z = rng.standard_normal((rank * d, d)) + 1j * rng.standard_normal((rank * d, d))
    q, _ = np.linalg.qr(z)
    return [q[i * d:(i + 1) * d, :] for i in range(rank)]


def remix(kraus, v: np.ndarray) -> list[np.ndarray]:
    """K'_i = sum_j v[i, j] K_j: another Kraus list of the same channel for unitary v."""
    return [sum(v[i, j] * k for j, k in enumerate(kraus)) for i in range(len(kraus))]


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    w = rng.uniform(0.0, 1.0, size=n)
    return w / w.sum()


def weyl_matrices(d: int) -> list[np.ndarray]:
    """X^a Z^b for a, b in 0..d-1, in the order a*d + b."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(d)
        for b in range(d)
    ]


def depolarizing_kraus(d: int) -> list[np.ndarray]:
    """sqrt(1/d^2) X^a Z^b: the completely depolarizing channel."""
    return [u / d for u in weyl_matrices(d)]


# ---------------------------------------------------------------- channels


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def apply_extended(kraus, vec: np.ndarray) -> np.ndarray:
    """Output of (E x I) on the pure bipartite state vec, through explicit K (x) I."""
    d = kraus[0].shape[0]
    rho = np.outer(vec, vec.conj())
    eye = np.eye(d)
    out = np.zeros_like(rho)
    for k in kraus:
        big = np.kron(k, eye)
        out += big @ rho @ big.conj().T
    return out


def choi(kraus) -> np.ndarray:
    """sum |K>><<K| with |K>> the row-major flattening of K."""
    vecs = [k.reshape(-1) for k in kraus]
    return sum(np.outer(v, v.conj()) for v in vecs)


# ---------------------------------------------------------------- errors


def helstrom_error(rho1: np.ndarray, rho2: np.ndarray, p1: float) -> float:
    w = np.linalg.eigvalsh(p1 * rho1 - (1.0 - p1) * rho2)
    return 0.5 * (1.0 - float(np.sum(np.abs(w))))


def povm_error(rho1, rho2, p1: float, pi1: np.ndarray, pi2: np.ndarray) -> float:
    wrong1 = float(np.trace(rho1 @ pi2).real)
    wrong2 = float(np.trace(rho2 @ pi1).real)
    return p1 * wrong1 + (1.0 - p1) * wrong2


def pure_input_error(kraus1, kraus2, p1: float, psi: np.ndarray) -> float:
    rho = np.outer(psi, psi.conj())
    return helstrom_error(apply_kraus(kraus1, rho), apply_kraus(kraus2, rho), p1)


def entangled_input_error(kraus1, kraus2, p1: float, xi: np.ndarray) -> float:
    vec = np.asarray(xi, dtype=complex).reshape(-1)
    return helstrom_error(apply_extended(kraus1, vec), apply_extended(kraus2, vec), p1)


def max_entangled_error(kraus1, kraus2, p1: float) -> float:
    """Error at the maximally entangled input, an upper bound on pe_entangled."""
    d = kraus1[0].shape[0]
    return entangled_input_error(kraus1, kraus2, p1, np.eye(d) / np.sqrt(d))


def probe_states(d: int, bloch_grid: int = 12) -> list[np.ndarray]:
    """Basis states, plus a polar x azimuthal Bloch-sphere grid when d == 2."""
    states = list(np.eye(d, dtype=complex))
    if d == 2:
        for theta in np.linspace(0.0, np.pi, bloch_grid):
            for phi in np.linspace(0.0, 2.0 * np.pi, 2 * bloch_grid, endpoint=False):
                states.append(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]))
    return states


def best_probe_error(kraus1, kraus2, p1: float) -> float:
    d = kraus1[0].shape[0]
    return min(pure_input_error(kraus1, kraus2, p1, psi) for psi in probe_states(d))


# ---------------------------------------------------------------- closed forms


def weight_difference_error(q1, q2, p1: float) -> float:
    """1/2 (1 - sum |p1 q1 - p2 q2|): the entangled optimum for one orthogonal family."""
    r = p1 * np.asarray(q1, dtype=float) - (1.0 - p1) * np.asarray(q2, dtype=float)
    return 0.5 * (1.0 - float(np.sum(np.abs(r))))


def pauli_kraus(q) -> list[np.ndarray]:
    return [np.sqrt(w) * s for w, s in zip(q, PAULIS) if w > 0]


def pauli_axis_errors(q1, q2, p1: float) -> list[float]:
    """Errors at the sigma_z, sigma_x and sigma_y eigenstate inputs, in that order."""
    k1, k2 = pauli_kraus(q1), pauli_kraus(q2)
    return [pure_input_error(k1, k2, p1, psi) for psi in PAULI_AXIS_STATES]


def identity_vs_depolarizing(d: int) -> tuple[float, float]:
    """(pe_entangled, pe_unentangled) at equal priors: 1/(2 d^2) and 1/(2 d)."""
    return 1.0 / (2 * d * d), 1.0 / (2 * d)


# ---------------------------------------------------------------- certificate


def ancilla_marginal(xi: np.ndarray) -> np.ndarray:
    """Reduced state on the ancilla (second factor) of the input operator xi."""
    xi = np.asarray(xi, dtype=complex)
    return xi.T @ xi.conj()


def dual_lower_bound(kraus1, kraus2, p1: float, sigma: np.ndarray, eps: float = 1e-8) -> float:
    """Certified lower bound on pe_entangled from a dual feasible Z built on sigma.

    Any Z >= 0 with Z >= Delta gives pe_entangled >= 1/2 (1 - (2 lmax(Tr_out Z)
    - (p1 - p2))). Here Z = (I x s^-1/2) [(I x s^1/2) Delta (I x s^1/2)]_+
    (I x s^-1/2) with s the regularized sigma, plus t I to absorb rounding.
    """
    d = kraus1[0].shape[0]
    p2 = 1.0 - p1
    delta = p1 * choi(kraus1) - p2 * choi(kraus2)
    sigma = np.asarray(sigma, dtype=complex)
    sigma = (1.0 - eps) * (sigma + sigma.conj().T) / 2 / np.trace(sigma).real + eps * np.eye(d) / d
    w, v = np.linalg.eigh(sigma)
    w = np.clip(w, eps / d, None)
    root = np.kron(np.eye(d), (v * np.sqrt(w)) @ v.conj().T)
    inv_root = np.kron(np.eye(d), (v / np.sqrt(w)) @ v.conj().T)
    lam, vecs = np.linalg.eigh(root @ delta @ root)
    positive = (vecs * np.clip(lam, 0.0, None)) @ vecs.conj().T
    z = inv_root @ positive @ inv_root
    z = (z + z.conj().T) / 2
    t = max(0.0, -float(np.linalg.eigvalsh(z)[0]), -float(np.linalg.eigvalsh(z - delta)[0]))
    z = z + t * np.eye(d * d)
    traced = np.einsum("ijik->jk", z.reshape(d, d, d, d))
    lmax = float(np.linalg.eigvalsh((traced + traced.conj().T) / 2)[-1])
    return 0.5 * (1.0 - (2.0 * lmax - (p1 - p2)))
