"""Acceptance suite.

Each test checks one release criterion end to end and prints a single
``criterion N: PASS/FAIL (...)`` line with the measured numbers, then
asserts. Seeds are fixed so the runs are reproducible.
"""

import time

import numpy as np

from opdisc import (
    DiscriminationProblem,
    PAULI_MATRICES,
    RandomUnitaryChannel,
    apply_extended,
    brute_force_entangled,
    brute_force_unentangled,
    helstrom,
    make_operation,
    mat_to_biket,
    pauli_channel,
    pauli_delta_summary,
    pe_entangled,
    pe_random_unitary_bounds,
    pe_random_unitary_exact,
    pe_unentangled,
    povm_error,
    trace_norm,
    weyl_channel,
)

from helpers import (
    haar_unitary,
    random_density,
    random_kraus_operation,
    random_prob_vector,
    random_qubit_problem,
    random_two_outcome_povm,
)

Q_ID = [1, 0, 0, 0]
Q_DEP = [0.25, 0.25, 0.25, 0.25]
Q_XYZ = [0, 1 / 3, 1 / 3, 1 / 3]


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def _identity_vs_depolarizing():
    return DiscriminationProblem(pauli_channel(Q_ID), pauli_channel(Q_DEP), 0.5)


def _perfect_family_problem():
    return DiscriminationProblem(pauli_channel(Q_XYZ), pauli_channel(Q_ID), 0.5)


def test_criterion_1_identity_vs_depolarizing_qubit():
    t0 = time.perf_counter()
    prob = _identity_vs_depolarizing()
    num_e = pe_entangled(prob).pe_entangled
    num_u = pe_unentangled(prob).pe_unentangled
    closed = pauli_delta_summary(Q_ID, Q_DEP, 0.5)
    closed_e, closed_u = closed.pe_entangled, closed.pe_unentangled
    elapsed = time.perf_counter() - t0
    dev_num = max(abs(num_e - 0.125), abs(num_u - 0.25))
    dev_closed = max(abs(closed_e - 0.125), abs(closed_u - 0.25))
    ok = dev_num < 1e-6 and dev_closed < 1e-12 and elapsed < 5.0
    _report(1, ok, f"numeric dev {dev_num:.2e}, closed dev {dev_closed:.2e}, {elapsed:.2f}s")


def test_criterion_2_qutrit_identity_vs_depolarizing():
    t0 = time.perf_counter()
    ch_id = weyl_channel(3, [1.0] + [0.0] * 8)
    ch_dep = weyl_channel(3, [1.0 / 9.0] * 9)
    exact = pe_random_unitary_exact(ch_id, ch_dep, 0.5)
    prob = DiscriminationProblem(ch_id.as_operation(), ch_dep.as_operation(), 0.5)
    numeric = pe_entangled(prob).pe_entangled
    elapsed = time.perf_counter() - t0
    dev_closed = abs(exact - 1 / 18)
    dev_num = abs(numeric - 1 / 18)
    ok = dev_closed < 1e-12 and dev_num < 1e-5 and elapsed < 60.0
    _report(2, ok, f"closed dev {dev_closed:.2e}, numeric dev {dev_num:.2e}, {elapsed:.2f}s")


def test_criterion_3_perfect_discrimination_needs_entanglement():
    prob = _perfect_family_problem()
    num_e = pe_entangled(prob).pe_entangled
    num_u = pe_unentangled(prob).pe_unentangled
    needed = pauli_delta_summary(Q_XYZ, Q_ID, 0.5).entanglement_needed
    dev_u = abs(num_u - 1 / 6)
    ok = abs(num_e) < 1e-7 and dev_u < 1e-6 and needed
    _report(3, ok, f"pe_e {num_e:.2e}, pe_u dev {dev_u:.2e}, needed {needed}")


def test_criterion_4_unitary_pairs_need_no_entanglement():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        op1 = make_operation([haar_unitary(2, rng)])
        op2 = make_operation([haar_unitary(2, rng)])
        p1 = float(rng.uniform(0.05, 0.95))
        prob = DiscriminationProblem(op1, op2, p1)
        gap = abs(pe_entangled(prob).pe_entangled - pe_unentangled(prob).pe_unentangled)
        worst = max(worst, gap)
    ok = worst < 1e-6
    _report(4, ok, f"worst |pe_e - pe_u| {worst:.2e} over 20 pairs")


def test_criterion_5_pauli_closed_forms_match_numeric():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        q1 = random_prob_vector(4, rng)
        q2 = random_prob_vector(4, rng)
        p1 = float(rng.uniform(0.05, 0.95))
        prob = DiscriminationProblem(pauli_channel(q1), pauli_channel(q2), p1)
        closed = pauli_delta_summary(q1, q2, p1)
        dev_e = abs(pe_entangled(prob).pe_entangled - closed.pe_entangled)
        dev_u = abs(pe_unentangled(prob).pe_unentangled - closed.pe_unentangled)
        worst = max(worst, dev_e, dev_u)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 300.0
    _report(5, ok, f"worst closed-vs-numeric dev {worst:.2e} over 50 triples, {elapsed:.1f}s")


def test_criterion_6_sign_rule_for_unentangled_maximum():
    rng = np.random.default_rng(6)
    max_eq_dev = 0.0
    min_neg_gap = np.inf
    n_neg = 0
    for _ in range(1000):
        q1 = random_prob_vector(4, rng)
        q2 = random_prob_vector(4, rng)
        p1 = float(rng.uniform(0.0, 1.0))
        s = pauli_delta_summary(q1, q2, p1)
        total = sum(abs(x) for x in s.r)
        if s.det_sign >= 0:
            max_eq_dev = max(max_eq_dev, abs(s.m - total))
        else:
            n_neg += 1
            min_neg_gap = min(min_neg_gap, total - s.m)
    ok = max_eq_dev <= 1e-12 and min_neg_gap > 1e-12 and 0 < n_neg < 1000
    _report(
        6,
        ok,
        f"eq dev {max_eq_dev:.2e}, strict gap >= {min_neg_gap:.2e} on {n_neg} negative cases",
    )


def test_criterion_7_bounds_sandwich_numeric_value():
    rng = np.random.default_rng(7)
    worst_lo = -np.inf
    worst_hi = -np.inf
    for _ in range(20):
        angle = float(rng.uniform(0.25, np.pi - 0.25))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        h = axis[0] * PAULI_MATRICES[1] + axis[1] * PAULI_MATRICES[2] + axis[2] * PAULI_MATRICES[3]
        v = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * h
        unis = (np.eye(2, dtype=complex), v)
        ch1 = RandomUnitaryChannel(dim=2, unitaries=unis, weights=random_prob_vector(2, rng))
        ch2 = RandomUnitaryChannel(dim=2, unitaries=unis, weights=random_prob_vector(2, rng))
        p1 = float(rng.uniform(0.05, 0.95))
        lower, upper = pe_random_unitary_bounds(ch1, ch2, p1)
        prob = DiscriminationProblem(ch1.as_operation(), ch2.as_operation(), p1)
        pe = pe_entangled(prob).pe_entangled
        worst_lo = max(worst_lo, lower - pe)
        worst_hi = max(worst_hi, pe - upper)
    ok = worst_lo < 1e-6 and worst_hi < 1e-6
    _report(7, ok, f"worst lower-pe {worst_lo:.2e}, worst pe-upper {worst_hi:.2e} over 20 pairs")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()

    # trace norm: unitary invariance and convexity
    rng = np.random.default_rng(81)
    worst_inv = 0.0
    worst_conv = -np.inf
    for _ in range(100):
        d = int(rng.integers(2, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        lam = float(rng.uniform(0.0, 1.0))
        worst_inv = max(worst_inv, abs(trace_norm(u @ a @ v) - trace_norm(a)))
        worst_conv = max(
            worst_conv,
            trace_norm(lam * a + (1 - lam) * b) - lam * trace_norm(a) - (1 - lam) * trace_norm(b),
        )

    # extended application agrees with explicit Kraus conjugation
    rng = np.random.default_rng(82)
    worst_ext = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        op = random_kraus_operation(d, int(rng.integers(1, 5)), rng)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        xi = g / np.sqrt(np.trace(g.conj().T @ g).real)
        vec = mat_to_biket(xi)
        rho = np.outer(vec, vec.conj())
        eye = np.eye(d)
        direct = sum(np.kron(k, eye) @ rho @ np.kron(k, eye).conj().T for k in op.kraus)
        worst_ext = max(worst_ext, float(np.max(np.abs(apply_extended(op, xi) - direct))))

    # no POVM beats the Helstrom measurement
    rng = np.random.default_rng(83)
    worst_povm = -np.inf
    for _ in range(100):
        d = int(rng.integers(2, 5))
        rho1 = random_density(d, rng)
        rho2 = random_density(d, rng)
        p1 = float(rng.uniform(0.0, 1.0))
        pe, _ = helstrom(rho1, rho2, p1)
        err = povm_error(rho1, rho2, p1, random_two_outcome_povm(d, rng))
        worst_povm = max(worst_povm, pe - err)

    # ordering chain pe_entangled <= pe_unentangled <= min(p1, p2)
    rng = np.random.default_rng(84)
    worst_order = -np.inf
    worst_cap = -np.inf
    min_pe = np.inf
    for _ in range(100):
        prob = random_qubit_problem(rng)
        ent = pe_entangled(prob).pe_entangled
        unent = pe_unentangled(prob, num_starts=8).pe_unentangled
        worst_order = max(worst_order, ent - unent)
        worst_cap = max(worst_cap, unent - min(prob.p1, prob.p2))
        min_pe = min(min_pe, ent)

    elapsed = time.perf_counter() - t0
    ok = (
        worst_inv < 1e-9
        and worst_conv < 1e-9
        and worst_ext < 1e-10
        and worst_povm < 1e-12
        and worst_order < 1e-9
        and worst_cap < 1e-9
        and min_pe >= 0.0
        and elapsed < 600.0
    )
    _report(
        8,
        ok,
        f"invariance {worst_inv:.2e}, convexity {worst_conv:.2e}, extension {worst_ext:.2e}, "
        f"povm {worst_povm:.2e}, ordering {worst_order:.2e}, cap {worst_cap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_9_oracle_concordance():
    worst_grid = 0.0
    worst_samples = 0.0
    for prob, closed_e, closed_u in (
        (_identity_vs_depolarizing(), 0.125, 0.25),
        (_perfect_family_problem(), 0.0, 1 / 6),
    ):
        worst_grid = max(worst_grid, abs(brute_force_unentangled(prob, 200) - closed_u))
        worst_samples = max(worst_samples, abs(brute_force_entangled(prob, 500) - closed_e))
    ok = worst_grid < 2e-3 and worst_samples < 1e-5
    _report(9, ok, f"grid dev {worst_grid:.2e}, sample dev {worst_samples:.2e}")
