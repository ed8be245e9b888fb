"""Acceptance suite: one test per headline criterion, at pinned tolerances.

Each test prints a PASS line with the measured numbers (visible under
`pytest -s` / on failure), and the test outcome itself is the verdict.
Reference values come from independent oracles built inside the tests:
exhaustive enumeration for the solvers, binomial sums for the doubling
pressure, cycle enumeration for the variational checks, and the full
shift's closed forms for its torus runs.
"""

import itertools
import math
import time

import numpy as np
import pytest

from covpress.config import load_config
from covpress.coveralg import SetFamily, join
from covpress.dynsys import FiniteSystem, Potential, make_circle_doubling, make_full_shift_torus
from covpress.experiments import run_experiment
from covpress.fullshift import FullShiftSpec, exact_pressure
from covpress.lattice import box_cardinality, decompose, sym_diff_cardinality
from covpress.measpressure import (
    FiniteMeasure,
    empirical_measures,
    entropy_rate,
    invariance_defect,
    measure_pressure,
    partition_entropy,
    separated_entropy_link_check,
)
from covpress.solvers import (
    STATUS_EXACT,
    WeightedCoverInstance,
    max_weight_independent_set,
    min_subcover_value,
)
from covpress.toppressure import pressure_quadruple
from oracles import (
    brute_decompose,
    conditional_entropy,
    invariant_cycle_mixture,
    is_probability,
    member_states,
    orbit_join,
    product_measure,
)

LOG2 = math.log(2.0)


def canonical_log_sum(log_weights, chosen):
    """Index-ordered, max-shifted log sum; the canonical value format."""
    if not chosen:
        return -math.inf
    idx = sorted(chosen)
    shift = max(log_weights[i] for i in idx)
    return shift + math.log(math.fsum(math.exp(log_weights[i] - shift) for i in idx))


def random_functional_system(rng, lo=4, hi=10):
    m = int(rng.integers(lo, hi))
    gen = rng.integers(0, m, size=m).astype(np.int64)
    return FiniteSystem(generators=(gen,)), m


def random_cover(rng, m):
    masks = [int(v) for v in rng.integers(1, 1 << m, size=int(rng.integers(2, 4)))]
    union = 0
    for v in masks:
        union |= v
    masks[0] |= ((1 << m) - 1) & ~union
    return SetFamily.from_state_sets(m, [[s for s in range(m) if v >> s & 1] for v in masks])


def test_criterion_1_doubling_entropy():
    start = time.monotonic()
    cfg = load_config("doubling", overrides={"potential": "constant:0"})
    rows, verdicts = run_experiment(cfg)
    elapsed = time.monotonic() - start
    final = max(
        (r for r in rows if r.cover == "arcs" and r.mode == "Q"), key=lambda r: r.lam
    )
    assert final.lam == 14
    assert abs(final.rate - LOG2) <= 0.05
    assert verdicts[0].passed
    assert elapsed < 60.0
    print(
        f"CRITERION 1 PASS: doubling Q rate {final.rate:.6f} vs log 2 = {LOG2:.6f} "
        f"in {elapsed:.1f}s"
    )


def test_criterion_2_doubling_pressure():
    # Independent binomial-sum oracle for the locally constant potential:
    # sum_j C(n, j) e^(a j) = (1 + e^a)^n.
    a, n = 1.0, 14
    binomial = math.fsum(
        math.comb(n, j) * math.exp(a * j) for j in range(n + 1)
    )
    target = math.log(binomial) / n
    assert target == pytest.approx(math.log(1 + math.exp(a)), abs=1e-12)

    start = time.monotonic()
    cfg = load_config("doubling", overrides={"potential": f"arc:{a:g}"})
    rows, verdicts = run_experiment(cfg)
    elapsed = time.monotonic() - start
    final = max(
        (r for r in rows if r.cover == "arcs" and r.mode == "Q"), key=lambda r: r.lam
    )
    assert abs(final.rate - target) <= 0.05
    assert verdicts[0].passed
    print(
        f"CRITERION 2 PASS: doubling pressure rate {final.rate:.6f} vs "
        f"binomial-oracle target {target:.6f} in {elapsed:.1f}s"
    )


def test_criterion_3_leakage_contrast():
    start = time.monotonic()
    cfg = load_config("leakage")
    assert cfg.rings == 64 and cfg.sectors == 256 and cfg.n_max == 12
    rows, verdicts = run_experiment(cfg)
    elapsed = time.monotonic() - start
    by_name = {v.name: v for v in verdicts}
    assert by_name["leakage-pizza"].passed
    assert by_name["leakage-euclid"].passed
    assert by_name["leakage-admissible"].passed
    assert elapsed < 300.0
    print(
        "CRITERION 3 PASS: "
        + "; ".join(v.detail.split(" (")[0] for v in verdicts)
        + f"; runtime {elapsed:.1f}s"
    )


def test_criterion_4_finite_variational_principle():
    cfg = load_config("finite-vp")
    assert cfg.seeds == 50 and cfg.max_states == 12
    rows, verdicts = run_experiment(cfg)
    assert verdicts[0].passed, verdicts[0].detail
    deep = {r.cover.split("/")[0]: r for r in rows if r.cover.endswith("/cells") and r.lam > 10**6}
    oracle = {r.cover.split("/")[0]: r for r in rows if r.cover.endswith("/cycles")}
    assert len(deep) == 50 and len(oracle) == 50
    worst = max(abs(deep[k].rate - oracle[k].rate) for k in deep)
    assert worst <= 1e-6
    print(f"CRITERION 4 PASS: 50 seeds, worst |topological - cycle oracle| = {worst:.2e}")


def test_criterion_5_fullshift_optimum():
    # Random full shifts run through `fullshift` on their torus, and random
    # product measures on a torus of each, against the closed-form pressure.
    rng = np.random.default_rng(505)
    worst_gap = 0.0
    worst_excess = -math.inf
    worst_cyl = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        phi = tuple(float(v) for v in rng.uniform(-2, 2, k))
        top = exact_pressure(FullShiftSpec(k, dim, phi))
        cfg = load_config(
            "fullshift",
            overrides={"symbols": k, "dim": dim, "phi": ",".join(map(repr, phi)), "n_max": 4},
        )
        rows, verdicts = run_experiment(cfg)
        assert verdicts[0].passed
        assert all(r.solver_status == STATUS_EXACT for r in rows)
        worst_gap = max(worst_gap, *(abs(r.rate - top) for r in rows))
        closed_site = math.fsum(math.exp(v) for v in phi)
        for r in rows:
            if r.mode == "P":
                worst_cyl = max(worst_cyl, abs(r.raw_value - closed_site**r.lam) / closed_site**r.lam)
        # 10 random product measures on a torus of at most 4,096 states.
        side = max(t for t in range(1, 5) if k ** (t**dim) <= 4096)
        torus = make_full_shift_torus(k, (side,) * dim)
        symbol = np.arange(torus.state_count) % k
        origin = SetFamily.from_labels(symbol)
        f = Potential(np.asarray(phi)[symbol])
        for _ in range(10):
            w = rng.uniform(0, 1, k) + 1e-12
            mu = product_measure(k, (side,) * dim, w / w.sum())
            h = entropy_rate(mu, torus, origin, side).samples[-1]
            worst_excess = max(worst_excess, h.rate + mu.integrate(f) - top)
    assert worst_gap <= 1e-9
    assert worst_excess <= 1e-9
    assert worst_cyl <= 1e-9
    print(
        f"CRITERION 5 PASS: worst rate gap {worst_gap:.2e}, product-measure excess "
        f"{worst_excess:.2e}, cylinder relative error {worst_cyl:.2e}"
    )


def test_criterion_6_lattice_bounds():
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        q = tuple(int(v) for v in rng.integers(1, 5, size=dim))
        k = tuple(int(rng.integers(0, qj)) for qj in q)
        n = tuple(int(rng.integers(max(qj, 1), 21)) for qj in q)
        dec = decompose(n, q, k)
        lam = box_cardinality(n)
        # The closed-form counts against the enumerated point sets.
        corners, residue = brute_decompose(n, q, k)
        if (dec.corners, dec.residue) != (len(corners), len(residue)):
            violations += 1
        if dec.residue * min(n) > 2 * dim * max(q) * lam:
            violations += 1
    assert violations == 0
    print("CRITERION 6 PASS: 1000 random tilings, zero bound or count violations")


def test_criterion_7_inequality_chain_and_monotonicity():
    rng = np.random.default_rng(707)
    slack = 1e-9
    checked_partition, checked_cover = 0, 0
    for _ in range(120):
        sys, m = random_functional_system(rng)
        f = Potential(rng.uniform(-1.5, 1.5, m))
        t = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            fam = SetFamily.from_labels(rng.integers(0, 3, m))
        else:
            fam = random_cover(rng, m)
        quad = pressure_quadruple(sys, f, fam, (t,))
        if not all(s.status == STATUS_EXACT for s in quad.values()):
            continue
        # Provable on every instance: the subcover value is below the sup
        # version, and spanning is below separated is below the sup version.
        assert quad["Q"].log_value <= quad["P"].log_value + slack
        assert quad["G"].log_value <= quad["S"].log_value + slack
        assert quad["S"].log_value <= quad["P"].log_value + slack
        if fam.is_partition:
            # Disjoint members make single-member domination impossible to
            # beat, closing the full chain.
            assert quad["Q"].log_value <= quad["G"].log_value + slack
            checked_partition += 1
        else:
            checked_cover += 1
    assert checked_partition >= 30 and checked_cover >= 30

    mono = 0
    for _ in range(100):
        sys, m = random_functional_system(rng)
        f = Potential(rng.uniform(-1, 1, m))
        coarse = random_cover(rng, m)
        fine = join(coarse, random_cover(rng, m))
        t = int(rng.integers(1, 4))
        q_c = pressure_quadruple(sys, f, coarse, (t,))["Q"]
        q_f = pressure_quadruple(sys, f, fine, (t,))["Q"]
        assert q_c.log_value <= q_f.log_value + slack
        mono += 1
    assert mono == 100
    print(
        f"CRITERION 7 PASS: chain on {checked_partition} partition and "
        f"{checked_cover} cover instances (full chain on partitions, provable "
        f"sub-chain Q<=P, G<=S<=P on overlapping covers), refinement "
        f"monotonicity on {mono} pairs"
    )


def test_criterion_8_entropy_lemma_suite():
    rng = np.random.default_rng(808)
    tol = 1e-9

    # Subadditivity and the box-size log bound.
    for _ in range(100):
        m = int(rng.integers(3, 10))
        w = rng.uniform(0, 1, m)
        mu = FiniteMeasure(w / w.sum())
        c = SetFamily.from_labels(rng.integers(0, 3, m))
        d = SetFamily.from_labels(rng.integers(0, 3, m))
        assert partition_entropy(mu, join(c, d)) <= (
            partition_entropy(mu, c) + partition_entropy(mu, d) + tol
        )
    for _ in range(100):
        sys, m = random_functional_system(rng)
        mu_w = rng.uniform(0, 1, m)
        mu = FiniteMeasure(mu_w / mu_w.sum())
        c = SetFamily.from_labels(rng.integers(0, 3, m))
        t = int(rng.integers(1, 4))
        joined = orbit_join(sys, c, (t,))
        assert partition_entropy(mu, joined) <= t * math.log(c.count) + tol

    # Conditional bound at finite depth.
    for _ in range(100):
        sys, m = random_functional_system(rng)
        mu = invariant_cycle_mixture(rng=rng, sys=sys)
        if not is_probability(mu):
            mu = FiniteMeasure(mu.weights / mu.mass)
        c = SetFamily.from_labels(rng.integers(0, 3, m))
        k = SetFamily.from_labels(rng.integers(0, 3, m))
        hck = conditional_entropy(mu, c, k)
        t = int(rng.integers(1, 4))
        hc = partition_entropy(mu, orbit_join(sys, c, (t,)))
        hk = partition_entropy(mu, orbit_join(sys, k, (t,)))
        assert hc / t <= hk / t + hck + tol

    # From-inside bound with the junk-class mass.
    for _ in range(100):
        sys, m = random_functional_system(rng, lo=5, hi=11)
        mu = invariant_cycle_mixture(rng=rng, sys=sys)
        if not is_probability(mu):
            mu = FiniteMeasure(mu.weights / mu.mass)
        labels = rng.integers(0, 3, m)
        c = SetFamily.from_labels(labels)
        exiled = rng.random(m) < 0.3
        k_labels = np.where(exiled, 0, labels + 1)
        if len(np.unique(k_labels)) < 2:
            continue
        k = SetFamily.from_labels(k_labels)
        bound = float(mu.weights[exiled].sum()) * math.log(max(c.count, 2))
        assert conditional_entropy(mu, c, k) <= bound + tol
        t = int(rng.integers(1, 3))
        hc = partition_entropy(mu, orbit_join(sys, c, (t,)))
        hk = partition_entropy(mu, orbit_join(sys, k, (t,)))
        assert hc / t <= hk / t + bound + tol

    # Scaling of measure pressure, including the vanishing mass term.
    for _ in range(100):
        sys, m = random_functional_system(rng)
        mu = invariant_cycle_mixture(rng=rng, sys=sys)
        f = Potential(rng.uniform(-1, 1, m))
        base = measure_pressure(mu, sys, f)
        for alpha in (0.0, 0.5, 2.0):
            assert abs(measure_pressure(mu.scaled(alpha), sys, f) - alpha * base) <= tol
        c = SetFamily.from_labels(rng.integers(0, 3, m))
        for alpha in (0.5, 2.0):
            for t in (1, 3):
                joined = orbit_join(sys, c, (t,))
                lhs = partition_entropy(mu.scaled(alpha), joined)
                rhs = alpha * partition_entropy(mu, joined) + alpha * mu.mass * math.log(
                    1 / alpha
                )
                assert abs(lhs - rhs) <= tol
                # The extra mass term per box point dies along the diagonal.
                assert abs(alpha * mu.mass * math.log(1 / alpha)) / t <= abs(
                    alpha * mu.mass * math.log(1 / alpha)
                )

    # Plus-constant identities on both sides.
    for _ in range(100):
        sys, m = random_functional_system(rng)
        mu = invariant_cycle_mixture(rng=rng, sys=sys)
        f = Potential(rng.uniform(-1, 1, m))
        c_shift = float(rng.uniform(-2, 2))
        assert abs(
            measure_pressure(mu, sys, f.shifted(c_shift))
            - measure_pressure(mu, sys, f)
            - c_shift * mu.mass
        ) <= tol
        fam = SetFamily.from_labels(rng.integers(0, 3, m))
        t = int(rng.integers(1, 4))
        quad = pressure_quadruple(sys, f, fam, (t,))
        quad_shifted = pressure_quadruple(sys, f.shifted(c_shift), fam, (t,))
        for mode in ("Q", "P"):
            assert abs(quad_shifted[mode].rate - quad[mode].rate - c_shift) <= tol
    print("CRITERION 8 PASS: entropy lemma suite, 100+ instances per lemma at 1e-9")


def test_criterion_9_lower_bound_construction():
    rng = np.random.default_rng(909)
    runs = 0
    for _ in range(60):
        sys, m = random_functional_system(rng, lo=4, hi=12)
        f = Potential(rng.uniform(-1, 1, m))
        t = int(rng.integers(2, 8))
        chosen = sorted(set(int(v) for v in rng.integers(0, m, size=3)))
        emp = empirical_measures(sys, f, (t,), chosen)
        shift = int(rng.integers(0, 3))
        defect, bound = invariance_defect(emp.averaged, sys, (t,), (shift,))
        assert defect <= bound + 1e-12
        runs += 1
    # Two-axis systems exercise the same bound in higher dimension.
    states = np.arange(35, dtype=np.int64)
    sys2 = FiniteSystem(generators=(((2 * states) % 35), ((3 * states) % 35)))
    f2 = Potential(np.asarray(rng.uniform(-1, 1, 35)))
    emp2 = empirical_measures(sys2, f2, (4, 5), [0, 7, 12])
    defect2, bound2 = invariance_defect(emp2.averaged, sys2, (4, 5), (1, 2))
    assert defect2 <= bound2 + 1e-12
    assert bound2 == pytest.approx(
        sym_diff_cardinality((4, 5), (1, 2)) / 20
    )
    runs += 1

    links = 0
    for i in range(50):
        m = 2 * int(np.random.default_rng(1000 + i).integers(10, 60)) + 1
        local = np.random.default_rng(2000 + i)
        sys = make_circle_doubling(m)
        split = int(local.integers(2, m - 2))
        arc = SetFamily.from_labels((np.arange(m) >= split).astype(np.int64))
        f = Potential(local.normal(size=m))
        t = int(local.integers(2, 5))
        chosen = pressure_quadruple(sys, f, arc, (t,))["S"].chosen
        report = separated_entropy_link_check(sys, f, arc, (t,), chosen, arc)
        assert report.applicable
        assert report.identity_holds and report.transport_holds
        links += 1
    assert links == 50
    print(
        f"CRITERION 9 PASS: defect bound on {runs} runs, separated-entropy "
        f"identity on {links} instances at 1e-9"
    )


def test_criterion_10_solver_oracle_equivalence():
    rng = np.random.default_rng(1010)

    # Weighted subcover vs exhaustive subfamily enumeration.
    for _ in range(500):
        n_el = int(rng.integers(3, 9))
        n_mem = int(rng.integers(2, 13))
        universe = (1 << n_el) - 1
        members = [int(v) for v in rng.integers(1, 1 << n_el, size=n_mem)]
        cov = 0
        for v in members:
            cov |= v
        members[0] |= universe & ~cov
        lw = [float(v) for v in rng.uniform(-2, 2, n_mem)]
        incidence = np.array([[v >> b & 1 for b in range(n_el)] for v in members], dtype=bool)
        inst = WeightedCoverInstance(incidence, np.ones(n_el, dtype=np.int64), tuple(lw))
        res = min_subcover_value(inst)
        assert res.status == STATUS_EXACT
        best = None
        for r in range(n_mem + 1):
            for combo in itertools.combinations(range(n_mem), r):
                u = 0
                for i in combo:
                    u |= members[i]
                if universe & ~u:
                    continue
                val = canonical_log_sum(lw, combo)
                if best is None or val < best:
                    best = val
        assert res.log_value == best

    # Max-weight independent set vs exhaustive subset enumeration.
    for _ in range(500):
        v_count = int(rng.integers(2, 13))
        adjacency = [0] * v_count
        for i in range(v_count):
            for j in range(i + 1, v_count):
                if rng.random() < 0.4:
                    adjacency[i] |= 1 << j
                    adjacency[j] |= 1 << i
        lw = [float(v) for v in rng.uniform(-2, 2, v_count)]
        res = max_weight_independent_set(adjacency, lw)
        assert res.status == STATUS_EXACT
        best = -math.inf
        for subset in range(1 << v_count):
            if any(
                subset >> v & 1 and adjacency[v] & subset for v in range(v_count)
            ):
                continue
            chosen = [v for v in range(v_count) if subset >> v & 1]
            best = max(best, canonical_log_sum(lw, chosen))
        assert res.log_value == best

    # Spanning (dominating) values through the full pipeline vs exhaustive.
    for _ in range(500):
        m = int(rng.integers(3, 9))
        sys = FiniteSystem(generators=(np.arange(m),))
        f = Potential(rng.uniform(-2, 2, m))
        fam = random_cover(rng, m)
        sample = pressure_quadruple(sys, f, fam, (1,))["G"]
        assert sample.status == STATUS_EXACT
        # Closed neighborhoods under "shares a member".
        members = [sum(1 << x for x in member_states(fam, i)) for i in range(fam.count)]
        neighborhoods = []
        for x in range(m):
            nb = 0
            for mask in members:
                if mask >> x & 1:
                    nb |= mask
            neighborhoods.append(nb)
        best = None
        full = (1 << m) - 1
        lw = [float(v) for v in f.values]
        for subset in range(1, 1 << m):
            covered = 0
            for x in range(m):
                if subset >> x & 1:
                    covered |= neighborhoods[x]
            if covered != full:
                continue
            val = canonical_log_sum(lw, [x for x in range(m) if subset >> x & 1])
            if best is None or val < best:
                best = val
        assert sample.log_value == best
    print("CRITERION 10 PASS: 500 subcover + 500 independent-set + 500 dominating "
          "instances match exhaustive enumeration exactly")
