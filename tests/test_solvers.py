"""Subcover and independent-set solvers against exhaustive enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpress.solvers import (
    STATUS_EXACT,
    STATUS_GREEDY_LOWER,
    STATUS_GREEDY_UPPER,
    WeightedCoverInstance,
    max_weight_independent_set,
    min_subcover_value,
)


def exhaustive_min_cover(universe, members, log_weights):
    """Reference optimum over all 2^k subfamilies, summed in index order."""
    best = None
    for r in range(len(members) + 1):
        for combo in itertools.combinations(range(len(members)), r):
            cov = 0
            for i in combo:
                cov |= members[i]
            if universe & ~cov:
                continue
            val = log_sum(log_weights, combo)
            if best is None or val < best:
                best = val
    return best


def exhaustive_max_independent(adjacency, log_weights):
    best = -math.inf
    n = len(adjacency)
    for subset in range(1 << n):
        ok = True
        for v in range(n):
            if subset >> v & 1 and adjacency[v] & subset:
                ok = False
                break
        if ok:
            chosen = [v for v in range(n) if subset >> v & 1]
            best = max(best, log_sum(log_weights, chosen))
    return best


def log_sum(log_weights, chosen):
    if not chosen:
        return -math.inf
    idx = sorted(chosen)
    shift = max(log_weights[i] for i in idx)
    return shift + math.log(math.fsum(math.exp(log_weights[i] - shift) for i in idx))


def test_single_member_cover():
    inst = WeightedCoverInstance(0b1111, (0b1111,), (math.log(2.5),))
    res = min_subcover_value(inst)
    assert res.status == STATUS_EXACT
    assert res.log_value == pytest.approx(math.log(2.5))
    assert res.chosen == (0,)


def test_partition_instance_all_forced():
    members = (0b0011, 0b0100, 0b1000)
    lw = (0.2, -0.3, 0.7)
    res = min_subcover_value(WeightedCoverInstance(0b1111, members, lw))
    assert res.status == STATUS_EXACT
    assert res.chosen == (0, 1, 2)
    assert res.log_value == pytest.approx(log_sum(lw, [0, 1, 2]))


def test_partition_instance_exact_beyond_limit():
    # Disjoint members are forced regardless of the exact-limit setting.
    members = tuple(1 << i for i in range(40))
    lw = tuple(0.01 * i for i in range(40))
    res = min_subcover_value(
        WeightedCoverInstance((1 << 40) - 1, members, lw), exact_limit=4
    )
    assert res.status == STATUS_EXACT
    assert res.chosen == tuple(range(40))


def test_three_member_pinned_case():
    # Universe {0,1,2,3}; members {0,1},{2,3},{1,2,3}; weights 1,1,1.5.
    members = (0b0011, 0b1100, 0b1110)
    lw = (math.log(1.0), math.log(1.0), math.log(1.5))
    res = min_subcover_value(WeightedCoverInstance(0b1111, members, lw))
    assert res.status == STATUS_EXACT
    assert math.exp(res.log_value) == pytest.approx(2.0)
    assert res.chosen == (0, 1)


def test_non_covering_instance_rejected():
    with pytest.raises(ValueError, match="cover"):
        WeightedCoverInstance(0b111, (0b001, 0b010), (0.0, 0.0))


def test_greedy_fallback_reports_status():
    rng = np.random.default_rng(0)
    members = tuple(int(m) | 1 for m in rng.integers(1, 2**16, size=40))
    lw = tuple(float(w) for w in rng.uniform(-1, 1, size=40))
    universe = 0
    for m in members:
        universe |= m
    res = min_subcover_value(
        WeightedCoverInstance(universe, members, lw), exact_limit=8
    )
    # Forced peeling may or may not finish the job; if members remain the
    # status must be the greedy one and the value a valid upper bound.
    assert res.status in (STATUS_EXACT, STATUS_GREEDY_UPPER)
    cov = 0
    for i in res.chosen:
        cov |= members[i]
    assert universe & ~cov == 0


def test_subcover_matches_exhaustive_random():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n_el = int(rng.integers(3, 9))
        n_mem = int(rng.integers(2, 9))
        universe = (1 << n_el) - 1
        members = []
        for _ in range(n_mem):
            m = int(rng.integers(1, 1 << n_el))
            members.append(m)
        # Ensure coverage.
        members[0] |= universe & ~int(np.bitwise_or.reduce(np.array(members)))
        lw = [float(w) for w in rng.uniform(-2, 2, size=n_mem)]
        inst = WeightedCoverInstance(universe, tuple(members), tuple(lw))
        res = min_subcover_value(inst)
        assert res.status == STATUS_EXACT
        assert res.log_value == exhaustive_min_cover(universe, members, lw)


def test_mwis_path_graph():
    # Path on 5 vertices, unit weights: the ends-and-middle set wins.
    adjacency = [0b00010, 0b00101, 0b01010, 0b10100, 0b01000]
    lw = [0.0] * 5
    res = max_weight_independent_set(adjacency, lw)
    assert res.status == STATUS_EXACT
    assert res.chosen == (0, 2, 4)
    assert math.exp(res.log_value) == pytest.approx(3.0)


def test_mwis_edgeless_takes_everything():
    lw = [0.1, 0.2, 0.3]
    res = max_weight_independent_set([0, 0, 0], lw)
    assert res.chosen == (0, 1, 2)
    assert res.status == STATUS_EXACT


def test_mwis_matches_exhaustive_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        adjacency = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adjacency[i] |= 1 << j
                    adjacency[j] |= 1 << i
        lw = [float(w) for w in rng.uniform(-2, 2, size=n)]
        res = max_weight_independent_set(adjacency, lw)
        assert res.status == STATUS_EXACT
        assert res.log_value == exhaustive_max_independent(adjacency, lw)


def test_mwis_greedy_status_when_budget_exhausted():
    rng = np.random.default_rng(1)
    n = 40
    adjacency = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    lw = [float(w) for w in rng.uniform(0, 1, size=n)]
    res = max_weight_independent_set(adjacency, lw, exact_limit=10)
    assert res.status == STATUS_GREEDY_LOWER
    # Greedy result is still independent.
    chosen_mask = 0
    for v in res.chosen:
        chosen_mask |= 1 << v
    for v in res.chosen:
        assert adjacency[v] & chosen_mask == 0


def test_subcover_light_members_do_not_underflow():
    # A 1000-heavy member used to set the scale, so the -5 member underflowed
    # to weight 0 and tied with the two 0-weight members.
    inst = WeightedCoverInstance(0b11, (0b11, 0b01, 0b10, 0b11), (1000.0, 0.0, 0.0, -5.0))
    res = min_subcover_value(inst)
    assert res.status == STATUS_EXACT
    assert res.chosen == (3,)
    assert res.log_value == -5.0


def test_mwis_scale_is_safe_for_light_vertices():
    # The optimum is at least the heaviest vertex, so shifting by it can only
    # underflow vertices below float resolution of the optimum.
    adjacency = [0b0110, 0b0001, 0b0001, 0b0000]  # star 0-{1,2}, vertex 3 isolated
    lw = [1000.0, -5.0, -6.0, -2000.0]
    res = max_weight_independent_set(adjacency, lw)
    assert res.status == STATUS_EXACT
    assert res.log_value == 1000.0
    assert res.log_value == exhaustive_max_independent(adjacency, lw)
    lw = [-1000.0, 0.0, -5.0, -2000.0]
    res = max_weight_independent_set(adjacency, lw)
    assert res.chosen[:2] == (1, 2)
    assert res.log_value == exhaustive_max_independent(adjacency, lw)


@st.composite
def wide_cover_instances(draw):
    """Up to 8 members on up to 6 elements, log-weights anywhere in [-2000, 2000]."""
    n_el = draw(st.integers(1, 6))
    universe = (1 << n_el) - 1
    members = draw(st.lists(st.integers(1, universe), min_size=1, max_size=8))
    union = 0
    for m in members:
        union |= m
    members[0] |= universe & ~union
    lw = draw(
        st.lists(st.floats(-2000.0, 2000.0), min_size=len(members), max_size=len(members))
    )
    return universe, tuple(members), tuple(lw)


@given(wide_cover_instances())
@settings(max_examples=200, deadline=None)
def test_subcover_exact_for_wide_log_weight_spreads(case):
    universe, members, lw = case
    res = min_subcover_value(WeightedCoverInstance(universe, members, lw))
    assert res.status == STATUS_EXACT
    cov = 0
    for i in res.chosen:
        cov |= members[i]
    assert universe & ~cov == 0
    want = exhaustive_min_cover(universe, members, lw)
    assert res.log_value == pytest.approx(want, rel=1e-12, abs=1e-12)
