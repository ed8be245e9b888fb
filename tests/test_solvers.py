"""Subcover and independent-set solvers against exhaustive enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covpress.solvers import (
    _PRUNE_SLACK,
    _TIE_SLACK,
    FALLBACK_NODE_BUDGET,
    FALLBACK_OVER_EXACT_LIMIT,
    NODE_BUDGET,
    STATUS_EXACT,
    STATUS_GREEDY_LOWER,
    STATUS_GREEDY_UPPER,
    WeightedCoverInstance,
    _branch_and_bound_cover,
    _branch_and_bound_mwis,
    _clique_cover_bound,
    _dual_ascent_bound,
    _greedy_cover,
    _greedy_mwis,
    max_weight_independent_set,
    min_subcover_value,
)


def incidence_of(universe, members):
    """Members as a bool members x elements matrix over the set bits of
    `universe` in increasing order, and unit element sizes."""
    bits = [b for b in range(universe.bit_length()) if universe >> b & 1]
    rows = [[m >> b & 1 for b in bits] for m in members]
    incidence = np.array(rows, dtype=bool).reshape(len(members), len(bits))
    return incidence, np.ones(len(bits), dtype=np.int64)


def cover_instance(universe, members, log_weights):
    """The instance of covering `universe` with bitmask members."""
    return WeightedCoverInstance(*incidence_of(universe, members), tuple(log_weights))


def cover_search(universe, members, weights, greedy, node_budget):
    """`_branch_and_bound_cover` on bitmask members."""
    return _branch_and_bound_cover(*incidence_of(universe, members), weights, greedy, node_budget)


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
    inst = cover_instance(0b1111, (0b1111,), (math.log(2.5),))
    res = min_subcover_value(inst)
    assert res.status == STATUS_EXACT
    assert res.log_value == pytest.approx(math.log(2.5))
    assert res.chosen == (0,)


def test_partition_instance_all_forced():
    members = (0b0011, 0b0100, 0b1000)
    lw = (0.2, -0.3, 0.7)
    res = min_subcover_value(cover_instance(0b1111, members, lw))
    assert res.status == STATUS_EXACT
    assert res.chosen == (0, 1, 2)
    assert res.log_value == pytest.approx(log_sum(lw, [0, 1, 2]))


def test_partition_instance_exact_beyond_limit():
    # Disjoint members are forced regardless of the exact-limit setting.
    members = tuple(1 << i for i in range(40))
    lw = tuple(0.01 * i for i in range(40))
    res = min_subcover_value(
        cover_instance((1 << 40) - 1, members, lw), exact_limit=4
    )
    assert res.status == STATUS_EXACT
    assert res.chosen == tuple(range(40))


def test_three_member_pinned_case():
    # Universe {0,1,2,3}; members {0,1},{2,3},{1,2,3}; weights 1,1,1.5.
    members = (0b0011, 0b1100, 0b1110)
    lw = (math.log(1.0), math.log(1.0), math.log(1.5))
    res = min_subcover_value(cover_instance(0b1111, members, lw))
    assert res.status == STATUS_EXACT
    assert math.exp(res.log_value) == pytest.approx(2.0)
    assert res.chosen == (0, 1)


def test_non_covering_instance_rejected():
    with pytest.raises(ValueError, match="cover"):
        cover_instance(0b111, (0b001, 0b010), (0.0, 0.0))


def test_greedy_fallback_reports_status():
    rng = np.random.default_rng(0)
    members = tuple(int(m) | 1 for m in rng.integers(1, 2**16, size=40))
    lw = tuple(float(w) for w in rng.uniform(-1, 1, size=40))
    universe = 0
    for m in members:
        universe |= m
    res = min_subcover_value(
        cover_instance(universe, members, lw), exact_limit=8
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
        inst = cover_instance(universe, tuple(members), tuple(lw))
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
    assert res.fallback == FALLBACK_OVER_EXACT_LIMIT
    assert res.nodes == 0
    # Greedy result is still independent.
    chosen_mask = 0
    for v in res.chosen:
        chosen_mask |= 1 << v
    for v in res.chosen:
        assert adjacency[v] & chosen_mask == 0


def test_mwis_search_depth_is_not_bounded_by_the_call_stack():
    # 1,500 vertices (within EXACT_LIMIT_NODES) and one edge: the search
    # goes about 1,500 levels deep, beyond Python's default recursion limit.
    # The public solver certifies this instance at the root, so the search
    # is called directly.
    n = 1500
    adjacency = [0] * n
    adjacency[0], adjacency[1] = 0b10, 0b01
    weights = [1.0] * n
    picked, nodes = _branch_and_bound_mwis(
        adjacency, weights, _greedy_mwis(adjacency, weights), NODE_BUDGET
    )
    assert picked == [0] + list(range(2, n))
    assert nodes > n
    res = max_weight_independent_set(adjacency, [0.0] * n)
    assert (res.status, res.fallback, res.nodes) == (STATUS_EXACT, None, 1)
    assert res.chosen == (0,) + tuple(range(2, n))


def test_cover_search_depth_is_not_bounded_by_the_call_stack():
    # The edge cover of an odd 2,001-cycle at equal weights: the greedy cover
    # of 1,001 edges is optimal, the root bound does not certify it, and the
    # search dives about 1,000 picks deep, beyond Python's default recursion
    # limit, before its node budget runs out.
    n = 2001
    incidence = np.zeros((n, n), dtype=bool)
    incidence[np.arange(n), np.arange(n)] = True
    incidence[np.arange(n), (np.arange(n) + 1) % n] = True
    inst = WeightedCoverInstance(incidence, np.ones(n, dtype=np.int64), (0.0,) * n)
    res = min_subcover_value(inst, exact_limit=5000, node_budget=3000)
    assert (res.status, res.fallback, res.nodes) == (
        STATUS_GREEDY_UPPER, FALLBACK_NODE_BUDGET, 3001
    )
    assert len(res.chosen) == 1001
    assert incidence[list(res.chosen)].any(axis=0).all()
    greedy = _greedy_cover(incidence, inst.sizes, [0.0] * n)
    assert _branch_and_bound_cover(incidence, inst.sizes, [1.0] * n, greedy, 3000) == (None, 3001)


@pytest.mark.parametrize("log_weights", [[math.inf, 0.0], [1.0, math.nan], [-math.inf, 0.0]])
def test_mwis_rejects_non_finite_log_weights(log_weights):
    with pytest.raises(ValueError, match="finite"):
        max_weight_independent_set([0b10, 0b01], log_weights)


def test_subcover_light_members_do_not_underflow():
    # A 1000-heavy member used to set the scale, so the -5 member underflowed
    # to weight 0 and tied with the two 0-weight members.
    inst = cover_instance(0b11, (0b11, 0b01, 0b10, 0b11), (1000.0, 0.0, 0.0, -5.0))
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
    res = min_subcover_value(cover_instance(universe, members, lw))
    assert res.status == STATUS_EXACT
    cov = 0
    for i in res.chosen:
        cov |= members[i]
    assert universe & ~cov == 0
    want = exhaustive_min_cover(universe, members, lw)
    assert res.log_value == pytest.approx(want, rel=1e-12, abs=1e-12)


@st.composite
def wide_graph_instances(draw):
    """Up to 8 vertices, any edges, log-weights anywhere in [-2000, 2000]."""
    n = draw(st.integers(1, 8))
    adjacency = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    lw = draw(st.lists(st.floats(-2000.0, 2000.0), min_size=n, max_size=n))
    return adjacency, lw


def union_of(masks):
    union = 0
    for m in masks:
        union |= m
    return union


def index_sets(count):
    return itertools.chain.from_iterable(
        itertools.combinations(range(count), r) for r in range(count + 1)
    )


# Log values of up to 4000 in magnitude are rounded to within a few ulps of
# 4000 by the shifts, so root-certified log values are compared to the
# enumerated optimum at that resolution on top of the tie tolerance.
LOG_RESOLUTION = 8 * math.ulp(4000.0)


@given(wide_cover_instances(), wide_graph_instances())
@settings(max_examples=300, deadline=None)
def test_root_certificates_bound_the_enumerated_optima(cover_case, graph_case):
    universe, members, lw = cover_case
    opt = exhaustive_min_cover(universe, members, lw)
    # Scaled as the solver scales them: members heavier than the optimum are
    # in no optimal cover, and the rest get linear weights in (0, 1].
    kept = [i for i in range(len(members)) if lw[i] <= opt]
    masks = [members[i] for i in kept]
    weights = [math.exp(lw[i] - opt) for i in kept]
    least = min(
        math.fsum(weights[k] for k in combo)
        for combo in index_sets(len(kept))
        if not universe & ~union_of(masks[k] for k in combo)
    )
    bound = _dual_ascent_bound(incidence_of(universe, masks)[0], weights)
    assert bound <= least * (1.0 + _TIE_SLACK)
    res = min_subcover_value(cover_instance(universe, members, lw))
    if res.nodes == 1:
        assert (res.status, res.fallback) == (STATUS_EXACT, None)
        assert abs(res.log_value - opt) <= _TIE_SLACK + LOG_RESOLUTION

    adjacency, lw = graph_case
    top = max(lw)
    weights = [math.exp(w - top) for w in lw]
    most = max(
        math.fsum(weights[v] for v in combo)
        for combo in index_sets(len(adjacency))
        if not any(adjacency[v] & union_of(1 << u for u in combo) for v in combo)
    )
    # The bound adds the same floats it compares against, so no tolerance.
    assert _clique_cover_bound(adjacency, weights) >= most
    res = max_weight_independent_set(adjacency, lw)
    if res.nodes == 1:
        assert (res.status, res.fallback) == (STATUS_EXACT, None)
        opt = exhaustive_max_independent(adjacency, lw)
        assert abs(res.log_value - opt) <= _TIE_SLACK + LOG_RESOLUTION


def test_solve_results_count_nodes_and_name_the_fallback():
    # Member 0 is forced; members 1 and 2 both cover {2, 3} at equal weight,
    # so the dual-ascent bound meets the greedy cover at the root.
    inst = cover_instance(0b1111, (0b0011, 0b1100, 0b1110), (0.0, 0.0, 0.0))
    res = min_subcover_value(inst)
    assert (res.status, res.fallback, res.nodes) == (STATUS_EXACT, None, 1)
    # Three members pairwise covering three elements: the dual-ascent bound
    # reaches 1 of the optimal 2, so the search runs, from element 0 through
    # each of its two members to two leaves each.
    triangle = cover_instance(0b111, (0b011, 0b110, 0b101), (0.0, 0.0, 0.0))
    res = min_subcover_value(triangle)
    assert (res.status, res.fallback, res.nodes) == (STATUS_EXACT, None, 7)
    res = min_subcover_value(triangle, node_budget=1)
    assert (res.status, res.fallback, res.nodes) == (STATUS_GREEDY_UPPER, FALLBACK_NODE_BUDGET, 2)
    res = min_subcover_value(triangle, exact_limit=1)
    assert (res.status, res.fallback, res.nodes) == (
        STATUS_GREEDY_UPPER, FALLBACK_OVER_EXACT_LIMIT, 0
    )
    res = min_subcover_value(cover_instance(0b11, (0b01, 0b10), (0.0, 0.0)))
    assert (res.status, res.fallback, res.nodes) == (STATUS_EXACT, None, 0)

    path = [0b010, 0b101, 0b010]
    res = max_weight_independent_set(path, [0.0, 0.0, 0.0])
    assert (res.status, res.fallback, res.nodes) == (STATUS_EXACT, None, 1)
    # An equal-weight 5-cycle: two vertices fit, but its clique cover needs
    # three cliques, so the search runs.
    cycle = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]
    res = max_weight_independent_set(cycle, [0.0] * 5)
    assert (res.status, res.fallback) == (STATUS_EXACT, None) and res.nodes > 1
    res = max_weight_independent_set(cycle, [0.0] * 5, node_budget=1)
    assert (res.status, res.fallback, res.nodes) == (STATUS_GREEDY_LOWER, FALLBACK_NODE_BUDGET, 2)
    assert res.chosen == (0, 2)
    res = max_weight_independent_set(cycle, [0.0] * 5, exact_limit=1)
    assert (res.status, res.fallback, res.nodes) == (
        STATUS_GREEDY_LOWER, FALLBACK_OVER_EXACT_LIMIT, 0
    )
    res = max_weight_independent_set([0, 0], [0.0, 0.0])
    assert (res.status, res.fallback, res.nodes) == (STATUS_EXACT, None, 0)


# The previous searches, which scanned every uncovered element for the fewest
# covering members and every vertex for the heaviest candidate at each node.
# They are kept verbatim as reference oracles, apart from also returning the
# node count: the static-order searches must visit the same nodes.


def _reference_branch_and_bound_cover(universe, members, weights, greedy, node_budget):
    best_value = sum(weights[i] for i in greedy)
    best_set = list(greedy)
    element_members: dict[int, list[int]] = {}
    u = universe
    while u:
        low = u & -u
        b = low.bit_length() - 1
        element_members[b] = [i for i, m in enumerate(members) if m >> b & 1]
        u ^= low
    nodes = 0
    exhausted = False

    def lower_bound(remaining: int) -> float:
        need = remaining.bit_count()
        best_ratio = math.inf
        for i, m in enumerate(members):
            gain = (m & remaining).bit_count()
            if gain:
                best_ratio = min(best_ratio, weights[i] / gain)
        return need * best_ratio * (1.0 - _PRUNE_SLACK)

    def dfs(remaining: int, cost: float, picked: list[int]):
        nonlocal best_value, best_set, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if not remaining:
            if cost < best_value:
                best_value = cost
                best_set = list(picked)
            return
        if cost + lower_bound(remaining) > best_value * (1.0 + _PRUNE_SLACK):
            return
        # Branch on the uncovered element with the fewest covering members.
        target, target_count = -1, None
        u = remaining
        while u:
            low = u & -u
            b = low.bit_length() - 1
            c = sum(1 for i in element_members[b] if members[i] & remaining)
            if target_count is None or c < target_count:
                target, target_count = b, c
            u ^= low
        options = [i for i in element_members[target] if members[i] & remaining]
        options.sort(key=lambda i: (weights[i], i))
        for i in options:
            picked.append(i)
            dfs(remaining & ~members[i], cost + weights[i], picked)
            picked.pop()

    dfs(universe, 0.0, [])
    return (None if exhausted else sorted(best_set)), nodes


def _reference_branch_and_bound_mwis(adjacency, weights, node_budget):
    order = sorted(range(len(adjacency)), key=lambda i: (-weights[i], i))
    greedy = _greedy_mwis(adjacency, weights)
    best_value = sum(weights[i] for i in greedy)
    best_set = list(greedy)
    nodes = 0
    exhausted = False

    def dfs(candidates: int, value: float, picked: list[int]):
        nonlocal best_value, best_set, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if not candidates:
            if value > best_value:
                best_value = value
                best_set = list(picked)
            return
        bound = value
        c = candidates
        while c:
            low = c & -c
            bound += weights[low.bit_length() - 1]
            c ^= low
        if bound * (1.0 + _PRUNE_SLACK) < best_value:
            return
        v = next(i for i in order if candidates >> i & 1)
        picked.append(v)
        dfs(candidates & ~(adjacency[v] | (1 << v)), value + weights[v], picked)
        picked.pop()
        dfs(candidates & ~(1 << v), value, picked)

    dfs((1 << len(adjacency)) - 1, 0.0, [])
    return (None if exhausted else sorted(best_set)), nodes


# Few distinct values, so that ties in weight, ratio and degree are common.
search_weights = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]), st.floats(0.01, 10.0)
)


@st.composite
def cover_searches(draw):
    """A search input as `min_subcover_value` builds it: members may reach
    outside the universe, the greedy cover is the incumbent."""
    universe = draw(st.integers(1, (1 << 10) - 1))
    members = draw(st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=12))
    union = 0
    for m in members:
        union |= m
    members[0] |= universe & ~union
    weights = draw(st.lists(search_weights, min_size=len(members), max_size=len(members)))
    log_weights = [math.log(w) for w in weights]
    greedy = _greedy_cover(*incidence_of(universe, members), log_weights)
    return universe, members, weights, greedy, draw(st.integers(1, 2000))


@given(cover_searches())
@settings(max_examples=300, deadline=None)
def test_cover_search_visits_the_reference_nodes(case):
    assert cover_search(*case) == _reference_branch_and_bound_cover(*case)


@st.composite
def mwis_searches(draw):
    n = draw(st.integers(1, 14))
    adjacency = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    weights = draw(st.lists(search_weights, min_size=n, max_size=n))
    return adjacency, weights, draw(st.integers(1, 2000))


@given(mwis_searches())
@settings(max_examples=300, deadline=None)
def test_mwis_search_visits_the_reference_nodes(case):
    adjacency, weights, budget = case
    got = _branch_and_bound_mwis(adjacency, weights, _greedy_mwis(adjacency, weights), budget)
    assert got == _reference_branch_and_bound_mwis(adjacency, weights, budget)


@st.composite
def sized_covers(draw):
    """Up to 10 members on up to 7 elements of sizes 1 to 4: linear search
    weights, and their logs scaled to spreads of up to 2000, with an exact
    limit and a node budget, often tight."""
    count = draw(st.integers(1, 10))
    held_by = draw(st.lists(st.integers(1, (1 << count) - 1), min_size=1, max_size=7))
    incidence = np.array([[pattern >> i & 1 for pattern in held_by] for i in range(count)], bool)
    sizes = draw(st.lists(st.integers(1, 4), min_size=len(held_by), max_size=len(held_by)))
    sizes = np.array(sizes)
    weights = draw(st.lists(search_weights, min_size=count, max_size=count))
    scale = draw(st.one_of(st.sampled_from([1.0, 200.0]), st.floats(0.0, 200.0)))
    log_weights = tuple(scale * math.log(w) for w in weights)
    limits = (draw(st.sampled_from([0, 3, 24])), draw(st.sampled_from([1, 5, 30, NODE_BUDGET])))
    return incidence, sizes, weights, log_weights, limits


# Here a search that counted each element once would visit other nodes.
@example((
    np.array([[1, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0],
              [0, 1, 0, 0, 0, 0]], dtype=bool),
    np.array([1, 1, 1, 2, 1, 1]),
    [0.25, 1.0, 0.25, 0.625, 0.5],
    tuple(math.log(w) for w in [0.25, 1.0, 0.25, 0.625, 0.5]),
    (0, 1),
))
@given(sized_covers())
@settings(max_examples=300, deadline=None)
def test_sized_elements_solve_as_their_copies(case):
    # An element of size k and k copies of it, each of size 1, give the same
    # result: value bytes, chosen, status, nodes and fallback.  So do the
    # greedy and the search on their own.
    incidence, sizes, weights, log_weights, (exact_limit, node_budget) = case
    copies = np.repeat(np.arange(len(sizes)), sizes)
    expanded = (incidence[:, copies], np.ones(len(copies), dtype=np.int64))
    got, want = (
        min_subcover_value(
            WeightedCoverInstance(*inst, log_weights),
            exact_limit=exact_limit,
            node_budget=node_budget,
        )
        for inst in ((incidence, sizes), expanded)
    )
    assert repr(got.log_value) == repr(want.log_value)
    assert (got.chosen, got.status, got.nodes, got.fallback) == (
        want.chosen, want.status, want.nodes, want.fallback
    )
    greedy = _greedy_cover(incidence, sizes, [math.log(w) for w in weights])
    assert greedy == _greedy_cover(*expanded, [math.log(w) for w in weights])
    assert _branch_and_bound_cover(incidence, sizes, weights, greedy, NODE_BUDGET) == (
        _branch_and_bound_cover(*expanded, weights, greedy, NODE_BUDGET)
    )


def _counting_peel(universe, members):
    """Forced-member peel by per-element holder counts: an element held by
    exactly one active member forces that member.  The members chosen and
    the elements left uncovered."""
    chosen, remaining = [], universe
    active = [i for i, m in enumerate(members) if m & universe]
    while remaining:
        counts, only = {}, {}
        for i in active:
            for b in range(remaining.bit_length()):
                if (members[i] & remaining) >> b & 1:
                    counts[b] = counts.get(b, 0) + 1
                    only[b] = i
        forced = sorted({only[b] for b, c in counts.items() if c == 1})
        if not forced:
            break
        for i in forced:
            chosen.append(i)
            remaining &= ~members[i]
        active = [i for i in active if members[i] & remaining]
    return sorted(chosen), remaining


@st.composite
def sparse_covers(draw):
    """Instances where most elements have one holder, so peels often close."""
    k = draw(st.integers(1, 8))
    holders = draw(
        st.lists(st.sets(st.integers(0, k - 1), min_size=1, max_size=2), min_size=1, max_size=16)
    )
    members = [sum(1 << b for b, held in enumerate(holders) if i in held) for i in range(k)]
    weights = draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k))
    return (1 << len(holders)) - 1, members, weights


@given(sparse_covers())
@settings(max_examples=300, deadline=None)
def test_forced_peel_matches_a_counting_peel(case):
    universe, members, weights = case
    res = min_subcover_value(cover_instance(universe, tuple(members), tuple(weights)))
    peeled, left = _counting_peel(universe, members)
    assert (res.nodes == 0) == (left == 0)
    if left == 0:
        assert res.chosen == tuple(peeled)
        assert res.status == STATUS_EXACT


# The per-bit holder walk the dual-ascent bound used to take every element
# of the universe, repeated holder lists included; kept as its reference.


def _reference_dual_ascent_bound(universe, members, weights):
    holders = {}
    u = universe
    while u:
        low = u & -u
        b = low.bit_length() - 1
        holders[b] = [i for i, m in enumerate(members) if m >> b & 1]
        u ^= low
    residual = list(weights)
    ys = []
    for held in sorted(holders.values(), key=len):
        y = min(residual[i] for i in held)
        for i in held:
            residual[i] -= y
        ys.append(y)
    return math.fsum(ys)


def holder_cover(held_by, log_weights):
    """Element e held by the members whose bits are set in held_by[e]: the
    universe of every element, the members, their log-weights lw and the
    weights exp(lw - max lw) that the bound takes."""
    members = [
        sum(1 << e for e, pattern in enumerate(held_by) if pattern >> i & 1)
        for i in range(len(log_weights))
    ]
    top = max(log_weights)
    return (1 << len(held_by)) - 1, members, log_weights, [math.exp(w - top) for w in log_weights]


@st.composite
def repeated_holder_covers(draw):
    """Up to 40 elements held through at most 8 distinct holder lists, so
    most elements repeat one; members may reach outside the universe, and
    the log-weights spread over up to [-2000, 2000]."""
    count = draw(st.integers(1, 10))
    patterns = draw(st.lists(st.integers(1, (1 << count) - 1), min_size=1, max_size=8))
    held_by = draw(st.lists(st.sampled_from(patterns), min_size=1, max_size=40))
    scale = draw(st.one_of(st.sampled_from([1.0, 2000.0]), st.floats(0.0, 2000.0)))
    spread = draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count))
    _, members, log_weights, weights = holder_cover(held_by, [scale * u for u in spread])
    universe = draw(st.integers(1, (1 << len(held_by)) - 1))
    return universe, members, log_weights, weights


# Holder lists taken in the order of their packed bytes instead of their
# first elements give a bound of 0.396 here, not 0.247.
@example(holder_cover([29, 29, 29, 29, 7, 42, 9, 9, 42, 53], [-0.7, 0.0, -0.7, -1.2, 0.7, 0.7]))
@given(repeated_holder_covers())
@settings(max_examples=300, deadline=None)
def test_dual_ascent_over_distinct_holders_matches_the_per_bit_walk(case):
    universe, members, log_weights, weights = case
    bound = _dual_ascent_bound(incidence_of(universe, members)[0], weights)
    assert repr(bound) == repr(_reference_dual_ascent_bound(universe, members, weights))
    # The search takes its holder lists from the same incidence.
    greedy = _greedy_cover(*incidence_of(universe, members), log_weights)
    search = (universe, members, weights, greedy, 2000)
    assert cover_search(*search) == _reference_branch_and_bound_cover(*search)
