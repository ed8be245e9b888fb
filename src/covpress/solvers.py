"""Exact and greedy solvers for weighted subcover and independent-set values.

Weights enter as logarithms because the quantities being optimized are sums
of exponentiated ergodic sums, which overflow floats long before the
instances get interesting.  Each search runs on linear weights shifted so
that its optimum is at least 1 (subcover: log-domain greedy value over the
greedy ratio H(d); independent set: the largest log-weight), so whatever
underflows is below float resolution; values go back to log scale.

A subcover instance is a bool members x elements incidence with a size
per element: an element may stand for several interchangeable ones (the
states of one membership class), and counts that many times in the greedy
gains, the H(d) shift and the search bound.  Since every member holds all
or none of an element's copies, an instance and its expansion to one
element per copy give the same result, nodes included.

Exactness is never silently degraded: every result carries a status, and the
branch-and-bound falls back to the greedy answer (with the greedy status)
when an instance is over the size threshold or the node budget runs out;
the result names which (`fallback`) and counts the nodes searched.
Tie-breaking is by lowest index everywhere, so certificates are
deterministic.

Before any search, a root bound may certify the greedy answer: an LP
dual-ascent lower bound for the subcover (Balas & Ho 1980) and a greedy
clique-cover upper bound for the independent set (Ostergard 2001).  When the
bound and the greedy value agree to within `_TIE_SLACK` (a few ulps,
relative), the greedy answer is returned as exact after one node, whatever
the instance size.  So `exact` means optimal up to that tie tolerance.  The
dual ascent runs over the distinct holder columns of the incidence: an
element held by the same members as an earlier one would add 0 to the bound.

Both searches fix their branching order once, before the search, and run
on an explicit stack, so Python's recursion limit does not bound their
depth.  The cover search branches on the uncovered element covered by the
fewest members (a static degree: a member covering an uncovered element
always still meets the uncovered set), ties to the lowest element, and
tries its members by (weight, index).  The independent-set search branches
on the heaviest candidate vertex, ties to the lowest index, taking it
before leaving it out.  Relabelling elements (each repeated `size` times)
and vertices in that order lets every node find its branch as the lowest
set bit of one mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from covpress.coveralg import unique_columns

EXACT_LIMIT_FAMILIES = 24
EXACT_LIMIT_NODES = 2000
NODE_BUDGET = 200_000

# Relative slack applied before pruning so float rounding in bounds can never
# cut off a true optimum.
_PRUNE_SLACK = 1e-9

# Relative gap within which a root bound certifies the greedy value: a few
# ulps, far below `_PRUNE_SLACK`, to absorb the rounding of the bound's sums.
_TIE_SLACK = 8 * 2.0**-52

STATUS_EXACT = "exact"
STATUS_GREEDY_UPPER = "greedy_upper"
STATUS_GREEDY_LOWER = "greedy_lower"

# Why a result is greedy rather than exact.
FALLBACK_OVER_EXACT_LIMIT = "over_exact_limit"
FALLBACK_NODE_BUDGET = "node_budget"


@dataclass(frozen=True)
class SolveResult:
    """A value in log scale, the chosen indices and how they were found.

    `nodes` counts branch-and-bound nodes visited (0 when nothing was
    searched; 1 when the root bound certified the greedy answer;
    `node_budget + 1` when the budget ran out), and `fallback` says why a
    greedy status was reported, or is None.  An exact value is optimal up
    to the tie tolerance `_TIE_SLACK` of a few ulps.
    """

    log_value: float
    chosen: tuple[int, ...]
    status: str
    nodes: int = 0
    fallback: str | None = None

    @property
    def is_exact(self) -> bool:
        return self.status == STATUS_EXACT


@dataclass(frozen=True, eq=False)
class WeightedCoverInstance:
    """Minimize the total weight of a subfamily that covers every element.

    `incidence` is the bool members x elements matrix of which member holds
    which element, and element e stands for `sizes[e]` interchangeable
    elements (the states of one membership class): it counts that many
    times in the greedy gains and in the search bound.
    """

    incidence: np.ndarray
    sizes: np.ndarray
    log_weights: tuple[float, ...]

    def __post_init__(self):
        if self.incidence.shape != (len(self.log_weights), len(self.sizes)):
            raise ValueError("one weight per member and one size per element required")
        if any(not math.isfinite(w) for w in self.log_weights):
            raise ValueError("log-weights must be finite")
        if not self.incidence.any(axis=0).all():
            raise ValueError("members do not cover every element")


def log_sum_exp(values: Sequence[float] | np.ndarray) -> float:
    """log(sum(exp(v))), shifted by the largest value; `fsum` is exactly
    rounded, so the result does not depend on the order of `values`.  The
    exponentials are libm's `math.exp`, whose bytes the CSVs pin."""
    vals = np.asarray(values, dtype=np.float64)
    shift = float(vals.max()) if len(vals) else -math.inf
    if shift == -math.inf:
        return -math.inf
    return shift + math.log(math.fsum(map(math.exp, (vals - shift).tolist())))


def _greedy_cover(
    incidence: np.ndarray, sizes: np.ndarray, log_weights: Sequence[float]
) -> list[int]:
    """Classic ratio greedy in the log domain: take the member of least
    log-weight minus log gain, the gain being the total size of the
    uncovered elements it holds, until every element is covered; ties go
    to the lowest member index."""
    log_weights = np.asarray(log_weights, dtype=np.float64)
    remaining = np.ones(len(sizes), dtype=bool)
    gains = incidence @ sizes
    chosen: list[int] = []
    while remaining.any():
        useful = np.flatnonzero(gains)
        if not len(useful):
            raise ValueError("members do not cover every element")
        distinct, which = np.unique(gains[useful], return_inverse=True)
        logs = np.array([math.log(g) for g in distinct.tolist()])
        best = int(useful[np.argmin(log_weights[useful] - logs[which])])
        chosen.append(best)
        covered = remaining & incidence[best]
        remaining &= ~covered
        gains = gains - incidence[:, covered] @ sizes[covered]
    return chosen


def min_subcover_value(
    inst: WeightedCoverInstance,
    exact_limit: int = EXACT_LIMIT_FAMILIES,
    node_budget: int = NODE_BUDGET,
) -> SolveResult:
    """Minimal total weight of a covering subfamily.

    Members forced by uniquely covered elements are peeled off first; this
    solves partition-shaped instances of any size exactly.  What remains is
    exact when the dual-ascent bound certifies the greedy cover, else solved
    by branch and bound when small enough, else greedily (the status says
    which).
    """
    incidence, sizes = inst.incidence, inst.sizes
    chosen: list[int] = []
    remaining = np.ones(len(sizes), dtype=bool)
    active = np.flatnonzero(incidence.any(axis=1))

    # Peel forced members: an element held by exactly one active member
    # pins that member into every subcover.
    while remaining.any():
        held = incidence[np.ix_(active, remaining)]
        forced = active[held[:, held.sum(axis=0) == 1].any(axis=1)]
        if not len(forced):
            break
        # Each forced member alone holds one of its elements, so none of them
        # is covered by the others.
        chosen.extend(forced.tolist())
        remaining &= ~incidence[forced].any(axis=0)
        active = active[incidence[np.ix_(active, remaining)].any(axis=1)]

    status = STATUS_EXACT
    nodes = 0
    fallback = None
    if remaining.any():
        held, sizes = incidence[np.ix_(active, remaining)], sizes[remaining]
        log_weights = np.array(inst.log_weights)[active]
        greedy = _greedy_cover(held, sizes, log_weights)
        total = log_sum_exp(log_weights[greedy])
        # Greedy is within H(d) of the optimum (Chvatal 1979), so this shift puts
        # the optimum at >= 1, and no optimal subcover holds a member heavier
        # than the greedy total.
        d = int((held @ sizes).max())
        shift = total - math.log(math.fsum(1.0 / k for k in range(1, d + 1)))
        keep = np.flatnonzero(log_weights <= total)
        held, active = held[keep], active[keep]
        weights = [math.exp(w - shift) for w in log_weights[keep].tolist()]
        greedy = np.searchsorted(keep, greedy).tolist()
        cover = greedy
        if _ties(math.fsum(weights[k] for k in greedy), _dual_ascent_bound(held, weights)):
            nodes = 1
        elif len(active) > exact_limit:
            fallback = FALLBACK_OVER_EXACT_LIMIT
        else:
            picked, nodes = _branch_and_bound_cover(held, sizes, weights, greedy, node_budget)
            if picked is None:
                fallback = FALLBACK_NODE_BUDGET
            else:
                cover = picked
        chosen.extend(active[cover].tolist())
        if fallback is not None:
            status = STATUS_GREEDY_UPPER

    chosen = sorted(set(chosen))
    return SolveResult(
        log_sum_exp([inst.log_weights[i] for i in chosen]), tuple(chosen), status, nodes, fallback
    )


def _ties(value: float, bound: float) -> bool:
    """True when a greedy value and a bound on the optimum agree to within
    the relative tie tolerance, which certifies the greedy value."""
    return abs(value - bound) <= _TIE_SLACK * max(value, bound)


def _dual_ascent_bound(incidence: np.ndarray, weights: Sequence[float]) -> float:
    """A lower bound on the minimum cover weight from a feasible LP dual.

    Elements are taken by increasing degree, ties to the lowest element;
    each gets y_e, the least residual weight among the members holding it,
    which is then subtracted from each of them.  No member's residual goes
    negative, so the y_e add up to at most the weight of any cover.  An
    element held by the same members as an earlier one finds one of them at
    residual 0 and gets y_e = 0, so only the first element of each distinct
    holder list is taken, and the sum is the same float.  Element sizes
    play no part: a repeated element is a repeated holder list.
    """
    residual = list(weights)
    ys = []
    for held in _distinct_holders(incidence[:, _by_degree(incidence)])[0]:
        y = min(residual[i] for i in held)
        for i in held:
            residual[i] -= y
        ys.append(y)
    return math.fsum(ys)


def _by_degree(incidence: np.ndarray) -> np.ndarray:
    """The columns of an incidence in (degree, element) order."""
    return np.argsort(incidence.sum(axis=0), kind="stable")


def _distinct_holders(incidence: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """The distinct columns of an incidence as lists of the members holding
    them (increasing indices), numbered in the order they first come, and
    every column's number."""
    first, rank = unique_columns(incidence)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return [np.flatnonzero(incidence[:, k]).tolist() for k in first[order]], number[rank]


def _set_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _branch_and_bound_cover(
    incidence: np.ndarray,
    sizes: np.ndarray,
    weights: list[float],
    greedy: list[int],
    node_budget: int,
) -> tuple[list[int] | None, int]:
    """Exact minimum-weight cover, starting from the greedy cover, and the
    number of nodes visited; the cover is None if the node budget runs out.

    Elements are relabelled by (degree, index), and element e becomes
    sizes[e] consecutive bits of each member's mask, so the uncovered element
    with the fewest covering members is the lowest set bit of the uncovered
    mask, and bit counts weigh every element by its size.
    """
    order = _by_degree(incidence)
    incidence, sizes = incidence[:, order], sizes[order]
    holders, held_by = _distinct_holders(incidence)
    options = [sorted(held, key=lambda i: (weights[i], i)) for held in holders]
    held_by = np.repeat(held_by, sizes).tolist()
    rebased = [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in np.repeat(incidence, sizes, axis=1)
    ]

    best_value = sum(weights[i] for i in greedy)
    best_set = list(greedy)
    nodes = 0
    # Frames are (remaining, cost, picked, live), `picked` a linked list of
    # (member, rest) cells and `live` the (mask, weight) pairs that still met
    # the parent's uncovered set.  Children are pushed in reverse option
    # order, so frames pop in the order a recursive search visits its nodes.
    stack = [((1 << len(held_by)) - 1, 0.0, None, list(zip(rebased, weights)))]
    while stack:
        remaining, cost, picked, live = stack.pop()
        nodes += 1
        if nodes > node_budget:
            return None, nodes
        if not remaining:
            if cost < best_value:
                best_value = cost
                best_set = []
                while picked is not None:
                    i, picked = picked
                    best_set.append(i)
            continue
        # Lower bound: every uncovered element at the best weight-per-element.
        # A member that misses `remaining` misses it in every subtree too, so
        # only the (mask, weight) pairs still meeting it are passed down.
        best_ratio = math.inf
        still_live = []
        for term in live:
            mask, weight = term
            gain = (mask & remaining).bit_count()
            if gain:
                still_live.append(term)
                if weight / gain < best_ratio:
                    best_ratio = weight / gain
        bound = remaining.bit_count() * best_ratio * (1.0 - _PRUNE_SLACK)
        if cost + bound > best_value * (1.0 + _PRUNE_SLACK):
            continue
        for i in reversed(options[held_by[(remaining & -remaining).bit_length() - 1]]):
            stack.append((remaining & ~rebased[i], cost + weights[i], (i, picked), still_live))
    return sorted(best_set), nodes


def max_weight_independent_set(
    adjacency: Sequence[int],
    log_weights: Sequence[float],
    exact_limit: int = EXACT_LIMIT_NODES,
    node_budget: int = NODE_BUDGET,
) -> SolveResult:
    """Maximum total weight over vertex sets with no adjacency-mask edge inside.

    The adjacency masks must be symmetric and loop-free; vertices of an
    edgeless graph are all taken without any search.  Otherwise the greedy
    set is exact when the clique-cover bound certifies it, else the search
    runs when the graph is small enough (the status says which).
    """
    count = len(adjacency)
    if count != len(log_weights):
        raise ValueError("one weight per vertex required")
    if any(not math.isfinite(w) for w in log_weights):
        raise ValueError("log-weights must be finite")
    shift = max(log_weights, default=0.0)
    weights = [math.exp(w - shift) for w in log_weights]

    if all(a == 0 for a in adjacency):
        chosen = tuple(range(count))
        return SolveResult(log_sum_exp(log_weights), chosen, STATUS_EXACT)

    greedy = _greedy_mwis(adjacency, weights)
    picked: list[int] | None = None
    nodes = 0
    fallback = None
    if _ties(math.fsum(weights[i] for i in greedy), _clique_cover_bound(adjacency, weights)):
        picked, nodes = greedy, 1
    elif count > exact_limit:
        fallback = FALLBACK_OVER_EXACT_LIMIT
    else:
        picked, nodes = _branch_and_bound_mwis(adjacency, weights, greedy, node_budget)
        if picked is None:
            fallback = FALLBACK_NODE_BUDGET
    if picked is None:
        picked = greedy
    status = STATUS_EXACT if fallback is None else STATUS_GREEDY_LOWER
    picked = sorted(picked)
    return SolveResult(
        log_sum_exp([log_weights[i] for i in picked]), tuple(picked), status, nodes, fallback
    )


def _greedy_mwis(adjacency: Sequence[int], weights: Sequence[float]) -> list[int]:
    alive = (1 << len(adjacency)) - 1
    chosen: list[int] = []
    order = sorted(range(len(adjacency)), key=lambda i: (-weights[i], i))
    for v in order:
        if alive >> v & 1:
            chosen.append(v)
            alive &= ~(adjacency[v] | (1 << v))
    return chosen


def _clique_cover_bound(adjacency: Sequence[int], weights: Sequence[float]) -> float:
    """An upper bound on the maximum independent-set weight from a clique cover.

    An independent set holds at most one vertex of each clique, so the
    heaviest weights of the cliques add up to a bound.  Each clique starts at
    the heaviest uncovered vertex, ties to the lowest index, and grows among
    uncovered vertices by the candidate with the most neighbours among the
    remaining candidates, ties to the lowest index.
    """
    uncovered = (1 << len(adjacency)) - 1
    heaviest = []
    for v in sorted(range(len(adjacency)), key=lambda i: (-weights[i], i)):
        if not uncovered >> v & 1:
            continue
        heaviest.append(weights[v])
        uncovered ^= 1 << v
        candidates = adjacency[v] & uncovered
        while candidates:
            best, best_degree = -1, -1
            for u in _set_bits(candidates):
                degree = (adjacency[u] & candidates).bit_count()
                if degree > best_degree:
                    best, best_degree = u, degree
            uncovered ^= 1 << best
            candidates &= adjacency[best]
    return math.fsum(heaviest)


def _branch_and_bound_mwis(
    adjacency: Sequence[int],
    weights: Sequence[float],
    greedy: list[int],
    node_budget: int,
) -> tuple[list[int] | None, int]:
    """Exact maximum-weight independent set, starting from the greedy set,
    and the number of nodes visited; the set is None if the budget runs out.

    Vertices are relabelled by (-weight, index), each closed neighbourhood
    (own bit included) rebased onto that order, so the branch vertex is the
    lowest candidate bit.  The pruning bound adds the candidate weights in
    that order too, so it can differ from an index-order sum in its last bits.
    """
    order = sorted(range(len(adjacency)), key=lambda i: (-weights[i], i))
    rank = [0] * len(adjacency)
    for k, v in enumerate(order):
        rank[v] = k
    closed = [sum(1 << rank[u] for u in _set_bits(adjacency[v])) | 1 << k
              for k, v in enumerate(order)]
    ranked = [weights[v] for v in order]

    best_value = sum(weights[i] for i in greedy)
    best_set = list(greedy)
    nodes = 0
    # Frames are (candidates, value, picked), `picked` a linked list of
    # (vertex, rest) cells.  The leave-out child is pushed under the take
    # child, so frames pop in the order a recursive search visits its nodes.
    stack = [((1 << len(adjacency)) - 1, 0.0, None)]
    while stack:
        candidates, value, picked = stack.pop()
        nodes += 1
        if nodes > node_budget:
            return None, nodes
        if not candidates:
            if value > best_value:
                best_value = value
                best_set = []
                while picked is not None:
                    v, picked = picked
                    best_set.append(order[v])
            continue
        bound = value
        c = candidates
        while c:
            low = c & -c
            bound += ranked[low.bit_length() - 1]
            c ^= low
        if bound * (1.0 + _PRUNE_SLACK) < best_value:
            continue
        low = candidates & -candidates
        v = low.bit_length() - 1
        stack.append((candidates ^ low, value, picked))
        stack.append((candidates & ~closed[v], value + ranked[v], (v, picked)))
    return sorted(best_set), nodes
