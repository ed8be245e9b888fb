"""Box, tiling and symmetric-difference combinatorics.

Expected values for the tiling and symmetric-difference cases are produced by
`brute_decompose` / `brute_sym_diff` below, which work straight from the set
definitions and never share code with the implementation under test.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpress.lattice import (
    BoxOverflowError,
    EmptyBoxError,
    box_cardinality,
    decompose,
    diagonal,
    enumerate_box,
    sym_diff_cardinality,
)


def brute_decompose(n, q, k):
    """Corners and residue computed by exhaustive enumeration."""
    box_n = set(itertools.product(*(range(c) for c in n)))
    # Points congruent to k mod q, scanning everything below n.
    corners = set()
    for p in box_n:
        if any((pc - kc) % qc != 0 or pc < kc for pc, kc, qc in zip(p, k, q)):
            continue
        tile = {
            tuple(pc + tc for pc, tc in zip(p, t))
            for t in itertools.product(*(range(c) for c in q))
        }
        if tile <= box_n:
            corners.add(p)
    covered = set()
    for p in corners:
        for t in itertools.product(*(range(c) for c in q)):
            covered.add(tuple(pc + tc for pc, tc in zip(p, t)))
    return corners, box_n - covered


def brute_sym_diff(n, m):
    box_n = set(itertools.product(*(range(c) for c in n)))
    shifted = {tuple(pc + mc for pc, mc in zip(p, m)) for p in box_n}
    return len(box_n ^ shifted)


def test_enumerate_box_1d():
    assert enumerate_box((2,)) == [(0,), (1,)]


def test_enumerate_box_2d_lexicographic():
    pts = enumerate_box((2, 3))
    assert len(pts) == 6
    assert pts == sorted(pts)
    assert pts[0] == (0, 0) and pts[-1] == (1, 2)


def test_box_cardinality_product():
    assert box_cardinality((3, 4, 5)) == 60


def test_empty_box_rejected():
    with pytest.raises(EmptyBoxError):
        enumerate_box((3, 0))


def test_cardinality_overflow_checked():
    with pytest.raises(BoxOverflowError):
        box_cardinality((2**40, 2**40))


def test_decompose_1d_offset_zero():
    dec = decompose((10,), (3,), (0,))
    assert dec.corners == {(0,), (3,), (6,)}
    assert dec.residue == {(9,)}


def test_decompose_1d_offset_one():
    dec = decompose((10,), (3,), (1,))
    assert dec.corners == {(1,), (4,), (7,)}
    assert dec.residue == {(0,)}


def test_decompose_unit_tiles():
    dec = decompose((4, 3), (1, 1), (0, 0))
    assert dec.residue == frozenset()
    assert dec.corners == frozenset(enumerate_box((4, 3)))


def test_decompose_rejects_anchor_outside_tile():
    with pytest.raises(ValueError):
        decompose((10,), (3,), (3,))


@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.tuples(
            st.lists(st.integers(1, 9), min_size=dim, max_size=dim),
            st.lists(st.integers(1, 4), min_size=dim, max_size=dim),
        )
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_decompose_matches_enumeration(nq, rng):
    n, q = tuple(nq[0]), tuple(nq[1])
    k = tuple(rng.randrange(c) for c in q)
    dec = decompose(n, q, k)
    corners, residue = brute_decompose(n, q, k)
    assert dec.corners == corners
    assert dec.residue == residue
    # Tiles plus residue partition the box exactly.
    assert dec.covered_count() == box_cardinality(n)
    assert dec.residue_bound_holds()


@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.tuples(
            st.lists(st.integers(1, 8), min_size=dim, max_size=dim),
            st.lists(st.integers(0, 9), min_size=dim, max_size=dim),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_sym_diff_matches_enumeration(nm):
    n, m = tuple(nm[0]), tuple(nm[1])
    got = sym_diff_cardinality(n, m)
    assert got == brute_sym_diff(n, m)
    # Cleared-denominator form of the faces bound.
    assert got * min(n) <= 2 * len(n) * max(m) * box_cardinality(n)


def test_sym_diff_pinned_cases():
    assert sym_diff_cardinality((10,), (1,)) == 2
    assert sym_diff_cardinality((10,), (0,)) == 0
    assert sym_diff_cardinality((4, 4), (1, 0)) == 8


def test_residue_fraction_vanishes_on_diagonal():
    # For fixed q, k the residue share is bounded by 2N*max(q)/t; checked on
    # the whole diagonal up to 64 in low dimension, sampled in dimension 3.
    cases = [
        (1, (3,), (1,), 1),
        (2, (2, 3), (1, 2), 1),
        (3, (2, 2, 2), (0, 1, 1), 7),
    ]
    for dim, q, k, step in cases:
        for t in range(max(q), 65, step):
            n = diagonal(t, dim)
            dec = decompose(n, q, k)
            lam = box_cardinality(n)
            assert len(dec.residue) * t <= 2 * dim * max(q) * lam
