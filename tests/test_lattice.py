"""Box, tiling and symmetric-difference combinatorics.

Expected values for the tiling and symmetric-difference cases are produced by
`oracles.brute_decompose` and `brute_sym_diff` below, which work straight from
the set definitions and never share code with the implementation under test.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpress.lattice import (
    BoxOverflowError,
    EmptyBoxError,
    as_point,
    box_cardinality,
    decompose,
    diagonal,
    iter_box,
    sym_diff_cardinality,
)
from oracles import brute_decompose


def brute_sym_diff(n, m):
    box_n = set(itertools.product(*(range(c) for c in n)))
    shifted = {tuple(pc + mc for pc, mc in zip(p, m)) for p in box_n}
    return len(box_n ^ shifted)


def test_enumerate_box_1d():
    assert list(iter_box((2,))) == [(0,), (1,)]


def test_enumerate_box_2d_lexicographic():
    pts = list(iter_box((2, 3)))
    assert len(pts) == 6
    assert pts == sorted(pts)
    assert pts[0] == (0, 0) and pts[-1] == (1, 2)


def test_box_cardinality_product():
    assert box_cardinality((3, 4, 5)) == 60


def test_empty_box_rejected():
    with pytest.raises(EmptyBoxError):
        list(iter_box((3, 0)))


def test_as_point_takes_integers_only():
    # Coordinates are read as `operator.index` reads them: numpy ints pass,
    # and a float is refused rather than truncated, even an integral one.
    assert as_point([np.int64(2), 3, np.uint8(0)]) == (2, 3, 0)
    assert all(type(c) is int for c in as_point([np.int32(4)]))
    for bad in ([2.7], [2.0], [1, np.float64(3.0)], ["2"]):
        with pytest.raises(TypeError, match="integer"):
            as_point(bad)
    with pytest.raises(TypeError, match="integer"):
        diagonal(2.5, 2)


def test_cardinality_overflow_checked():
    with pytest.raises(BoxOverflowError):
        box_cardinality((2**40, 2**40))


def test_decompose_1d_offset_zero():
    dec = decompose((10,), (3,), (0,))
    # Corners 0, 3, 6; residue {9}.
    assert (dec.corners, dec.residue) == (3, 1)


def test_decompose_1d_offset_one():
    dec = decompose((10,), (3,), (1,))
    # Corners 1, 4, 7; residue {0}.
    assert (dec.corners, dec.residue) == (3, 1)


def test_decompose_unit_tiles():
    dec = decompose((4, 3), (1, 1), (0, 0))
    assert (dec.corners, dec.residue) == (12, 0)


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
    assert (dec.corners, dec.residue) == (len(corners), len(residue))
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
            assert dec.residue * t <= 2 * dim * max(q) * lam
