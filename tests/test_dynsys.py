"""Finite systems, lattice powers, ergodic sums and the model constructors."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covpress import lattice
from covpress.dynsys import (
    FiniteSystem,
    Potential,
    birkhoff_doubling,
    birkhoff_field,
    cycle_structure,
    iter_box_pullbacks,
    make_circle_doubling,
    make_disk_system,
    make_full_shift_torus,
    power_map,
)
from oracles import brute_decompose, power_system


def doubling_tripling(m):
    """Two commuting maps on residues mod m, for 2-d tests."""
    states = np.arange(m, dtype=np.int64)
    return FiniteSystem(generators=((2 * states) % m, (3 * states) % m))


def test_noncommuting_generators_rejected():
    g1 = np.array([1, 0, 2])
    g2 = np.array([0, 2, 1])
    with pytest.raises(ValueError, match="commute"):
        FiniteSystem(generators=(g1, g2))


def test_apply_power_identity_and_doubling():
    sys = make_circle_doubling(7)
    for x in range(7):
        assert power_map(sys, (0,))[x] == x
    assert power_map(sys, (1,))[3] == 6
    assert power_map(sys, (2,))[3] == 5


def test_apply_power_dimension_checked():
    sys = make_circle_doubling(7)
    with pytest.raises(ValueError):
        power_map(sys, (1, 1))


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 100))
@settings(max_examples=80, deadline=None)
def test_semigroup_law_1d(k, m, x):
    sys = make_circle_doubling(101)
    x %= 101
    via_sum = power_map(sys, (k + m,))[x]
    via_composition = power_map(sys, (k,))[power_map(sys, (m,))[x]]
    assert via_sum == via_composition


@given(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(0, 100),
)
@settings(max_examples=60, deadline=None)
def test_semigroup_law_2d(k, m, x):
    sys = doubling_tripling(101)
    x %= 101
    ksum = tuple(a + b for a, b in zip(k, m))
    assert power_map(sys, ksum)[x] == power_map(sys, k)[power_map(sys, m)[x]]


def shell_key(k):
    """Shell order: by max(k), then the last axis reaching it, then lex."""
    top = max(k)
    return top, max(a for a, c in enumerate(k) if c == top), k


def test_iter_box_pullbacks_match_power_map():
    # Every point once, in shell order, with its power map (the identity
    # pulled back); 2-d boxes and clipped 3-d ones, whose shells lose slabs
    # once an axis is used up.
    # Labels and values pulled back along the same walk are the bytes of
    # gathering them through the power map.
    states = np.arange(37, dtype=np.int64)
    gens = ((2 * states) % 37, (3 * states) % 37, (5 * states) % 37)
    labels = states * 7 % 5
    values = np.sin(states * 1.3)
    for n in [(3, 4), (2, 4), (4, 2), (3, 1, 2), (2, 3, 3)]:
        sys = FiniteSystem(generators=gens[: len(n)])
        walked = []
        for k, (arr,) in iter_box_pullbacks(sys, n, (states,)):
            assert np.array_equal(arr, power_map(sys, k))
            walked.append(k)
        assert walked == sorted(lattice.iter_box(n), key=shell_key)
        pulled = list(iter_box_pullbacks(sys, n, (labels, values)))
        assert [k for k, _ in pulled] == walked
        for k, (label_k, value_k) in pulled:
            tk = power_map(sys, k)
            assert label_k.dtype == labels.dtype and value_k.dtype == values.dtype
            assert label_k.tobytes() == labels[tk].tobytes()
            assert value_k.tobytes() == values[tk].tobytes()


def test_birkhoff_constant_and_single_term():
    sys = make_circle_doubling(11)
    f = Potential.constant(2.5, 11)
    assert birkhoff_field(sys, f, (4,))[3] == pytest.approx(2.5 * 4)
    g = Potential(np.linspace(-1, 1, 11))
    assert birkhoff_field(sys, g, (1,))[6] == pytest.approx(float(g.values[6]))


def test_birkhoff_even_indicator_orbit():
    # Orbit of 1 under doubling mod 7 over a depth-3 box is 1 -> 2 -> 4;
    # two of those states are even.
    sys = make_circle_doubling(7)
    f = Potential.indicator([0, 2, 4, 6], 7)
    assert birkhoff_field(sys, f, (3,))[1] == pytest.approx(2.0)


def test_indicator_refuses_states_outside_the_range():
    # Unchecked, numpy would wrap -1 around to the last state and raise a
    # bare IndexError for 3.  A repeated state is marked once.
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"state {bad} is outside 0..2"):
            Potential.indicator([0, bad], 3)
    assert Potential.indicator([2, 2], 3, height=0.5).values.tolist() == [0.0, 0.0, 0.5]
    assert Potential.indicator([], 3).values.tolist() == [0.0, 0.0, 0.0]


def test_marked_states_outside_the_range_are_named():
    with pytest.raises(ValueError, match="state 4 is outside 0..3"):
        FiniteSystem(generators=(np.arange(4),), marked=frozenset({1, 4}))


def test_birkhoff_additivity_over_tiling():
    # Splitting a box into tiles plus residue splits the ergodic sum.
    sys = doubling_tripling(53)
    rng = np.random.default_rng(7)
    f = Potential(rng.normal(size=53))
    n, q, k = (6, 5), (2, 2), (1, 0)
    corners, residue = brute_decompose(n, q, k)
    for x in [0, 17, 40]:
        whole = birkhoff_field(sys, f, n)[x]
        tiles = sum(
            birkhoff_field(sys, f, q)[power_map(sys, p)[x]] for p in sorted(corners)
        )
        rest = sum(float(f.values[power_map(sys, p)[x]]) for p in sorted(residue))
        assert whole == pytest.approx(tiles + rest, abs=1e-9)


def test_birkhoff_power_identity():
    # Summing the depth-n sums of the power system reproduces the depth-nm sum.
    sys = make_circle_doubling(31)
    rng = np.random.default_rng(3)
    f = Potential(rng.normal(size=31))
    n, m = (3,), (4,)
    f_n = Potential(birkhoff_field(sys, f, n))
    powered = power_system(sys, n)
    lhs = birkhoff_field(powered, f_n, m)
    rhs = birkhoff_field(sys, f, (n[0] * m[0],))
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_birkhoff_doubling_matches_direct():
    sys = make_circle_doubling(19)
    rng = np.random.default_rng(11)
    f = Potential(rng.normal(size=19))
    tk, fk = birkhoff_doubling(sys, f, 4)
    assert np.array_equal(tk, power_map(sys, (16,)))
    assert np.allclose(fk, birkhoff_field(sys, f, (16,)), atol=1e-9)


def test_birkhoff_doubling_refuses_a_potential_of_another_length_or_a_negative_exponent():
    sys = make_circle_doubling(5)
    for values in ([1.0], np.zeros(7)):
        with pytest.raises(ValueError, match=f"the potential has {len(values)} values, the system 5 states"):
            birkhoff_doubling(sys, Potential(values), 3)
    with pytest.raises(ValueError, match="non-negative, got -1"):
        birkhoff_doubling(sys, Potential.constant(1.0, 5), -1)
    tk, fk = birkhoff_doubling(sys, Potential.constant(1.0, 5), 0)  # depth 2**0
    assert np.array_equal(tk, sys.generators[0]) and fk.tolist() == [1.0] * 5


def test_make_circle_doubling_small():
    sys = make_circle_doubling(3)
    assert sys.generators[0].tolist() == [0, 2, 1]
    assert make_circle_doubling(7).marked == frozenset()
    with pytest.raises(ValueError):
        make_circle_doubling(8)


def test_circle_doubling_is_bijection():
    for m in (3, 7, 101, 1001):
        gen = make_circle_doubling(m).generators[0]
        assert len(set(gen.tolist())) == m


def test_disk_center_fixed_and_marked_ring():
    sys = make_disk_system(8, 16)
    assert sys.state_count == 8 * 16 + 1
    assert int(sys.generators[0][0]) == 0
    assert sys.marked == frozenset(1 + 7 * 16 + j for j in range(16))


def test_disk_ring_never_increases():
    # The radial factor r(r+1)/2 is below r on (0,1), so cells move inward.
    rings, sectors = 16, 32
    sys = make_disk_system(rings, sectors)
    for i in range(rings):
        for j in range(sectors):
            s = 1 + i * sectors + j
            t = int(sys.generators[0][s])
            assert t != 0  # only the center maps to the center
            assert (t - 1) // sectors <= i


def test_disk_sector_doubles():
    rings, sectors = 6, 12
    sys = make_disk_system(rings, sectors)
    for i in range(rings):
        for j in range(sectors):
            s = 1 + i * sectors + j
            t = int(sys.generators[0][s])
            assert (t - 1) % sectors in {(2 * j) % sectors, (2 * j + 1) % sectors}


def disk_system_by_loop(rings, sectors):
    """Reference: the disk grid built cell by cell with libm's cos and sin."""
    m = rings * sectors + 1
    gen = np.zeros(m, dtype=np.int64)
    geometry = np.zeros((m, 2))
    two_pi = 2.0 * np.pi
    for i in range(rings):
        r_c = (i + 0.5) / rings
        for j in range(sectors):
            theta_c = two_pi * (j + 0.5) / sectors
            s = 1 + i * sectors + j
            geometry[s] = (r_c * math.cos(theta_c), r_c * math.sin(theta_c))
            r_new = r_c * (r_c + 1.0) / 2.0
            theta_new = (2.0 * theta_c) % two_pi
            ring_new = math.ceil(r_new * rings) - 1
            if ring_new < 0:
                continue
            sector_new = int(theta_new * sectors / two_pi) % sectors
            gen[s] = 1 + min(ring_new, rings - 1) * sectors + sector_new
    marked = frozenset(1 + (rings - 1) * sectors + j for j in range(sectors))
    return gen, geometry, marked


@given(st.integers(2, 70), st.integers(2, 70))
@example(64, 256)  # the leakage default
@settings(max_examples=60, deadline=None)
def test_disk_system_matches_the_cell_loop(rings, sectors):
    sys = make_disk_system(rings, sectors)
    gen, geometry, marked = disk_system_by_loop(rings, sectors)
    assert sys.generators[0].dtype == gen.dtype
    assert np.array_equal(sys.generators[0], gen)
    assert sys.geometry.tobytes() == geometry.tobytes()
    assert sys.marked == marked


def test_power_system_identity_and_square():
    sys = make_circle_doubling(7)
    same = power_system(sys, (1,))
    assert np.array_equal(same.generators[0], sys.generators[0])
    sq = power_system(sys, (2,))
    assert sq.generators[0].tolist() == [(4 * x) % 7 for x in range(7)]
    assert sq.marked == sys.marked


def test_power_system_commutes_2d():
    sys = doubling_tripling(35)
    power_system(sys, (2, 3))  # construction itself asserts commutation


def test_cycle_structure_identity_map():
    sys = FiniteSystem(generators=(np.array([0, 1, 2]),))
    f = Potential(np.array([1.0, 2.0, 3.0]))
    cycles = cycle_structure(sys, f)
    assert [(c, pytest.approx(v)) for c, v in cycles] == [
        ((0,), pytest.approx(1.0)),
        ((1,), pytest.approx(2.0)),
        ((2,), pytest.approx(3.0)),
    ]


def test_cycle_structure_refuses_a_potential_of_another_length():
    sys = make_circle_doubling(5)
    for values in (np.zeros(7), [1.0, 2.0]):
        with pytest.raises(ValueError, match=f"the potential has {len(values)} values, the system 5 states"):
            cycle_structure(sys, Potential(values))


def test_cycle_structure_zero_potential():
    sys = make_circle_doubling(7)
    for _, mean in cycle_structure(sys, Potential.constant(0.0, 7)):
        assert mean == 0.0


def test_cycle_structure_three_cycle_with_tail():
    gen = np.array([1, 2, 0, 0])
    sys = FiniteSystem(generators=(gen,))
    f = Potential(np.array([0.0, 3.0, 0.0, 9.0]))
    cycles = cycle_structure(sys, f)
    assert len(cycles) == 1
    states, mean = cycles[0]
    assert set(states) == {0, 1, 2}
    assert mean == pytest.approx(1.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cycle_structure_covers_all_eventual_states(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 13))
    gen = rng.integers(0, m, size=m).astype(np.int64)
    sys = FiniteSystem(generators=(gen,))
    cycles = cycle_structure(sys, Potential.constant(0.0, m))
    on_cycles = set()
    for states, _ in cycles:
        on_cycles.update(states)
        for s in states:
            assert int(gen[s]) in states  # cycles are invariant
    # Every orbit eventually lands on an enumerated cycle.
    for x in range(m):
        for _ in range(2 * m):
            x = int(gen[x])
        assert x in on_cycles


def test_potential_rejects_nonfinite():
    with pytest.raises(ValueError):
        Potential(np.array([1.0, np.inf]))


def bit_layout_torus(p, q):
    """The two generators of the two-symbol p x q torus in the bit layout the
    tests first built it in: bit q*i + j holds the symbol at (i, j)."""
    x = np.arange(1 << (p * q), dtype=np.int64)

    def shifted(di, dj):
        out = np.zeros_like(x)
        for i in range(p):
            for j in range(q):
                out |= ((x >> (((i + di) % p) * q + (j + dj) % q)) & 1) << (i * q + j)
        return out

    return shifted(1, 0), shifted(0, 1)


def test_full_shift_torus_keeps_the_two_symbol_layouts():
    for p, q in [(1, 1), (1, 3), (2, 3), (3, 2), (3, 3), (4, 4)]:
        torus = make_full_shift_torus(2, (p, q))
        assert all(np.array_equal(g, h) for g, h in zip(torus.generators, bit_layout_torus(p, q)))
    # On 4 x 4 the row shift rotates the 16-bit word by one nibble, and the
    # column shift rotates each nibble by one bit.
    x = np.arange(1 << 16, dtype=np.int64)
    rows, cols = make_full_shift_torus(2, (4, 4)).generators
    assert np.array_equal(rows, (x >> 4) | ((x & 0xF) << 12))
    assert np.array_equal(cols, ((x >> 1) & 0x7777) | ((x & 0x1111) << 3))


def shifted_configuration(symbols, period, axis, x):
    """x moved by the unit step along `axis`, digit by digit: the symbol at
    site s of the image is the symbol of x at s + e_axis."""
    sites = list(itertools.product(*(range(c) for c in period)))  # row-major
    index = {s: i for i, s in enumerate(sites)}
    digit = [x // symbols**i % symbols for i in range(len(sites))]
    step = [tuple((c + (b == axis)) % period[b] for b, c in enumerate(s)) for s in sites]
    return sum(digit[index[t]] * symbols ** index[s] for s, t in zip(sites, step))


@pytest.mark.parametrize(
    "symbols, period",
    [
        *[(3, (5,)), (2, (7,)), (2, (2, 2, 3)), (3, (1, 2, 2)), (1, (3,)), (1, (2, 3, 2))],
        # More sides than an ndarray has axes.
        *[(2, (1,) * 70), (2, (2,) + (1,) * 69)],
    ],
)
def test_full_shift_torus_moves_every_digit(symbols, period):
    torus = make_full_shift_torus(symbols, period)
    m = symbols ** math.prod(period)
    assert (torus.state_count, torus.dim) == (m, len(period))
    for axis, g in enumerate(torus.generators):
        assert g.tolist() == [shifted_configuration(symbols, period, axis, x) for x in range(m)]
        side = tuple(c if b == axis else 0 for b, c in enumerate(period))
        assert np.array_equal(power_map(torus, side), np.arange(m))
    if period == (5,):
        # 1-d: the shift drops the lowest digit and puts it on top.
        x = np.arange(m)
        assert np.array_equal(torus.generators[0], x // 3 + x % 3 * 3**4)
    if symbols == 1:
        assert all(g.tolist() == [0] for g in torus.generators)


def test_full_shift_torus_refuses_no_symbol_and_an_empty_side():
    for symbols, period in [(0, (2, 2)), (2, (2, 0))]:
        with pytest.raises(ValueError, match="positive sides"):
            make_full_shift_torus(symbols, period)

