"""The full shift on a torus through the machinery, against its closed forms:
pressure, cylinder sums, the optimizing product measure."""

import math

import numpy as np
import pytest

from covpress.config import load_config
from covpress.coveralg import SetFamily
from covpress.dynsys import Potential, make_full_shift_torus
from covpress.experiments import run_experiment
from covpress.fullshift import FullShiftSpec, exact_pressure, gibbs_optimizer
from covpress.measpressure import entropy_rate
from oracles import orbit_join, product_measure


def fullshift_rows(spec, n_max):
    """The rows and verdict of the `fullshift` run of this spec."""
    phi = ",".join(repr(v) for v in spec.site_potential)
    cfg = load_config(
        "fullshift", overrides={"symbols": spec.symbols, "dim": spec.dim, "phi": phi, "n_max": n_max}
    )
    rows, (verdict,) = run_experiment(cfg)
    return rows, verdict


def product_pressure(spec, p, side):
    """h + the integral of phi for the product measure of symbol law p on
    the full-shift torus of this side, its entropy read at the period box."""
    period = (side,) * spec.dim
    torus = make_full_shift_torus(spec.symbols, period)
    symbol = np.arange(torus.state_count) % spec.symbols
    mu = product_measure(spec.symbols, period, p)
    h = entropy_rate(mu, torus, SetFamily.from_labels(symbol), side).samples[-1]
    return h.rate + mu.integrate(Potential(np.asarray(spec.site_potential)[symbol]))


def test_exact_pressure_cases():
    assert exact_pressure(FullShiftSpec(2, 1, (0.0, 0.0))) == pytest.approx(math.log(2))
    assert exact_pressure(FullShiftSpec(1, 2, (0.4,))) == pytest.approx(0.4)
    assert exact_pressure(FullShiftSpec(2, 1, (0.0, 1.0))) == pytest.approx(
        math.log(1 + math.e)
    )


def test_cylinder_sum_counts():
    """The origin partition's join counts every window pattern, and the
    `fullshift` P rows are the cylinder sums."""
    # Within the period every window pattern is one class of the origin
    # partition's join, so a box of lam sites has k**lam of them.
    cases = [(2, (3,), (3,)), (2, (2, 2), (2, 2)), (3, (3, 2), (2, 2)), (2, (3, 3, 1), (2, 3, 1))]
    for k, period, n in cases:
        torus = make_full_shift_torus(k, period)
        origin = SetFamily.from_labels(np.arange(torus.state_count) % k)
        assert orbit_join(torus, origin, n).count == k ** math.prod(n)
    rows, _ = fullshift_rows(FullShiftSpec(2, 1, (0.0, 0.0)), 3)
    assert [r.raw_value for r in rows if r.mode == "P"] == pytest.approx([2.0, 4.0, 8.0])
    rows, _ = fullshift_rows(FullShiftSpec(2, 2, (0.0, 0.0)), 2)
    assert [r.raw_value for r in rows if r.mode == "P"] == pytest.approx([2.0, 16.0])
    rows, _ = fullshift_rows(FullShiftSpec(3, 1, (0.0, 1.0, -1.0)), 2)
    (val,) = [r.raw_value for r in rows if r.mode == "P" and r.n == (2,)]
    assert val == pytest.approx((1 + math.e + math.exp(-1)) ** 2, rel=1e-12)


def test_cylinder_sum_budget():
    """The torus side `fullshift_period` fits the member budget, which also
    refuses too many symbols at load time."""
    # The torus side is the largest t <= n_max whose k**(t**dim) states fit
    # the member budget of 65,536, on at most that many sites.
    for (k, dim, n_max), side in [
        ((3, 1, 20), 10), ((4, 1, 20), 8), ((2, 2, 9), 4), ((2, 3, 5), 2), ((2, 4, 5), 2),
        ((2, 5, 5), 1), ((1, 2, 300), 256), ((1, 40, 9), 1), ((65536, 1, 3), 1), ((3, 1, 4), 4),
    ]:
        phi = ",".join(["0"] * k)
        cfg = load_config("fullshift", overrides={"symbols": k, "dim": dim, "phi": phi, "n_max": n_max})
        assert cfg.fullshift_period() == side, (k, dim, n_max)
    rows, verdict = fullshift_rows(FullShiftSpec(3, 1, (0.0, 0.0, 0.0)), 12)
    assert verdict.passed
    assert max(r.n for r in rows) == (10,) and len(rows) == 4 * 10 + 1
    with pytest.raises(ValueError, match="member budget 65536"):
        load_config("fullshift", overrides={"symbols": 65537, "phi": ",".join(["0"] * 65537)})


def test_cylinder_sum_matches_closed_form():
    """Every `fullshift` row of random (K, dim, phi) is the closed-form
    pressure, and each P row is the closed-form cylinder sum."""
    rng = np.random.default_rng(5)
    for _ in range(15):
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        phi = tuple(float(v) for v in rng.uniform(-1, 1, k))
        spec = FullShiftSpec(k, dim, phi)
        rows, verdict = fullshift_rows(spec, int(rng.integers(1, 5)))
        assert verdict.passed
        closed = math.fsum(math.exp(v) for v in phi)
        for row in rows:
            assert row.solver_status == "exact"
            # The per-site log of every value is the pressure.
            assert abs(row.rate - exact_pressure(spec)) <= 1e-9
            if row.mode == "P":
                assert row.raw_value == pytest.approx(closed**row.lam, rel=1e-9)


def test_bernoulli_pressure_cases():
    """h + the integral of phi of product measures on the torus, against
    hand-computed values."""
    spec = FullShiftSpec(2, 1, (0.0, 0.0))
    assert product_pressure(spec, (0.5, 0.5), 5) == pytest.approx(math.log(2))
    assert product_pressure(spec, (1.0, 0.0), 5) == pytest.approx(0.0)
    spec2 = FullShiftSpec(2, 2, (0.0, 1.0))
    h = (1 / 3) * math.log(3) + (2 / 3) * math.log(3 / 2)
    assert product_pressure(spec2, (1 / 3, 2 / 3), 3) == pytest.approx(h + 2 / 3)


def test_gibbs_optimizer_cases():
    p_star = gibbs_optimizer(FullShiftSpec(3, 1, (0.0, 0.0, 0.0)))
    assert np.allclose(p_star, [1 / 3] * 3)
    p2 = gibbs_optimizer(FullShiftSpec(2, 1, (0.0, 1.0)))
    assert p2[0] == pytest.approx(1 / (1 + math.e))
    assert p2[1] == pytest.approx(math.e / (1 + math.e))
    assert gibbs_optimizer(FullShiftSpec(1, 1, (0.7,))) == (1.0,)


def test_gibbs_optimum_beats_grid_search():
    spec = FullShiftSpec(2, 1, (0.0, 1.0))
    value = product_pressure(spec, gibbs_optimizer(spec), 9)
    assert value == pytest.approx(exact_pressure(spec), abs=1e-12)
    best_grid = max(product_pressure(spec, (t / 100, 1 - t / 100), 9) for t in range(101))
    assert value >= best_grid - 1e-9
    assert value == pytest.approx(best_grid, abs=1e-4)


def test_variational_inequality_random():
    # Random product measures on a torus: h + the integral of phi stays at
    # or below the pressure, and well below it off p* (Pinsker: the gap is
    # the divergence from p*, at least half the squared l1 distance).
    rng = np.random.default_rng(11)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        phi = tuple(float(v) for v in rng.uniform(-2, 2, k))
        spec = FullShiftSpec(k, dim, phi)
        side = max(t for t in range(1, 5) if k ** (t**dim) <= 4096)
        top = exact_pressure(spec)
        p_star = gibbs_optimizer(spec)
        assert product_pressure(spec, p_star, side) == pytest.approx(top, abs=1e-9)
        for _ in range(30):
            w = rng.uniform(0.0, 1.0, k) + 1e-12
            p = w / w.sum()
            bp = product_pressure(spec, p, side)
            assert bp <= top + 1e-9
            if float(np.abs(p - np.asarray(p_star)).sum()) > 1e-2:
                assert top - bp > 1e-6


def test_fullshift_runs_past_the_ndarray_axis_limit():
    # In dim 70 only the one-site torus fits: 5 exact rows at the unit box.
    rows, verdict = fullshift_rows(FullShiftSpec(2, 70, (0.0, 0.37)), 2)
    assert verdict.passed
    assert [(r.cover, r.mode, r.n) for r in rows] == [
        *(("origin", mode, (1,) * 70) for mode in "QPSG"),
        ("gibbs", "Hrate", (1,) * 70),
    ]
