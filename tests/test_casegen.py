import numpy as np
import pytest

import reconf
from reconf import casegen
from reconf.casegen import (
    LOAD_SHAPE,
    FixtureSpec,
    base_loads,
    day_problem,
    gen_price_profile,
    gen_three_feeder,
    normalize_profile,
    scale_loads,
)
from reconf.model import required_closed_flexible_count, validate


def _flex_ids(net):
    return {ln.id for ln in net.flexible_lines}


class TestFixtureSpec:
    def test_bad_case_id(self):
        with pytest.raises(ValueError):
            FixtureSpec(case_id=0)
        with pytest.raises(ValueError):
            FixtureSpec(case_id=5)

    def test_bad_feeder_size(self):
        with pytest.raises(ValueError):
            FixtureSpec(case_id=1, feeder_size=3)

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            FixtureSpec(case_id=1, reactance_range=(0.0, 0.1))
        with pytest.raises(ValueError):
            FixtureSpec(case_id=1, load_range=(0.06, 0.02))
        with pytest.raises(ValueError):
            FixtureSpec(case_id=1, rating_scale=0.0)


class TestNetworks:
    def test_shapes_per_case(self):
        # 3 feeders x 12 internal lines, plus 2/3/4/4 ties
        for case, (n_lines, n_flex) in {1: (38, 6), 2: (39, 9),
                                        3: (40, 12), 4: (40, 40)}.items():
            net = gen_three_feeder(FixtureSpec(case_id=case))
            assert net.n_buses == 39
            assert len(net.lines) == n_lines
            assert len(net.flexible_lines) == n_flex

    def test_substations(self):
        net = gen_three_feeder(FixtureSpec(case_id=1))
        assert net.substations == (0, 13, 26)
        assert [net.buses[s].name for s in net.substations] == [
            "bus-1", "bus-14", "bus-27"]

    def test_all_cases_validate_clean(self):
        for case in (1, 2, 3, 4):
            spec = FixtureSpec(case_id=case)
            report = validate(gen_three_feeder(spec), base_loads(spec))
            assert not report.errors, report.errors

    def test_required_closed_counts(self):
        want = {1: 4, 2: 6, 3: 8, 4: 36}
        for case, k in want.items():
            net = gen_three_feeder(FixtureSpec(case_id=case))
            assert required_closed_flexible_count(net) == k

    def test_flexible_sets_nest(self):
        nets = {c: gen_three_feeder(FixtureSpec(case_id=c)) for c in (1, 2, 3, 4)}
        assert _flex_ids(nets[1]) < _flex_ids(nets[2]) < _flex_ids(nets[3])
        assert _flex_ids(nets[3]) < _flex_ids(nets[4])

    def test_deterministic(self):
        a = gen_three_feeder(FixtureSpec(case_id=3))
        b = gen_three_feeder(FixtureSpec(case_id=3))
        assert a == b

    def test_seed_changes_draw(self):
        a = gen_three_feeder(FixtureSpec(case_id=3))
        b = gen_three_feeder(FixtureSpec(case_id=3, seed=1))
        assert a != b

    def test_shared_lines_identical_across_cases(self):
        # one seeded draw covers the whole universe, so a line present in
        # two cases carries the same reactance and rating in both
        by_case = {c: {ln.id: ln for ln in gen_three_feeder(FixtureSpec(case_id=c)).lines}
                   for c in (1, 2, 3)}
        for lid, ln in by_case[1].items():
            for other in (2, 3):
                twin = by_case[other][lid]
                assert twin.reactance == ln.reactance
                assert twin.rating == ln.rating

    def test_rating_scale_scales_ratings(self):
        base = gen_three_feeder(FixtureSpec(case_id=1))
        wide = gen_three_feeder(FixtureSpec(case_id=1, rating_scale=2.0))
        for a, b in zip(base.lines, wide.lines):
            assert b.rating == pytest.approx(2.0 * a.rating)
            assert b.reactance == a.reactance

    def test_base_loads(self):
        spec = FixtureSpec(case_id=2)
        loads = base_loads(spec)
        assert loads.shape == (39,)
        assert loads[0] == loads[13] == loads[26] == 0.0
        others = np.delete(loads, [0, 13, 26])
        assert np.all(others >= 0.02) and np.all(others <= 0.06)


class TestProfiles:
    def test_load_shape_normalized(self):
        assert LOAD_SHAPE.shape == (24,)
        assert LOAD_SHAPE.max() == 1.0
        assert np.all(LOAD_SHAPE > 0)

    def test_normalize_profile(self):
        out = normalize_profile([24, 30, 15])
        assert np.allclose(out, [0.8, 1.0, 0.5])

    def test_normalize_profile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            normalize_profile([])
        with pytest.raises(ValueError):
            normalize_profile([0.0, 0.0])
        with pytest.raises(ValueError):
            normalize_profile([1.0, -0.5])

    def test_diurnal_prices_shape(self):
        prices = gen_price_profile()
        assert prices.shape == (24, 3)
        assert np.all(prices > 0)

    def test_diurnal_prices_cheap_substation(self):
        prices = gen_price_profile()
        # midday the middle substation is cheapest; in the morning window
        # the first undercuts it
        assert int(np.argmin(prices[12])) == 1
        assert int(np.argmin(prices[7])) == 0

    def test_random_prices_seeded(self):
        a = gen_price_profile(seed=3, shape="random")
        b = gen_price_profile(seed=3, shape="random")
        c = gen_price_profile(seed=4, shape="random")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (24, 3)
        assert np.all(a > 0)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            gen_price_profile(shape="flat")


class TestDayProblem:
    def test_shapes(self):
        prob = day_problem(FixtureSpec(case_id=1))
        assert prob.loads.shape == (24, 39)
        assert prob.prices.shape == (24, 3)
        assert prob.net.n_buses == 39

    def test_loads_follow_shape(self):
        spec = FixtureSpec(case_id=1)
        prob = day_problem(spec)
        base = base_loads(spec)
        assert np.allclose(prob.loads, np.outer(LOAD_SHAPE, base))

    def test_scale_loads(self):
        prob = day_problem(FixtureSpec(case_id=1))
        bigger = scale_loads(prob, 1.2)
        assert np.allclose(bigger.loads, 1.2 * prob.loads)
        assert bigger.net is prob.net
        assert np.array_equal(bigger.prices, prob.prices)

    def test_scale_loads_rejects_nonpositive(self):
        prob = day_problem(FixtureSpec(case_id=1))
        with pytest.raises(ValueError):
            scale_loads(prob, 0.0)
        with pytest.raises(ValueError):
            scale_loads(prob, -1.0)


class TestPackageNames:
    """reconf serves the generator's names on first use."""

    def test_generator_names_resolve(self):
        for name in ("FixtureSpec", "day_problem", "gen_price_profile",
                     "scale_loads"):
            assert getattr(reconf, name) is getattr(casegen, name)

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from reconf import *", namespace)
        assert set(reconf.__all__) <= set(namespace)
        assert namespace["day_problem"] is casegen.day_problem

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            reconf.no_such_name
        assert not hasattr(reconf, "enumerate_hour")
