"""Synthetic three-feeder test networks with configurable switching room.

Generates a family of distribution networks built from three radial
feeders joined by tie lines. Four cases share one physical universe and
one seeded draw of reactances and loads; they differ only in which tie
lines exist and how many lines are declared switchable, so their optimal
costs are directly comparable. Also provides the normalized daily load
shape and the substation price profiles that the day optimizer
consumes.
"""

from __future__ import annotations

import numpy as np

from .model import Bus, Line, Network, _Frozen
from .optimize import DayProblem

# normalized hourly multipliers: overnight trough, midday plateau at 1.0
LOAD_SHAPE = np.array([
    0.58, 0.55, 0.53, 0.52, 0.53, 0.56, 0.62, 0.70,
    0.76, 0.81, 0.86, 0.90, 0.93, 0.97, 1.00, 1.00,
    0.99, 0.95, 0.90, 0.86, 0.82, 0.75, 0.68, 0.62,
])

# one column per substation, ordered by substation bus id. Substation 2 is
# strictly cheapest at every hour except 7-8 and 20-21 (where substation 1
# undercuts it and the evening spike hits all three); substation 3 carries
# the highest daily average.
_DIURNAL_PRICES = np.array([
    [28, 22, 30], [27, 21, 29], [26, 20, 28], [26, 20, 28],
    [27, 21, 29], [28, 22, 30], [24, 27, 30], [24, 27, 30],
    [30, 24, 33], [31, 24, 34], [32, 25, 35], [32, 25, 35],
    [33, 26, 36], [34, 26, 37], [35, 27, 38], [36, 28, 39],
    [36, 28, 39], [35, 27, 38], [34, 26, 37], [70, 75, 78],
    [72, 76, 80], [33, 26, 36], [30, 24, 33], [29, 23, 31],
], dtype=float)

# tie endpoints as (feeder, bus offset) pairs; offsets chosen mid-feeder
# so each tie has a meaningful subtree to hand over
_TIES = (
    ((0, 5), (1, 5)),    # L(6,19) with 13-bus feeders
    ((0, 9), (2, 11)),   # L(10,38)
    ((1, 8), (2, 6)),    # L(22,33)
    ((0, 12), (2, 3)),   # L(13,30)
)
_TIES_PRESENT = {1: 2, 2: 3, 3: 4, 4: 4}   # case id -> how many ties exist
_TIES_SWITCHABLE = {1: 2, 2: 3, 3: 4}      # case 4 switches everything anyway


class FixtureSpec(_Frozen):
    """Knobs for one generated network; equal specs generate equal bytes."""

    __slots__ = _fields = ("case_id", "seed", "feeder_size", "reactance_range",
                           "load_range", "rating_scale")

    def __init__(self, case_id: int, seed: int = 0, feeder_size: int = 13,
                 reactance_range: tuple[float, float] = (0.01, 0.1),
                 load_range: tuple[float, float] = (0.02, 0.06),
                 rating_scale: float = 1.0):
        super().__init__(case_id, seed, feeder_size, reactance_range,
                         load_range, rating_scale)
        if self.case_id not in (1, 2, 3, 4):
            raise ValueError(f"case_id must be 1-4, got {self.case_id}")
        if self.feeder_size < 4:
            raise ValueError("feeder_size must be at least 4")
        if not 0 < self.reactance_range[0] <= self.reactance_range[1]:
            raise ValueError("reactance_range must be positive and ordered")
        if not 0 < self.load_range[0] <= self.load_range[1]:
            raise ValueError("load_range must be positive and ordered")
        if not 0 < self.rating_scale < np.inf:
            raise ValueError(f"rating scale {self.rating_scale} is not "
                             "positive and finite")


def _universe(spec: FixtureSpec):
    """Every line that can exist, in a fixed order: internals, then ties."""
    size = spec.feeder_size
    internals = [(f * size + k, f * size + k + 1)
                 for f in range(3) for k in range(size - 1)]
    ties = []
    for (fa, ka), (fb, kb) in _TIES:
        a = fa * size + min(ka, size - 1)
        b = fb * size + min(kb, size - 1)
        ties.append((a, b))
    return internals, ties


def _draw(spec: FixtureSpec):
    """Seeded reactances for the whole universe plus per-bus base loads.

    The draw covers every possible line and bus regardless of case, so the
    same seed gives identical values on shared lines across all cases.
    """
    internals, ties = _universe(spec)
    rng = np.random.default_rng(spec.seed)
    xs = rng.uniform(*spec.reactance_range, size=len(internals) + len(ties))
    base = rng.uniform(*spec.load_range, size=3 * spec.feeder_size)
    base[[0, spec.feeder_size, 2 * spec.feeder_size]] = 0.0
    return internals, ties, xs, base


def base_loads(spec: FixtureSpec) -> np.ndarray:
    """Per-bus peak loads (MW); substation buses carry none."""
    return _draw(spec)[3]


def _line_id(a: int, b: int) -> str:
    return f"L({a + 1},{b + 1})"


def gen_three_feeder(spec: FixtureSpec) -> Network:
    """Three radial feeders with tie lines and a case-sized switchable set.

    Case 1 has two ties and their adjacent feeder lines switchable (6
    lines); case 2 adds a third tie and its neighbours (9); case 3 a
    fourth (12); case 4 keeps case-3 wiring but declares every line
    switchable. Line ratings give each feeder headroom over its own peak
    while ties carry at most a fixed share of an average feeder.
    """
    internals, ties, xs, base = _draw(spec)
    size = spec.feeder_size
    n = 3 * size
    sub_ids = (0, size, 2 * size)

    feeder_total = [float(base[f * size:(f + 1) * size].sum()) for f in range(3)]
    tie_rating = 0.60 * float(np.mean(feeder_total)) * spec.rating_scale

    present_ties = ties[:_TIES_PRESENT[spec.case_id]]
    flexible: set[tuple[int, int]] = set()
    if spec.case_id == 4:
        flexible.update(internals)
        flexible.update(present_ties)
    else:
        for tie in present_ties[:_TIES_SWITCHABLE[spec.case_id]]:
            flexible.add(tie)
            for end in tie:
                flexible.add((end - 1, end))  # the feeder line feeding the endpoint

    buses = tuple(Bus(i, f"bus-{i + 1}", i in sub_ids) for i in range(n))
    lines = []
    for idx, (a, b) in enumerate(internals):
        feeder = a // size
        downstream = float(base[b:(feeder + 1) * size].sum())
        rating = max(1.7 * downstream, 0.30 * feeder_total[feeder])
        lines.append(Line(_line_id(a, b), a, b, float(xs[idx]),
                          rating * spec.rating_scale, (a, b) in flexible))
    for k, (a, b) in enumerate(present_ties):
        lines.append(Line(_line_id(a, b), a, b, float(xs[len(internals) + k]),
                          tie_rating, (a, b) in flexible))
    return Network(buses=buses, lines=tuple(lines), base_mva=100.0, id_base=1)


def gen_price_profile(seed: int = 0, shape: str = "diurnal") -> np.ndarray:
    """24-hour price table, one column per substation.

    Shape "diurnal" is a fixed day-cycle pattern with a designated cheap substation
    and an evening spike; "random" draws positive prices from the seed.
    """
    if shape == "diurnal":
        return _DIURNAL_PRICES.copy()
    if shape == "random":
        rng = np.random.default_rng(seed)
        return rng.uniform(15.0, 45.0, size=(24, 3))
    raise ValueError(f"unknown price shape {shape!r}")


def day_problem(spec: FixtureSpec, price_shape: str = "diurnal") -> DayProblem:
    """Assemble the 24-hour problem for a generated case network."""
    net = gen_three_feeder(spec)
    loads = np.outer(LOAD_SHAPE, base_loads(spec))
    return DayProblem(net, loads, gen_price_profile(spec.seed, price_shape))
