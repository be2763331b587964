"""Case-4 variants with more or fewer radial topologies, or longer feeders.

Each variant is a generated case-4 day whose network gets extra
switchable ties (more radial topologies, 39 buses), some feeder lines made
always-closed (fewer), or longer feeders (the same 16,017 topologies over
more buses, with reactances shrunk by the square of the feeder length so
the angle drops stay those of case 4), or both. bench/cap_crossover.py
times them; the tests referee the branch and bound on those over the
enumeration byte budget.
"""

from __future__ import annotations

import numpy as np

from reconf.casegen import FixtureSpec, day_problem
from reconf.model import Line, Network
from reconf.optimize import DayProblem

# name: (extra ties as ((feeder, offset), (feeder, offset)), feeder size,
#        leading lines per feeder made always-closed)
VARIANTS = {
    "c4": ((), 13, 0),
    "c4-fixed4+tie_c": ((((1, 11), (2, 9)),), 13, 4),
    "c4+tie_a": ((((0, 3), (1, 3)),), 13, 0),
    "c4+tie_b": ((((0, 7), (2, 7)),), 13, 0),
    "c4+tie_c": ((((1, 11), (2, 9)),), 13, 0),
    "c4+tie_d": ((((0, 11), (1, 11)),), 13, 0),
    "c4+ties_ac": ((((0, 3), (1, 3)), ((1, 11), (2, 9))), 13, 0),
    "c4+ties_abc": ((((0, 3), (1, 3)), ((0, 7), (2, 7)), ((1, 11), (2, 9))),
                    13, 0),
    "c4+ties_abcd": ((((0, 3), (1, 3)), ((0, 7), (2, 7)), ((1, 11), (2, 9)),
                      ((0, 11), (1, 11))), 13, 0),
    "c4-feeders50+ties_ac": ((((0, 3), (1, 3)), ((1, 11), (2, 9))), 50, 0),
    "c4-feeders40": ((), 40, 0),
    "c4-feeders100": ((), 100, 0),
    "c4-feeders170": ((), 170, 0),
}


def variant(extra, size, fixed) -> DayProblem:
    spec = FixtureSpec(case_id=4, feeder_size=size,
                       reactance_range=(0.01 * (13 / size) ** 2,
                                        0.1 * (13 / size) ** 2))
    problem = day_problem(spec)
    lines = []
    for line in problem.net.lines:
        a, b = line.from_bus, line.to_bus
        if b == a + 1 and a // size == b // size and a % size < fixed:
            line = line._replace(flexible=False)
        lines.append(line)
    rng = np.random.default_rng(7)
    for (fa, ka), (fb, kb) in extra:
        a, b = fa * size + ka, fb * size + kb
        lines.append(Line(f"L({a + 1},{b + 1})", a, b,
                          float(rng.uniform(*spec.reactance_range)),
                          problem.net.lines[-1].rating, True))
    net = Network(problem.net.buses, tuple(lines), problem.net.base_mva, id_base=1)
    return DayProblem(net, problem.loads, problem.prices)
