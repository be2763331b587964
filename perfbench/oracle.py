"""Hour optima from HiGHS over the paper's full angle/big-M model.

The model is built here from the parsed input files and shares no code
with `reconf`. Per hour and per line it has a flow, per bus an angle, per
substation an import and per switchable line a binary status:

    balance   inflow - outflow + import = load        every bus
    physics   flow = (theta_from - theta_to) / x      always-closed lines
    rating    |flow| <= rating * status               switchable lines
    big-M     |flow - (theta_from - theta_to) / x| <= M * (1 - status)
    count     sum(status) = buses - substations - always-closed lines

With every load positive (zeros get the fill-in), the count row and the
balance rows leave exactly the spanning forests with one substation per
tree. M = (angle_hi - angle_lo) / x is the largest angle term an open line
can see, since its flow is 0.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from audit import Inputs, Net, hour_loads


def hour_optimum(net: Net, loads: np.ndarray, prices: np.ndarray,
                 angle_lo: float, angle_hi: float) -> float | None:
    """Minimum import cost of one hour, or None when no topology is feasible."""
    n, subs, lines = net.n, list(net.substations), net.lines
    flex = [k for k, l in enumerate(lines) if l.flexible]
    n_s, n_l = len(subs), len(lines)
    imp = 0                      # column blocks: imports, angles, flows, statuses
    ang = imp + n_s
    flo = ang + n
    sta = flo + n_l
    width = sta + len(flex)

    cost = np.zeros(width)
    cost[imp:ang] = prices
    lo = np.zeros(width)
    hi = np.zeros(width)
    hi[imp:ang] = np.inf
    lo[ang:flo], hi[ang:flo] = angle_lo, angle_hi
    lo[ang + np.array(subs)] = hi[ang + np.array(subs)] = 0.0
    for k, line in enumerate(lines):
        lo[flo + k], hi[flo + k] = -line.rating, line.rating
    hi[sta:] = 1.0
    integrality = np.zeros(width)
    integrality[sta:] = 1

    rows = n + n_l + 3 * len(flex) + 1    # balance, one per line, three more per switch, count
    a = lil_matrix((rows, width))
    r_lo = np.zeros(rows)
    r_hi = np.zeros(rows)
    for k, line in enumerate(lines):
        a[line.t, flo + k] += 1.0
        a[line.f, flo + k] -= 1.0
    for s, bus in enumerate(subs):
        a[bus, imp + s] = 1.0
    r_lo[:n] = r_hi[:n] = loads
    r = n
    for k, line in enumerate(lines):
        # flow - angle difference / x: zero when closed, within M when open
        a[r, flo + k] = 1.0
        a[r, ang + line.f] -= 1.0 / line.x
        a[r, ang + line.t] += 1.0 / line.x
        if line.flexible:
            big_m = (angle_hi - angle_lo) / line.x
            col = sta + flex.index(k)
            a[r, col] = big_m          # flow - d/x + M*status <= M
            a[r + 1, flo + k] = -1.0   # -(flow - d/x) + M*status <= M
            a[r + 1, ang + line.f] = 1.0 / line.x
            a[r + 1, ang + line.t] = -1.0 / line.x
            a[r + 1, col] = big_m
            r_lo[r:r + 2], r_hi[r:r + 2] = -np.inf, big_m
            a[r + 2, flo + k] = 1.0    # -rating*status <= flow <= rating*status
            a[r + 2, col] = -line.rating
            a[r + 3, flo + k] = 1.0
            a[r + 3, col] = line.rating
            r_lo[r + 2], r_hi[r + 2] = -np.inf, 0.0
            r_lo[r + 3], r_hi[r + 3] = 0.0, np.inf
            r += 4
        else:
            r += 1
    a[r, sta:] = 1.0
    r_lo[r] = r_hi[r] = net.closed_count()

    res = milp(cost, integrality=integrality, bounds=Bounds(lo, hi),
               constraints=LinearConstraint(a.tocsr(), r_lo, r_hi),
               options={"mip_rel_gap": 1e-10, "time_limit": 120.0})
    if res.status == 2:          # proven infeasible
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return float(res.fun)


def day_optima(inputs: Inputs) -> list[float | None]:
    return [hour_optimum(inputs.net, hour_loads(inputs.loads[t], inputs.scale),
                         inputs.prices[t], inputs.angle_lo, inputs.angle_hi)
            for t in range(inputs.horizon)]
