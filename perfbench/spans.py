"""Spans around calls into reconf's layers, and the per-layer metrics.

A span is [name, start, end, parent, hour, attrs]: times come from
time.perf_counter (CLOCK_MONOTONIC, shared by every process on the host),
parent is the index of the enclosing span or -1, and hour is the 0-based
position of the hour being solved (None outside an hour), so the spans of
one hour share that id. attrs holds counts read at the boundary.

The wrappers are installed from outside: each replaces a module-level
function or a class method of `reconf` with one that opens a span, calls
the original and closes the span. Nothing inside `src/` changes.
"""

from __future__ import annotations

import functools
import statistics
import time

NAME, START, END, PARENT, HOUR, ATTRS = range(6)


class Tracer:
    """Collects spans in memory; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.hour: int | None = None
        self._next_hour = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.hour, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][ATTRS] = attrs
        self._open.pop()

    def start_hour(self) -> None:
        self.hour = self._next_hour
        self._next_hour += 1

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr with a spanned call.

        before(args) runs ahead of the call and returns attrs (or None);
        after(attrs, args, result) may add to them once the call returns.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            attrs = before(args) if before else None
            idx = tracer.begin(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer.end(idx, attrs)
                raise
            if after:
                attrs = after(attrs or {}, args, result)
            tracer.end(idx, attrs)
            return result

        setattr(owner, attr, spanned)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of reconf's cli, model, optimize, lp and dcflow."""
    import numpy
    from reconf import cli, lp, model, optimize

    w = tracer.wrap
    w(cli, "_read_network", "cli.read")
    w(cli, "_read_profile_csv", "cli.read")
    w(cli, "_write_outputs", "cli.write")
    w(cli, "cmd_report", "cli.report")
    for mod in (cli, optimize, model):
        w(mod, "validate", "model.validate")
        w(mod, "is_spanning_forest", "model.forest")

    def hour_begins(args):
        tracer.start_hour()

    def hour_ends(attrs, args, result):
        tracer.hour = None
        stats = result.stats
        return {"nodes": stats.nodes, "relaxations": stats.relaxations,
                "incumbent_updates": stats.incumbent_updates}

    # solve_day builds each hour's model and then solves it: the hour's id
    # is set when the build starts and cleared when the solve returns
    w(optimize, "build_hour_model", "optimize.build", before=hour_begins)
    w(optimize, "solve_hour", "optimize.solve_hour", after=hour_ends)
    w(optimize, "_propagate", "optimize.propagate")
    w(optimize, "_bridges", "optimize.bridges")
    w(optimize, "_polish", "optimize.polish")
    w(optimize, "evaluate_topology", "optimize.physics",
      after=lambda attrs, args, result: {"accepted": result is not None})
    w(optimize, "solve_flows", "dcflow.flow")
    w(optimize, "check_limits", "dcflow.limits")

    w(lp.BlockSolver, "__init__", "lp.prepare")
    w(lp.BlockSolver, "solve_with_basis", "lp.relax")
    w(lp.PreparedLp, "solve", "lp.solve",
      before=lambda args: {"warm": len(args) > 2 and args[2] is not None})
    w(lp.PreparedLp, "_cold_solve", "lp.cold")
    # the factor cache is keyed by the warm basis, as in PreparedLp._warm_solve
    w(lp.PreparedLp, "_warm_solve", "lp.warm",
      before=lambda args: {"factor_hit": args[3].basis.tobytes() in args[0]._factor_cache})
    w(numpy.linalg, "solve", "numpy.solve")
    w(lp, "_dual_repair", "lp.dual_repair")
    w(lp._Tableau, "run", "lp.primal",
      before=lambda args: {"iterations": args[0].iterations},
      after=lambda attrs, args, result: {"pivots": args[0].iterations - attrs["iterations"] - 1})
    w(lp, "_audited_outcome", "lp.audit")


# ---------------------------------------------------------------------------
# arithmetic over recorded spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, reach), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        out.append((end - start) - covered)
    return out


def _ancestor(spans, idx: int, names: tuple[str, ...]) -> str | None:
    """Name of the nearest ancestor whose name is in names."""
    idx = spans[idx][PARENT]
    while idx >= 0:
        if spans[idx][NAME] in names:
            return spans[idx][NAME]
        idx = spans[idx][PARENT]
    return None


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, totals, self times and ratios of one set of spans.

    Times are in seconds. A `_s` total is inclusive unless the metric is
    documented as self time (propagate, physics, warm LP).
    """
    selfs = self_times(spans)
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for span, self_s in zip(spans, selfs):
        name = span[NAME]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        own[name] = own.get(name, 0.0) + self_s

    def attr_sum(name, key):
        return sum(int(s[ATTRS][key]) for s in spans if s[NAME] == name and s[ATTRS])

    def ratio(num, den):
        return num / den if den else 0.0

    hours = [s[END] - s[START] for s in spans if s[NAME] == "optimize.solve_hour"]
    relax = [i for i, s in enumerate(spans) if s[NAME] == "lp.relax"]
    solved = {s[PARENT] for s in spans if s[NAME] == "lp.solve"}
    memo_hits = sum(1 for i in relax if i not in solved)
    fallbacks = sum(1 for s in spans if s[NAME] == "lp.cold" and s[PARENT] >= 0
                    and (spans[s[PARENT]][ATTRS] or {}).get("warm"))
    factor_hits = sum(1 for s in spans if s[NAME] == "lp.warm" and s[ATTRS]["factor_hit"])
    refactor_s = sum(s[END] - s[START] for s in spans
                     if s[NAME] == "numpy.solve" and s[PARENT] >= 0
                     and spans[s[PARENT]][NAME] == "lp.warm")
    primal = {"lp.cold": [0, 0.0], "lp.warm": [0, 0.0]}
    for i, s in enumerate(spans):
        if s[NAME] == "lp.primal":
            side = _ancestor(spans, i, ("lp.cold", "lp.warm")) or "lp.cold"
            primal[side][0] += int(s[ATTRS].get("pivots", 0))
            primal[side][1] += s[END] - s[START]
    physics = count.get("optimize.physics", 0)
    accepted = attr_sum("optimize.physics", "accepted")
    warm = count.get("lp.warm", 0)
    g = count.get
    t = total.get
    return {
        "cli.read_s": t("cli.read", 0.0),
        "cli.write_s": t("cli.write", 0.0),
        "cli.report_s": t("cli.report", 0.0),
        "model.validate_calls": g("model.validate", 0),
        "model.validate_s": t("model.validate", 0.0),
        "model.forest_checks": g("model.forest", 0),
        "model.forest_s": t("model.forest", 0.0),
        "optimize.build_s": t("optimize.build", 0.0),
        "optimize.hour_median_s": statistics.median(hours) if hours else 0.0,
        "optimize.hour_max_s": max(hours, default=0.0),
        "optimize.nodes": attr_sum("optimize.solve_hour", "nodes"),
        "optimize.relaxations": attr_sum("optimize.solve_hour", "relaxations"),
        "optimize.incumbent_updates": attr_sum("optimize.solve_hour", "incumbent_updates"),
        "optimize.propagate_calls": g("optimize.propagate", 0),
        "optimize.propagate_s": own.get("optimize.propagate", 0.0),
        "optimize.bridges_s": t("optimize.bridges", 0.0),
        "optimize.polish_calls": g("optimize.polish", 0),
        "optimize.polish_s": t("optimize.polish", 0.0),
        "optimize.physics_calls": physics,
        "optimize.physics_accepted": accepted,
        "optimize.physics_accept_ratio": ratio(accepted, physics),
        "optimize.physics_s": own.get("optimize.physics", 0.0),
        "dcflow.flow_calls": g("dcflow.flow", 0),
        "dcflow.flow_s": t("dcflow.flow", 0.0),
        "dcflow.limits_s": t("dcflow.limits", 0.0),
        "lp.prepare_s": t("lp.prepare", 0.0),
        "lp.relax_calls": len(relax),
        "lp.memo_hits": memo_hits,
        "lp.memo_hit_ratio": ratio(memo_hits, len(relax)),
        "lp.cold_calls": g("lp.cold", 0),
        "lp.cold_s": t("lp.cold", 0.0),
        "lp.cold_fallbacks": fallbacks,
        "lp.warm_calls": warm,
        "lp.warm_s": own.get("lp.warm", 0.0),
        "lp.factor_hits": factor_hits,
        "lp.factor_misses": warm - factor_hits,
        "lp.factor_hit_ratio": ratio(factor_hits, warm),
        "lp.refactor_s": refactor_s,
        "lp.dual_repair_calls": g("lp.dual_repair", 0),
        "lp.dual_repair_s": t("lp.dual_repair", 0.0),
        "lp.primal_pivots": primal["lp.cold"][0] + primal["lp.warm"][0],
        "lp.primal_s": primal["lp.cold"][1] + primal["lp.warm"][1],
        "lp.primal_cold_pivots": primal["lp.cold"][0],
        "lp.primal_cold_s": primal["lp.cold"][1],
        "lp.primal_warm_pivots": primal["lp.warm"][0],
        "lp.primal_warm_s": primal["lp.warm"][1],
        "lp.audit_s": t("lp.audit", 0.0),
    }
