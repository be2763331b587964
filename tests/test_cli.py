import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import reconf
from hour_oracle import enumerate_hour
from reconf import cli, optimize
from reconf.cli import main
from reconf.dcflow import solve_flows
from reconf.optimize import apply_epsilon_loads
from reconf.model import parse_network


def _write(path, text):
    path.write_text(text)
    return str(path)


def _tiny_doc(lines=None):
    """Bus 2 hangs between substations 1 and 3 on two switchable lines."""
    if lines is None:
        lines = [
            {"id": "L(1,2)", "from": 1, "to": 2, "x": 0.05,
             "rating_mw": 10.0, "flexible": True},
            {"id": "L(3,2)", "from": 3, "to": 2, "x": 0.05,
             "rating_mw": 10.0, "flexible": True},
        ]
    return json.dumps({
        "base_mva": 100.0,
        "buses": [
            {"id": 1, "name": "s1", "substation": True},
            {"id": 2, "name": "mid", "substation": False},
            {"id": 3, "name": "s2", "substation": True},
        ],
        "lines": lines,
    })


_TINY_LOADS = "hour,1,2,3\n1,0.000000,5.000000,0.000000\n2,0.000000,5.000000,0.000000\n"
_TINY_PRICES = "hour,1,3\n1,10.000000,20.000000\n2,30.000000,15.000000\n"


@pytest.fixture
def tiny(tmp_path):
    return {
        "network": _write(tmp_path / "network.json", _tiny_doc()),
        "loads": _write(tmp_path / "loads.csv", _TINY_LOADS),
        "prices": _write(tmp_path / "prices.csv", _TINY_PRICES),
        "dir": tmp_path,
    }


class TestValidate:
    def test_valid_network(self, tiny, capsys):
        assert main(["validate", "--network", tiny["network"]]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--network", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = _write(tmp_path / "bad.json", "{not json")
        assert main(["validate", "--network", path]) == 2

    def test_unreachable_bus(self, tmp_path, capsys):
        doc = json.dumps({
            "base_mva": 100.0,
            "buses": [
                {"id": 1, "name": "s1", "substation": True},
                {"id": 2, "name": "a", "substation": False},
                {"id": 3, "name": "island", "substation": False},
            ],
            "lines": [{"id": "L(1,2)", "from": 1, "to": 2, "x": 0.05,
                       "rating_mw": 10.0, "flexible": False}],
        })
        path = _write(tmp_path / "net.json", doc)
        assert main(["validate", "--network", path]) == 1
        assert "unreachable" in capsys.readouterr().out


class TestGenerate:
    def test_writes_files(self, tmp_path):
        out = tmp_path / "case1"
        assert main(["generate", "--case", "1", "--out", str(out)]) == 0
        assert (out / "network.json").exists()
        assert (out / "loads.csv").exists()
        assert (out / "prices.csv").exists()
        net = parse_network((out / "network.json").read_text())
        assert net.n_buses == 39

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--case", "2", "--out", str(a)]) == 0
        assert main(["generate", "--case", "2", "--out", str(b)]) == 0
        for name in ("network.json", "loads.csv", "prices.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_generated_case_validates(self, tmp_path):
        out = tmp_path / "case3"
        assert main(["generate", "--case", "3", "--out", str(out)]) == 0
        assert main(["validate", "--network", str(out / "network.json")]) == 0


class TestSolve:
    def test_schedule_follows_prices(self, tiny):
        out = tiny["dir"] / "run"
        code = main(["solve", "--network", tiny["network"],
                     "--loads", tiny["loads"], "--prices", tiny["prices"],
                     "--out", str(out)])
        assert code == 0
        rows = (out / "schedule.csv").read_text().splitlines()
        assert rows[0] == 'hour,"L(1,2)","L(3,2)"'
        assert rows[1] == "1,1,0"
        assert rows[2] == "2,0,1"

    def test_schedule_matches_enumeration(self, tiny):
        out = tiny["dir"] / "run"
        main(["solve", "--network", tiny["network"], "--loads", tiny["loads"],
              "--prices", tiny["prices"], "--out", str(out)])
        net = parse_network(_tiny_doc())
        loads = apply_epsilon_loads([0.0, 5.0, 0.0])
        rows = (out / "schedule.csv").read_text().splitlines()
        for hour, prices in ((1, [10.0, 20.0]), (2, [30.0, 15.0])):
            best = enumerate_hour(net, loads, prices)
            want = [str(best.statuses[lid]) for lid in sorted(best.statuses)]
            assert rows[hour].split(",")[1:] == want

    def test_cost_total_is_exact_sum(self, tiny):
        out = tiny["dir"] / "run"
        main(["solve", "--network", tiny["network"], "--loads", tiny["loads"],
              "--prices", tiny["prices"], "--out", str(out)])
        rows = (out / "cost.csv").read_text().splitlines()
        assert rows[0] == "hour,cost"
        entries = [Decimal(r.split(",")[1]) for r in rows[1:-1]]
        label, total = rows[-1].split(",")
        assert label == "total"
        assert Decimal(total) == sum(entries)

    def test_outputs_byte_stable(self, tiny):
        out1, out2 = tiny["dir"] / "r1", tiny["dir"] / "r2"
        for out in (out1, out2):
            assert main(["solve", "--network", tiny["network"],
                         "--loads", tiny["loads"], "--prices", tiny["prices"],
                         "--out", str(out)]) == 0
        for name in ("schedule.csv", "cost.csv", "loading.csv", "run.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_flexible_network(self, tmp_path):
        doc = json.dumps({
            "base_mva": 100.0,
            "buses": [
                {"id": 1, "name": "s1", "substation": True},
                {"id": 2, "name": "a", "substation": False},
            ],
            "lines": [{"id": "L(1,2)", "from": 1, "to": 2, "x": 0.05,
                       "rating_mw": 10.0, "flexible": False}],
        })
        network = _write(tmp_path / "net.json", doc)
        loads = _write(tmp_path / "loads.csv", "hour,1,2\n1,0.000000,3.000000\n")
        prices = _write(tmp_path / "prices.csv", "hour,1\n1,25.000000\n")
        out = tmp_path / "run"
        assert main(["solve", "--network", network, "--loads", loads,
                     "--prices", prices, "--out", str(out)]) == 0
        assert (out / "schedule.csv").read_text() == "hour\n"
        rows = (out / "cost.csv").read_text().splitlines()
        assert rows[1].startswith("1,75.000")

    def test_scale_flag_scales_cost(self, tiny):
        base, scaled = tiny["dir"] / "base", tiny["dir"] / "scaled"
        common = ["solve", "--network", tiny["network"], "--loads", tiny["loads"],
                  "--prices", tiny["prices"]]
        assert main(common + ["--out", str(base)]) == 0
        assert main(common + ["--out", str(scaled), "--scale", "1.2"]) == 0
        read = lambda p: Decimal((p / "cost.csv").read_text()
                                 .splitlines()[-1].split(",")[1])
        assert read(scaled) > read(base)

    def test_horizon_flag(self, tiny):
        out = tiny["dir"] / "h1"
        assert main(["solve", "--network", tiny["network"],
                     "--loads", tiny["loads"], "--prices", tiny["prices"],
                     "--out", str(out), "--horizon", "1"]) == 0
        rows = (out / "schedule.csv").read_text().splitlines()
        assert len(rows) == 2  # header plus one hour

    def test_infeasible_exits_3(self, tmp_path, capsys):
        lines = [
            {"id": "L(1,2)", "from": 1, "to": 2, "x": 0.05,
             "rating_mw": 0.001, "flexible": True},
            {"id": "L(3,2)", "from": 3, "to": 2, "x": 0.05,
             "rating_mw": 0.001, "flexible": True},
        ]
        network = _write(tmp_path / "net.json", _tiny_doc(lines))
        loads = _write(tmp_path / "loads.csv", _TINY_LOADS)
        prices = _write(tmp_path / "prices.csv", _TINY_PRICES)
        code = main(["solve", "--network", network, "--loads", loads,
                     "--prices", prices, "--out", str(tmp_path / "run")])
        assert code == 3
        assert "hour 1" in capsys.readouterr().err

    def test_invalid_network_exits_1(self, tmp_path, capsys):
        doc = json.dumps({
            "base_mva": 100.0,
            "buses": [
                {"id": 1, "name": "s1", "substation": True},
                {"id": 2, "name": "island", "substation": False},
            ],
            "lines": [],
        })
        network = _write(tmp_path / "net.json", doc)
        loads = _write(tmp_path / "loads.csv", "hour,1,2\n1,0.000000,3.000000\n")
        prices = _write(tmp_path / "prices.csv", "hour,1\n1,25.000000\n")
        code = main(["solve", "--network", network, "--loads", loads,
                     "--prices", prices, "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error network.unreachable_bus" in capsys.readouterr().err

    def test_validates_once_per_solve(self, tiny, monkeypatch):
        calls = []

        def counted(real):
            return lambda *args: calls.append(args) or real(*args)

        monkeypatch.setattr(cli, "validate", counted(cli.validate))
        monkeypatch.setattr(optimize, "validate", counted(optimize.validate))
        assert main(["solve", "--network", tiny["network"],
                     "--loads", tiny["loads"], "--prices", tiny["prices"],
                     "--out", str(tiny["dir"] / "run")]) == 0
        assert len(calls) == 1

    def test_enumerated_solve_never_imports_the_lp_engine(self, tiny):
        # a fresh interpreter: this one has long since imported reconf.lp;
        # nor does a solve import the case generator, the report's audit,
        # OpenSSL's hashing (about 3.7 MB resident) or dataclasses, whose
        # records generate their methods at import
        script = (
            "import sys\n"
            "from reconf.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'reconf.lp' in sys.modules,"
            " 'reconf.casegen' in sys.modules, 'reconf.audit' in sys.modules,"
            " '_hashlib' in sys.modules, 'dataclasses' in sys.modules)\n")
        argv = ["solve", "--network", tiny["network"], "--loads", tiny["loads"],
                "--prices", tiny["prices"], "--out", str(tiny["dir"] / "run")]
        out = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True,
            text=True, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(reconf.__file__).parents[1])})
        assert out.stdout.split()[-6:] == ["0"] + ["False"] * 5

    def test_loads_header_mismatch(self, tiny, tmp_path):
        bad = _write(tmp_path / "bad_loads.csv",
                     "hour,7,8,9\n1,0.0,5.0,0.0\n")
        code = main(["solve", "--network", tiny["network"], "--loads", bad,
                     "--prices", tiny["prices"], "--out", str(tmp_path / "x")])
        assert code == 2


class TestReport:
    def _solve(self, tiny, name):
        out = tiny["dir"] / name
        assert main(["solve", "--network", tiny["network"],
                     "--loads", tiny["loads"], "--prices", tiny["prices"],
                     "--out", str(out)]) == 0
        return out

    def test_single_run_zero_delta(self, tiny):
        run = self._solve(tiny, "run")
        out = tiny["dir"] / "rep"
        assert main(["report", str(run), "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0] == "run,total_cost,delta_pct"
        assert rows[1].endswith(",0.000000")

    def test_two_runs_compared(self, tiny):
        a = self._solve(tiny, "a")
        b = self._solve(tiny, "b")
        out = tiny["dir"] / "rep"
        assert main(["report", str(a), str(b), "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_mismatched_networks(self, tiny, tmp_path, capsys):
        run_a = self._solve(tiny, "a")
        doc = json.dumps({
            "base_mva": 100.0,
            "buses": [
                {"id": 1, "name": "s1", "substation": True},
                {"id": 2, "name": "x", "substation": False},
            ],
            "lines": [{"id": "L(1,2)", "from": 1, "to": 2, "x": 0.05,
                       "rating_mw": 10.0, "flexible": False}],
        })
        network = _write(tmp_path / "other.json", doc)
        loads = _write(tmp_path / "loads.csv", "hour,1,2\n1,0.000000,1.000000\n")
        prices = _write(tmp_path / "prices.csv", "hour,1\n1,25.000000\n")
        run_b = tmp_path / "b"
        assert main(["solve", "--network", network, "--loads", loads,
                     "--prices", prices, "--out", str(run_b)]) == 0
        code = main(["report", str(run_a), str(run_b),
                     "--out", str(tmp_path / "rep")])
        assert code == 1
        assert "different network" in capsys.readouterr().err

    def test_tampered_schedule_fails_roundtrip(self, tiny, capsys):
        run = self._solve(tiny, "run")
        schedule = (run / "schedule.csv").read_text().splitlines()
        schedule[1] = "1,1,1"  # closing both lines makes a substation loop
        (run / "schedule.csv").write_text("\n".join(schedule) + "\n")
        code = main(["report", str(run), "--out", str(tiny["dir"] / "rep")])
        assert code == 1
        assert "not radial" in capsys.readouterr().err

    def test_module_run_exits_2_on_a_missing_input(self, tiny):
        # run as `python -m reconf.cli`, the audit's errors must still be
        # caught: cli.py is then __main__ and the audit imports reconf.cli
        run = self._solve(tiny, "run")
        Path(tiny["network"]).unlink()
        out = subprocess.run(
            [sys.executable, "-m", "reconf.cli", "report", str(run),
             "--out", str(tiny["dir"] / "rep")], capture_output=True,
            text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(reconf.__file__).parents[1])})
        assert out.returncode == 2
        assert out.stderr.startswith("error: cannot read the network of run")
        assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("command, flags, load, network, run_json", [
    ("solve", [], "-5.0", None, None),
    ("solve", [], "nan", None, None),
    ("solve", ["--epsilon", "nan"], "5.0", None, None),
    ("solve", ["--epsilon", "inf"], "5.0", None, None),
    ("solve", ["--gap", "nan"], "5.0", None, None),
    ("solve", ["--scale", "nan"], "5.0", None, None),
    ("report", [], "5.0", None, {"epsilon": -1.0}),
    ("report", [], "5.0", None, {"scale": -1.0}),
    ("report", [], "5.0", None, {"horizon": 3}),
    ("validate", [], "5.0", ('"rating_mw": 10.0', '"rating_mw": NaN'), None),
    ("validate", [], "5.0", ('"rating_mw": 10.0', '"rating_mw": 1' + "0" * 400),
     None),
    ("solve", [], "5.0", ('"rating_mw": 10.0', '"rating_mw": NaN'), None),
    ("solve", [], "5.0", ('"x": 0.05', '"x": Infinity'), None),
    ("report", [], "5.0", ('"x": 0.05', '"x": Infinity'), {}),
    ("generate", ["--rating-scale", "-1"], "5.0", None, None),
    ("generate", ["--rating-scale", "nan"], "5.0", None, None),
], ids=["negative-load", "nan-load", "epsilon-nan", "epsilon-inf", "gap-nan",
        "scale-nan", "report-negative-epsilon", "report-negative-scale",
        "report-horizon-past-the-profiles", "validate-nan-rating",
        "validate-rating-past-the-float-range",
        "nan-rating", "infinite-reactance", "report-infinite-reactance",
        "generate-negative-rating-scale", "generate-nan-rating-scale"])
def test_refused_input_exits_2(tiny, capsys, command, flags, load, network,
                               run_json):
    """An out-of-range or non-finite input of `solve`, `validate` or
    `generate`, or in the run that `report` audits, is malformed: exit 2
    with a one-line message. network replaces a number of the network
    file; report reads the file so replaced after the solve, under its new
    digest."""
    loads = _write(tiny["dir"] / "loads.csv",
                   _TINY_LOADS.replace("5.000000", load, 1))
    bad_network = network and _tiny_doc().replace(*network, 1)
    run = tiny["dir"] / "run"
    argv = ["solve", "--network", tiny["network"], "--loads", loads,
            "--prices", tiny["prices"], "--out", str(run), *flags]
    if command == "report":
        assert main(argv) == 0
        record = json.loads((run / "run.json").read_text())
        if bad_network:
            Path(tiny["network"]).write_text(bad_network)
            record["sha256"]["network"] = hashlib.sha256(
                bad_network.encode()).hexdigest()
        (run / "run.json").write_text(json.dumps({**record, **run_json}))
        capsys.readouterr()
        argv = ["report", str(run), "--out", str(tiny["dir"] / "rep")]
    elif bad_network:
        Path(tiny["network"]).write_text(bad_network)
    if command == "validate":
        argv = ["validate", "--network", tiny["network"]]
    if command == "generate":
        argv = ["generate", "--case", "1", *flags, "--out", str(run)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def case3_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("case3")
    assert main(["generate", "--case", "3", "--out", str(base)]) == 0
    return base


@pytest.mark.parametrize("scale", ["0.7", "0.8", "0.9", "1.1"])
def test_printed_total_is_the_files_total(case3_inputs, tmp_path, capsys, scale):
    # at these scales the float sum of the hourly costs rounds to another
    # micro-unit than the sum of the rounded hourly entries
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["solve", "--network", str(case3_inputs / "network.json"),
                 "--loads", str(case3_inputs / "loads.csv"),
                 "--prices", str(case3_inputs / "prices.csv"),
                 "--out", str(out), "--scale", scale]) == 0
    printed = capsys.readouterr().out.split(",")[0].removeprefix("total cost ")
    label, in_cost = (out / "cost.csv").read_text().splitlines()[-1].split(",")
    in_summary = (out / "summary.txt").read_text().splitlines()[0]
    in_run = json.loads((out / "run.json").read_text())["total_cost"]
    assert label == "total"
    assert printed == in_cost == in_summary.removeprefix("total cost: ") == in_run


@pytest.fixture(scope="module")
def case1_run(tmp_path_factory):
    """The generated case 1 (seed 0, diurnal prices) solved for its day."""
    base = tmp_path_factory.mktemp("case1")
    assert main(["generate", "--case", "1", "--out", str(base)]) == 0
    assert main(["solve", "--network", str(base / "network.json"),
                 "--loads", str(base / "loads.csv"),
                 "--prices", str(base / "prices.csv"),
                 "--out", str(base / "run")]) == 0
    return base


class TestReportAudit:
    """report recomputes every hour from the inputs the run recorded."""

    def copy(self, case1_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(case1_run / "run", run)
        return run

    def report(self, run, tmp_path):
        return main(["report", str(run), "--out", str(tmp_path / "rep")])

    def test_run_records_its_inputs(self, case1_run):
        run = json.loads((case1_run / "run" / "run.json").read_text())
        for what in ("network", "loads", "prices"):
            data = Path(run[what]).read_bytes()
            assert run["sha256"][what] == hashlib.sha256(data).hexdigest()

    def test_untouched_run_passes(self, case1_run, tmp_path):
        assert self.report(self.copy(case1_run, tmp_path), tmp_path) == 0

    def test_edited_hour_cost_is_refused(self, case1_run, tmp_path, capsys):
        run = self.copy(case1_run, tmp_path)
        rows = (run / "cost.csv").read_text().splitlines()
        assert rows[1] == "1,21.070664"
        rows[1] = "1,20.000000"
        (run / "cost.csv").write_text("\n".join(rows) + "\n")
        assert self.report(run, tmp_path) == 1
        assert "cost.csv row 2" in capsys.readouterr().err

    def test_rewritten_schedule_cell_is_refused(self, case1_run, tmp_path, capsys):
        # "00" reads as an open line, but solve never writes it
        run = self.copy(case1_run, tmp_path)
        rows = (run / "schedule.csv").read_text().splitlines()
        head, sep, tail = rows[3].partition(",0")
        rows[3] = head + sep + "0" + tail
        (run / "schedule.csv").write_text("\n".join(rows) + "\n")
        assert self.report(run, tmp_path) == 1
        assert "schedule.csv row 4 differs" in capsys.readouterr().err

    def test_radial_schedule_over_a_rating_is_refused(self, case1_run, tmp_path,
                                                      capsys):
        # closing L(10,38), L(18,19), L(37,38) and L(5,6) in hour 15 is
        # radial but puts 0.429 MW on L(34,35), rated 0.407 MW
        run = self.copy(case1_run, tmp_path)
        net = parse_network((case1_run / "network.json").read_text())
        loads = np.loadtxt(case1_run / "loads.csv", delimiter=",", skiprows=1)
        closed = {"L(10,38)", "L(18,19)", "L(37,38)", "L(5,6)"}
        flows = solve_flows(net, closed | {l.id for l in net.nonflexible_lines},
                            apply_epsilon_loads(loads[14, 1:]))
        rating = net.lines_by_id["L(34,35)"].rating
        assert flows.flow("L(34,35)") == pytest.approx(0.429, abs=5e-4)
        assert abs(flows.flow("L(34,35)")) > rating == pytest.approx(0.407, abs=5e-4)
        with open(run / "schedule.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[15] = ["15"] + [str(int(lid in closed)) for lid in rows[0][1:]]
        with open(run / "schedule.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert self.report(run, tmp_path) == 1
        assert "hour 15 schedule breaks" in capsys.readouterr().err

    def test_changed_input_is_refused(self, case1_run, tmp_path, capsys):
        base = tmp_path / "inputs"
        shutil.copytree(case1_run, base, ignore=shutil.ignore_patterns("run"))
        run = tmp_path / "run"
        assert main(["solve", "--network", str(base / "network.json"),
                     "--loads", str(base / "loads.csv"),
                     "--prices", str(base / "prices.csv"), "--out", str(run),
                     "--horizon", "2"]) == 0
        assert self.report(run, tmp_path) == 0
        prices = (base / "prices.csv").read_text().replace("\n2,", "\n2,1", 1)
        (base / "prices.csv").write_text(prices)
        assert self.report(run, tmp_path) == 1
        assert "changed since the solve" in capsys.readouterr().err
