import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import reconf
from hour_oracle import enumerate_hour
from reconf import cli, optimize
from reconf.cli import main
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

    def test_env_override(self, tiny, monkeypatch):
        monkeypatch.setenv("RECONF_SCALE", "1.2")
        out = tiny["dir"] / "env_run"
        assert main(["solve", "--network", tiny["network"],
                     "--loads", tiny["loads"], "--prices", tiny["prices"],
                     "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["scale"] == 1.2

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
        # nor does a solve import the case generator
        script = (
            "import sys\n"
            "from reconf.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'reconf.lp' in sys.modules,"
            " 'reconf.casegen' in sys.modules)\n")
        argv = ["solve", "--network", tiny["network"], "--loads", tiny["loads"],
                "--prices", tiny["prices"], "--out", str(tiny["dir"] / "run")]
        out = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True,
            text=True, timeout=60, check=True,
            env={**{k: v for k, v in os.environ.items()
                    if not k.startswith("RECONF_")},
                 "PYTHONPATH": str(Path(reconf.__file__).parents[1])})
        assert out.stdout.split()[-3:] == ["0", "False", "False"]

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
