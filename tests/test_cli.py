"""Tests for the command-line interface (in-process, via main)."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import testerbounds
from testerbounds import bounds
from testerbounds.channel_opt import SolverError
from testerbounds.cli import main
from testerbounds.linalg import dumps_canonical
from testerbounds.sampling import haar_unitary
from testerbounds.testers import channel_from_unitary, channel_to_json, scenario_from_json

FULL_KEYS = ["combination", "trivial", "upper", "exact", "gap", "tradeoff", "tight",
             "tight_degenerate", "optimizer"]
# json.loads raises RecursionError, not ValueError, on deep nesting
DEEP = "[" * 100_000 + "]" * 100_000
BAD_SCENARIOS = ['{"tests": 5, "weights": [1.0]}', '{"tests": [], "weights": null}',
                 pytest.param(DEEP, id="deep-nesting")]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def mub_meb_file(tmp_path):
    path = tmp_path / "scenario.json"
    assert main(["gen", "mub-meb-2qubit", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def unitary_channel_file(tmp_path):
    ch = channel_from_unitary(haar_unitary(2, np.random.default_rng(7)))
    path = tmp_path / "channel.json"
    path.write_text(dumps_canonical(channel_to_json(ch)) + "\n")
    return path


class TestGen:
    @pytest.mark.parametrize("kind,d", [("state-mub", 2), ("example1", 2),
                                        ("example2", 2), ("meb", 2),
                                        ("mub-meb-2qubit", 2), ("state-mub", 3)])
    def test_kinds_produce_valid_scenarios(self, tmp_path, kind, d):
        path = tmp_path / "s.json"
        assert main(["gen", kind, "--d", str(d), "--out", str(path)]) == 0
        from testerbounds.testers import scenario_from_json
        scenario = scenario_from_json(json.loads(path.read_text()))
        assert len(scenario.tests) == 2

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "state-mub", "--d", "2")
        assert code == 0
        json.loads(out)

    def test_bad_dimension(self, capsys):
        code, _, err = run_cli(capsys, "gen", "state-mub", "--d", "1")
        assert code == 2
        assert err

    def test_unknown_kind_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "bogus")
        assert code == 2


class TestBound:
    def test_mub_meb_report(self, capsys, mub_meb_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "bound", str(mub_meb_file), "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["reports"]) == 16
        assert len(payload["scenario_digest"]) == 64
        for entry in payload["reports"]:
            assert entry["exact"] == pytest.approx(0.75, abs=1e-6)
            assert entry["trivial"] == pytest.approx(1.0, abs=1e-5)
            assert entry["tradeoff"] is True

    def test_digest_is_sha256_of_file_bytes(self, capsys, tmp_path):
        # reproducible with sha256sum on the scenario file
        path = tmp_path / "s.json"
        assert main(["gen", "state-mub", "--d", "2", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "bound", str(path), "--skip-exact")
        assert code == 0
        assert json.loads(out)["scenario_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_deterministic_bytes(self, capsys, mub_meb_file, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["bound", str(mub_meb_file), "--out", str(p1)]) == 0
        assert main(["bound", str(mub_meb_file), "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_lexicographic_order(self, capsys, mub_meb_file):
        code, out, _ = run_cli(capsys, "bound", str(mub_meb_file))
        combos = [tuple(e["combination"]) for e in json.loads(out)["reports"]]
        assert combos == sorted(combos)

    def test_cap_enforced(self, capsys, mub_meb_file):
        code, _, err = run_cli(capsys, "bound", str(mub_meb_file), "--cap", "4")
        assert code == 2
        assert "cap" in err
        code, out, _ = run_cli(capsys, "bound", str(mub_meb_file), "--cap", "4", "--no-cap")
        assert code == 0

    def test_skip_exact(self, capsys, mub_meb_file):
        code, out, _ = run_cli(capsys, "bound", str(mub_meb_file), "--skip-exact")
        assert code == 0
        entry = json.loads(out)["reports"][0]
        assert "exact" not in entry
        assert entry["upper"] == pytest.approx(0.75, abs=1e-9)
        assert entry["trivial"] == pytest.approx(1.0, abs=1e-5)

    def test_skip_trivial(self, capsys, mub_meb_file):
        code, out, _ = run_cli(capsys, "bound", str(mub_meb_file), "--skip-trivial")
        assert code == 0
        for entry in json.loads(out)["reports"]:
            assert list(entry) == [k for k in FULL_KEYS if k not in ("trivial", "tradeoff")]
            assert entry["exact"] == pytest.approx(0.75, abs=1e-6)
            assert 0.0 <= entry["gap"] <= 1e-6
            assert entry["optimizer"]["kind"] == "choi"

    def test_key_order(self, capsys, mub_meb_file):
        _, full, _ = run_cli(capsys, "bound", str(mub_meb_file))
        _, neither, _ = run_cli(capsys, "bound", str(mub_meb_file),
                                "--skip-exact", "--skip-trivial")
        assert list(json.loads(full)["reports"][0]) == FULL_KEYS
        assert list(json.loads(neither)["reports"][0]) == [
            "combination", "upper", "tight", "tight_degenerate"]

    def test_failed_solve_recorded_per_entry(self, capsys, mub_meb_file, monkeypatch):
        scenario = scenario_from_json(json.loads(mub_meb_file.read_text()))
        failing = scenario.testers()[0].element("x1_2").mat
        solve = bounds.maximize_over_channels

        def flaky(m, tol, start=None):
            if np.array_equal(m.mat, failing):
                raise SolverError("injected failure")
            return solve(m, tol=tol, start=start)

        monkeypatch.setattr(bounds, "maximize_over_channels", flaky)
        code, out, err = run_cli(capsys, "bound", str(mub_meb_file))
        assert code == 3
        assert "4 of 16" in err
        entries = json.loads(out)["reports"]
        assert len(entries) == 16
        for entry in entries:
            if entry["combination"][0] == "x1_2":
                assert "injected failure" in entry["error"]
                assert "trivial" not in entry and "tradeoff" not in entry
                assert entry["exact"] == pytest.approx(0.75, abs=1e-6)
            else:
                assert list(entry) == FULL_KEYS
        library = bounds.scenario_report(scenario, tol=1e-6)
        assert [bounds.report_to_json(r) for r in library] == entries

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
    @pytest.mark.parametrize("skips", [[], ["--skip-exact", "--skip-trivial"]],
                             ids=["full", "skip-both"])
    def test_bad_tol_rejected(self, capsys, mub_meb_file, tol, skips):
        code, out, err = run_cli(capsys, "bound", str(mub_meb_file), f"--tol={tol}", *skips)
        assert code == 2
        assert out == ""
        assert "tolerance must be positive and finite" in err

    @pytest.mark.parametrize("text", BAD_SCENARIOS)
    def test_malformed_scenario(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "bound", str(path))
        assert code == 2
        assert "cannot load scenario" in err

    def test_nan_weight_rejected(self, capsys, mub_meb_file, tmp_path):
        obj = json.loads(mub_meb_file.read_text())
        obj["weights"][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        assert '"weights": [NaN' in path.read_text()
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "bound", str(path), "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert "weights must be finite" in err
        assert not out_path.exists()

    def test_state_mub_values(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        assert main(["gen", "state-mub", "--d", "2", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "bound", str(path))
        assert code == 0
        expected = 0.5 * (1 + 1 / np.sqrt(2))
        for entry in json.loads(out)["reports"]:
            assert entry["exact"] == pytest.approx(expected, abs=1e-6)
            assert entry["upper"] == pytest.approx(expected, abs=1e-9)

    def test_example2_trivial_bound(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        assert main(["gen", "example2", "--d", "2", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "bound", str(path), "--skip-exact", "--tol", "1e-9")
        assert code == 0
        for entry in json.loads(out)["reports"]:
            assert entry["trivial"] == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("field,value", [("d_anc", 2.7), ("dims", [2.9, 2]),
                                             ("d_anc", 2.0), ("d_in", True)])
    def test_non_integer_dimension_rejected(self, capsys, mub_meb_file, tmp_path,
                                            field, value):
        obj = json.loads(mub_meb_file.read_text())
        test = obj["tests"][0]
        if field == "dims":
            test["input_state"]["dims"] = value
        else:
            test[field] = value
        path = tmp_path / "bad-dims.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "bound", str(path))
        assert code == 2
        assert out == ""
        assert "cannot load scenario" in err
        assert "must be an integer" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bound", str(tmp_path / "nope.json"))
        assert code == 2

    def test_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "bound", str(bad))
        assert code == 2


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--trials", "4", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert all(c["worst_residual"] < 1e-6 for c in payload["checks"]
                   if c["name"] != "uniform_marginal_unit_cap")
        assert err.count("PASS") == len(payload["checks"])

    def test_injected_fault_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "3", "--seed", "11",
                               "--inject-fault")
        assert code == 1
        payload = json.loads(out)
        assert any(not c["passed"] for c in payload["checks"])

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2


class TestSimulate:
    def test_histogram_and_checks(self, capsys, mub_meb_file, unitary_channel_file):
        code, out, _ = run_cli(capsys, "simulate", str(mub_meb_file),
                               str(unitary_channel_file), "--n", "20000", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert sum(payload["histogram"].values()) == 20000
        assert payload["violations"] == 0
        for check in payload["checks"]:
            assert check["empirical"] <= check["bound"] + 5 * check["sigma"]

    def test_reproducible(self, capsys, mub_meb_file, unitary_channel_file):
        _, out1, _ = run_cli(capsys, "simulate", str(mub_meb_file),
                             str(unitary_channel_file), "--n", "5000", "--seed", "8")
        _, out2, _ = run_cli(capsys, "simulate", str(mub_meb_file),
                             str(unitary_channel_file), "--n", "5000", "--seed", "8")
        assert out1 == out2

    def test_dimension_mismatch(self, capsys, mub_meb_file, tmp_path):
        ch = channel_from_unitary(haar_unitary(3, np.random.default_rng(1)))
        path = tmp_path / "ch3.json"
        path.write_text(dumps_canonical(channel_to_json(ch)))
        code, _, err = run_cli(capsys, "simulate", str(mub_meb_file), str(path))
        assert code == 2

    @pytest.mark.parametrize("d_in,d_out", [(3, 5), (2, 5), (3, 2)])
    def test_declared_channel_dims_enforced(self, capsys, mub_meb_file,
                                            unitary_channel_file, tmp_path, d_in, d_out):
        # a 2x2 unitary declared as a d_in -> d_out channel must not load as 2 -> 2
        obj = json.loads(unitary_channel_file.read_text())
        obj["d_in"], obj["d_out"] = d_in, d_out
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "simulate", str(mub_meb_file), str(path))
        assert code == 2
        assert out == ""
        assert "cannot load channel" in err

    def test_deeply_nested_channel(self, capsys, mub_meb_file, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        code, out, err = run_cli(capsys, "simulate", str(mub_meb_file), str(path))
        assert code == 2
        assert out == ""
        assert "cannot load channel" in err

    @pytest.mark.parametrize("text", BAD_SCENARIOS)
    def test_malformed_scenario(self, capsys, tmp_path, unitary_channel_file, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "simulate", str(path), str(unitary_channel_file))
        assert code == 2
        assert "cannot load scenario" in err

    def test_cap_enforced(self, capsys, mub_meb_file, unitary_channel_file):
        code, _, err = run_cli(capsys, "simulate", str(mub_meb_file),
                               str(unitary_channel_file), "--cap", "4")
        assert code == 2
        assert "exceed the cap 4" in err

    def test_bad_n(self, capsys, mub_meb_file, unitary_channel_file):
        code, _, _ = run_cli(capsys, "simulate", str(mub_meb_file),
                             str(unitary_channel_file), "--n", "0")
        assert code == 2


class TestOutputBytes:
    """Every command writes exactly json.dumps(obj, indent=2), to stdout or --out."""

    @staticmethod
    def check(capsys, tmp_path, *args):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        path = tmp_path / "out.json"
        assert main([*args, "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_bytes() == out.encode("ascii")

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["state-mub", "example1", "example2", "meb", "mub-meb-2qubit"])
    def test_gen(self, capsys, tmp_path, kind, d):
        self.check(capsys, tmp_path, "gen", kind, "--d", str(d))

    @pytest.mark.parametrize("skips", [[], ["--skip-exact"], ["--skip-trivial"],
                                       ["--skip-exact", "--skip-trivial"]])
    @pytest.mark.parametrize("kind,d", [("mub-meb-2qubit", 2), ("meb", 3)])
    def test_bound(self, capsys, tmp_path, kind, d, skips):
        path = tmp_path / "s.json"
        assert main(["gen", kind, "--d", str(d), "--out", str(path)]) == 0
        self.check(capsys, tmp_path, "bound", str(path), *skips)

    def test_verify(self, capsys, tmp_path):
        self.check(capsys, tmp_path, "verify", "--trials", "2")

    def test_simulate(self, capsys, tmp_path, mub_meb_file, unitary_channel_file):
        self.check(capsys, tmp_path, "simulate", str(mub_meb_file), str(unitary_channel_file),
                   "--n", "2000")


class TestTopLevel:
    def test_no_command_usage_error(self, capsys):
        assert main([]) == 2

    def test_runtime_imports_numpy_only(self, tmp_path):
        # gen and bound in a fresh interpreter may import only the standard
        # library, numpy and the package itself, though scipy and friends
        # may be installed; modules that site loaded before the run are exempt
        script = textwrap.dedent("""
            import contextlib, io, sys
            before = set(sys.modules)
            from testerbounds.cli import main
            path = sys.argv[1]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen", "mub-meb-2qubit", "--out", path]) == 0
                assert main(["bound", path]) == 0
            tops = {name.partition(".")[0] for name in set(sys.modules) - before}
            allowed = set(sys.stdlib_module_names) | {"numpy", "testerbounds"}
            print(" ".join(sorted(tops - allowed)))
        """)
        src = str(Path(testerbounds.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "s.json")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
