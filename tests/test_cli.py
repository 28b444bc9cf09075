"""Tests for the command-line interface (in-process, via main)."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import testerbounds
from testerbounds import bounds, channel_opt, checks
from testerbounds.__main__ import THREAD_VARIABLES, one_blas_thread
from testerbounds.channel_opt import SolverError
from testerbounds.cli import main
from testerbounds.linalg import HermitianOperator, dumps_canonical, operator_to_json
from testerbounds.sampling import haar_unitary
from testerbounds.testers import (Channel, channel_from_json, scenario_from_json,
                                 scenario_to_json)

FULL_KEYS = ["combination", "trivial", "upper", "exact", "gap", "tradeoff", "tight",
             "tight_degenerate", "optimizer"]
# json.loads raises RecursionError, not ValueError, on deep nesting
DEEP = "[" * 100_000 + "]" * 100_000
# scenario files gen wrote before format 2, with [re, im] rows and no "format" key
FORMAT1_FILES = sorted((Path(__file__).parent / "fixtures" / "format1").glob("*.json"))
BAD_SCENARIOS = ['{"tests": 5, "weights": [1.0]}', '{"tests": [], "weights": null}',
                 pytest.param(DEEP, id="deep-nesting")]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(testerbounds.__file__).resolve().parents[1])


def fresh_python(*args: str, environ=None) -> str:
    """stdout of ``python *args`` in a fresh interpreter, run with ``environ`` (default
    this one's) and the package imported from this checkout; it must exit 0."""
    environ = dict(os.environ if environ is None else environ)
    environ["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=environ, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture()
def mub_meb_file(tmp_path):
    path = tmp_path / "scenario.json"
    assert main(["gen", "mub-meb-2qubit", "--out", str(path)]) == 0
    return path


def unitary_payload(u):
    """The unitary channel file of ``u``, written out literally."""
    return {"kind": "unitary", "d_in": len(u), "d_out": len(u), "data": u}


@pytest.fixture()
def unitary_channel_file(tmp_path):
    path = tmp_path / "channel.json"
    u = haar_unitary(2, np.random.default_rng(7))
    path.write_text(dumps_canonical(unitary_payload(u)) + "\n")
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
        code, out, _ = run_cli(capsys, "bound", str(mub_meb_file), "--no-cap")
        assert code == 0
        assert len(json.loads(out)["reports"]) == 16

    @pytest.mark.parametrize("cap", ["3", "0"])
    def test_cap_and_no_cap_exclusive(self, capsys, mub_meb_file, cap):
        code, out, err = run_cli(capsys, "bound", str(mub_meb_file), "--cap", cap, "--no-cap")
        assert code == 2
        assert out == ""
        assert "not allowed with argument --cap" in err

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
        written = dumps_canonical({"reports": [bounds.report_to_json(r) for r in library]})
        assert json.loads(written)["reports"] == entries

    @pytest.mark.parametrize("tight,words", [(False, "exceeds upper"), (True, "!= upper")])
    def test_broken_inequality_exits_one(self, capsys, mub_meb_file, monkeypatch, tight, words):
        # a norm cap below the exact bound 3/4 breaks the report's own
        # inequalities: the report's check catches it, or, when the cap is
        # flagged tight, the check that the exact bound attains it
        tightness = bounds._tightness
        monkeypatch.setattr(bounds, "_tightness", lambda mat, dims: dataclasses.replace(
            tightness(mat, dims), upper=0.5, tight=tight))
        code, out, err = run_cli(capsys, "bound", str(mub_meb_file))
        assert (code, out) == (1, "")
        assert err.startswith("inequality failure: ") and words in err

    def test_image_optimizer_loads_as_channel(self, capsys, tmp_path):
        # an image's optimizer is its source's moved by W, never validated as
        # a Channel; written as a Choi file, it loads through the checks
        scenario_path, report_path = tmp_path / "meb3.json", tmp_path / "report.json"
        assert main(["gen", "meb", "--d", "3", "--out", str(scenario_path)]) == 0
        assert main(["bound", str(scenario_path), "--out", str(report_path)]) == 0
        scenario = scenario_from_json(json.loads(scenario_path.read_text()))
        images = {r.combination: r.optimizer
                  for r in bounds.scenario_report(scenario, tol=1e-6) if r.path == "start"}
        assert images
        for entry in json.loads(report_path.read_text())["reports"]:
            if tuple(entry["combination"]) in images:
                assert entry["optimizer"]["kind"] == "choi"
                channel = channel_from_json(entry["optimizer"])
                assert np.array_equal(channel.choi.mat,
                                      images[tuple(entry["combination"])].choi.mat)

    def test_payloads_hold_matrices_as_arrays(self, mub_meb_file):
        # a cost guard: matrices go to the writer as the arrays they are stored in,
        # or a scenario's as one base64 string, never copied into nested [re, im] lists
        scenario = scenario_from_json(json.loads(mub_meb_file.read_text()))
        report = bounds.scenario_report(scenario, tol=1e-6)[0]
        assert bounds.report_to_json(report)["optimizer"]["data"] is report.optimizer.choi.mat
        op = scenario.tests[0].input_state
        assert isinstance(operator_to_json(op)["b64"], str)

    def test_report_streams_entries(self, mub_meb_file, monkeypatch):
        # stdout is looked up when the report is written, and gets each entry
        # as its own piece, so one entry's text is held at a time
        pieces = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=pieces.append))
        assert main(["bound", str(mub_meb_file)]) == 0
        # the header with the first entry, 15 more entries, the closing text, the newline
        assert len(pieces) == 1 + 15 + 2
        assert pieces[1].lstrip(", \n").startswith('{\n      "combination"')
        assert len(json.loads("".join(pieces))["reports"]) == 16

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

    @pytest.mark.parametrize("weights", [["0.5", "0.5"], [True, False]], ids=["str", "bool"])
    def test_non_number_weight_rejected(self, capsys, mub_meb_file, tmp_path, weights):
        # each sums to 1 once passed through float(), which accepted both
        obj = json.loads(mub_meb_file.read_text())
        obj["weights"] = weights
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "bound", str(path))
        assert code == 2
        assert out == ""
        assert "cannot load scenario" in err and "weights must be numbers" in err

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
        # the file is format 2, so dims are checked before they size the b64 bytes
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

    @pytest.mark.parametrize("edit,message", [
        (lambda obj, m: m.update(b64="!" + m["b64"][1:]), "b64 is not base64"),
        (lambda obj, m: m.update(b64=m["b64"][:-4]), "b64 holds 255 bytes, a 4x4 matrix 256"),
        (lambda obj, m: obj.update(format=3), "unknown scenario format 3"),
        (lambda obj, m: obj.update(format=2.0), "unknown scenario format 2.0"),
        (lambda obj, m: obj.update(format=True), "unknown scenario format True"),
        (lambda obj, m: m.update(data=[[[1.0, 0.0]]]) or m.pop("b64"), "needs 'b64'"),
        (lambda obj, m: obj.pop("format"), "needs 'data'"),
    ], ids=["bad-character", "wrong-length", "format-3", "format-float", "format-bool",
            "rows-in-format-2", "b64-in-format-1"])
    def test_malformed_format2_rejected(self, capsys, mub_meb_file, tmp_path, edit, message):
        obj = json.loads(mub_meb_file.read_text())
        edit(obj, obj["tests"][0]["povm"][0]["effect"])  # a 4x4 effect, 256 bytes
        path = tmp_path / "bad-format.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "bound", str(path))
        assert code == 2
        assert out == ""
        assert "cannot load scenario" in err and message in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bound", str(tmp_path / "nope.json"))
        assert code == 2

    def test_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "bound", str(bad))
        assert code == 2


class TestScenarioFormats:
    """gen writes format 2; the committed format-1 files, gen's output before it,
    load to the same matrices bit for bit and report the same bytes."""

    @pytest.fixture(params=FORMAT1_FILES, ids=lambda path: path.stem)
    def twins(self, request, tmp_path):
        """A format-1 file and its format-2 twin, written from what it loads."""
        old = request.param
        twin = tmp_path / f"{old.stem}-format2.json"
        loaded = scenario_from_json(json.loads(old.read_bytes()))
        twin.write_text(dumps_canonical(scenario_to_json(loaded)) + "\n")
        return old, twin

    @staticmethod
    def bits(path):
        obj = json.loads(path.read_bytes())
        scenario = scenario_from_json(obj)
        ops = [(label, op.dims, op.mat.tobytes()) for test in scenario.tests
               for label, op in [("input", test.input_state), *test.povm]]
        return obj.get("format"), scenario.weights, ops

    def test_fixtures_are_format_1(self):
        assert [path.name for path in FORMAT1_FILES] == ["meb-d3.json", "mub-meb-2qubit.json"]
        for path in FORMAT1_FILES:
            assert '"data"' in path.read_text() and '"b64"' not in path.read_text()

    def test_twins_load_the_same_bits(self, twins):
        (fmt_old, *old), (fmt_new, *new) = map(self.bits, twins)
        assert (fmt_old, fmt_new) == (None, 2)
        assert old == new

    def test_twins_report_alike_but_for_the_digest(self, capsys, twins):
        texts = []
        for path in twins:
            code, out, _ = run_cli(capsys, "bound", str(path))
            assert code == 0
            texts.append(out)
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in twins]
        assert digests[0] != digests[1]
        assert [json.loads(text)["scenario_digest"] for text in texts] == digests
        assert texts[0].replace(digests[0], "") == texts[1].replace(digests[1], "")


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

    def test_orbit_reuse_requires_overlapping_brackets(self, monkeypatch):
        # each transported bracket moved to end tol / 4 below the direct one:
        # within tol of the direct solve, but the two brackets no longer meet
        report = checks.scenario_report

        def shifted(scenario, tol):
            entries = [SimpleNamespace(**vars(r)) for r in report(scenario, tol=tol)]
            for r in entries:
                if r.path == "start":
                    r.exact = bounds.exact_bound(scenario, r.combination, tol).value \
                        - r.gap - tol / 4
            return entries

        assert checks.check_orbit_reuse(np.random.default_rng(5), 1).passed
        monkeypatch.setattr(checks, "scenario_report", shifted)
        res = checks.check_orbit_reuse(np.random.default_rng(5), 1)
        assert not res.passed and res.worst_residual <= 1e-6

    @pytest.mark.parametrize("scale", [1.1, None], ids=["scaled", "other-channel"])
    def test_orbit_reuse_checks_moved_channels(self, scale, monkeypatch):
        # each moved channel J' replaced after its start certified: scaled by
        # 1.1, it is no channel, and tr[M J'] is 1.1 exact; the maximally
        # mixed channel is one, but tr[M J'] is not exact either
        from_start = channel_opt._from_start

        def replaced(m, tol, start):
            res = from_start(m, tol, start)
            if res is None:
                return None
            choi = np.eye(m.size) / m.dims[1] if scale is None else scale * res.optimizer.choi.mat
            channel = Channel._unchecked(HermitianOperator(choi, m.dims))
            return dataclasses.replace(res, optimizer=channel)

        assert checks.check_orbit_reuse(np.random.default_rng(5), 1).passed
        monkeypatch.setattr(channel_opt, "_from_start", replaced)
        res = checks.check_orbit_reuse(np.random.default_rng(5), 1)
        assert not res.passed and res.worst_residual <= 1e-6
        assert " 0 transported" not in res.detail

    def test_closed_form_check_requires_overlapping_brackets(self, monkeypatch):
        # each closed-form bracket moved 2 tol down: its upper end falls below
        # the interior point's lower end
        solve = checks.maximize_over_channels

        def shifted(m, tol):
            res = solve(m, tol=tol)
            if res.path != "closed_form":
                return res
            return dataclasses.replace(res, value=res.value - 2 * tol,
                                       dual_value=res.dual_value - 2 * tol)

        assert checks.check_closed_form(np.random.default_rng(5), 1).passed
        monkeypatch.setattr(checks, "maximize_over_channels", shifted)
        res = checks.check_closed_form(np.random.default_rng(5), 1)
        assert not res.passed and res.worst_residual > 0


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
        path = tmp_path / "ch3.json"
        u = haar_unitary(3, np.random.default_rng(1))
        path.write_text(dumps_canonical(unitary_payload(u)))
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

    def test_cap_and_no_cap_exclusive(self, capsys, mub_meb_file, unitary_channel_file):
        code, out, err = run_cli(capsys, "simulate", str(mub_meb_file),
                                 str(unitary_channel_file), "--cap", "3", "--no-cap")
        assert code == 2
        assert out == ""
        assert "not allowed with argument --cap" in err

    def test_bad_n(self, capsys, mub_meb_file, unitary_channel_file):
        code, _, _ = run_cli(capsys, "simulate", str(mub_meb_file),
                             str(unitary_channel_file), "--n", "0")
        assert code == 2


class TestOutputBytes:
    """Every command writes exactly json.dumps(obj, indent=2), to stdout or --out."""

    @staticmethod
    def check(capsys, tmp_path, *args, code=0):
        first, out, _ = run_cli(capsys, *args)
        assert first == main([*args, "--out", str(tmp_path / "out.json")]) == code
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert (tmp_path / "out.json").read_bytes() == out.encode("ascii")

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["state-mub", "example1", "example2", "meb", "mub-meb-2qubit"])
    def test_gen(self, capsys, tmp_path, kind, d):
        self.check(capsys, tmp_path, "gen", kind, "--d", str(d))

    @pytest.mark.parametrize("skips", [[], ["--skip-exact"], ["--skip-trivial"],
                                       ["--skip-exact", "--skip-trivial"]])
    @pytest.mark.parametrize("kind,d", [("state-mub", 2), ("example1", 2), ("example2", 2),
                                        ("meb", 2), ("mub-meb-2qubit", 2), ("meb", 3)])
    def test_bound(self, capsys, tmp_path, kind, d, skips):
        # the report is streamed entry by entry, to stdout or to the file
        path = tmp_path / "s.json"
        assert main(["gen", kind, "--d", str(d), "--out", str(path)]) == 0
        self.check(capsys, tmp_path, "bound", str(path), *skips)

    def test_bound_with_failed_solves(self, capsys, tmp_path, mub_meb_file, monkeypatch):
        scenario = scenario_from_json(json.loads(mub_meb_file.read_text()))
        failing = scenario.testers()[0].element("x1_2").mat
        solve = bounds.maximize_over_channels

        def flaky(m, tol, start=None):
            if np.array_equal(m.mat, failing):
                raise SolverError("injected failure")
            return solve(m, tol=tol, start=start)

        monkeypatch.setattr(bounds, "maximize_over_channels", flaky)
        self.check(capsys, tmp_path, "bound", str(mub_meb_file), code=3)
        entries = json.loads((tmp_path / "out.json").read_text())["reports"]
        assert sum("error" in e for e in entries) == 4

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
        assert fresh_python("-c", script, str(tmp_path / "s.json")).strip() == ""

    @pytest.mark.parametrize("statement,unloaded", [
        # the entry point settles the BLAS threads before anything loads numpy
        ("import testerbounds.__main__", ["numpy", "testerbounds.linalg"]),
        ("import testerbounds.testers", [f"testerbounds.{name}" for name in (
            "bounds", "channel_opt", "scenarios", "checks", "sampling", "cli")]),
    ])
    def test_import_loads_only_what_it_needs(self, statement, unloaded):
        script = f"import sys\n{statement}\nprint(sorted(set(sys.modules) & {set(unloaded)!r}))"
        assert fresh_python("-c", script).strip() == "[]"

    def test_bound_loads_no_checks_or_scenarios(self, mub_meb_file):
        script = textwrap.dedent("""
            import contextlib, io, sys
            from testerbounds.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["bound", sys.argv[1]]) == 0
            print(sorted(m for m in sys.modules if m.startswith("testerbounds.")))
        """)
        loaded = fresh_python("-c", script, str(mub_meb_file)).strip()
        assert loaded == repr([f"testerbounds.{name}" for name in (
            "bounds", "channel_opt", "cli", "linalg", "testers")])

    def test_every_public_name_resolves(self):
        script = textwrap.dedent("""
            import testerbounds
            missing = [name for name in testerbounds.__all__
                       if getattr(testerbounds, name, None) is None]
            namespace = {}
            exec("from testerbounds import *", namespace)
            unbound = sorted(set(testerbounds.__all__) - set(namespace))
            print(missing, unbound, set(testerbounds.__all__) <= set(dir(testerbounds)))
        """)
        assert fresh_python("-c", script).strip() == "[] [] True"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            getattr(testerbounds, "nonexistent")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestEntryPoint:
    @pytest.mark.parametrize("preset", [None, *THREAD_VARIABLES])
    def test_one_blas_thread_unless_set(self, preset):
        environ = {"PATH": "/bin"} if preset is None else {"PATH": "/bin", preset: "3"}
        before = dict(environ)
        one_blas_thread(environ)
        if preset is None:
            assert environ == {**before, "OPENBLAS_NUM_THREADS": "1"}
        else:
            assert environ == before

    def test_output_does_not_depend_on_thread_count(self, mub_meb_file):
        environ = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        default = fresh_python("-m", "testerbounds", "bound", str(mub_meb_file), environ=environ)
        two = fresh_python("-m", "testerbounds", "bound", str(mub_meb_file),
                           environ={**environ, "OPENBLAS_NUM_THREADS": "2"})
        assert default == two
        assert json.loads(default)["scenario_digest"] == hashlib.sha256(
            mub_meb_file.read_bytes()).hexdigest()
