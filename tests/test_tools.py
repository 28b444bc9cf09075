"""tools/report_diff.py, its last summary line too, on reports written by the
CLI and edited by hand, tools/stress_grid.py on one seed, its table and its
iteration sums, tools/output_digests.py once, tools/oneshot.py on one pair and
tools/bench_pairs.py's summary on canned result lines, its options, one
library run of this checkout and, in a git checkout, its export of a
revision."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from testerbounds.cli import main


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_diff = _load("report_diff")
stress_grid = _load("stress_grid")
output_digests = _load("output_digests")
oneshot = _load("oneshot")
bench_pairs = _load("bench_pairs")


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("report")
    assert main(["gen", "state-mub", "--d", "2", "--out", str(tmp / "s.json")]) == 0
    assert main(["bound", str(tmp / "s.json"), "--out", str(tmp / "r.json")]) == 0
    return json.loads((tmp / "r.json").read_text())


def run(tmp_path, before: dict, after: dict) -> int:
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, payload in zip(paths, (before, after)):
        path.write_text(json.dumps(payload))
    return report_diff.main([str(p) for p in paths])


def test_identical_reports_pass(report, tmp_path, capsys):
    assert run(tmp_path, report, report) == 0
    out = capsys.readouterr().out
    assert "0 flags changed; largest change 0.000e+00" in out
    assert out.splitlines()[-1] == "flag changes by field: none"


@pytest.mark.parametrize("shift,code", [(4e-7, 0), (2e-6, 1)])
def test_moved_value_within_tol(report, tmp_path, capsys, shift, code):
    after = json.loads(json.dumps(report))
    after["reports"][2]["trivial"] += shift
    after["reports"][3]["optimizer"]["data"][0][1][1] -= shift / 2
    assert run(tmp_path, report, after) == code
    out = capsys.readouterr().out
    assert f"trivial    {shift:.3e}  at x1_1,x2_0" in out
    assert f"optimizer  {shift / 2:.3e}  at x1_1,x2_1" in out


@pytest.mark.parametrize("edit,words", [
    (lambda r: r["reports"][1].update(tight=not r["reports"][1]["tight"]), "flag tight at x1_0,x2_1"),
    (lambda r: r["reports"][0].pop("exact"), "flag exact at x1_0,x2_0: present -> absent"),
    (lambda r: r["reports"][0].update(error="exact bound failed"), "flag error at x1_0,x2_0"),
    (lambda r: r.update(tol=1e-7), "flag tol: 1e-06 -> 1e-07"),
    (lambda r: r["reports"].pop(), "flag entries: 4 -> 3"),
], ids=["tight", "missing-bound", "error", "tol", "entries"])
def test_changed_flag_fails(report, tmp_path, capsys, edit, words):
    after = json.loads(json.dumps(report))
    edit(after)
    assert run(tmp_path, report, after) == 1
    assert words in capsys.readouterr().out


def test_summary_counts_flags_by_field_and_direction(report, tmp_path, capsys):
    after = json.loads(json.dumps(report))
    for entry in after["reports"][1:3]:
        entry["tight"] = not entry["tight"]
    after["reports"][2]["tight_degenerate"] = True
    after["reports"][3].pop("exact")
    assert run(tmp_path, report, after) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "flag changes by field: exact present -> absent: 1 (0 on tight_degenerate entries); "
        "tight True -> False: 2 (1 on tight_degenerate entries); "
        "tight_degenerate False -> True: 1 (1 on tight_degenerate entries)")


def test_stress_grid_one_seed():
    # solve_grid lets every exception but SolverError escape; the table's
    # third column counts returned results with value > dual_value, its last
    # the certified results whose moved start certifies their image: on this
    # seed all of them at every scale, as the guard on eps = n max|M - M_s|
    # scales with max(1, max|M|)
    outcomes = stress_grid.solve_grid(1)
    assert len(outcomes) == 240
    errors = {(1.0, 1e-12): 3, (1e6, 1e-6): 3, (1e8, 1e-6): 11}
    assert stress_grid.table(outcomes) == {
        pair: (24, errors.get(pair, 0), 0, 24 - errors.get(pair, 0))
        for pair in stress_grid.PAIRS}


def test_stress_grid_iterations_one_seed():
    # iteration counts do not depend on the machine, so the sums per class pin
    # the solver's iterates at every scale and tolerance of the grid
    assert stress_grid.iterations(stress_grid.solve_grid(1)) == {
        (1.0, 1e-6): 126, (1.0, 1e-9): 178, (1.0, 1e-12): 250, (1e-6, 1e-12): 212,
        (1e-3, 1e-9): 163, (1e3, 1e-6): 167, (1e6, 1e-6): 213, (1e8, 1e-6): 86,
        (1e2, 1e-9): 243, (1e-6, 1e-9): 157}


def test_output_digests_lines(tmp_path, capsys):
    # every command exits 0 and prints one "<sha256>  <name>" line under a
    # name of its own, so two checkouts' lines pair up under diff
    output_digests.print_digests(tmp_path)
    lines = capsys.readouterr().out.splitlines()
    matches = [re.fullmatch(r"[0-9a-f]{64}  (\S.*)", line) for line in lines]
    assert lines and all(matches), lines
    names = [m.group(1) for m in matches]
    assert not [name for name in names if re.search(r"\(exit \d+\)$", name)]
    assert len(set(names)) == len(names)


def test_oneshot_one_pair(capsys):
    # this checkout against itself: both commands run, print the same bytes and
    # get a table; a tree with __main__ runs as python -m testerbounds
    src = Path(__file__).resolve().parent.parent / "src"
    assert oneshot._module(src) == "testerbounds"
    assert oneshot.main([str(src), str(src), "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == list(oneshot.COMMANDS)
    assert sum(bool(re.fullmatch(r"  (base|head) median [\d.]+ ms \(quartiles [\d.]+-[\d.]+\)",
                                 line)) for line in lines) == 4
    assert sum(bool(re.fullmatch(r"  head - base [+-][\d.]+ ms; head won [01] of 1 pairs",
                                 line)) for line in lines) == 2


def result_line(**values) -> str:
    """One canned ``bench/run.py`` result line, correct, with the given metric values."""
    return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}})


def test_bench_pairs_summary():
    # pairs won follow each metric's direction and ties count for neither
    # side; quartiles are statistics.quantiles' (exclusive method)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["end_to_end"]]
    assert names == ["report_s", "combos_per_s", "setup_s", "peak_rss_mb", "ok_frac"]
    rows = {"report_s": ([0.12, 0.11, 0.13, 0.10], [0.10, 0.10, 0.11, 0.11]),
            "combos_per_s": ([100, 110, 90, 120], [120, 110, 100, 100]),
            "setup_s": ([0.2, 0.2, 0.2, 0.2], [0.2, 0.2, 0.2, 0.2]),
            "peak_rss_mb": ([48.0, 48.2, 48.1, 48.1], [48.1, 48.2, 48.0, 48.1]),
            "ok_frac": ([1.0] * 4, [1.0] * 4)}
    base, head = ([result_line(**{k: rows[k][side][i] for k in names}) for i in range(4)]
                  for side in (0, 1))
    lines, ok = bench_pairs.summarize(spec["end_to_end"], base, head)
    assert ok
    assert lines[:4] == ["report_s (s, lower is better)",
                         "  base median 0.115 (quartiles 0.1025-0.1275)",
                         "  head median 0.105 (quartiles 0.1-0.11)",
                         "  head - base -8.7 %; base won 1, head won 3 of 4 pairs"]
    assert lines[4] == "combos_per_s (1/s, higher is better)"
    assert lines[7] == "  head - base +0.0 %; base won 1, head won 2 of 4 pairs"
    assert lines[11] == "  head - base +0.0 %; base won 0, head won 0 of 4 pairs"
    assert lines[13:16] == ["  base median 48.1 (quartiles 48.025-48.175)",
                            "  head median 48.1 (quartiles 48.025-48.175)",
                            "  head - base +0.0 %; base won 1, head won 1 of 4 pairs"]
    assert len(lines) == 4 * len(names)
    # a run that is not correct, or that failed an operation, fails the comparison
    head[2] = json.dumps({**json.loads(head[2]), "correct": False})
    base[0] = json.dumps({**json.loads(base[0]), "failed": 1})
    lines, ok = bench_pairs.summarize(spec["end_to_end"], base, head)
    assert not ok
    assert lines[:2] == ["base runs not correct or with failures: [1]",
                         "head runs not correct or with failures: [3]"]


def test_bench_pairs_takes_no_run_length(capsys):
    # every run is as long as BENCHMARK.json's run_seconds, so claims cite
    # the benchmark's own run length
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["HEAD", "--workload", "closed-form-wide", "--seconds", "3"])
    assert exit_.value.code == 2
    assert "--seconds" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--workload", "closed-form-wide", "--skip-exact"],
                                  ["--workload", "closed-form-wide", "--scenario", "x.json"],
                                  ["--scenario", "no-such-file.json"]])
def test_bench_pairs_library_options(argv, capsys):
    # the skips belong to the library mode, and one mode is chosen
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["HEAD", *argv])
    assert exit_.value.code == 2
    assert capsys.readouterr().err


def test_bench_pairs_library_run(tmp_path):
    # one library run of this checkout prints a result line that summarize
    # reads, with LIBRARY_METRICS' values; a file that is no scenario stops it
    scenario = tmp_path / "meb.json"
    assert main(["gen", "meb", "--d", "2", "--out", str(scenario)]) == 0
    line = bench_pairs.run_library(bench_pairs.ROOT, scenario, ["--skip-exact"])
    result = json.loads(line)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [metric["name"] for metric in bench_pairs.LIBRARY_METRICS]
    assert 0 < metrics["wall_s"]["value"] < 60 and metrics["maxrss_mb"]["value"] > 1
    lines, ok = bench_pairs.summarize(bench_pairs.LIBRARY_METRICS, [line], [line])
    assert ok
    assert lines[0] == "wall_s (s, lower is better)"
    assert lines[3] == "  head - base +0.0 %; base won 0, head won 0 of 1 pairs"
    assert lines[4] == "maxrss_mb (MB, lower is better)"
    assert len(lines) == 8
    (tmp_path / "empty.json").write_text("{}")
    with pytest.raises(SystemExit, match="scenario_report exited 1"):
        bench_pairs.run_library(bench_pairs.ROOT, tmp_path / "empty.json", [])


@pytest.mark.skipif(not (bench_pairs.ROOT / ".git").exists(), reason="not a git checkout")
def test_bench_pairs_exports_a_revision(tmp_path):
    bench_pairs.export("HEAD", tmp_path / "head")
    assert (tmp_path / "head" / "bench" / "run.py").is_file()
    assert json.loads((tmp_path / "head" / "BENCHMARK.json").read_text())["run_seconds"] > 0
    assert not list((tmp_path / "head").rglob("__pycache__"))
