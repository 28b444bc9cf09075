"""Tests of the benchmark itself: its checks catch a corrupted report, the
tracer restores what it rebinds, and BENCHMARK.json matches the metric tables.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import testerbounds  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mub_meb(tmp_path_factory):
    """The 16-combination two-qubit job of structured-suite and one report of it."""
    jobs = workloads.prepare("structured-suite", 1, tmp_path_factory.mktemp("scenarios"))
    job = next(j for j in jobs if j.name.startswith("mub-meb"))
    return job, workloads.render(job, workloads.report(job))


def _corrupt(text: str, index: int, mutate) -> str:
    payload = json.loads(text)
    mutate(payload["reports"][index])
    return testerbounds.linalg.dumps_canonical(payload)


def _scale_optimizer(entry):
    entry["optimizer"]["data"] = [[[1.1 * re, 1.1 * im] for re, im in row]
                                  for row in entry["optimizer"]["data"]]


@pytest.mark.parametrize("mutate", [
    lambda e: e.update(exact=e["exact"] + 1e-3),
    lambda e: e.update(gap=-1e-3),
    lambda e: e.update(error="solver failure"),
    _scale_optimizer,
], ids=["exact", "gap", "error", "optimizer"])
def test_one_corrupted_value_counts_as_one_failure(mub_meb, mutate):
    job, (rc, text) = mub_meb
    assert rc == 0
    assert outputs.check_report(job, rc, text, workloads.TOL) == {}
    bad = _corrupt(text, 3, mutate)
    assert set(outputs.check_report(job, rc, bad, workloads.TOL)) == {3}
    assert outputs.rerun_differences(text, bad, len(job.combinations)) == {3}


def test_reference_value_is_checked(mub_meb):
    job, (rc, text) = mub_meb
    shifted = workloads.Job(job.name, job.path, job.scenario, job.argv, expect_exact=0.74)
    assert len(outputs.check_report(shifted, rc, text, workloads.TOL)) == len(job.combinations)


def test_failed_report_fails_every_combination(mub_meb):
    job, (_, text) = mub_meb
    assert len(outputs.check_report(job, 3, text, workloads.TOL)) == len(job.combinations)


def test_tracer_spans_and_restore(mub_meb):
    job, (_, text) = mub_meb
    original = testerbounds.cli.maximize_over_channels
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert testerbounds.cli.maximize_over_channels is not original
        raw = workloads.report(job)
    finally:
        tracer.uninstall()
    assert testerbounds.cli.maximize_over_channels is original
    assert workloads.render(job, raw) == (0, text)
    solves = [s for s in tracer.spans if s.name == tracing.SOLVE]
    sites = [s.attrs["site"] for s in solves]
    assert sites.count("maxima") == 8 and sites.count("exact") == 16
    own = tracing.self_times_ns(tracer.spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == sum(s.dur_ns for s in tracer.spans if s.parent is None)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(100))) == {"pct": 90.0, "value": 89}


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
