"""Spans around the calls into each layer of ``testerbounds``.

The tracer rebinds a layer's public function under the name its caller looks
it up by (``cli.maximize_over_channels``, ``bounds.objective_operator``, ...),
records one span per call and restores the original on ``uninstall``.  The
package itself is not modified, and the timed runs never install a tracer.

A span has a name, a start and an end (``perf_counter_ns``), the index of the
span that caused it, the request it belongs to (one report of one scenario)
and a few attributes read from the call's result after its end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

from testerbounds import bounds, cli, testers

SOLVE = "channel_opt.maximize_over_channels"
OBJECTIVE = "bounds.objective_operator"
UPPER = "bounds.upper_bound"
TIGHTNESS = "bounds.tightness_check"
EIG = "linalg.eig_hermitian"
NORM = "linalg.operator_norm"
TESTER = "testers.tester_from_test"
LOAD = "testers.scenario_from_json"
DUMPS = "linalg.dumps_canonical"
TO_JSON = "bounds.report_to_json"

# (module, attribute the caller looks up, span name)
TARGETS = (
    (cli, "maximize_over_channels", SOLVE),
    (bounds, "maximize_over_channels", SOLVE),
    (bounds, "objective_operator", OBJECTIVE),
    (bounds, "upper_bound", UPPER),
    (cli, "upper_bound", UPPER),
    (bounds, "tightness_check", TIGHTNESS),
    (cli, "tightness_check", TIGHTNESS),
    (bounds, "eig_hermitian", EIG),
    (bounds, "operator_norm", NORM),
    (testers, "tester_from_test", TESTER),
    (cli, "scenario_from_json", LOAD),
    (cli, "dumps_canonical", DUMPS),
    (cli, "report_to_json", TO_JSON),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name: str, start: int, parent: int | None, request: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs: dict = {}

    @property
    def dur_ns(self) -> int:
        return self.end - self.start


def _solve_attrs(span: Span, module, result) -> None:
    # The CLI calls the solver only for per-test maxima; in ``bounds`` the
    # exact bound is the one call site named ``exact_bound``.
    caller = sys._getframe(2).f_code.co_name
    span.attrs["site"] = "exact" if module is bounds and caller == "exact_bound" else "maxima"
    if result is not None:
        span.attrs.update(steps=result.iterations, stages=len(result.history),
                          value=result.value, tol=result.tol)


def _tester_attrs(span: Span, module, result) -> None:
    if result is not None:
        span.attrs["elements"] = len(result.elements)


def _tightness_attrs(span: Span, module, result) -> None:
    if result is not None:
        span.attrs["tight"] = bool(result.tight)


ATTRS_HOOKS = {SOLVE: _solve_attrs, TESTER: _tester_attrs, TIGHTNESS: _tightness_attrs}


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.request = ""

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, span_name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, module))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, module):
        hook = ATTRS_HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter_ns(), stack[-1] if stack else None, self.request)
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if hook is not None:
                    hook(span, module, result)

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent,
                                     "request": s.request, **s.attrs}) + "\n")


def self_times_ns(spans: list[Span], first: int = 0) -> list[int]:
    """Self time of each span from index ``first`` on: its duration minus the
    part covered by its child spans."""
    own = [s.dur_ns for s in spans[first:]]
    for s in spans[first:]:
        if s.parent is not None and s.parent >= first:
            own[s.parent - first] -= s.dur_ns
    return own
