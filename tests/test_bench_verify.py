"""The benchmark's workloads call the package directly.

perfbench/child.py builds its inputs, runs its MDL batch and criterion-07
round trip through the public fibersim API, and reads the run records of
its `design-chart` multi-start.  These checks import that file (read-only,
from perfbench/ on sys.path, as perfbench/run.py's children see it) and run
those calls once, so a signature or run-record change that would break the
benchmark fails here first.
"""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_verify_workload_calls_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    inp = child.build_verify(0, tmp_path)
    child._mdl_batch(inp, 0)
    assert child._round_trip(inp) < 1e-6


def test_design_chart_body_reads_the_run_records(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    inp = dict(child.build_design_chart(0, tmp_path), starts=2)
    done = child.body_design_chart(inp, child.Context(tmp_path, None, 0))
    assert [op.ok for op in done.ops] == [True, True]
    assert done.failures == []
    assert done.quality["xi_best"] <= 17.0
