"""The benchmark's `verify` workload calls the package directly.

perfbench/child.py builds its inputs and runs its MDL batch and criterion-07
round trip through the public fibersim API.  This check imports that file
(read-only, from perfbench/ on sys.path, as perfbench/run.py's children see
it) and runs those calls once, so a signature change that would break the
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
