"""The benchmark's trace probes name package attributes by dotted string.

A rename in the package would leave such a probe unresolved, and the traced
run would only list it among its absent names.  This check resolves every
quoted `stokesopt.` name in perfbench/child.py the way the tracer does
(import the module, then get the attribute), and checks that the descent
counters of the probes read only fields an OptimizerRun has; it only reads
that file.
"""
import ast
import dataclasses
import importlib
import re
from pathlib import Path

from stokesopt.optimize import OptimizerRun

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _probe_names() -> set:
    text = CHILD.read_text(encoding="utf-8")
    return set(re.findall(r"""["'](stokesopt(?:\.\w+)+)["']""", text))


def test_every_probe_name_resolves():
    names = _probe_names()
    assert len(names) >= 20
    unresolved = []
    for dotted in sorted(names):
        module_name, _, attr = dotted.rpartition(".")
        try:
            getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            unresolved.append(dotted)
    assert unresolved == []


def test_descent_counters_read_existing_run_fields():
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    on_descend = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "on_descend")
    read = {node.attr for node in ast.walk(on_descend)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "run"}
    assert read >= {"iterations_used", "phase1_iters", "stop_reason",
                    "converged"}
    fields = {f.name for f in dataclasses.fields(OptimizerRun)}
    assert read - fields == set()
