"""The benchmark's trace probes name package attributes by dotted string.

A rename in the package would leave such a probe unresolved, and the traced
run would only list it among its absent names.  This check resolves every
quoted `stokesopt.` name in perfbench/child.py the way the tracer does
(import the module, then get the attribute), and checks that the descent
counters of the probes read only fields an OptimizerRun has; it only reads
that file.  A probe that resolves but is never called records nothing, so
a short descent of each algorithm must call every `optimize` attribute the
benchmark wraps on that path, the line search must return its accepted
point where the benchmark's Armijo adapter reads it, and each `cli`
attribute the benchmark wraps must be called by the command that serves it.
"""
import ast
import dataclasses
import importlib
import importlib.resources
import math
import re
from pathlib import Path

import numpy as np
import pytest

from stokesopt import cli, optimize, spheres
from stokesopt.optimize import OptimizerConfig, OptimizerRun
from stokesopt.sets import random_set

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


def _counting(calls: dict, name: str, fn):
    """`fn`, counting each call in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# the optimize attributes each descent calls; random_set and rng_for serve
# multi_start and jitter_set, not descend
DESCENT_PROBES = {
    "projected": {"descend", "gradient_jones", "cost_and_gradient"},
    "hyperspherical": {"descend", "gradient_hyperspherical",
                       "cost_and_gradient", "angles_to_states",
                       "angles_to_states_jacobian"},
}


@pytest.mark.parametrize("algorithm", sorted(DESCENT_PROBES))
def test_descent_calls_every_probe_of_its_path(monkeypatch, algorithm):
    wrapped = {name.rpartition(".")[2] for name in _probe_names()
               if name.rpartition(".")[0] == "stokesopt.optimize"}
    assert DESCENT_PROBES[algorithm] <= wrapped
    calls = dict.fromkeys(wrapped, 0)
    for name in wrapped:
        monkeypatch.setattr(optimize, name,
                            _counting(calls, name, getattr(optimize, name)))
    optimize.descend(random_set(3, seed=8),
                     OptimizerConfig(algorithm=algorithm, max_iters=3))
    assert {name for name, k in calls.items() if k} >= DESCENT_PROBES[algorithm]


def test_armijo_step_returns_the_accepted_point_second():
    x0 = np.array([1.0, -2.0])
    f0 = float(x0 @ x0)
    probed = []

    def cost_fn(x):
        probed.append(x)
        return float(x @ x), None

    result = spheres.armijo_step(cost_fn, x0, f0, -x0, -2.0 * f0,
                                 lambda x: x)
    assert result[1] is probed[-1]
    stall = spheres.armijo_step(lambda x: (math.inf, None), x0, f0, -x0,
                                -2.0 * f0, lambda x: x)
    assert stall[1] is None


BUNDLED_SET = importlib.resources.files("stokesopt") / "data/optimal_n4.json"
# the command that serves each stokesopt.cli attribute the benchmark wraps
CLI_PROBES = {
    "sic_search": ["gen-set", "--family", "sic", "--n", "3"],
    "mub_set": ["gen-set", "--family", "mub", "--n", "3"],
    "yang_nolan": ["gen-set", "--family", "yang", "--n", "3"],
    "random_set": ["gen-set", "--family", "random", "--n", "3"],
    "sic_gram": ["sweep", "--families", "sic-analytic", "--n-list", "2-3"],
    "mub_gram": ["sweep", "--families", "mub-analytic", "--n-list", "2-3"],
    "metrics_from_gram": ["sweep", "--families", "sic-analytic",
                          "--n-list", "2-3"],
    "metrics": ["evaluate", "--set", str(BUNDLED_SET)],
    "descend": ["optimize", "--n", "2", "--init", "yang", "--max-iter", "20"],
}


def _cli_probe_names() -> set:
    return {name.rpartition(".")[2] for name in _probe_names()
            if name.rpartition(".")[0] == "stokesopt.cli"}


def test_every_wrapped_cli_name_has_a_command():
    assert _cli_probe_names() == set(CLI_PROBES)


@pytest.mark.parametrize("name", sorted(CLI_PROBES))
def test_each_wrapped_cli_name_is_called_by_its_command(tmp_path, monkeypatch,
                                                        name):
    # a pooled sweep would call the unwrapped names in its workers
    monkeypatch.setenv("STOKES_OPT_THREADS", "1")
    monkeypatch.chdir(tmp_path)
    calls = dict.fromkeys(_cli_probe_names(), 0)
    for attr in calls:
        monkeypatch.setattr(cli, attr,
                            _counting(calls, attr, getattr(cli, attr)))
    assert cli.main(CLI_PROBES[name]) == 0
    assert calls[name] >= 1
