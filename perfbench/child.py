"""Workload bodies of the stokesopt benchmark, run in a fresh interpreter.

run.py starts this file with the package on an absolute PYTHONPATH, BLAS
pinned to one thread and STOKES_OPT_THREADS removed, so every workload is
one serial client in one process (survey adds one CLI child at a time).

    python3 perfbench/child.py setup --workload W --seed S --workdir D
    python3 perfbench/child.py run   --workload W --seed S --workdir D \
                                     --seconds T --trace 0|1
    python3 perfbench/child.py cli --spans FILE --run ID -- <stokesopt args>

`setup` imports the package and builds the workload's inputs, then exits;
run.py times it from outside.  `run` builds the inputs, repeats the body on
those same inputs until the next pass would end after T seconds (at least
one pass; with --trace 1, untraced and traced passes alternate), checks
every output and prints one JSON line.  `cli` runs one traced stokesopt
command and dumps its spans.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

import stokesopt
import stokesopt.cli
from stokesopt import fibersim, optimize
from stokesopt.metrics import metrics
from stokesopt.sets import (
    bundled_optimal_set,
    mub_penalty,
    save_set,
    sic_penalty,
    simplex_set,
)

from tracer import Tracer, load_dump

PS = 1e-12
# the receiver of the package README
README_RX = fibersim.ReceiverModel(
    responsivity=0.8, noise_psd=2e-22, window=5e-8, pulse_width=1e-8,
    sample_rate=5e9, energy=5e-10)
CLI_TIMEOUT_S = 60.0


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool


@dataclass
class Pass:
    wall: float
    ops: list
    quality: dict          # results that every pass must reproduce exactly
    failures: list         # output-check failures
    extra: dict = field(default_factory=dict)
    traced: bool = False


class Context:
    """What one pass of a body may use besides its inputs."""

    def __init__(self, workdir: Path, tracer: Tracer | None, index: int):
        self.workdir = workdir
        self.tracer = tracer
        self.index = index
        self.span_files: list = []

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)


def _timed(ops: list, kind: str, fn, *args, **kwargs):
    """Run one operation; an exception counts it as failed."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ops.append(Op(kind, time.perf_counter() - t0, False))
        return None
    ops.append(Op(kind, time.perf_counter() - t0, True))
    return result


# ---------------------------------------------------------------------------
# Probes of the traced run
# ---------------------------------------------------------------------------

def install_probes(tr: Tracer) -> None:
    """Span wrappers on the module attributes the package calls through."""

    def by_mode(default_pos):
        def name_fn(name, args, kwargs):
            mode = kwargs.get("mode")
            if mode is None:
                mode = args[default_pos] if len(args) > default_pos else "analytic"
            return f"{name}.{mode}"
        return name_fn

    def on_descend(run, args, kwargs):
        tr.count("optimize.iterations", run.iterations_used)
        tr.count("optimize.phase1_iterations", run.phase1_iters)
        tr.count("optimize.stop." + run.stop_reason)
        tr.count("optimize.converged", int(run.converged))

    def on_mc(result, args, kwargs):
        tr.count(f"fibersim.trials.{result['mode']}", result["trials"])

    def adapt_armijo(original):
        def armijo_step(cost_fn, *args, **kwargs):
            result = original(tr.traced(cost_fn, "optimize.cost_probe"),
                              *args, **kwargs)
            if result[1] is not None:
                tr.count("spheres.accepted_steps")
            return result
        return armijo_step

    probes = [
        ("stokesopt.optimize.descend", "optimize.descend",
         {"on_return": on_descend}),
        ("stokesopt.cli.descend", "optimize.descend",
         {"on_return": on_descend}),
        ("stokesopt.spheres.projected_descent", "spheres.projected_descent", {}),
        ("stokesopt.spheres.armijo_step", "spheres.armijo_step",
         {"adapt": adapt_armijo}),
        ("stokesopt.optimize.gradient_hyperspherical",
         "optimize.gradient_hyperspherical", {}),
        ("stokesopt.optimize.gradient_jones", "optimize.gradient_jones", {}),
        ("stokesopt.optimize.cost_and_gradient", "optimize.cost_and_gradient", {}),
        ("stokesopt.optimize.angles_to_states", "gellmann.angles_to_states", {}),
        ("stokesopt.optimize.angles_to_states_jacobian",
         "gellmann.angles_to_states_jacobian", {}),
        ("stokesopt.sets.jones_to_stokes_batch",
         "gellmann.jones_to_stokes_batch", {}),
        ("stokesopt.optimize.random_set", "sets.random_set", {}),
        ("stokesopt.cli.random_set", "sets.random_set", {}),
        ("stokesopt.cli.sic_search", "sets.sic_search", {}),
        ("stokesopt.cli.yang_nolan", "sets.yang_nolan", {}),
        ("stokesopt.cli.mub_set", "sets.mub_set", {}),
        ("stokesopt.cli.sic_gram", "sets.sic_gram", {}),
        ("stokesopt.cli.mub_gram", "sets.mub_gram", {}),
        ("stokesopt.cli.metrics", "metrics.metrics", {}),
        ("stokesopt.cli.metrics_from_gram", "metrics.metrics_from_gram", {}),
        ("stokesopt.fibersim.monte_carlo_md", "fibersim.monte_carlo_md",
         {"name_fn": by_mode(5), "on_return": on_mc}),
        ("stokesopt.fibersim.measure_delay", "fibersim.measure_delay",
         {"name_fn": by_mode(3)}),
        ("stokesopt.fibersim.reconstruct_md", "fibersim.reconstruct_md", {}),
        ("stokesopt.fibersim.measure_attenuation",
         "fibersim.measure_attenuation", {}),
        ("stokesopt.fibersim.reconstruct_mdl", "fibersim.reconstruct_mdl", {}),
        ("stokesopt.fibersim.rng_for", "seeding.rng_for", {}),
        ("stokesopt.sets.rng_for", "seeding.rng_for", {}),
        ("stokesopt.optimize.rng_for", "seeding.rng_for", {}),
    ]
    for dotted, name, opts in probes:
        tr.wrap(dotted, name, **opts)


# ---------------------------------------------------------------------------
# design-chart
# ---------------------------------------------------------------------------

def _descent_problem(run, n: int) -> str | None:
    if run.aborted:
        return f"aborted: {run.stop_reason}"
    if not metrics(run.final_set).bound_ok or run.final_xi < n * n - 1 - 1e-6:
        return f"xi {run.final_xi!r} below n^2-1"
    return None


def _design_quality(runs) -> dict:
    xs = [r.final_xi for r in runs if not r.aborted]
    return {"xi_best": min(xs), "xi_median": statistics.median(xs),
            "final_xis": [r.final_xi for r in runs]} if xs else {}


def build_design_chart(seed: int, workdir: Path) -> dict:
    return {"n": 4, "starts": 8, "config": optimize.OptimizerConfig(
        algorithm="hyperspherical", max_iters=2000, seed=seed)}


def body_design_chart(inp: dict, ctx: Context) -> Pass:
    ops, n = [], inp["n"]
    timer = Tracer()
    timer.wrap("stokesopt.optimize.descend", "descent")
    t0 = time.perf_counter()
    try:
        with ctx.span("bench.multi_start"):
            result = _timed([], "multi_start", optimize.multi_start, n,
                            starts=inp["starts"], config=inp["config"])
    finally:
        timer.restore()
    wall = time.perf_counter() - t0
    durations = [b - a for a, b in zip(timer.starts, timer.ends)]
    if result is None:
        ops = [Op("descent", d, False) for d in durations] or [
            Op("descent", wall, False)]
        return Pass(wall, ops, {}, ["multi_start raised"])
    problems = [_descent_problem(r, n) for r in result.runs]
    ops = [Op("descent", d, p is None) for d, p in zip(durations, problems)]
    failures = [f"start {i}: {p}" for i, p in enumerate(problems) if p]
    quality = _design_quality(result.runs)
    if quality and quality["xi_best"] > 17.0:
        failures.append(f"xi_best {quality['xi_best']!r} > 17.0")
    return Pass(wall, ops, quality, failures)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

WAVE_BATCHES, WAVE_TRIALS = 10, 100
ANALYTIC_BATCHES, ANALYTIC_TRIALS = 2, 10_000
MDL_BATCHES, MDL_TRIALS = 2, 250


def build_verify(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 7])
    md = rng.normal(0.0, PS, 15)
    launch = bundled_optimal_set()
    return {
        "seed": seed,
        "launch": launch,
        "xi": metrics(launch).xi,
        "fiber": fibersim.synth_md_fiber(4, 5 * PS, md, seed=seed),
        "lossy": fibersim.synth_mdl_fiber(
            4, rng.uniform(0.05, 0.5, 4), z=1.2, seed=seed, tau0=5 * PS,
            md_vector=md),
        "simplex": simplex_set(4, seed=seed),
        "rx": README_RX,
        "clean_rx": replace(README_RX, noise_psd=0.0),
    }


def _pool_mc(parts: list) -> dict:
    sq = np.concatenate([p["sq_errors"] for p in parts])
    mean_err = np.average([p["mean_error"] for p in parts], axis=0,
                          weights=[p["trials"] for p in parts])
    mse = float(sq.mean())
    return {"ratio": mse / parts[0]["predicted_mean_sq"],
            "bias_sq_frac": float(mean_err @ mean_err) / mse}


def _mdl_batch(inp: dict, batch: int) -> None:
    ls, sx, f = inp["launch"], inp["simplex"], inp["lossy"]
    for t in range(MDL_TRIALS):
        stream = (inp["seed"], batch, t)
        set_rec = [fibersim.measure_attenuation(f, s, rel_noise=1e-3,
                                                seed=(*stream, i))
                   for i, s in enumerate(ls.states)]
        sx_rec = [fibersim.measure_attenuation(f, s, rel_noise=1e-3,
                                               seed=(*stream, ls.m + i))
                  for i, s in enumerate(sx.states)]
        fibersim.reconstruct_mdl(ls, sx, set_rec, sx_rec)


def _round_trip(inp: dict) -> float:
    """Criterion-07 pipeline: probe loss, equalize, measure, compose."""
    ls, sx, f, rx = inp["launch"], inp["simplex"], inp["lossy"], inp["clean_rx"]
    est = fibersim.reconstruct_mdl(
        ls, sx, [fibersim.measure_attenuation(f, s) for s in ls.states],
        [fibersim.measure_attenuation(f, s) for s in sx.states])
    eq = fibersim.equalize(f, est)
    tau0 = fibersim.estimate_tau0(eq, rx, sx)
    md = fibersim.reconstruct_md(
        ls, [fibersim.measure_delay(eq, s, rx) for s in ls.states], tau0)
    composed = fibersim.compose_gd_operator(
        4, tau0, md, fibersim.loss_matrix_from_estimate(est))
    direct = fibersim.full_gd_operator(f, 1e6)
    scale = float(np.max(np.abs(direct.dmgds)))
    return float(np.max(np.abs(composed.dmgds - direct.dmgds)) / scale)


def body_verify(inp: dict, ctx: Context) -> Pass:
    ops, wave, analytic = [], [], []
    s, f, ls, rx = inp["seed"], inp["fiber"], inp["launch"], inp["rx"]
    t0 = time.perf_counter()
    for b in range(WAVE_BATCHES):
        with ctx.span("bench.wave_batch"):
            wave.append(_timed(ops, "wave_batch", fibersim.monte_carlo_md, f,
                               ls, rx, WAVE_TRIALS, seed=16 * s + b,
                               mode="waveform"))
    for b in range(ANALYTIC_BATCHES):
        with ctx.span("bench.analytic_batch"):
            analytic.append(_timed(
                ops, "analytic_batch", fibersim.monte_carlo_md, f, ls, rx,
                ANALYTIC_TRIALS, seed=16 * s + 10 + b, mode="analytic"))
    for b in range(MDL_BATCHES):
        with ctx.span("bench.mdl_batch"):
            _timed(ops, "mdl_batch", _mdl_batch, inp, b)
    with ctx.span("bench.round_trip"):
        dev = _timed(ops, "round_trip", _round_trip, inp)
    wall = time.perf_counter() - t0

    failures = [f"{op.kind} raised" for op in ops if not op.ok]
    quality = {"xi_best": inp["xi"], "xi_median": inp["xi"]}
    if all(wave):
        w = _pool_mc(wave)
        quality["wave_ratio_err"] = abs(w["ratio"] - 1.0)
        quality["wave_bias_sq_frac"] = w["bias_sq_frac"]
    if all(analytic):
        a = _pool_mc(analytic)
        quality["analytic_ratio_err"] = abs(a["ratio"] - 1.0)
        if not quality["analytic_ratio_err"] < 0.05:
            failures.append(f"analytic MSE ratio {a['ratio']!r} off by >5%")
            for op in ops:
                op.ok = op.ok and op.kind != "analytic_batch"
    if dev is not None:
        quality["round_trip_dev"] = dev
        if not dev < 1e-6:
            failures.append(f"round-trip deviation {dev!r} >= 1e-6")
            ops[-1].ok = False
    return Pass(wall, ops, quality, failures)


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

SWEEP_FAMILIES = "yang,mub,random,sic-analytic,mub-analytic"


def build_survey(seed: int, workdir: Path) -> dict:
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    save_set(bundled_optimal_set(), inputs / "launch.json")
    md = np.random.default_rng([seed, 11]).normal(0.0, PS, 15)
    scenario = {
        "mode": "md", "seed": seed, "trials": 2000, "measurement": "analytic",
        "launch_set": "launch.json",
        "fiber": {"n": 4, "tau0": 5 * PS, "md_vector": md.tolist(),
                  "unitary_seed": seed},
        "receiver": asdict(README_RX),
    }
    with open(inputs / "scenario.json", "w") as fh:
        json.dump(scenario, fh)
    seed_s = str(seed)
    commands = [
        ("version", ["--version"]),
        ("gen_set", ["gen-set", "--family", "sic", "--n", "4", "--seed", seed_s,
                     "--out", "sic4.json"]),
        ("gen_set", ["gen-set", "--family", "mub", "--n", "7",
                     "--out", "mub7.json"]),
        ("evaluate", ["evaluate", "--set", str(inputs / "launch.json")]),
        ("sweep", ["sweep", "--families", SWEEP_FAMILIES, "--n-list", "2-30",
                   "--seed", seed_s, "--out", "sweep.csv"]),
        ("optimize", ["optimize", "--n", "5", "--algo", "projected",
                      "--init", "mub", "--seed", seed_s, "--out", "opt5"]),
        ("simulate", ["simulate", "--scenario", str(inputs / "scenario.json"),
                      "--out", "sim.json", "--trials-out", "trials.csv"]),
    ]
    return {"commands": commands, "rerun": 5}


def _run_cli(ops: list, kind: str, argv: list, cwd: Path, ctx: Context):
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "stokesopt", *argv]
    else:
        spans = cwd / f"spans-{len(ops)}.json"
        ctx.span_files.append(spans)
        cmd = [sys.executable, str(Path(__file__).resolve()), "cli",
               "--spans", str(spans), "--run", f"{ctx.tracer.run_id}-{kind}",
               "--", *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        ops.append(Op(kind, time.perf_counter() - t0, False))
        print(f"survey: {kind} timed out after {CLI_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    ok = proc.returncode == 0
    ops.append(Op(kind, time.perf_counter() - t0, ok))
    if not ok:
        print(f"survey: {argv} exited {proc.returncode}: {proc.stderr}",
              file=sys.stderr)
    return proc


def _sweep_failures(path: Path) -> list:
    bad, seen = [], 0
    lines = path.read_text().splitlines()
    for line in lines[2:]:
        n_s, fam, xi_s = line.split(",")[:3]
        n = int(n_s)
        want = {"sic-analytic": sic_penalty,
                "mub-analytic": mub_penalty}.get(fam)
        if want is None:
            continue
        seen += 1
        if abs(float(xi_s) / (n * n - 1) - want(n)) > 1e-12:
            bad.append(f"sweep {fam} n={n}: penalty off by >1e-12")
    if seen != 58:
        bad.append(f"sweep has {seen} analytic rows, expected 58")
    return bad


def _outputs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file() and not p.name.endswith(".manifest.json")
            and not p.name.startswith("spans-")}


def body_survey(inp: dict, ctx: Context) -> Pass:
    ops, failures = [], []
    run_a = ctx.workdir / f"pass{ctx.index}" / "a"
    run_b = ctx.workdir / f"pass{ctx.index}" / "b"
    run_a.mkdir(parents=True)
    run_b.mkdir(parents=True)
    t0 = time.perf_counter()
    procs = [_run_cli(ops, kind, argv, run_a, ctx)
             for kind, argv in inp["commands"]]
    _run_cli(ops, "rerun", inp["commands"][inp["rerun"]][1], run_b, ctx)
    wall = time.perf_counter() - t0

    failures += [f"{op.kind} failed" for op in ops if not op.ok]
    if failures:
        return Pass(wall, ops, {}, failures)

    def check(ok: bool, kind: str, message: str):
        if not ok:
            failures.append(message)
            next(op for op in ops if op.kind == kind).ok = False

    sweep_bad = _sweep_failures(run_a / "sweep.csv")
    check(not sweep_bad, "sweep", "; ".join(sweep_bad))
    outputs, rerun = _outputs(run_a), _outputs(run_b)
    check(bool(rerun) and all(outputs.get(name) == data
                              for name, data in rerun.items()),
          "rerun", "optimize rerun differs outside its manifest")
    evaluated = next(proc for (kind, _), proc in zip(inp["commands"], procs)
                     if kind == "evaluate")
    check(json.loads(evaluated.stdout)["bound_ok"], "evaluate",
          "evaluate reports bound_ok false")
    starts = (run_a / "opt5_starts.csv").read_text().splitlines()
    xi = float(starts[2].split(",")[3])
    check(xi >= 24.0 - 1e-6, "optimize", f"optimize xi {xi!r} below n^2-1")
    written = sum(p.stat().st_size for p in run_a.iterdir()
                  if not p.name.startswith("spans-"))
    return Pass(wall, ops, {"xi_best": xi, "xi_median": xi,
                            "sweep_csv": outputs["sweep.csv"]},
                failures, {"write_bytes": written})


def import_times() -> dict:
    """cli.import_s and cli.import_scipy_optimize_s from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import stokesopt, stokesopt.cli"],
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    total = scipy_opt = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        if name.startswith(" stokesopt"):
            total += int(cumulative) * 1e-6
        if name.strip() == "scipy.optimize":
            scipy_opt = int(cumulative) * 1e-6
    return {"cli.import_s": total, "cli.import_scipy_optimize_s": scipy_opt}


WORKLOADS = {
    "design-chart": (build_design_chart, body_design_chart),
    "verify": (build_verify, body_verify),
    "survey": (build_survey, body_survey),
}


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced passes
# ---------------------------------------------------------------------------

def layer_metrics(stats: dict, counts: dict, traced: list,
                  untraced: list, absent: list, imports: dict) -> dict:
    """Counts and seconds are per traced pass; *_us are means per call."""
    k = len(traced)

    def c(name):
        return stats.get(name, {}).get("count", 0) / k

    def total(name):
        return stats.get(name, {}).get("total", 0.0) / k

    def self_s(name):
        return stats.get(name, {}).get("self", 0.0) / k

    def mean_us(name):
        n = stats.get(name, {}).get("count", 0)
        return 1e6 * stats[name]["total"] / n if n else 0.0

    def cnt(key):
        return counts.get(key, 0) / k

    def share(a, b):
        return a / b if b else 0.0

    descents = c("optimize.descend")
    iterations = cnt("optimize.iterations")
    probes = c("optimize.cost_probe")
    quality = traced[0].quality
    extra = traced[0].extra
    op_s = {}
    for op in traced[0].ops:
        op_s[op.kind] = op_s.get(op.kind, 0.0) + op.seconds
    trace_wall = statistics.median(p.wall for p in traced)
    return {
        "gellmann.jacobian_calls": c("gellmann.angles_to_states_jacobian"),
        "gellmann.jacobian_us": mean_us("gellmann.angles_to_states_jacobian"),
        "gellmann.angles_to_states_us": mean_us("gellmann.angles_to_states"),
        "gellmann.stokes_batch_s": total("gellmann.jones_to_stokes_batch"),
        "optimize.descents": descents,
        "optimize.iterations": iterations,
        "optimize.phase1_iterations": cnt("optimize.phase1_iterations"),
        "optimize.us_per_iteration": share(
            1e6 * total("optimize.descend"), iterations),
        "optimize.cost_grad_calls": c("optimize.cost_and_gradient"),
        "optimize.cost_grad_us": mean_us("optimize.cost_and_gradient"),
        "optimize.cost_probe_us": mean_us("optimize.cost_probe"),
        "optimize.stop_max_iters_frac": share(
            cnt("optimize.stop.max_iters"), descents),
        "optimize.stop_stall_frac": share(
            cnt("optimize.stop.line_search_stall"), descents),
        "optimize.converged_frac": share(cnt("optimize.converged"), descents),
        "spheres.line_searches": c("spheres.armijo_step"),
        "spheres.probes": probes,
        "spheres.accept_ratio": share(cnt("spheres.accepted_steps"), probes),
        "spheres.descent_self_s": self_s("spheres.projected_descent"),
        "spheres.line_search_self_s": self_s("spheres.armijo_step"),
        "metrics.calls": c("metrics.metrics") + c("metrics.metrics_from_gram"),
        "metrics.metrics_s": total("metrics.metrics"),
        "metrics.from_gram_s": total("metrics.metrics_from_gram"),
        "sets.sic_search_calls": c("sets.sic_search"),
        "sets.sic_search_s": total("sets.sic_search"),
        "sets.random_set_s": total("sets.random_set"),
        "sets.family_build_s": sum(total(f"sets.{name}") for name in (
            "random_set", "sic_search", "yang_nolan", "mub_set", "sic_gram",
            "mub_gram")),
        "fibersim.pulses": c("fibersim.measure_delay.waveform"),
        "fibersim.pulse_us": mean_us("fibersim.measure_delay.waveform"),
        "fibersim.analytic_trial_us": share(
            1e6 * total("fibersim.monte_carlo_md.analytic"),
            cnt("fibersim.trials.analytic")),
        "fibersim.mdl_trial_us": share(
            1e6 * total("bench.mdl_batch"), MDL_TRIALS * c("bench.mdl_batch")),
        "fibersim.reconstruct_md_us": mean_us("fibersim.reconstruct_md"),
        "fibersim.wave_bias_sq_frac": quality.get("wave_bias_sq_frac", 0.0),
        "fibersim.wave_ratio_err": quality.get("wave_ratio_err", 0.0),
        "fibersim.analytic_ratio_err": quality.get("analytic_ratio_err", 0.0),
        "seeding.rng_for_calls": c("seeding.rng_for"),
        "seeding.rng_for_us": mean_us("seeding.rng_for"),
        "cli.import_s": imports["cli.import_s"],
        "cli.import_scipy_optimize_s": imports["cli.import_scipy_optimize_s"],
        "cli.version_s": op_s.get("version", 0.0),
        "cli.gen_set_s": op_s.get("gen_set", 0.0),
        "cli.evaluate_s": op_s.get("evaluate", 0.0),
        "cli.sweep_s": op_s.get("sweep", 0.0),
        "cli.optimize_s": op_s.get("optimize", 0.0),
        "cli.simulate_s": op_s.get("simulate", 0.0),
        "cli.write_bytes": float(extra.get("write_bytes", 0)),
        "trace.wall_s": trace_wall,
        "trace.overhead_s": trace_wall - statistics.median(
            p.wall for p in untraced),
        "trace.spans": sum(v["count"] for v in stats.values()) / k,
        "trace.absent_names": float(len(absent)),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    build, body = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    inputs = build(args.seed, workdir)
    tracer = Tracer() if args.trace else None
    modes = [False, True] if args.trace else [False]
    passes: list = []
    started = time.perf_counter()
    while True:
        for traced in modes:
            ctx = Context(workdir, tracer if traced else None, len(passes))
            if traced:
                tracer.run_id = f"{args.workload}-s{args.seed}-p{len(passes)}"
                install_probes(tracer)
            try:
                p = body(inputs, ctx)
            finally:
                if traced:
                    tracer.restore()
            p.traced = traced
            p.extra["span_files"] = ctx.span_files
            passes.append(p)
        elapsed = time.perf_counter() - started
        cycle = elapsed / (len(passes) // len(modes))
        if elapsed + cycle > args.seconds:
            break

    untraced = [p for p in passes if not p.traced]
    ops = [op for p in passes for op in p.ops]
    failures = [f for p in passes for f in p.failures]
    if any(p.quality != passes[0].quality for p in passes[1:]):
        failures.append("passes over the same inputs gave different results")
    quality = passes[0].quality
    for f in dict.fromkeys(failures):
        print(f"check failed: {f}", file=sys.stderr)

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "checks_ok": not failures,
        "passes": len(untraced),
        "end_to_end": {
            "wall_s": statistics.median(p.wall for p in untraced),
            "peak_rss_mb": peak_kb / 1024.0,
            # a failed pass has no xi; 0 keeps the line valid JSON
            "xi_best": quality.get("xi_best", 0.0),
            "xi_median": quality.get("xi_median", 0.0),
        },
        "info": {k: v for k, v in quality.items()
                 if k in ("wave_ratio_err", "wave_bias_sq_frac",
                          "analytic_ratio_err", "round_trip_dev")},
        "ops": len(untraced[0].ops),
        "pass_walls_s": [p.wall for p in untraced],
        "versions": _versions(),
    }
    if args.trace:
        traced = [p for p in passes if p.traced]
        for p in traced:
            for path in p.extra["span_files"]:
                tracer.extend(load_dump(path))
        spans_path = workdir.parent / "spans.json"
        tracer.dump(spans_path)
        absent = sorted(set(tracer.absent))
        result["per_layer"] = layer_metrics(
            tracer.stats(), tracer.counts, traced, untraced, absent,
            import_times())
        result["absent"] = absent
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


def _versions() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "stokesopt": stokesopt.__version__,
            "stokesopt_path": str(Path(stokesopt.__file__).parent)}


def cmd_setup(args) -> int:
    build, _ = WORKLOADS[args.workload]
    build(args.seed, Path(args.workdir))
    return 0


def cmd_cli(args) -> int:
    tr = Tracer()
    tr.run_id = args.run
    install_probes(tr)
    try:
        code = stokesopt.cli.main(args.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tr.restore()
        tr.dump(args.spans)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--workdir", required=True)
        if mode == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c = sub.add_parser("cli")
    c.add_argument("--spans", required=True)
    c.add_argument("--run", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cmd_cli(args)
    return {"setup": cmd_setup, "run": cmd_run}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
