"""Command-line front end: set generation, optimization, evaluation, family
sweeps and fiber simulation, wired for reproducible file output.

Every command is a pure function of its flags, input files and seed.  Rerun
the same invocation and every written file comes back byte for byte, with
one exception: the manifest JSON that sits next to each output records the
timestamp and wall time of the run that produced it.  Each command names
its manifest once, from its main output (STEM.manifest.json for `optimize`);
output files point back at it (JSON outputs through a meta field, CSVs
through a leading comment line), and it lists exactly the paths the run
wrote.  A failed `optimize` search still writes STEM_starts.csv, one row per
start, and a manifest that lists only that file.

Scenario files for `simulate` are JSON objects:

    mode          "md", "mdl" or "joint"
    seed          integer noise seed (default 0)
    trials        Monte-Carlo repetitions (md and mdl modes)
    launch_set    path to a launch-set file, relative to the scenario
    fiber         {n, tau0, md_vector, unitary_seed, pa_coeffs?, z?, pa_slope?}
    receiver      keyword arguments of ReceiverModel (md and joint modes)
    measurement   "analytic" or "waveform" (md mode, default "analytic")
    attenuation_rel_noise   relative power-meter noise (mdl mode, default 0)
    simplex_seed  seed of the orthonormal common-mode basis (default: seed)
    domega        detuning for the composed-operator check (joint, default 1.0)

A joint run divides its three delay errors (tau0, md_vector, DMGDs) by one
scale, the largest |DMGD| of the direct model or the receiver's delay
resolution sqrt(delay_variance), whichever is larger, so a fiber without
common-mode delay reports a rounding-sized tau0 error, not a quotient by 0,
and receiver noise on a fiber without any delay reads in units of itself.

Exit codes (`_EXIT_CODES`): 0 success, 2 bad flags or configuration, 3
numeric failure (singular set, failed search or estimation), 4 unreadable
or malformed input file, or any other OS error such as an unwritable output.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fibersim
from .errors import (
    ConfigError,
    DimensionError,
    EstimationFailedError,
    SearchFailedError,
    SingularSetError,
)
from .fibersim import ReceiverModel
from .metrics import metrics, metrics_from_gram
from .optimize import (
    ALGORITHMS,
    OptimizerConfig,
    descend,
    gradient_check,
    jitter_set,
    multi_start,
)
from .sets import (
    LaunchSet,
    canonicalize_phases,
    load_set,
    mub_gram,
    mub_set,
    random_set,
    save_set,
    sic_gram,
    sic_search,
    simplex_set,
    yang_nolan,
    _is_prime,
    _states_to_json,
)

GEN_FAMILIES = ("yang", "mub", "sic", "simplex", "random")
SWEEP_FAMILIES = ("yang", "mub", "random", "sic", "sic-analytic", "mub-analytic")


class _InputError(Exception):
    """Unreadable or malformed input file; reported with exit code 4."""


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """Floats in text outputs use the shortest exact round-trip form."""
    return repr(float(x))


def _load_set_checked(path) -> LaunchSet:
    try:
        return load_set(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (ConfigError, DimensionError) as exc:
        raise _InputError(str(exc)) from exc


def _read_json(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise _InputError(f"{path}: top level must be a JSON object")
    return doc


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, manifest_name: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(f"# manifest: {manifest_name}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _manifest_path(first_output: str) -> str:
    stem = first_output
    for ext in (".json", ".csv"):
        if stem.endswith(ext):
            stem = stem[: -len(ext)]
            break
    return stem + ".manifest.json"


def _write_manifest(args, path: str, outputs, started: float) -> None:
    """The run's manifest at `path`, listing `outputs`, the files it wrote."""
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "command")}
    _write_json(path, {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": time.time() - started,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
    })


def _print_summary(info: dict) -> None:
    print(json.dumps(info, sort_keys=True))


# ---------------------------------------------------------------------------
# gen-set
# ---------------------------------------------------------------------------

def _build_family(family: str, n: int, seed: int, tol: float) -> LaunchSet:
    """The named launch set of gen-set, optimize --init and sweep."""
    if family == "yang":
        return yang_nolan(n)
    if family == "mub":
        return mub_set(n)
    if family == "sic":
        return sic_search(n, seed=seed, tol=tol)
    if family == "random":
        return random_set(n, seed=seed)
    raise ConfigError(f"unknown family {family!r}, pick from {GEN_FAMILIES}")


def cmd_gen_set(args) -> int:
    started = time.time()
    out = args.out or f"{args.family}_n{args.n}.json"
    manifest = _manifest_path(out)
    manifest_name = Path(manifest).name
    if args.family == "simplex":
        sx = simplex_set(args.n, seed=args.seed)
        _write_json(out, {
            "n": args.n,
            "family": "simplex",
            "meta": {"seed": args.seed, "manifest": manifest_name},
            "vectors": _states_to_json(canonicalize_phases(sx.states)),
        })
        summary = {"family": "simplex", "n": args.n, "states": args.n,
                   "out": out}
    else:
        s = _build_family(args.family, args.n, args.seed, args.tol)
        s.meta["manifest"] = manifest_name
        save_set(s, out)
        mt = metrics(s)
        summary = {"family": s.family, "n": s.n, "states": s.m,
                   "xi": mt.xi, "penalty_db": mt.penalty_db, "out": out}
        if "residual" in s.meta:
            summary["residual"] = s.meta["residual"]
    _write_manifest(args, manifest, [out], started)
    _print_summary(summary)
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def _initial_for(init: str, n: int, seed: int, tol: float) -> LaunchSet:
    if init.startswith("file:"):
        return _load_set_checked(init[len("file:"):])
    if init not in ("sic", "mub", "yang"):
        raise ConfigError(
            f"unknown init {init!r}; use random, sic, mub, yang or file:PATH")
    return _build_family(init, n, seed, tol)


def _starts_rows(runs) -> list:
    rows = []
    for i, run in enumerate(runs):
        rows.append([
            str(i), run.algorithm, _fmt(run.initial_xi), _fmt(run.final_xi),
            _fmt(run.grad_norm), str(run.iterations_used),
            str(int(run.converged)), str(int(run.aborted)), run.stop_reason,
        ])
    return rows


def _cli_workers() -> int:
    """Pool width for the CLI: STOKES_OPT_THREADS, else every core."""
    raw = os.environ.get("STOKES_OPT_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"STOKES_OPT_THREADS must be an integer, got {raw!r}") from None


_STARTS_HEADER = ("start,algorithm,initial_xi,final_xi,grad_norm,"
                  "iterations,converged,aborted,stop_reason")


def cmd_optimize(args) -> int:
    started = time.time()
    stem = args.out or f"opt_n{args.n}_{args.algo}"
    set_path = stem + ".json"
    starts_path = stem + "_starts.csv"
    traj_path = stem + "_trajectory.csv"
    manifest = _manifest_path(set_path)
    manifest_name = Path(manifest).name
    config = OptimizerConfig(algorithm=args.algo, max_iters=args.max_iter,
                             seed=args.seed)
    if args.init != "random":
        initial = _initial_for(args.init, args.n, args.seed, args.tol)
        # family constructions can start exactly on a stationary point
        initial = jitter_set(initial, scale=1e-6, seed=args.seed)

    try:
        if args.init == "random":
            result = multi_start(args.n, starts=args.starts, config=config,
                                 workers=_cli_workers())
            runs, best_index = result.runs, result.best_index
        else:
            runs, best_index = [descend(initial, config)], 0
            if runs[0].aborted:
                raise SearchFailedError(
                    f"descent from init {args.init!r} aborted: "
                    f"{runs[0].stop_reason}", diagnostics=runs)
    except SearchFailedError as exc:
        # a failed search still reports every start it ran
        _write_csv(starts_path, manifest_name, _STARTS_HEADER,
                   _starts_rows(exc.diagnostics))
        _write_manifest(args, manifest, [starts_path], started)
        raise

    best = runs[best_index]
    best_set = best.final_set
    best_set.meta["manifest"] = manifest_name
    save_set(best_set, set_path)
    _write_csv(starts_path, manifest_name, _STARTS_HEADER, _starts_rows(runs))
    _write_csv(traj_path, manifest_name, "iteration,xi,grad_norm",
               [[str(int(it)), _fmt(xi), _fmt(gn)]
                for it, xi, gn in best.trajectory])
    _write_manifest(args, manifest, [set_path, starts_path, traj_path],
                    started)
    mt = metrics(best_set)
    _print_summary({
        "algorithm": args.algo, "n": args.n, "init": args.init,
        "best_start": best_index, "xi": mt.xi,
        "penalty_db": mt.penalty_db, "iterations": best.iterations_used,
        "converged": best.converged, "out": set_path,
    })
    return 0


# ---------------------------------------------------------------------------
# evaluate and sweep
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    s = _load_set_checked(args.set)
    mt = metrics(s)
    print(json.dumps({
        "n": mt.n, "m": mt.m, "family": s.family, "xi": mt.xi,
        "penalty": mt.penalty, "penalty_db": mt.penalty_db,
        "condition_number": mt.condition_number,
        "singular_values": [float(v) for v in mt.singular_values],
        "log_volume": mt.log_volume, "bound_ok": mt.bound_ok,
    }, sort_keys=True, indent=2))
    return 0


def _parse_n_list(text: str) -> list:
    ns = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            if dash:
                ns.extend(range(int(lo), int(hi) + 1))
            else:
                ns.append(int(part))
        except ValueError as exc:
            raise ConfigError(f"bad n-list entry {part!r}") from exc
    if not ns or any(n < 2 for n in ns):
        raise ConfigError("n-list needs integers >= 2, e.g. '2,3,5-8'")
    return ns


def _sweep_metrics(family: str, n: int, seed: int, tol: float):
    if family == "sic-analytic":
        return metrics_from_gram(sic_gram(n))
    if family == "mub-analytic":
        return metrics_from_gram(mub_gram(n))
    return metrics(_build_family(family, n, seed, tol))


def cmd_sweep(args) -> int:
    started = time.time()
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise ConfigError("families list is empty")
    for fam in families:
        if fam not in SWEEP_FAMILIES:
            raise ConfigError(
                f"unknown sweep family {fam!r}, pick from {SWEEP_FAMILIES}")
    ns = _parse_n_list(args.n_list)
    out = args.out or "sweep.csv"
    manifest = _manifest_path(out)

    rows, skipped = [], []
    for fam in families:
        for n in ns:
            # constructed MUBs exist here for prime mode counts only; the
            # analytic Gram route (mub-analytic) covers every n
            if fam == "mub" and not _is_prime(n):
                skipped.append(f"{fam}:{n}")
                continue
            mt = _sweep_metrics(fam, n, args.seed, args.tol)
            rows.append([str(n), fam, _fmt(mt.xi), _fmt(mt.penalty_db),
                         _fmt(mt.condition_number), _fmt(mt.log_volume)])
    _write_csv(out, Path(manifest).name,
               "n,family,xi,penalty_db,condition_number,log_volume", rows)
    _write_manifest(args, manifest, [out], started)
    _print_summary({"rows": len(rows), "skipped": skipped, "out": out})
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _scenario_field(doc: dict, key: str, kind, where: str, default=None):
    """doc[key] checked against `kind`; an absent key is an error unless it
    has a default."""
    if key not in doc:
        if default is not None:
            return default
        raise _InputError(f"{where}: missing field '{key}'")
    value = doc[key]
    accepted = (int, float) if kind is float else kind
    # bool subclasses int, so JSON true/false would pass as 1/0
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise _InputError(f"{where}: field '{key}' must be {kind.__name__}")
    return float(value) if kind is float else value


def _numbers_field(doc: dict, key: str, where: str) -> np.ndarray:
    """doc[key] as a float array; it must be a list of JSON numbers."""
    value = _scenario_field(doc, key, list, where)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in value):
        raise _InputError(f"{where}: field '{key}' must be a list of numbers")
    return np.asarray(value, dtype=float)


def _seed_field(doc: dict, key: str, where: str, default: int) -> int:
    seed = _scenario_field(doc, key, int, where, default)
    if seed < 0:
        raise _InputError(f"{where}: field '{key}' must be a non-negative int")
    return seed


def _fiber_from(doc: dict, where: str) -> fibersim.FiberModel:
    fd = _scenario_field(doc, "fiber", dict, where)
    sub = f"{where}: fiber"
    n = _scenario_field(fd, "n", int, sub)
    tau0 = _scenario_field(fd, "tau0", float, sub)
    md = _numbers_field(fd, "md_vector", sub)
    seed = _seed_field(fd, "unitary_seed", sub, 0)
    z = _scenario_field(fd, "z", float, sub, 1.0)
    try:
        if "pa_coeffs" in fd:
            return fibersim.synth_mdl_fiber(
                n, _numbers_field(fd, "pa_coeffs", sub),
                z=z, seed=seed, tau0=tau0,
                md_vector=md,
                pa_slope=(_numbers_field(fd, "pa_slope", sub)
                          if "pa_slope" in fd else None))
        return fibersim.synth_md_fiber(n, tau0, md, seed=seed)
    except (ConfigError, DimensionError, ValueError) as exc:
        raise _InputError(f"{sub}: {exc}") from exc


def _receiver_from(doc: dict, where: str) -> ReceiverModel:
    rd = _scenario_field(doc, "receiver", dict, where)
    fields = {k: _scenario_field(rd, k, str if k == "quadrature" else float,
                                 f"{where}: receiver") for k in rd}
    try:
        return ReceiverModel(**fields)
    except (ConfigError, DimensionError, TypeError) as exc:
        raise _InputError(f"{where}: receiver: {exc}") from exc


def _launch_set_from(doc: dict, scenario_path: Path, where: str) -> LaunchSet:
    rel = _scenario_field(doc, "launch_set", str, where)
    path = Path(rel)
    if not path.is_absolute():
        path = scenario_path.parent / path
    return _load_set_checked(path)


def _simulate_md(doc, fiber, ls, seed, where):
    rx = _receiver_from(doc, where)
    trials = _scenario_field(doc, "trials", int, where)
    measurement = doc.get("measurement", "analytic")
    res = fibersim.monte_carlo_md(fiber, ls, rx, trials, seed=seed,
                                  mode=measurement)
    mt = metrics(ls)
    summary = {
        "mode": "md", "n": fiber.n, "trials": trials,
        "measurement": measurement, "set_family": ls.family, "xi": mt.xi,
        "mean_sq_error": res["mean_sq_error"],
        "predicted_mean_sq": res["predicted_mean_sq"],
        "variance_ratio": res["mean_sq_error"] / res["predicted_mean_sq"],
        "mean_error": [float(v) for v in res["mean_error"]],
    }
    trial_rows = [[str(i), _fmt(sq)] for i, sq in enumerate(res["sq_errors"])]
    return summary, ("trial,sq_error", trial_rows)


def _simulate_mdl(doc, fiber, ls, seed, where):
    trials = _scenario_field(doc, "trials", int, where)
    rel_noise = _scenario_field(doc, "attenuation_rel_noise", float, where,
                                0.0)
    sx = simplex_set(fiber.n, seed=_seed_field(doc, "simplex_seed", where,
                                               seed))
    res = fibersim.monte_carlo_mdl(fiber, ls, sx, rel_noise, trials, seed=seed)
    ev = np.linalg.eigvalsh(fiber.loss_matrix(squared=True))
    summary = {
        "mode": "mdl", "n": fiber.n, "trials": trials,
        "rel_noise": rel_noise, "set_family": ls.family,
        "alpha0_true": res["alpha0_true"],
        "mdl_ratio_true": float(ev[-1] / ev[0]),
        "gamma_mse": res["gamma_mse"],
        "alpha0_mse": res["alpha0_mse"],
        "mdl_ratio_mean": res["mdl_ratio_mean"],
        "predicted_gamma_mse": res["predicted_gamma_mse"],
    }
    columns = zip(res["gamma_sq_errors"], res["alpha0"], res["mdl_ratio"])
    trial_rows = [[str(t), *map(_fmt, row)] for t, row in enumerate(columns)]
    return summary, ("trial,gamma_sq_error,alpha0,mdl_ratio", trial_rows)


# receiver-noise streams of a joint run; rng_for(seed) is rng_for(seed, 0),
# which builds a fiber's unitary, so the noise keeps to tags of its own
_TAU0_STREAM, _DELAY_STREAM = 401, 402


def _simulate_joint(doc, fiber, ls, seed, where):
    rx = _receiver_from(doc, where)
    domega = _scenario_field(doc, "domega", float, where, 1.0)
    sx = simplex_set(fiber.n, seed=_seed_field(doc, "simplex_seed", where,
                                               seed))

    est = fibersim.reconstruct_mdl(
        ls, sx,
        [fibersim.measure_attenuation(fiber, s) for s in ls.states],
        [fibersim.measure_attenuation(fiber, s) for s in sx.states])
    equalized = fibersim.equalize(fiber, est)
    w = equalized.base_unitary
    unitarity = float(np.max(np.abs(w.conj().T @ w - np.eye(fiber.n))))
    tau0_est = fibersim.estimate_tau0(equalized, rx, sx,
                                      seed=(seed, _TAU0_STREAM))
    delays = [fibersim.measure_delay(equalized, s, rx,
                                     seed=(seed, _DELAY_STREAM, i))
              for i, s in enumerate(ls.states)]
    md_est = fibersim.reconstruct_md(ls, delays, tau0_est)
    composed = fibersim.compose_gd_operator(
        fiber.n, tau0_est, md_est, fibersim.loss_matrix_from_estimate(est))
    direct = fibersim.full_gd_operator(fiber, domega)
    # one delay scale for every delay error: the largest direct |DMGD|, or
    # the receiver's delay resolution when the fiber has no delay spread
    scale = max(float(np.max(np.abs(direct.dmgds))),
                math.sqrt(rx.delay_variance), 1e-300)
    _, gamma_true = fibersim.mdl_parameters(fiber)
    summary = {
        "mode": "joint", "n": fiber.n, "domega": domega,
        "set_family": ls.family,
        "equalizer_unitarity": unitarity,
        "tau0_rel_error": abs(tau0_est - fiber.tau0) / scale,
        "md_max_rel_error":
            float(np.max(np.abs(md_est - fiber.md_vector))) / scale,
        "gamma_max_abs_error":
            float(np.max(np.abs(est.gamma - gamma_true))),
        "dmgds_direct": [float(v) for v in direct.dmgds],
        "dmgds_composed": [float(v) for v in composed.dmgds],
        "dmgd_max_rel_deviation":
            float(np.max(np.abs(composed.dmgds - direct.dmgds)) / scale),
        "defective": bool(direct.defective),
    }
    return summary, None


def cmd_simulate(args) -> int:
    started = time.time()
    scenario_path = Path(args.scenario)
    where = str(scenario_path)
    doc = _read_json(scenario_path)
    mode = _scenario_field(doc, "mode", str, where)
    runners = {"md": _simulate_md, "mdl": _simulate_mdl,
               "joint": _simulate_joint}
    if mode not in runners:
        raise _InputError(f"{where}: mode must be one of {sorted(runners)}")
    fiber = _fiber_from(doc, where)
    ls = _launch_set_from(doc, scenario_path, where)
    seed = _seed_field(doc, "seed", where, 0)
    out = args.out or scenario_path.stem + "_results.json"
    manifest = _manifest_path(out)
    manifest_name = Path(manifest).name

    summary, trial_table = runners[mode](doc, fiber, ls, seed, where)
    summary["manifest"] = manifest_name
    outputs = [out]
    if args.trials_out and trial_table is not None:
        header, rows = trial_table
        _write_csv(args.trials_out, manifest_name, header, rows)
        outputs.append(args.trials_out)
    _write_json(out, summary)
    _write_manifest(args, manifest, outputs, started)
    _print_summary(summary)
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    worst = gradient_check(args.n, args.algo, trials=args.trials,
                           seed=args.seed)
    _print_summary({"algorithm": args.algo, "n": args.n,
                    "trials": args.trials, "max_rel_error": worst})
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokesopt",
        description="Launch-state set design and fiber-measurement "
                    "simulation tools.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser(
        "gen-set", help="construct a named launch-set family and save it")
    g.add_argument("--family", required=True, choices=GEN_FAMILIES)
    g.add_argument("--n", type=int, required=True, help="mode count")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--tol", type=float, default=1e-8,
                   help="equiangularity residual target for --family sic")
    g.add_argument("--out", default=None,
                   help="output JSON path (default FAMILY_nN.json)")
    g.set_defaults(func=cmd_gen_set)

    o = sub.add_parser(
        "optimize", help="descend the noise-amplification cost")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--algo", default="hyperspherical", choices=ALGORITHMS)
    o.add_argument("--init", default="random",
                   help="random (multi-start), sic, mub, yang, or file:PATH; "
                        "non-random inits get a deterministic 1e-6 tangent "
                        "nudge off exact stationary points")
    o.add_argument("--starts", type=int, default=8,
                   help="random starts (ignored for non-random --init)")
    o.add_argument("--max-iter", type=int, default=100_000, dest="max_iter")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--tol", type=float, default=1e-8,
                   help="residual target when --init sic builds its start")
    o.add_argument("--out", default=None,
                   help="output stem (default opt_nN_ALGO); writes "
                        "STEM.json, STEM_starts.csv, STEM_trajectory.csv")
    o.set_defaults(func=cmd_optimize)

    e = sub.add_parser(
        "evaluate", help="print full metrics of a stored launch set")
    e.add_argument("--set", required=True, help="launch-set JSON path")
    e.set_defaults(func=cmd_evaluate)

    w = sub.add_parser(
        "sweep", help="tabulate family metrics over mode counts as CSV")
    w.add_argument("--families", required=True,
                   help="comma list from: " + ", ".join(SWEEP_FAMILIES)
                        + " (mub rows cover prime n only)")
    w.add_argument("--n-list", required=True, dest="n_list",
                   help="mode counts, e.g. '2,3,5-8'")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--tol", type=float, default=1e-8)
    w.add_argument("--out", default=None, help="CSV path (default sweep.csv)")
    w.set_defaults(func=cmd_sweep)

    s = sub.add_parser(
        "simulate", help="run a measurement scenario (md, mdl or joint)")
    s.add_argument("--scenario", required=True, help="scenario JSON path")
    s.add_argument("--out", default=None,
                   help="summary JSON path (default SCENARIO_results.json)")
    s.add_argument("--trials-out", default=None, dest="trials_out",
                   help="optional per-trial CSV (md and mdl modes)")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser(
        "gradcheck", help="compare analytic gradients to finite differences")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--algo", default="projected", choices=ALGORITHMS)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_gradcheck)
    return parser


# the module docstring's exit codes; no class here subclasses another
_EXIT_CODES = {
    _InputError: 4, OSError: 4,
    ConfigError: 2, DimensionError: 2,
    SingularSetError: 3, SearchFailedError: 3, EstimationFailedError: 3,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
