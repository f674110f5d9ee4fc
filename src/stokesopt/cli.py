"""Command-line front end: set generation, optimization, evaluation, family
sweeps and fiber simulation, wired for reproducible file output.

Every command is a pure function of its flags, input files and seed: a
rerun rewrites every file byte for byte but the manifest, which records the
run's timestamp and wall time.  One writer, `_Outputs`, is built before any
work from every path a command may write.  It names the manifest after the
first (STEM.manifest.json, a .json or .csv suffix dropped) and refuses,
with exit 2, two paths naming one file, a path naming the manifest, or
one naming an input: a scenario, its launch set or a `file:` init.  Each
output points back at the manifest (meta.manifest in a set, manifest in
result JSON, a leading comment line in a CSV), which lists exactly the
files written, in order; a failed `optimize` search writes only
STEM_starts.csv, one row per start, and its manifest.

Scenario files for `simulate` are JSON objects:

    mode          "md", "mdl" or "joint"
    seed          integer noise seed (default 0)
    trials        Monte-Carlo repetitions (md and mdl modes)
    launch_set    path to a launch-set file, relative to the scenario; its
                  mode count must be the fiber's
    fiber         {n, tau0, md_vector, unitary_seed, pa_coeffs?, z?, pa_slope?}
    receiver      the fields of ReceiverModel, all numbers (md and joint)
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
import dataclasses
import json
import math
import os
import sys
import time
from contextlib import contextmanager
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
    pool_map,
    pool_width,
)
from .sets import (
    LaunchSet,
    load_set,
    mub_gram,
    mub_set,
    random_set,
    read_json,
    save_set,
    sic_gram,
    sic_search,
    simplex_set,
    write_json,
    yang_nolan,
    _is_prime,
)

# Every named family, in the order flags list them: (kind, build(n, seed,
# tol)).  A "set" is a LaunchSet scored by `metrics`, a "gram" a Gram scored
# by `metrics_from_gram`, a "basis" an unscored SimplexSet.  Builders look
# their constructor up here when called, so wrappers on this module see it.
FAMILIES = {
    "yang": ("set", lambda n, seed, tol: yang_nolan(n)),
    "mub": ("set", lambda n, seed, tol: mub_set(n)),
    "sic": ("set", lambda n, seed, tol: sic_search(n, seed=seed, tol=tol)),
    "random": ("set", lambda n, seed, tol: random_set(n, seed=seed)),
    "simplex": ("basis", lambda n, seed, tol: simplex_set(n, seed=seed)),
    "sic-analytic": ("gram", lambda n, seed, tol: sic_gram(n)),
    "mub-analytic": ("gram", lambda n, seed, tol: mub_gram(n)),
}


def _family_names(*kinds) -> tuple:
    return tuple(name for name, (kind, _) in FAMILIES.items() if kind in kinds)


class _InputError(Exception):
    """Unreadable or malformed input file; reported with exit code 4."""


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """Floats in text outputs use the shortest exact round-trip form."""
    return repr(float(x))


@contextmanager
def _reading(path, part: str = ""):
    """Exit 4 for an input file that cannot be read (OSError) or whose
    content, its `part` when named, is malformed (any ValueError)."""
    try:
        yield
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        where = f"{path}: {part}: " if part else ""
        raise _InputError(f"{where}{exc}") from exc


class _Outputs:
    """A run's one output and manifest writer and input reader (module doc).

    `paths` are every file the command may write, main output first, None
    or "" for an unset optional one.
    """

    def __init__(self, args, *paths: str | None):
        self.args, self.started, self.written = args, time.time(), []
        self.paths = tuple(p for p in paths if p)
        main = self.paths[0]
        stem = next((main[:-len(ext)] for ext in (".json", ".csv")
                     if main.endswith(ext)), main)
        self.path = stem + ".manifest.json"
        self.name = Path(self.path).name
        every = (*self.paths, self.path)
        self.resolved = {Path(p).resolve() for p in every}
        if len(self.resolved) < len(every):
            raise ConfigError("outputs and manifest must be distinct files, "
                              "got " + ", ".join(every))

    def read(self, path, reader):
        """reader(path); exit 2 if an output or the manifest is `path`."""
        if Path(path).resolve() in self.resolved:
            raise ConfigError(f"input {path} is an output or the manifest")
        with _reading(path):
            return reader(path)

    def set(self, s, path: str) -> None:
        s.meta["manifest"] = self.name
        save_set(s, path)
        self.written.append(path)

    def json(self, path: str, doc: dict) -> None:
        doc["manifest"] = self.name
        write_json(path, doc)
        self.written.append(path)

    def csv(self, path: str, header: str, rows) -> None:
        with open(path, "w") as fh:
            fh.write(f"# manifest: {self.name}\n{header}\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
        self.written.append(path)

    def manifest(self, workers: int | None = None) -> None:
        """Write the manifest; pooled commands record their pool width."""
        doc = {
            "command": self.args.command,
            "config": {k: v for k, v in vars(self.args).items()
                       if k not in ("func", "command")},
            "seed": getattr(self.args, "seed", None),
            "version": __version__,
            "wall_time_s": time.time() - self.started,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": list(self.written),
        }
        if workers is not None:
            doc["workers"] = workers
        write_json(self.path, doc)


def _print_summary(info: dict) -> None:
    print(json.dumps(info, sort_keys=True))


# ---------------------------------------------------------------------------
# gen-set
# ---------------------------------------------------------------------------

def cmd_gen_set(args) -> int:
    path = args.out or f"{args.family}_n{args.n}.json"
    out = _Outputs(args, path)
    kind, build = FAMILIES[args.family]
    s = build(args.n, args.seed, args.tol)
    out.set(s, path)
    summary = {"family": s.family, "n": s.n, "states": len(s.states),
               "out": path}
    if kind == "set":
        mt = metrics(s)
        summary.update(xi=mt.xi, penalty_db=mt.penalty_db)
        if "residual" in s.meta:
            summary["residual"] = s.meta["residual"]
    out.manifest()
    _print_summary(summary)
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def _initial_for(init: str, n: int, seed: int, tol: float, out) -> LaunchSet:
    if init.startswith("file:"):
        s = out.read(init[len("file:"):], load_set)
        if s.n != n:
            raise ConfigError(
                f"--init {init} holds a {s.n}-mode set, but --n is {n}")
        return s
    names = _family_names("set")
    if init not in names:
        raise ConfigError(f"unknown init {init!r}; use "
                          f"{', '.join(names)} or file:PATH")
    return FAMILIES[init][1](n, seed, tol)


def _starts_rows(runs) -> list:
    return [[str(i), run.algorithm, _fmt(run.initial_xi), _fmt(run.final_xi),
             _fmt(run.grad_norm), str(run.iterations_used),
             str(int(run.converged)), str(int(run.aborted)), run.stop_reason]
            for i, run in enumerate(runs)]


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
    stem = args.out or f"opt_n{args.n}_{args.algo}"
    out = _Outputs(args, stem + ".json", stem + "_starts.csv",
                   stem + "_trajectory.csv")
    set_path, starts_path, traj_path = out.paths
    config = OptimizerConfig(algorithm=args.algo, max_iters=args.max_iter,
                             seed=args.seed)
    if args.init == "random":
        # the width multi_start runs at
        workers = pool_width(_cli_workers(), args.starts)
    else:
        workers = 1
        initial = _initial_for(args.init, args.n, args.seed, args.tol, out)
        # family constructions can start exactly on a stationary point
        initial = jitter_set(initial, scale=1e-6, seed=args.seed)

    try:
        if args.init == "random":
            result = multi_start(args.n, starts=args.starts, config=config,
                                 workers=workers)
            runs, best_index = result.runs, result.best_index
        else:
            runs, best_index = [descend(initial, config)], 0
            if runs[0].aborted:
                raise SearchFailedError(
                    f"descent from init {args.init!r} aborted: "
                    f"{runs[0].stop_reason}", diagnostics=runs)
    except SearchFailedError as exc:
        # a failed search still reports every start it ran
        out.csv(starts_path, _STARTS_HEADER, _starts_rows(exc.diagnostics))
        out.manifest(workers)
        raise

    best = runs[best_index]
    out.set(best.final_set, set_path)
    out.csv(starts_path, _STARTS_HEADER, _starts_rows(runs))
    out.csv(traj_path, "iteration,xi,grad_norm",
            [[str(int(it)), _fmt(xi), _fmt(gn)]
             for it, xi, gn in best.trajectory])
    out.manifest(workers)
    mt = metrics(best.final_set)
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
    with _reading(args.set):
        s = load_set(args.set)
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
                span = range(int(lo), int(hi) + 1)
                if not span:  # a reversed range such as 5-3
                    raise ValueError(part)
                ns.extend(span)
            else:
                ns.append(int(part))
        except ValueError as exc:
            raise ConfigError(f"bad n-list entry {part!r}") from exc
    if not ns or any(n < 2 for n in ns):
        raise ConfigError("n-list needs integers >= 2, e.g. '2,3,5-8'")
    return ns


def _sweep_row(job) -> list:
    """The six CSV fields of one sweep row, job = (family, n, seed, tol)."""
    family, n, seed, tol = job
    kind, build = FAMILIES[family]
    built = build(n, seed, tol)
    mt = metrics_from_gram(built) if kind == "gram" else metrics(built)
    return [str(n), family, _fmt(mt.xi), _fmt(mt.penalty_db),
            _fmt(mt.condition_number), _fmt(mt.log_volume)]


def cmd_sweep(args) -> int:
    """Tabulate family metrics over mode counts, one row per (family, n).

    Rows are scored by `pool_map` over up to STOKES_OPT_THREADS processes
    (every core when unset) and written in table order once all are back,
    so the CSV's bytes do not depend on the width; a failing row raises the
    first error in table order, as the serial loop does.
    """
    path = args.out or "sweep.csv"
    out = _Outputs(args, path)
    names = _family_names("set", "gram")
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise ConfigError("families list is empty")
    for fam in families:
        if fam not in names:
            raise ConfigError(
                f"unknown sweep family {fam!r}, pick from {names}")
    ns = _parse_n_list(args.n_list)

    jobs, skipped = [], []
    for fam in families:
        for n in ns:
            # constructed MUBs exist here for prime mode counts only; the
            # analytic Gram route (mub-analytic) covers every n
            if fam == "mub" and not _is_prime(n):
                skipped.append(f"{fam}:{n}")
                continue
            jobs.append((fam, n, args.seed, args.tol))
    workers = pool_width(_cli_workers(), len(jobs))
    rows = pool_map(_sweep_row, jobs, workers)
    out.csv(path, "n,family,xi,penalty_db,condition_number,log_volume", rows)
    out.manifest(workers)
    _print_summary({"rows": len(rows), "skipped": skipped, "out": path})
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


def _fiber_from(doc: dict, where: str, out: _Outputs) -> tuple:
    """The scenario's fiber and launch set; the fiber is synthesized only
    once its fields pass and the set shares its mode count."""
    fd = _scenario_field(doc, "fiber", dict, where)
    sub = f"{where}: fiber"
    n = _scenario_field(fd, "n", int, sub)
    tau0 = _scenario_field(fd, "tau0", float, sub)
    md = _numbers_field(fd, "md_vector", sub)
    seed = _seed_field(fd, "unitary_seed", sub, 0)
    z = _scenario_field(fd, "z", float, sub, 1.0)
    pa = _numbers_field(fd, "pa_coeffs", sub) if "pa_coeffs" in fd else None
    slope = (_numbers_field(fd, "pa_slope", sub)
             if pa is not None and "pa_slope" in fd else None)
    rel = _scenario_field(doc, "launch_set", str, where)
    ls = out.read(Path(where).parent / rel, load_set)  # an absolute rel stays
    if ls.n != n:
        raise _InputError(f"{where}: launch_set {rel} has {ls.n} modes, "
                          f"fiber has {n}")
    with _reading(where, "fiber"):
        if pa is None:
            return fibersim.synth_md_fiber(n, tau0, md, seed=seed), ls
        return fibersim.synth_mdl_fiber(n, pa, z=z, seed=seed, tau0=tau0,
                                        md_vector=md, pa_slope=slope), ls


def _receiver_from(doc: dict, where: str) -> ReceiverModel:
    rd = _scenario_field(doc, "receiver", dict, where)
    sub = f"{where}: receiver"
    names = [f.name for f in dataclasses.fields(ReceiverModel)]
    unknown = set(rd) - set(names)
    if unknown:  # a missing field fails in _scenario_field below
        raise _InputError(f"{sub}: unknown field '{min(unknown)}'")
    with _reading(where, "receiver"):
        return ReceiverModel(**{k: _scenario_field(rd, k, float, sub)
                                for k in names})


def _simulate_md(doc, fiber, ls, seed, where):
    rx = _receiver_from(doc, where)
    trials = _scenario_field(doc, "trials", int, where)
    measurement = _scenario_field(doc, "measurement", str, where, "analytic")
    if measurement not in fibersim.DELAY_MODES:
        raise _InputError(f"{where}: field 'measurement' must be "
                          + " or ".join(map(repr, fibersim.DELAY_MODES)))
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
    ev = np.linalg.eigvalsh(fiber.squared_loss)
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

    # one stacked read of the clean attenuations; each row reads what a
    # single measure_attenuation call reads
    clean = fibersim._expectation(fiber.squared_loss,
                                  np.concatenate([ls.states, sx.states]))
    est = fibersim.reconstruct_mdl(ls, sx, clean[:ls.m], clean[ls.m:])
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
    scenario_path = Path(args.scenario)
    where = str(scenario_path)
    path = args.out or scenario_path.stem + "_results.json"
    out = _Outputs(args, path, args.trials_out)
    doc = out.read(scenario_path, read_json)
    mode = _scenario_field(doc, "mode", str, where)
    runners = {"md": _simulate_md, "mdl": _simulate_mdl,
               "joint": _simulate_joint}
    if mode not in runners:
        raise _InputError(f"{where}: mode must be one of {sorted(runners)}")
    if mode == "joint" and args.trials_out:
        raise ConfigError("--trials-out needs an md or mdl scenario")
    fiber, ls = _fiber_from(doc, where, out)
    seed = _seed_field(doc, "seed", where, 0)

    summary, trial_table = runners[mode](doc, fiber, ls, seed, where)
    out.json(path, summary)
    if args.trials_out:
        out.csv(args.trials_out, *trial_table)
    out.manifest()
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
    g.add_argument("--family", required=True,
                   choices=_family_names("set", "basis"))
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
                   help=", ".join(_family_names("set")) + " or file:PATH; "
                        "random runs --starts descents, the others one, "
                        "nudged 1e-6 off exact stationary points")
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
                   help="comma list from: "
                        + ", ".join(_family_names("set", "gram"))
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
