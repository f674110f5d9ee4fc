"""Benchmark of the stokesopt package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds T

Run from anywhere inside a source checkout; the package is taken from the
checkout's src/ by absolute path.  Each run

1. times five fresh interpreters that import stokesopt and stokesopt.cli
   and build the workload's inputs from the seed (setup_s is their median);
2. starts one more fresh interpreter (perfbench/child.py) that repeats the
   workload body for about T seconds and checks every output;
3. prints each metric by name with its unit, a provenance line, and as the
   last line one JSON object {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of BENCHMARK.json.  Run records and span files go to .perfbench_out/.
Exit status: 0 when the run completed (check `correct`), 2 when the
checkout has no stokesopt sources, 1 when the workload process failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("design-chart", "verify", "survey")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    # cli.main writes STOKES_OPT_THREADS into os.environ, which would turn on
    # process pools in later calls; every workload runs serial.
    env.pop("STOKES_OPT_THREADS", None)
    # two OpenBLAS threads made a 35x35 cost_and_gradient 4x slower
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine() -> dict:
    info = {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or "unknown",
            "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        info["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return info


def time_setup(workload: str, seed: int, workdir: Path, env: dict) -> float:
    t0 = time.perf_counter()
    # a pipe lets the wait end at the child's exit; waiting with a timeout
    # but no pipe polls in steps of up to 50 ms
    subprocess.run([sys.executable, str(HERE / "child.py"), "setup",
                    "--workload", workload, "--seed", str(seed),
                    "--workdir", str(workdir)],
                   env=env, cwd=ROOT, check=True, timeout=60,
                   stdout=subprocess.PIPE)
    return time.perf_counter() - t0


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    started = time.perf_counter()
    env = child_env()
    # one directory per workload and mode, holding its latest run only
    run_dir = OUT / f"{workload}-t{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setups = []
    for i in range(SETUP_PROBES):
        workdir = run_dir / f"setup{i}"
        workdir.mkdir(parents=True)
        setups.append(time_setup(workload, seed, workdir, env))
    workdir = run_dir / "work"
    workdir.mkdir(parents=True)
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    # its own session, so a timeout also ends any CLI command it started
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "run",
         "--workload", workload, "--seed", str(seed),
         "--workdir", str(workdir), "--seconds", str(seconds),
         "--trace", str(trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{workload}: workload process exceeded {budget:.0f} s",
              file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: workload process exited {proc.returncode}",
              file=sys.stderr)
        return None
    child = json.loads(lines[-1])
    # the survey's pass directories can be large; spans files stay
    for path in run_dir.iterdir():
        shutil.rmtree(path, ignore_errors=True)

    if trace:
        metrics = child["per_layer"]
    else:
        metrics = dict(child["end_to_end"],
                       setup_s=statistics.median(setups))
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "correct": child["checks_ok"] and child["failed"] == 0,
        "attempted": child["attempted"], "failed": child["failed"],
        "failed_frac": child["failed"] / child["attempted"],
        "passes": child["passes"], "ops_per_pass": child["ops"],
        "pass_walls_s": child["pass_walls_s"],
        "setup_samples_s": setups,
        "metrics": metrics,
        "info": child["info"],
        "absent": child.get("absent", []),
        "spans_file": child.get("spans_file"),
        "provenance": dict(machine(), **child["versions"],
                           git_commit=git_commit(), seed=seed,
                           workload=workload),
    }
    with open(run_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def declared_units(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def report(record: dict, units: dict) -> None:
    w = record["workload"]
    for name, value in record["metrics"].items():
        print(f"{w}: {name} = {value:.6g} {units.get(name, '')}")
    for name, value in record["info"].items():
        print(f"{w}: info {name} = {value:.6g}")
    print(f"{w}: attempted {record['attempted']} failed {record['failed']} "
          f"failed_frac {record['failed_frac']:.3g} passes {record['passes']} "
          f"correct {record['correct']}")
    if record["absent"]:
        print(f"{w}: absent probes: {', '.join(record['absent'])}")
    print(f"{w}: provenance {json.dumps(record['provenance'])}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="stokesopt benchmark; see perfbench/README.md")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")
    for needed in (ROOT / "src" / "stokesopt" / "__init__.py",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"not a stokesopt checkout: {needed} is missing",
                  file=sys.stderr)
            return 2

    units = declared_units(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in names:
        record = run_one(workload, args.seed, args.seconds, args.trace)
        if record is None:
            return 1
        if set(record["metrics"]) != set(units):
            print(f"metric names differ from BENCHMARK.json: "
                  f"{sorted(set(record['metrics']) ^ set(units))}",
                  file=sys.stderr)
            return 1
        report(record, units)
        records.append(record)

    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name):
                {"value": value, "unit": units[name]}
            for r in records for name, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
