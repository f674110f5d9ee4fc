"""Command-line tests: every subcommand through main(), exit codes, file
outputs, manifests and rerun determinism.

All invocations go through cli.main with an argv list, inside a temporary
working directory; the slow frozen-endpoint checks reuse seeds whose
outcomes were pinned when the suite was written.
"""
import dataclasses
import filecmp
import importlib.resources
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stokesopt
from stokesopt import cli, optimize
from stokesopt.cli import main
from stokesopt.errors import (
    ConfigError,
    DimensionError,
    EstimationFailedError,
    SearchFailedError,
    SingularSetError,
)
from stokesopt.sets import (
    load_set,
    mub_penalty,
    mub_set,
    save_set,
    sic_penalty,
)


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    """Run each test in its own directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    """Rows of a CLI CSV, comment line stripped; returns (manifest, header,
    rows) with rows as string lists."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[0].startswith("# manifest: ")
    manifest = lines[0].split(": ", 1)[1]
    return manifest, lines[1], [ln.split(",") for ln in lines[2:]]


def write_scenario(path, **fields):
    with open(path, "w") as fh:
        json.dump(fields, fh)
    return str(path)


def _abort_every_descent(monkeypatch):
    real = optimize.descend

    def aborting(initial, config=None):
        run = real(initial, dataclasses.replace(config, max_iters=1))
        return dataclasses.replace(run, converged=False, aborted=True,
                                   stop_reason="singular_iterate")

    monkeypatch.setattr(optimize, "descend", aborting)
    monkeypatch.setattr(cli, "descend", aborting)


TWO_MODE_FIBER = {"n": 2, "tau0": 5e-12,
                  "md_vector": [1e-12, -2e-12, 0.5e-12], "unitary_seed": 1}
CLEAN_RECEIVER = {"responsivity": 0.8, "noise_psd": 0.0, "window": 5e-8,
                  "pulse_width": 1e-8, "sample_rate": 5e9, "energy": 5e-10}
NOISY_RECEIVER = dict(CLEAN_RECEIVER, noise_psd=2e-22)


# ---------------------------------------------------------------------------
# gen-set
# ---------------------------------------------------------------------------

def test_gen_set_yang_writes_file_and_summary(capsys):
    assert run_cli("gen-set", "--family", "yang", "--n", "4") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["out"] == "yang_n4.json"
    assert summary["states"] == 15
    assert math.isclose(summary["xi"], 31.5, rel_tol=1e-12)
    s = load_set("yang_n4.json")
    assert s.family == "yang" and s.n == 4
    assert s.meta["manifest"] == "yang_n4.manifest.json"
    manifest = read_json("yang_n4.manifest.json")
    assert manifest["command"] == "gen-set"
    assert manifest["outputs"] == ["yang_n4.json"]
    assert manifest["config"]["family"] == "yang"


def test_gen_set_simplex_writes_orthonormal_basis(capsys):
    assert run_cli("gen-set", "--family", "simplex", "--n", "3",
                   "--seed", "4", "--out", "sx.json") == 0
    assert json.loads(capsys.readouterr().out)["states"] == 3
    doc = read_json("sx.json")
    assert doc["family"] == "simplex"
    assert doc["meta"] == {"manifest": "sx.manifest.json", "seed": 4}
    arr = np.asarray(doc["vectors"], dtype=float)
    states = arr[:, :, 0] + 1j * arr[:, :, 1]
    assert states.shape == (3, 3)
    assert np.allclose(states.conj() @ states.T, np.eye(3), atol=1e-12)


def test_gen_set_mub_non_prime_exits_2(capsys):
    assert run_cli("gen-set", "--family", "mub", "--n", "6") == 2
    assert "prime" in capsys.readouterr().err


def test_gen_set_sic_reports_residual(capsys):
    assert run_cli("gen-set", "--family", "sic", "--n", "3",
                   "--tol", "1e-10", "--out", "sic3.json") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["residual"] < 1e-10
    assert math.isclose(summary["penalty_db"],
                        10 * math.log10(sic_penalty(3)), rel_tol=1e-9)


def test_sic_search_runs_in_a_child_without_scipy_optimize(child_env):
    code = ("import sys\n"
            "from stokesopt.sets import sic_search\n"
            "for n in range(2, 11):\n"
            "    sic_search(n)\n"
            "assert 'scipy.optimize' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_command_loads_scipy(child_env):
    # SciPy serves only the Schur fallback of a defective composed operator,
    # which none of these commands reaches
    scenario = {"mode": "md", "seed": 3, "trials": 200,
                "launch_set": "mub3.json", "receiver": NOISY_RECEIVER,
                "fiber": {"n": 3, "tau0": 5e-12, "md_vector": [1e-12] * 8,
                          "unitary_seed": 1}}
    write_scenario("md.json", **scenario)
    code = ("import sys, importlib.resources\n"
            "import stokesopt, stokesopt.cli\n"
            "data = importlib.resources.files('stokesopt') / 'data'\n"
            "for argv in (['evaluate', '--set', str(data / 'optimal_n4.json')],\n"
            "             ['gen-set', '--family', 'mub', '--n', '3',\n"
            "              '--out', 'mub3.json'],\n"
            "             ['sweep', '--families',\n"
            "              'yang,mub,random,sic-analytic,mub-analytic',\n"
            "              '--n-list', '2-4'],\n"
            "             ['simulate', '--scenario', 'md.json']):\n"
            "    assert stokesopt.cli.main(argv) == 0, argv\n"
            "assert 'scipy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_serial_commands_do_not_load_the_process_pool(child_env):
    # concurrent.futures.process pulls in multiprocessing, most of the
    # package's own import time; only a pooled branch imports it
    code = ("import sys, importlib.resources\n"
            "import stokesopt, stokesopt.cli\n"
            "data = importlib.resources.files('stokesopt') / 'data'\n"
            "argv = ['evaluate', '--set', str(data / 'optimal_n4.json')]\n"
            "assert stokesopt.cli.main(argv) == 0\n"
            "assert 'concurrent.futures.process' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_gen_set_random_roundtrips():
    assert run_cli("gen-set", "--family", "random", "--n", "2",
                   "--seed", "9") == 0
    s = load_set("random_n2.json")
    assert s.n == 2 and s.family == "random"


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_two_modes_hits_floor(capsys):
    assert run_cli("optimize", "--n", "2", "--algo", "projected",
                   "--starts", "4", "--max-iter", "5000", "--out", "o2") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["penalty_db"] <= 0.001
    _, header, rows = read_csv("o2_starts.csv")
    assert header.startswith("start,algorithm,initial_xi,final_xi")
    assert len(rows) == 4
    for row in rows:
        assert float(row[3]) <= float(row[2])
    _, header, rows = read_csv("o2_trajectory.csv")
    assert header == "iteration,xi,grad_norm"
    assert len(rows) >= 2
    best = load_set("o2.json")
    assert best.family == "optimized"
    assert best.meta["manifest"] == "o2.manifest.json"
    assert read_json("o2.manifest.json")["outputs"] == [
        "o2.json", "o2_starts.csv", "o2_trajectory.csv"]


def test_optimize_four_modes_reaches_reference(capsys):
    assert run_cli("optimize", "--n", "4", "--algo", "hyperspherical",
                   "--starts", "8", "--max-iter", "2000", "--out", "h4") == 0
    summary = json.loads(capsys.readouterr().out)
    assert 16.6 < summary["xi"] <= 17.0


def test_optimize_rerun_is_byte_identical():
    argv = ("optimize", "--n", "2", "--algo", "hyperspherical",
            "--starts", "2", "--max-iter", "3000", "--out", "d1")
    assert run_cli(*argv) == 0
    for ext in (".json", "_starts.csv", "_trajectory.csv", ".manifest.json"):
        shutil.copy("d1" + ext, "keep" + ext)
    assert run_cli(*argv) == 0
    for ext in (".json", "_starts.csv", "_trajectory.csv"):
        assert filecmp.cmp("d1" + ext, "keep" + ext, shallow=False)
    before, after = read_json("keep.manifest.json"), read_json("d1.manifest.json")
    differing = {k for k in before if before[k] != after[k]}
    assert differing <= {"timestamp", "wall_time_s"}


def test_optimize_summary_xi_is_the_saved_sets_xi(capsys):
    # the summary describes the written file, whose phases are canonicalized
    # after the descent, so evaluate on that file prints the very same xi
    assert run_cli("optimize", "--n", "3", "--starts", "2",
                   "--max-iter", "1500", "--out", "x3") == 0
    summary = json.loads(capsys.readouterr().out)
    assert run_cli("evaluate", "--set", "x3.json") == 0
    assert json.loads(capsys.readouterr().out)["xi"] == summary["xi"]


def test_optimize_family_init_descends_from_saddle(capsys):
    assert run_cli("optimize", "--n", "3", "--algo", "projected",
                   "--init", "mub", "--max-iter", "4000", "--out", "m3") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["penalty_db"] < 10 * math.log10(mub_penalty(3))
    _, _, rows = read_csv("m3_starts.csv")
    assert len(rows) == 1
    assert float(rows[0][3]) < float(rows[0][2])
    assert load_set("m3.json").meta["initial_family"] == "mub"


def test_optimize_file_init(capsys):
    assert run_cli("gen-set", "--family", "random", "--n", "2",
                   "--seed", "3", "--out", "r2.json") == 0
    capsys.readouterr()
    assert run_cli("optimize", "--n", "2", "--init", "file:r2.json",
                   "--max-iter", "3000", "--out", "fr") == 0
    assert json.loads(capsys.readouterr().out)["penalty_db"] <= 0.001


def test_optimize_rejects_unknown_init(capsys):
    assert run_cli("optimize", "--n", "2", "--init", "fancy") == 2
    assert "init" in capsys.readouterr().err


def test_optimize_missing_init_file_exits_4():
    assert run_cli("optimize", "--n", "2", "--init", "file:gone.json") == 4


@pytest.mark.parametrize("init, starts", [("random", 3), ("mub", 1)])
def test_optimize_failure_reports_every_start(capsys, monkeypatch, init,
                                              starts):
    """With every descent aborting, both inits exit 3 and leave the same
    pair: a starts CSV with each start, and a manifest listing only it."""
    _abort_every_descent(monkeypatch)
    monkeypatch.setenv("STOKES_OPT_THREADS", "1")
    assert run_cli("optimize", "--n", "3", "--init", init,
                   "--starts", str(starts), "--out", "f") == 3
    assert "aborted" in capsys.readouterr().err
    manifest, header, rows = read_csv("f_starts.csv")
    assert manifest == "f.manifest.json"
    assert header == cli._STARTS_HEADER
    assert [row[0] for row in rows] == [str(i) for i in range(starts)]
    assert all(row[7:] == ["1", "singular_iterate"] for row in rows)
    assert read_json("f.manifest.json")["outputs"] == ["f_starts.csv"]
    assert sorted(os.listdir()) == ["f.manifest.json", "f_starts.csv"]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_bundled_reference_set(capsys):
    data = importlib.resources.files("stokesopt") / "data" / "optimal_n4.json"
    assert run_cli("evaluate", "--set", str(data)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["xi"] - 16.9) < 0.3
    assert doc["bound_ok"] is True
    assert len(doc["singular_values"]) == 15
    assert doc["log_volume"] <= 0.0


def test_evaluate_reports_missing_file():
    assert run_cli("evaluate", "--set", "absent.json") == 4


def test_evaluate_names_offending_field(capsys):
    with open("broken.json", "w") as fh:
        fh.write('{"n": 2, "family": "x"}')
    assert run_cli("evaluate", "--set", "broken.json") == 4
    assert "vectors" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    (5, "top level"), ({"meta": [1, 2]}, "'meta'"),
    ({"meta": "abc"}, "'meta'"),
    ({"vectors": [[1.0, 0.0], [0.0, 1.0]]}, "'vectors' must be (count, 2, 2)"),
    ({"vectors": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]},
     "'vectors' must be (count, 2, 2)")])
def test_evaluate_rejects_malformed_set_documents(capsys, doc, field):
    assert run_cli("gen-set", "--family", "mub", "--n", "2",
                   "--out", "mub2.json") == 0
    if isinstance(doc, dict):
        doc = dict(read_json("mub2.json"), **doc)
    with open("bad.json", "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert run_cli("evaluate", "--set", "bad.json") == 4
    assert field in capsys.readouterr().err


def test_evaluate_rejects_non_finite_state(capsys):
    data = importlib.resources.files("stokesopt") / "data" / "optimal_n4.json"
    doc = json.loads(data.read_text())
    doc["vectors"][3][1][0] = math.nan
    with open("nan.json", "w") as fh:
        json.dump(doc, fh)
    assert run_cli("evaluate", "--set", "nan.json") == 4
    assert "non-finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_families_and_skips(capsys):
    assert run_cli("sweep", "--families", "yang,mub,sic-analytic,mub-analytic",
                   "--n-list", "2-12", "--out", "sw.csv") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["skipped"] == ["mub:4", "mub:6", "mub:8", "mub:9",
                                  "mub:10", "mub:12"]
    manifest, header, rows = read_csv("sw.csv")
    assert manifest == "sw.manifest.json"
    assert header == "n,family,xi,penalty_db,condition_number,log_volume"
    assert len(rows) == 11 + 5 + 11 + 11
    by_family = {}
    for n, fam, xi, pdb, cond, logv in rows:
        by_family.setdefault(fam, {})[int(n)] = float(pdb)
    for n in range(2, 13):
        expected = 10 * math.log10(sic_penalty(n))
        assert math.isclose(by_family["sic-analytic"][n], expected,
                            rel_tol=1e-12)
    # the yang family starts orthonormal at n=2, sits between the mub and
    # sic closed forms at n=3 (5/3 against 4/3 and 16/9), and is the worst
    # of the three from n=4 on
    assert abs(by_family["yang"][2]) < 1e-10
    assert math.isclose(by_family["yang"][3], 10 * math.log10(5.0 / 3.0),
                        rel_tol=1e-9)
    for n in range(3, 13):
        assert by_family["yang"][n] > by_family["mub-analytic"][n]
    for n in range(4, 13):
        assert by_family["yang"][n] > by_family["sic-analytic"][n]


def test_sweep_constructed_sic_matches_closed_form():
    assert run_cli("sweep", "--families", "sic,sic-analytic",
                   "--n-list", "2-10", "--out", "sic.csv") == 0
    _, _, rows = read_csv("sic.csv")
    xi = {(fam, int(n)): float(x) for n, fam, x, *_ in rows}
    assert len(xi) == 18
    for n in range(2, 11):
        assert math.isclose(xi["sic", n], xi["sic-analytic", n],
                            rel_tol=1e-9)


def test_sweep_analytic_endpoint_at_forty():
    assert run_cli("sweep", "--families", "sic-analytic",
                   "--n-list", "2-40", "--out", "sa.csv") == 0
    _, _, rows = read_csv("sa.csv")
    last = rows[-1]
    assert last[0] == "40"
    assert math.isclose(float(last[3]), 10 * math.log10(sic_penalty(40)),
                        rel_tol=1e-12)
    assert math.isclose(float(last[3]), 3.00758, abs_tol=1e-5)


def test_sweep_mub_analytic_covers_non_primes():
    assert run_cli("sweep", "--families", "mub-analytic",
                   "--n-list", "4,6", "--out", "ma.csv") == 0
    _, _, rows = read_csv("ma.csv")
    assert [r[0] for r in rows] == ["4", "6"]
    for row in rows:
        n = int(row[0])
        assert math.isclose(float(row[3]), 10 * math.log10(mub_penalty(n)),
                            rel_tol=1e-12)


def test_sweep_rejects_bad_input():
    assert run_cli("sweep", "--families", "nope", "--n-list", "2") == 2
    assert run_cli("sweep", "--families", ",", "--n-list", "2") == 2
    assert run_cli("sweep", "--families", "yang", "--n-list", "x-3") == 2
    assert run_cli("sweep", "--families", "yang", "--n-list", "1") == 2


def test_sweep_rejects_a_reversed_range():
    assert run_cli("sweep", "--families", "yang", "--n-list", "2,5-3",
                   "--out", "sw.csv") == 2
    assert not Path("sw.csv").exists()


def test_sweep_rows_do_not_depend_on_the_pool_width(capsys, monkeypatch):
    written = {}
    for width in (1, 2):
        monkeypatch.setenv("STOKES_OPT_THREADS", str(width))
        assert run_cli("sweep", "--families",
                       "yang,mub,random,sic-analytic,mub-analytic",
                       "--n-list", "2-12", "--out", "sw.csv") == 0
        written[width] = (Path("sw.csv").read_bytes(),
                          capsys.readouterr().out)
        assert read_json("sw.manifest.json")["workers"] == width
    assert written[1] == written[2]


def test_sweep_failing_row_fails_alike_at_any_width(capsys, monkeypatch):
    # sic reaches tol 1e-30 at n=2 only; the rows n=3..5 all fail, and the
    # first of them in table order is the one reported
    errors = set()
    for width in ("1", "2"):
        monkeypatch.setenv("STOKES_OPT_THREADS", width)
        assert run_cli("sweep", "--families", "yang,sic", "--n-list", "2-5",
                       "--tol", "1e-30") == 3
        errors.add(capsys.readouterr().err)
        assert os.listdir() == []
    assert len(errors) == 1
    assert errors.pop().startswith("error: SIC search for n=3 ")
    # a pool hands the error back pickled, residual included
    with pytest.raises(SearchFailedError) as failed:
        cli._sweep_row(("sic", 3, 0, 1e-30))
    copy = pickle.loads(pickle.dumps(failed.value))
    assert str(copy) == str(failed.value)
    assert copy.residual == failed.value.residual > 0.0


def test_optimize_manifest_records_its_pool_width(monkeypatch):
    argv = ("optimize", "--n", "3", "--algo", "projected",
            "--starts", "2", "--max-iter", "500", "--out", "w")
    outputs = (".json", "_starts.csv", "_trajectory.csv")
    for width in (1, 2):
        monkeypatch.setenv("STOKES_OPT_THREADS", str(width))
        assert run_cli(*argv) == 0
        assert read_json("w.manifest.json")["workers"] == width
        for ext in outputs:
            shutil.copy("w" + ext, f"width{width}{ext}")
    for ext in outputs:
        assert filecmp.cmp(f"width1{ext}", f"width2{ext}", shallow=False)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_md_variance_ratio(capsys):
    assert run_cli("gen-set", "--family", "mub", "--n", "2",
                   "--out", "mub2.json") == 0
    capsys.readouterr()
    write_scenario("md.json", mode="md", seed=3, trials=10000,
                   measurement="analytic", launch_set="mub2.json",
                   fiber=TWO_MODE_FIBER, receiver=NOISY_RECEIVER)
    assert run_cli("simulate", "--scenario", "md.json",
                   "--trials-out", "md_trials.csv") == 0
    doc = read_json("md_results.json")
    assert doc["mode"] == "md" and doc["trials"] == 10000
    assert abs(doc["variance_ratio"] - 1.0) < 0.05
    assert doc["manifest"] == "md_results.manifest.json"
    _, header, rows = read_csv("md_trials.csv")
    assert header == "trial,sq_error"
    assert len(rows) == 10000
    manifest = read_json("md_results.manifest.json")
    assert manifest["outputs"] == ["md_results.json", "md_trials.csv"]


def test_simulate_joint_reports_operator_agreement(capsys):
    assert run_cli("gen-set", "--family", "random", "--n", "3",
                   "--seed", "6", "--out", "set3.json") == 0
    capsys.readouterr()
    fiber = {"n": 3, "tau0": 4e-12,
             "md_vector": [1e-12, -0.5e-12, 0.3e-12, 0.2e-12,
                           -0.8e-12, 0.4e-12, 0.1e-12, -0.2e-12],
             "unitary_seed": 7, "pa_coeffs": [0.05, 0.3, 0.18], "z": 1.2}
    write_scenario("joint.json", mode="joint", seed=0, domega=1e6,
                   launch_set="set3.json", fiber=fiber,
                   receiver=CLEAN_RECEIVER)
    assert run_cli("simulate", "--scenario", "joint.json",
                   "--out", "jr.json") == 0
    doc = read_json("jr.json")
    assert doc["dmgd_max_rel_deviation"] < 1e-6
    assert doc["equalizer_unitarity"] < 1e-8
    assert doc["defective"] is False
    assert len(doc["dmgds_direct"]) == 3
    assert doc["tau0_rel_error"] < 1e-10

    # a fiber without common-mode delay, and one without any delay at all:
    # every delay error is relative to the largest direct |DMGD|, so both
    # read as exact to rounding rather than as a residue over a tiny floor
    keys = ("tau0_rel_error", "md_max_rel_error", "dmgd_max_rel_deviation")
    for name, extra in [("tau0", {"tau0": 0.0}),
                        ("still", {"tau0": 0.0, "md_vector": [0.0] * 8})]:
        write_scenario(f"{name}.json", mode="joint", seed=0, domega=1e6,
                       launch_set="set3.json", fiber=dict(fiber, **extra),
                       receiver=CLEAN_RECEIVER)
        assert run_cli("simulate", "--scenario", f"{name}.json",
                       "--out", f"{name}_r.json") == 0
    doc = read_json("tau0_r.json")
    assert all(doc[key] < 1e-10 for key in keys)
    doc = read_json("still_r.json")
    assert all(doc[key] == 0.0 for key in keys)

    # the still fiber through a noisy receiver: with no DMGD to scale by, the
    # errors are in units of the receiver's delay resolution, not of a
    # 1e-300 s floor
    write_scenario("noisy.json", mode="joint", seed=0, domega=1e6,
                   launch_set="set3.json",
                   fiber=dict(fiber, tau0=0.0, md_vector=[0.0] * 8),
                   receiver=NOISY_RECEIVER)
    assert run_cli("simulate", "--scenario", "noisy.json",
                   "--out", "noisy_r.json") == 0
    doc = read_json("noisy_r.json")
    assert all(0.0 < doc[key] < 100.0 for key in keys)


def test_simulate_joint_noisy_receiver_reruns_byte_identical(capsys):
    assert run_cli("gen-set", "--family", "mub", "--n", "2",
                   "--out", "mub2.json") == 0
    write_scenario("joint.json", mode="joint", seed=5, domega=1e6,
                   launch_set="mub2.json", fiber=LOSSY_FIBER,
                   receiver=NOISY_RECEIVER)
    argv = ("simulate", "--scenario", "joint.json", "--out", "jr.json")
    assert run_cli(*argv) == 0
    shutil.copy("jr.json", "keep.json")
    assert run_cli(*argv) == 0
    assert filecmp.cmp("jr.json", "keep.json", shallow=False)
    doc = read_json("jr.json")
    assert 0.0 < doc["tau0_rel_error"] < 1.0


def test_simulate_mdl_noiseless_is_exact(capsys):
    assert run_cli("gen-set", "--family", "random", "--n", "2",
                   "--seed", "2", "--out", "s2.json") == 0
    capsys.readouterr()
    fiber = {"n": 2, "tau0": 0.0, "md_vector": [0.0, 0.0, 0.0],
             "unitary_seed": 2, "pa_coeffs": [0.1, 0.4], "z": 1.0}
    write_scenario("mdl.json", mode="mdl", seed=2, trials=1,
                   attenuation_rel_noise=0.0, launch_set="s2.json",
                   fiber=fiber)
    assert run_cli("simulate", "--scenario", "mdl.json",
                   "--out", "mr.json", "--trials-out", "mt.csv") == 0
    doc = read_json("mr.json")
    assert doc["gamma_mse"] < 1e-20
    assert doc["alpha0_mse"] < 1e-20
    assert math.isclose(doc["mdl_ratio_mean"], doc["mdl_ratio_true"],
                        rel_tol=1e-10)
    assert math.isclose(doc["mdl_ratio_true"], math.exp(0.3), rel_tol=1e-10)
    assert doc["predicted_gamma_mse"] == 0.0
    _, header, rows = read_csv("mt.csv")
    assert header == "trial,gamma_sq_error,alpha0,mdl_ratio"
    assert len(rows) == 1


def test_simulate_mdl_overwhelming_noise_exits_3(capsys):
    assert run_cli("gen-set", "--family", "mub", "--n", "2",
                   "--out", "m2.json") == 0
    capsys.readouterr()
    fiber = {"n": 2, "tau0": 0.0, "md_vector": [0.0, 0.0, 0.0],
             "unitary_seed": 2, "pa_coeffs": [0.1, 0.4], "z": 1.0}
    write_scenario("loud.json", mode="mdl", seed=1, trials=4,
                   attenuation_rel_noise=0.9, launch_set="m2.json",
                   fiber=fiber)
    assert run_cli("simulate", "--scenario", "loud.json") == 3
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [0, -3])
def test_simulate_mdl_rejects_non_positive_trials(capsys, trials):
    assert run_cli("gen-set", "--family", "mub", "--n", "2",
                   "--out", "m2.json") == 0
    capsys.readouterr()
    fiber = {"n": 2, "tau0": 0.0, "md_vector": [0.0, 0.0, 0.0],
             "unitary_seed": 2, "pa_coeffs": [0.1, 0.4], "z": 1.0}
    write_scenario("few.json", mode="mdl", seed=1, trials=trials,
                   launch_set="m2.json", fiber=fiber)
    assert run_cli("simulate", "--scenario", "few.json",
                   "--out", "few_out.json") == 2
    assert "trials must be at least 1" in capsys.readouterr().err
    assert not os.path.exists("few_out.json")


def test_simulate_input_errors(capsys):
    assert run_cli("simulate", "--scenario", "gone.json") == 4
    with open("garbled.json", "w") as fh:
        fh.write("{oops")
    assert run_cli("simulate", "--scenario", "garbled.json") == 4
    write_scenario("nofiber.json", mode="md")
    assert run_cli("simulate", "--scenario", "nofiber.json") == 4
    assert "fiber" in capsys.readouterr().err
    write_scenario("badmode.json", mode="sideways", fiber=TWO_MODE_FIBER)
    assert run_cli("simulate", "--scenario", "badmode.json") == 4
    write_scenario("badfiber.json", mode="md", launch_set="x.json",
                   fiber={"n": 2, "tau0": 0.0, "md_vector": [0.0, 0.0, 0.0],
                          "pa_coeffs": [-1.0, 0.1]})
    assert run_cli("simulate", "--scenario", "badfiber.json") == 4
    # the launch set is read before the fiber is synthesized
    assert run_cli("gen-set", "--family", "mub", "--n", "2",
                   "--out", "mub2.json") == 0
    for key, value in (("tau0", math.inf), ("pa_slope", [math.nan, 0.0])):
        capsys.readouterr()
        write_scenario("inf.json", mode="md", launch_set="mub2.json",
                       fiber=dict(TWO_MODE_FIBER, pa_coeffs=[0.1, 0.4],
                                  **{key: value}))
        assert run_cli("simulate", "--scenario", "inf.json") == 4
        assert f"{key} must be finite" in capsys.readouterr().err
    capsys.readouterr()
    with open("listed.json", "w") as fh:
        json.dump([SCENARIOS["md"]], fh)
    assert run_cli("simulate", "--scenario", "listed.json") == 4
    assert "top level must be a JSON object" in capsys.readouterr().err
    # a fiber mode count the launch set does not share is a malformed
    # scenario, refused before the fiber is synthesized
    for mode, n in [(m, n) for m in ("md", "mdl") for n in (-1, 0, 10**12)]:
        capsys.readouterr()
        scenario = json.loads(json.dumps(SCENARIOS[mode]))
        scenario["fiber"]["n"] = n
        write_scenario("n.json", **scenario)
        assert run_cli("simulate", "--scenario", "n.json",
                       "--out", "n_out.json") == 4, (mode, n)
        assert f"has 2 modes, fiber has {n}" in capsys.readouterr().err
        assert not os.path.exists("n_out.json")
    no_energy = {k: v for k, v in NOISY_RECEIVER.items() if k != "energy"}
    for receiver, message in (
            (dict(NOISY_RECEIVER, responsivity=-0.8),
             "responsivity must be positive"),
            (dict(NOISY_RECEIVER, gain=2.0), "'gain'"),
            (no_energy, "missing field 'energy'"),
            ({}, "missing field")):
        write_scenario("rx.json", **dict(SCENARIOS["md"], receiver=receiver))
        assert run_cli("simulate", "--scenario", "rx.json") == 4
        err = capsys.readouterr().err
        assert "receiver:" in err and message in err
    write_scenario("pa.json", **dict(
        SCENARIOS["mdl"], fiber=dict(LOSSY_FIBER, pa_coeffs=[0.1, 0.4, 0.2])))
    assert run_cli("simulate", "--scenario", "pa.json") == 4
    assert "pa_coeffs must have shape (2,)" in capsys.readouterr().err
    for value in (math.nan, math.inf):
        capsys.readouterr()
        write_scenario("noise.json", **dict(SCENARIOS["mdl"],
                                            attenuation_rel_noise=value))
        assert run_cli("simulate", "--scenario", "noise.json",
                       "--out", "noise_out.json") == 2
        assert "rel_noise must be finite" in capsys.readouterr().err
        assert not os.path.exists("noise_out.json")
    for value in (True, 3, "fast"):
        capsys.readouterr()
        write_scenario("meas.json", **dict(SCENARIOS["md"],
                                           measurement=value))
        assert run_cli("simulate", "--scenario", "meas.json",
                       "--out", "meas_out.json") == 4, value
        assert "field 'measurement' must be" in capsys.readouterr().err
        assert not os.path.exists("meas_out.json")


LOSSY_FIBER = dict(TWO_MODE_FIBER, unitary_seed=2, pa_coeffs=[0.1, 0.4],
                   z=1.0)
SCENARIOS = {
    "md": {"mode": "md", "seed": 3, "trials": 4, "launch_set": "mub2.json",
           "fiber": TWO_MODE_FIBER, "receiver": NOISY_RECEIVER},
    "mdl": {"mode": "mdl", "seed": 3, "trials": 4, "launch_set": "mub2.json",
            "fiber": LOSSY_FIBER, "attenuation_rel_noise": 0.01,
            "simplex_seed": 1},
    "joint": {"mode": "joint", "seed": 0, "domega": 1e6,
              "launch_set": "mub2.json", "fiber": LOSSY_FIBER,
              "receiver": CLEAN_RECEIVER},
}
SEED_FIELDS = {"seed", "simplex_seed", "unitary_seed"}
INT_FIELDS = {"trials", "n"} | SEED_FIELDS
# list fields and their length in the two-mode scenarios
LIST_FIELDS = {"md_vector": 3, "pa_coeffs": 2, "pa_slope": 2}


@pytest.mark.parametrize("path", [
    ("md", "trials"), ("md", "fiber", "n"), ("md", "fiber", "tau0"),
    ("md", "seed"), ("mdl", "seed"), ("mdl", "simplex_seed"),
    ("joint", "simplex_seed"), ("md", "fiber", "unitary_seed"),
    ("mdl", "attenuation_rel_noise"), ("joint", "domega"),
    ("mdl", "fiber", "z"), ("md", "receiver", "responsivity"),
    ("joint", "receiver", "noise_psd"), ("md", "fiber", "md_vector"),
    ("mdl", "fiber", "pa_coeffs"), ("mdl", "fiber", "pa_slope")])
def test_simulate_rejects_boolean_numbers(capsys, path):
    # bool subclasses int in Python; JSON true must not pass as 1, nor a
    # string or a fraction where a number or an integer is required, nor
    # a list holding a boolean where a list of numbers is required
    assert run_cli("gen-set", "--family", "mub", "--n", "2",
                   "--out", "mub2.json") == 0
    mode, *parents, key = path
    size = LIST_FIELDS.get(key, 0)
    bads = ((True, "x") + ((1.5,) if key in INT_FIELDS else ())
            + ((-1,) if key in SEED_FIELDS else ())
            + (([True] * size, [0.0] * (size - 1) + [False]) if size
               else ()))
    for bad in bads:
        capsys.readouterr()
        doc = json.loads(json.dumps(SCENARIOS[mode]))
        target = doc
        for parent in parents:
            target = target[parent]
        target[key] = bad
        write_scenario("flag.json", **doc)
        assert run_cli("simulate", "--scenario", "flag.json",
                       "--out", "flag_out.json") == 4, bad
        assert f"field '{key}' must be" in capsys.readouterr().err
        assert not os.path.exists("flag_out.json")


@pytest.mark.parametrize("measurement", ["analytic", "waveform"])
def test_simulate_md_rerun_is_byte_identical(measurement):
    assert run_cli("gen-set", "--family", "mub", "--n", "2",
                   "--out", "mub2.json") == 0
    write_scenario("md.json", **dict(SCENARIOS["md"], trials=50,
                                     measurement=measurement))
    argv = ("simulate", "--scenario", "md.json", "--out", "r.json",
            "--trials-out", "r.csv")
    assert run_cli(*argv) == 0
    for name in ("r.json", "r.csv", "r.manifest.json"):
        shutil.copy(name, "keep_" + name)
    assert run_cli(*argv) == 0
    for name in ("r.json", "r.csv"):
        assert filecmp.cmp(name, "keep_" + name, shallow=False)
    before = read_json("keep_r.manifest.json")
    after = read_json("r.manifest.json")
    differing = {k for k in before if before[k] != after[k]}
    assert differing <= {"timestamp", "wall_time_s"}


# ---------------------------------------------------------------------------
# one output writer, one input reader
# ---------------------------------------------------------------------------

def _md_inputs():
    save_set(mub_set(2), "in_mub2.json")
    write_scenario("in_md.json", **dict(SCENARIOS["md"],
                                        launch_set="in_mub2.json"))


# command, whether it needs the md scenario, exit code, manifest
WRITING_COMMANDS = {
    "gen-set": (["gen-set", "--family", "sic", "--n", "3",
                 "--out", "g.json"], False, 0, "g.manifest.json"),
    "optimize": (["optimize", "--n", "2", "--starts", "2", "--max-iter",
                  "200", "--out", "o"], False, 0, "o.manifest.json"),
    "optimize-abort": (["optimize", "--n", "3", "--init", "mub",
                        "--out", "f"], False, 3, "f.manifest.json"),
    "sweep": (["sweep", "--families", "yang,sic-analytic", "--n-list", "2-4",
               "--out", "s.csv"], False, 0, "s.manifest.json"),
    "simulate": (["simulate", "--scenario", "in_md.json", "--out", "r.json"],
                 True, 0, "r.manifest.json"),
    "simulate-trials": (["simulate", "--scenario", "in_md.json",
                         "--trials-out", "t.csv"], True, 0,
                        "in_md_results.manifest.json"),
}


@pytest.mark.parametrize("name", sorted(WRITING_COMMANDS))
def test_each_run_writes_exactly_what_its_manifest_lists(capsys, monkeypatch,
                                                         name):
    argv, needs_scenario, code, manifest = WRITING_COMMANDS[name]
    monkeypatch.setenv("STOKES_OPT_THREADS", "1")
    if name == "optimize-abort":
        _abort_every_descent(monkeypatch)
    if needs_scenario:
        _md_inputs()
    inputs = set(os.listdir())
    assert main(argv) == code
    outputs = read_json(manifest)["outputs"]
    assert len(set(outputs)) == len(outputs) >= 1
    assert set(os.listdir()) == inputs | set(outputs) | {manifest}
    for path in outputs:
        if path.endswith(".csv"):
            assert read_csv(path)[0] == manifest
        else:
            doc = read_json(path)
            assert doc.get("manifest", doc.get("meta", {}).get("manifest")) \
                == manifest


@pytest.mark.parametrize("flags", [
    ["--out", "r.json", "--trials-out", "r.json"],
    ["--out", "r.json", "--trials-out", "./r.json"],
    ["--out", "r.json", "--trials-out", "r.manifest.json"],
    ["--trials-out", "in_md_results.manifest.json"],
])
def test_simulate_refuses_outputs_that_collide(capsys, monkeypatch, flags):
    _md_inputs()
    inputs = set(os.listdir())
    monkeypatch.setattr(cli.fibersim, "monte_carlo_md", None)  # never drawn
    assert main(["simulate", "--scenario", "in_md.json", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: outputs and manifest must be distinct files")
    assert set(os.listdir()) == inputs


def _snapshot() -> dict:
    """Every file of the working directory and its bytes."""
    return {p: Path(p).read_bytes() for p in os.listdir()}


# an output or the manifest (STEM.manifest.json) naming each kind of input
@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "in_md.json", "--out", "in_md.json"],
    ["simulate", "--scenario", "in_md.json", "--out", "./in_md.json"],
    ["simulate", "--scenario", "r.manifest.json", "--out", "r.json"],
    ["simulate", "--scenario", "in_md.json", "--trials-out", "in_mub2.json"],
    ["simulate", "--scenario", "via.json", "--out", "set"],
    ["optimize", "--n", "2", "--init", "file:in_mub2.json",
     "--out", "in_mub2"],
    ["optimize", "--n", "2", "--init", "file:set.manifest.json",
     "--out", "set"],
])
def test_outputs_never_overwrite_an_input(capsys, argv):
    _md_inputs()
    shutil.copy("in_md.json", "r.manifest.json")
    shutil.copy("in_mub2.json", "set.manifest.json")
    write_scenario("via.json", **dict(SCENARIOS["md"],
                                      launch_set="set.manifest.json"))
    before = _snapshot()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input ")
    assert _snapshot() == before


def test_joint_trials_out_exits_2_and_writes_nothing(capsys):
    save_set(mub_set(2), "mub2.json")
    write_scenario("joint.json", **SCENARIOS["joint"])
    before = _snapshot()
    assert main(["simulate", "--scenario", "joint.json",
                 "--trials-out", "j.csv"]) == 2
    assert "--trials-out needs an md or mdl scenario" in capsys.readouterr().err
    assert _snapshot() == before


@pytest.mark.parametrize("mode", ["md", "mdl"])
def test_simulate_compares_mode_counts_before_synthesis(capsys, monkeypatch,
                                                        mode):
    drawn = []
    real = cli.fibersim.haar_unitary
    monkeypatch.setattr(cli.fibersim, "haar_unitary",
                        lambda n, rng: drawn.append(n) or real(n, rng))
    save_set(mub_set(2), "mub2.json")
    scenario = json.loads(json.dumps(SCENARIOS[mode]))
    scenario["fiber"]["n"] = 10**6  # never drawn: that would need 16 TB
    write_scenario("big.json", **scenario)
    assert main(["simulate", "--scenario", "big.json"]) == 4
    assert "has 2 modes, fiber has 1000000" in capsys.readouterr().err
    assert drawn == []
    scenario["fiber"]["n"] = 2
    write_scenario("ok.json", **scenario)
    assert main(["simulate", "--scenario", "ok.json"]) == 0
    assert drawn and set(drawn) == {2}


NOT_UTF8 = b'{"n": 2, "family": "caf\xe9", "vectors": []}'


@pytest.mark.parametrize("command", ["evaluate", "optimize", "simulate",
                                     "simulate-set"])
def test_a_file_that_is_not_utf8_exits_4(capsys, command):
    _md_inputs()
    Path("latin1.json").write_bytes(NOT_UTF8)
    if command == "simulate-set":
        write_scenario("via.json", **dict(SCENARIOS["md"],
                                          launch_set="latin1.json"))
    inputs = set(os.listdir())
    argv = {"evaluate": ["evaluate", "--set", "latin1.json"],
            "optimize": ["optimize", "--n", "2", "--init", "file:latin1.json"],
            "simulate": ["simulate", "--scenario", "latin1.json"],
            "simulate-set": ["simulate", "--scenario", "via.json"]}[command]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: latin1.json: not valid JSON")
    assert "utf-8" in lines[0]
    assert set(os.listdir()) == inputs


def test_optimize_file_init_must_match_the_mode_count(capsys):
    _md_inputs()
    inputs = set(os.listdir())
    assert main(["optimize", "--n", "3", "--init", "file:in_mub2.json",
                 "--out", "x"]) == 2
    err = capsys.readouterr().err
    assert "2-mode set" in err and "--n is 3" in err
    assert set(os.listdir()) == inputs


def test_simulate_launch_set_must_match_the_fiber(capsys, monkeypatch):
    _md_inputs()
    assert main(["gen-set", "--family", "mub", "--n", "3",
                 "--out", "mub3.json"]) == 0
    write_scenario("wide.json", **dict(SCENARIOS["md"],
                                       launch_set="mub3.json"))
    capsys.readouterr()
    inputs = set(os.listdir())
    monkeypatch.setattr(cli.fibersim, "monte_carlo_md", None)  # never drawn
    assert main(["simulate", "--scenario", "wide.json"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: wide.json: ")
    assert "3 modes" in err and "fiber has 2" in err
    assert set(os.listdir()) == inputs


def test_simulate_rejects_the_removed_quadrature_field(capsys):
    _md_inputs()
    receiver = dict(NOISY_RECEIVER, quadrature="simpson38")
    write_scenario("q.json", **dict(SCENARIOS["md"], launch_set="in_mub2.json",
                                    receiver=receiver))
    assert main(["simulate", "--scenario", "q.json"]) == 4
    assert "receiver: unknown field 'quadrature'" in capsys.readouterr().err


def test_commands_take_their_families_from_the_one_table(capsys):
    parser = cli.build_parser()
    for name, (kind, _) in cli.FAMILIES.items():
        argv = ["gen-set", "--family", name, "--n", "2"]
        if kind == "gram":
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        else:
            assert parser.parse_args(argv).family == name
    capsys.readouterr()
    assert main(["sweep", "--families", "simplex", "--n-list", "2"]) == 2
    assert str(cli._family_names("set", "gram")) in capsys.readouterr().err
    assert main(["optimize", "--n", "2", "--init", "simplex"]) == 2
    assert "use yang, mub, sic, random or file:PATH" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck, version, entry points
# ---------------------------------------------------------------------------

def test_gradcheck_prints_small_error(capsys):
    assert run_cli("gradcheck", "--n", "2", "--algo", "projected",
                   "--trials", "3") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_rel_error"] < 1e-6


def test_gradcheck_hyperspherical(capsys):
    assert run_cli("gradcheck", "--n", "3", "--algo", "hyperspherical",
                   "--trials", "2") == 0
    assert json.loads(capsys.readouterr().out)["max_rel_error"] < 1e-6


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_gradcheck_rejects_fewer_than_one_trial(capsys, trials):
    assert run_cli("gradcheck", "--n", "2", "--trials", trials) == 2
    assert "max_rel_error" not in capsys.readouterr().out


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("--version")
    assert err.value.code == 0
    assert "stokesopt" in capsys.readouterr().out


@pytest.mark.parametrize("error, code", [
    (cli._InputError("bad file"), 4), (FileNotFoundError("gone"), 4),
    (ConfigError("bad flag"), 2), (DimensionError("bad shape"), 2),
    (SingularSetError("singular"), 3), (SearchFailedError("no fit"), 3),
    (EstimationFailedError("unphysical"), 3),
])
def test_main_maps_each_error_class_to_its_exit_code(capsys, monkeypatch,
                                                     error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_evaluate", fail)
    assert run_cli("evaluate", "--set", "any.json") == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_main_lets_unmapped_errors_through(monkeypatch):
    def fail(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_evaluate", fail)
    with pytest.raises(KeyError):
        run_cli("evaluate", "--set", "any.json")


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("optimize")
    assert err.value.code == 2


def test_main_leaves_worker_env_unset(capsys, monkeypatch):
    """The CLI passes its pool width explicitly; a later in-process library
    call must not find STOKES_OPT_THREADS set by an earlier main()."""
    monkeypatch.delenv("STOKES_OPT_THREADS", raising=False)
    assert run_cli("gen-set", "--family", "mub", "--n", "2",
                   "--out", "mub2.json") == 0
    write_scenario("md.json", mode="md", seed=3, trials=4,
                   measurement="waveform", launch_set="mub2.json",
                   fiber=TWO_MODE_FIBER, receiver=NOISY_RECEIVER)
    assert run_cli("simulate", "--scenario", "md.json") == 0
    assert run_cli("optimize", "--n", "2", "--starts", "2",
                   "--max-iter", "50") == 0
    assert "STOKES_OPT_THREADS" not in os.environ


def test_cli_workers_default_to_every_core(monkeypatch):
    monkeypatch.delenv("STOKES_OPT_THREADS", raising=False)
    assert cli._cli_workers() == (os.cpu_count() or 1)
    monkeypatch.setenv("STOKES_OPT_THREADS", "3")
    assert cli._cli_workers() == 3


def test_only_the_cli_reads_the_environment():
    package = Path(cli.__file__).parent
    readers = sorted(path.name for path in package.glob("*.py")
                     if "os.environ" in path.read_text())
    assert readers == ["cli.py"]


# each rule of the package is written in one place: one worker pool, one
# noise-seed check, one mode-count guard, one complex Gaussian draw, one
# list of delay readouts and one delay-noise draw
ONE_HOME = ("ProcessPoolExecutor(", "a seed is required",
            "need at least 2 modes", "1j * rng.standard_normal",
            '("analytic", "waveform")',
            "rng.standard_normal((rows, delays.size)) * scales",
            "max(1, min(workers, jobs))")


def test_each_rule_is_written_once():
    package = Path(cli.__file__).parent
    text = "".join(path.read_text() for path in package.glob("*.py"))
    assert {rule: text.count(rule) for rule in ONE_HOME} \
        == dict.fromkeys(ONE_HOME, 1)


def test_malformed_worker_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("STOKES_OPT_THREADS", "many")
    assert run_cli("optimize", "--n", "2", "--starts", "2",
                   "--max-iter", "10") == 2
    assert "STOKES_OPT_THREADS" in capsys.readouterr().err


def test_module_entry_point_runs(child_env):
    proc = subprocess.run([sys.executable, "-m", "stokesopt", "--version"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"stokesopt {stokesopt.__version__}"
