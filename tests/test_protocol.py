"""The full-protocol driver, ``scripts/run_full_protocol.py``, end to end on
a small synthetic dataset, against ``infmix sweep`` on one of its sweeps,
and its one-line errors."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import write_synthetic_split
from infmix import cli, harness

ROOT = Path(__file__).resolve().parents[1]
DRIVER = ROOT / "scripts" / "run_full_protocol.py"

_spec = importlib.util.spec_from_file_location("run_full_protocol", DRIVER)
protocol = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(protocol)

# (model, kl_weight, prior_variance) of each protocol training: the
# kl-weight sweep at unit prior, the prior sweep at unit KL weight (its unit
# point is the kl-weight sweep's), and the baselines at the defaults.
PROTOCOL_MODELS = (
    [(model, kl, 1.0) for model in ("ml", "vi")
     for kl in (1.0, 0.1, 0.01, 1e-3, 1e-4)]
    + [(model, 1.0, pv) for model in ("ml", "vi") for pv in (0.5, 1.5, 3.0)]
    + [(model, 1.0, 1.0) for model in ("deterministic", "dropout", "ensemble")])


@pytest.fixture(scope="module")
def small_data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("protocol_idx")
    write_synthetic_split(d, "train", n=200, seed=0)
    write_synthetic_split(d, "t10k", n=100, seed=1)
    write_synthetic_split(d, "notmnist", n=100, seed=2, style=2)
    return str(d)


@pytest.fixture(scope="module")
def driver_run(small_data_dir, tmp_path_factory):
    """The driver at one trial of two iterations, less OOD scoring and the
    attacks, with out dir ``results`` in a work dir of its own: that out
    dir, each training it ran and the point count of each map."""
    work = tmp_path_factory.mktemp("driver")
    trained, maps = [], []
    train, run_points = harness.train_model_for_trial, harness.run_points

    def counting_train(cfg, train_data, seed):
        trained.append((cfg.model, cfg.kl_weight, cfg.prior_variance, seed))
        return train(cfg, train_data, seed)

    def counting_run_points(cfg, points):
        maps.append(len(points))
        return run_points(cfg, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "train_model_for_trial", counting_train)
        mp.setattr(harness, "run_points", counting_run_points)
        mp.chdir(work)
        mp.setattr(sys, "argv", [
            str(DRIVER), "--data-dir", small_data_dir, "--out-dir", "results",
            "--trials", "1", "--iterations", "2", "--skip-ood",
            "--skip-attacks", "--dataset", "synthetic"])
        assert protocol.main() == 0
    return work / "results", trained, maps


def test_each_protocol_model_trains_once_in_one_map(driver_run):
    out_dir, trained, maps = driver_run
    assert maps == [len(PROTOCOL_MODELS)] == [19]
    assert Counter(trained) == {key + (0,): 1 for key in PROTOCOL_MODELS}
    assert not list(out_dir.glob("sweep_*"))
    assert (out_dir / "report" / "summary.txt").is_file()
    # The point where the sweeps meet keeps the kl-weight sweep's config.
    for model in ("ml", "vi"):
        trial = json.loads(
            (out_dir / f"{model}_synthetic_kl1_pv1_seed0.json").read_text())
        assert trial["config"]["sweep"] == "kl_weight"


def test_sweep_cli_writes_the_drivers_kl_sweep_trials(
        driver_run, small_data_dir, tmp_path, monkeypatch, capsys):
    # Both expand the sweep with harness.sweep_points: one config per point.
    (tmp_path / "run.cfg").write_text(
        "dataset = synthetic\nmodel = ml\nsweep = kl_weight\niterations = 2\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--config", "run.cfg", "--data-dir", small_data_dir,
                     "--out-dir", "results", "--trials", "1", "sweep"]) == 0
    assert capsys.readouterr().out.count("\n") == 5
    names = sorted(f"ml_synthetic_kl{kl:g}_pv1_seed0{suffix}"
                   for kl in (1.0, 0.1, 0.01, 1e-3, 1e-4)
                   for suffix in (".json", ".ckpt", "_loss.csv", "_hist.csv"))
    assert sorted(os.listdir("results")) == names
    for name in names:
        assert (Path("results", name).read_bytes()
                == (driver_run[0] / name).read_bytes()), name


@pytest.mark.parametrize("args, message", [
    (["--data-dir", "data", "--trials", "0"],
     "config error: n_trials must be >= 1, got 0\n"),
    (["--data-dir", "does_not_exist"],
     "config error: no train IDX pair (train-images-idx3-ubyte/"
     "train-labels-idx1-ubyte) under does_not_exist\n"),
    (["--data-dir", "data", "--trials", "x"],
     "usage error: argument --trials: invalid int value: 'x' "
     "(see run_full_protocol.py --help)\n")],
    ids=["no_trials", "missing_data_dir", "usage"])
def test_bad_input_ends_in_one_line_and_exit_one(tmp_path, args, message):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(DRIVER), *args, "--out-dir", "results"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == message
    assert not (tmp_path / "results").exists()
