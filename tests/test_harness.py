"""Config contract, end-to-end orchestration on synthetic data, and the CLI."""

import csv
import dataclasses
import gzip
import json
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_worker_per_cpu
from infmix import harness, tensor
from infmix.baselines import DropoutMlp
from infmix.checkpoint import load_model, save_model
from infmix.cli import main
from infmix.data import (IDX_FLOAT64, load_idx, load_split, read_idx,
                         take_prefix, write_idx)
from infmix.harness import (MODEL_KINDS, SWEEP_AXES, ConfigError,
                            ExperimentConfig, config_text, parse_config_text,
                            predict_dataset, run_attack, run_detect, run_ood,
                            run_report, run_sweep, run_train)
from infmix.metrics import auroc_balanced
from infmix.network import StochasticMlp
from infmix.tensor import Rng

FAST = dict(n_train_samples=2, n_eval_samples=4, batch_size=100,
            iterations=40, n_trials=2, loss_record_every=5,
            attack_iterations=4, eps_grid=(0.0, 0.2), attack_prefix=60,
            ood_prefix=200)


def fast_config(data_dir, out_dir, **overrides):
    return ExperimentConfig(data_dir=data_dir, out_dir=str(out_dir),
                            **{**FAST, **overrides})


# Values that parse but are out of range; each must end in a ConfigError.
BAD_VALUES = [
    ("attack_prefix", "-1"), ("ood_prefix", "-1"), ("attack_prefix", "0"),
    ("ood_prefix", "0"),
    ("n_eval_samples", "0"), ("batch_size", "0"), ("ensemble_size", "0"),
    ("n_attack_samples", "0"), ("attack_iterations", "-3"),
    ("n_train_samples", "0"), ("iterations", "-1"),
    ("dropout_p", "1"), ("dropout_p", "-0.1"), ("dropout_p", "nan"),
    ("dataset", "../mnist"), ("dataset", "a/b"), ("dataset", ".hidden"),
    ("eps_grid", "0.3,0.1"), ("eps_grid", "-0.1,0.2"), ("eps_grid", "0,nan"),
    ("attack_epsilon", "-0.25"), ("attack_epsilon", "nan"),
    ("attack_step", "0"),
    ("kl_weight", "-1"), ("kl_weight", "nan"), ("prior_variance", "0"),
    ("prior_variance", "nan"), ("learning_rate", "nan"),
    ("learning_rate", "-0.5"), ("learning_rate", "0"), ("weight_decay", "-1"),
    ("weight_decay", "nan"), ("base_seed", "-1"), ("kl_weight_grid", "1,-0.1"),
    ("kl_weight_grid", "1,nan"), ("prior_grid", "1,0"), ("prior_grid", "nan"),
    ("learning_rate", "inf"), ("kl_weight", "inf"), ("prior_variance", "inf"),
    ("weight_decay", "inf"), ("attack_epsilon", "inf"), ("attack_step", "inf"),
    ("eps_grid", "0,inf"), ("kl_weight_grid", "1,inf"), ("prior_grid", "1,inf"),
]

_NONNEGATIVE = st.floats(0.0, allow_infinity=False)
_POSITIVE = st.floats(0.0, allow_infinity=False, exclude_min=True)
_COUNT = st.integers(1, 10**6)
_EPS = st.floats(0.0, 1.0)
# A path is free text, less what the line format cannot carry: '#' starts a
# comment, a line break ends the value and surrounding spaces are stripped.
_PATH = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
                              blacklist_characters="#"),
                min_size=1, max_size=12).map(str.strip).filter(bool)

VALID = {
    "schema_version": st.just(1),
    "model": st.sampled_from(MODEL_KINDS),
    "dataset": st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,10}", fullmatch=True),
    "kl_weight": _NONNEGATIVE, "prior_variance": _POSITIVE,
    "n_train_samples": _COUNT, "n_eval_samples": _COUNT,
    "batch_size": _COUNT, "learning_rate": _POSITIVE,
    "iterations": st.integers(0, 10**6),
    "n_trials": _COUNT, "base_seed": st.integers(0, 2**32),
    "sweep": st.sampled_from(SWEEP_AXES),
    "kl_weight_grid": st.lists(_NONNEGATIVE, max_size=4).map(tuple),
    "prior_grid": st.lists(_POSITIVE, max_size=4).map(tuple),
    "weight_decay": _NONNEGATIVE,
    "dropout_p": st.floats(0.0, 1.0, exclude_max=True),
    "ensemble_size": _COUNT,
    "eps_grid": st.lists(_EPS, max_size=5).map(lambda v: tuple(sorted(v))),
    "attack_iterations": _COUNT,
    "attack_step": st.none() | st.floats(0.0, 1.0, exclude_min=True),
    "n_attack_samples": _COUNT, "attack_random_init": st.booleans(),
    "attack_epsilon": _EPS, "attack_prefix": _COUNT,
    "detect_full_test": st.booleans(), "ood_prefix": _COUNT,
    "loss_record_every": st.integers(0, 10**6), "data_dir": _PATH,
    "out_dir": _PATH,
}

# Per key, text that is no valid value.  data_dir and out_dir take any text.
_NOT_A_NUMBER = st.sampled_from(["", "x", "1..2", "0x1g"])
_BAD_COUNT = _NOT_A_NUMBER | st.sampled_from(["1.5", "1e3"]) | st.integers(
    -10**6, 0).map(str)
_BAD_SIZE = _NOT_A_NUMBER | st.sampled_from(["1.5", "-1"])
_BAD_NONNEGATIVE = _NOT_A_NUMBER | st.sampled_from(["-1", "-1e-9", "nan", "inf"])
_BAD_POSITIVE = _BAD_NONNEGATIVE | st.sampled_from(["0", "-0.0"])
_BAD_TEXT = {name: _BAD_NONNEGATIVE for name in ("kl_weight", "weight_decay")}
_BAD_TEXT.update({name: _BAD_POSITIVE for name in (
    "prior_variance", "learning_rate")})
_BAD_TEXT.update({name: _BAD_COUNT for name in (
    "n_train_samples", "n_eval_samples", "batch_size", "n_trials",
    "ensemble_size", "attack_iterations", "n_attack_samples",
    "attack_prefix", "ood_prefix")})
_BAD_TEXT.update({name: _BAD_SIZE for name in (
    "iterations", "loss_record_every")})
_BAD_TEXT.update({
    "schema_version": st.sampled_from(["0", "2", "one"]),
    "model": st.sampled_from(["transformer", "ML", ""]),
    "sweep": st.sampled_from(["grid", "kl"]),
    "dataset": st.sampled_from(["", "a b", "../x", "x/y", "-x"]),
    "base_seed": _NOT_A_NUMBER | st.integers(-10**6, -1).map(str),
    "kl_weight_grid": st.sampled_from(["1,x", "1,-0.5", "0.1,nan", "1,inf"]),
    "prior_grid": st.sampled_from(["a,b", "1,0", "-1", "0.5,nan", "inf"]),
    "dropout_p": st.sampled_from(["1", "-1", "x"]),
    "eps_grid": st.sampled_from(["0.2,0.1", "-1", "0,x", "0,inf"]),
    "attack_step": st.sampled_from(["0", "-0.1", "x", "inf"]),
    "attack_random_init": st.sampled_from(["maybe", "2"]),
    "detect_full_test": st.sampled_from(["maybe", "-1"]),
    "attack_epsilon": st.sampled_from(["-0.1", "nan", "x", "inf"]),
})


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config_text(config_text(cfg)) == cfg

    def test_parses_values_and_comments(self):
        cfg = parse_config_text(
            "schema_version = 1\n"
            "model = vi        # objective choice\n"
            "kl_weight = 0.1\n"
            "kl_weight_grid = 1,0.1,0.01\n"
            "attack_random_init = false\n"
            "attack_step = auto\n")
        assert cfg.model == "vi"
        assert cfg.kl_weight == 0.1
        assert cfg.kl_weight_grid == (1.0, 0.1, 0.01)
        assert cfg.attack_random_init is False
        assert cfg.attack_step is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'lerning_rate'"):
            parse_config_text("lerning_rate = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("kl_weight = 1\nkl_weight = 2\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("model = ml\niterations = soon\n")

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config_text("schema_version = 99\n")

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config_text("model = transformer\n")

    def test_trial_seeds_are_base_plus_index(self):
        cfg = ExperimentConfig(base_seed=7, n_trials=3)
        assert cfg.trial_seeds() == [7, 8, 9]

    @pytest.mark.parametrize("key,value", BAD_VALUES)
    def test_out_of_range_value_rejected(self, key, value, tmp_path, capsys):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = {value}\n")
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        assert main(["--config", str(path), "train"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_negative_seed_flag_rejected(self, capsys):
        assert main(["--seed", "-1", "train"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: base_seed must be >= 0, got -1\n"


class TestConfigProperties:
    def test_strategies_cover_every_key(self):
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(VALID) == keys
        assert set(_BAD_TEXT) == keys - {"data_dir", "out_dir"}

    @given(st.fixed_dictionaries(VALID))
    @settings(max_examples=100, deadline=None)
    def test_text_round_trip(self, values):
        cfg = ExperimentConfig(**values)
        assert parse_config_text(config_text(cfg)) == cfg

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_value_is_config_error(self, data):
        key = data.draw(st.sampled_from(sorted(_BAD_TEXT)))
        value = data.draw(_BAD_TEXT[key])
        with pytest.raises(ConfigError):
            parse_config_text(f"{key} = {value}\n")

    @given(st.sampled_from(sorted(VALID)), st.text(max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_any_text_parses_or_is_config_error(self, key, value):
        try:
            parse_config_text(f"{key} = {value}\n")
        except ConfigError:
            pass


def read_csv(path) -> list:
    """Rows of an attack CSV, with integer fields."""
    with open(path) as f:
        return [{k: int(v) for k, v in row.items()} for row in csv.DictReader(f)]


def perfect_checkpoint(out_dir) -> str:
    """A template-matching classifier, perfect on the synthetic patch data."""
    w = np.zeros((785, 10))
    for c in range(10):
        row, col = divmod(c, 5)
        r0, c0 = 3 + row * 12, 2 + col * 5
        patch = np.zeros((28, 28))
        patch[r0:r0 + 6, c0:c0 + 4] = 1.0
        w[:784, c] = patch.ravel()
    path = os.path.join(out_dir, "perfect.ckpt")
    save_model(DropoutMlp(weights=[w], p_drop=0.0), path)
    return path


@pytest.fixture(scope="module")
def trained_run(synthetic_data_dir, tmp_path_factory):
    """A small two-trial ML run shared by the evaluation command tests."""
    out = tmp_path_factory.mktemp("results")
    cfg = fast_config(synthetic_data_dir, out, model="ml")
    results = run_train(cfg)
    return cfg, results


class TestRunTrain:
    def test_writes_trial_files_with_embedded_config(self, trained_run):
        cfg, results = trained_run
        assert len(results) == 2
        for seed in cfg.trial_seeds():
            path = os.path.join(cfg.out_dir, f"{cfg.run_id()}_seed{seed}.json")
            payload = json.loads(Path(path).read_text())
            assert payload["config"] == cfg.to_dict()
            assert payload["seed"] == seed
            assert 0.0 <= payload["clean_accuracy"] <= 1.0
            assert os.path.exists(os.path.join(cfg.out_dir, payload["checkpoint"]))
            assert os.path.exists(os.path.join(cfg.out_dir, payload["loss_csv"]))
            assert len(payload["mixing_variance"]) == 3

    def test_histograms_conserve_counts(self, trained_run, synthetic_data_dir):
        _, results = trained_run
        hists = results[0]["histograms"]["entropy"]["counts"]
        assert sum(hists["correct"]) + sum(hists["wrong"]) == 400

    def test_rerun_is_bit_identical(self, synthetic_data_dir, tmp_path):
        cfg = fast_config(synthetic_data_dir, tmp_path / "a", model="vi",
                          n_trials=1, iterations=25)
        run_train(cfg)
        cfg2 = cfg.replace(out_dir=str(tmp_path / "b"))
        run_train(cfg2)
        name = f"{cfg.run_id()}_seed0.ckpt"
        a = Path(cfg.out_dir, name).read_bytes()
        b = Path(cfg2.out_dir, name).read_bytes()
        assert a == b

    def test_threaded_trials_match_serial(self, synthetic_data_dir, tmp_path,
                                          monkeypatch):
        serial = fast_config(synthetic_data_dir, tmp_path / "s",
                             model="deterministic", iterations=25)
        threaded = serial.replace(out_dir=str(tmp_path / "t"))
        one_worker_per_cpu(monkeypatch, 1)
        run_train(serial)
        one_worker_per_cpu(monkeypatch, 2)
        run_train(threaded)
        for seed in serial.trial_seeds():
            name = f"{serial.run_id()}_seed{seed}.ckpt"
            assert (Path(serial.out_dir, name).read_bytes()
                    == Path(threaded.out_dir, name).read_bytes())

    @pytest.mark.parametrize("model", ["dropout", "ensemble"])
    def test_baseline_kinds_run(self, synthetic_data_dir, tmp_path, model):
        cfg = fast_config(synthetic_data_dir, tmp_path, model=model,
                          n_trials=1, iterations=25, ensemble_size=2)
        results = run_train(cfg)
        assert results[0]["model"] == model

    @pytest.mark.parametrize("openblas,omp", [("1", "4"), (None, "2"),
                                              (None, None)])
    def test_trial_records_the_blas_thread_setting(
            self, synthetic_data_dir, tmp_path, monkeypatch, openblas, omp):
        # Trained bits depend on the BLAS thread count.
        set_blas_env(monkeypatch, openblas, omp)
        cfg = fast_config(synthetic_data_dir, tmp_path, model="deterministic",
                          n_trials=1, iterations=5)
        run_train(cfg)
        payload = json.loads(
            Path(cfg.out_dir, f"{cfg.run_id()}_seed0.json").read_text())
        assert payload["blas_threads"] == (openblas or omp)


def set_blas_env(monkeypatch, openblas, omp):
    """Set ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``; None unsets."""
    for var, value in (("OPENBLAS_NUM_THREADS", openblas),
                       ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)


def read_tree(cfg):
    """Every file of ``cfg.out_dir`` by name: its bytes, or for a JSON file
    its payload less the ``out_dir`` of its config."""
    tree = {}
    for name in sorted(os.listdir(cfg.out_dir)):
        with open(os.path.join(cfg.out_dir, name), "rb") as f:
            tree[name] = f.read()
        if name.endswith(".json"):
            payload = json.loads(tree[name])
            assert payload["config"].pop("out_dir") == cfg.out_dir
            tree[name] = payload
    return tree


class TestWorkers:
    def test_commands_write_the_same_bytes_on_one_and_two_workers(
            self, synthetic_data_dir, tmp_path, monkeypatch):
        trees = []
        for cpus in (1, 2):
            one_worker_per_cpu(monkeypatch, cpus)
            cfg = fast_config(synthetic_data_dir, tmp_path / f"t{cpus}",
                              model="ml")
            run_train(cfg)
            run_ood(cfg)
            run_attack(cfg)
            run_detect(cfg)
            trees.append(read_tree(cfg))
        assert trees[0] == trees[1]
        # Checkpoints, JSON, CSV, and the adversarial images and labels (IDX).
        assert {name.rsplit("-", 1)[-1].rsplit(".", 1)[-1] for name in trees[0]
                } == {"ckpt", "json", "csv", "double", "ubyte"}

    def test_sweep_writes_the_same_bytes_on_one_and_two_workers(
            self, synthetic_data_dir, tmp_path, monkeypatch):
        # Three (grid point, trial) pairs: one point's two trials and the
        # other's one may share the two workers.
        trees = []
        for cpus in (1, 2):
            one_worker_per_cpu(monkeypatch, cpus)
            cfg = fast_config(synthetic_data_dir, tmp_path / f"t{cpus}",
                              model="ml", sweep="prior", prior_grid=(1.0, 3.0),
                              iterations=25)
            payload = run_sweep(cfg)
            assert [len(row["accuracies"]) for row in payload["rows"]] == [2, 2]
            trees.append(read_tree(cfg))
        assert trees[0] == trees[1]
        assert sum(name.endswith(".ckpt") for name in trees[0]) == 4
        assert "sweep_prior_ml_mnist.csv" in trees[0]

    def test_threads_default_to_the_allowed_cpus_with_blas_on_one_thread(
            self, monkeypatch):
        monkeypatch.setattr(tensor, "allowed_cpus", lambda: 3)
        for openblas, omp, want in (("1", None, 3), (None, "1", 3),
                                    ("1", "4", 3), ("4", "1", 1),
                                    (None, None, 1), ("2", None, 1)):
            set_blas_env(monkeypatch, openblas, omp)
            assert tensor.default_threads() == want, (openblas, omp)


class TestPredictDataset:
    def test_chunks_keyed_by_start_index(self, monkeypatch):
        # Each chunk draws from rng.derive(start): its draws depend on where
        # the chunk starts, not on how many draws run per forward pass.
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        x = Rng(1).uniform(0, 1, (7, 6))
        monkeypatch.setattr(harness, "_EVAL_CHUNK", 3)
        whole = predict_dataset(net, x, 5, Rng(2))
        for start in (0, 3, 6):
            part = net.predict(x[start:start + 3], 5, Rng(2).derive(start))
            assert np.array_equal(whole.mean_probs[start:start + 3],
                                  part.mean_probs)
            assert np.array_equal(whole.class_variance[start:start + 3],
                                  part.class_variance)


class TestRunSweep:
    def test_grid_of_one_degenerates_to_train(self, synthetic_data_dir, tmp_path):
        cfg = fast_config(synthetic_data_dir, tmp_path, model="ml",
                          sweep="kl_weight", kl_weight_grid=(0.5,),
                          iterations=25)
        payload = run_sweep(cfg)
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["value"] == 0.5
        assert len(row["accuracies"]) == 2
        assert os.path.exists(os.path.join(
            cfg.out_dir, "sweep_kl_weight_ml_mnist.csv"))

    @pytest.mark.parametrize("openblas", ["1", None])
    def test_json_records_the_blas_thread_setting(
            self, synthetic_data_dir, tmp_path, monkeypatch, openblas):
        set_blas_env(monkeypatch, openblas, None)
        cfg = fast_config(synthetic_data_dir, tmp_path, model="deterministic",
                          sweep="kl_weight", kl_weight_grid=(0.5,),
                          n_trials=1, iterations=5)
        payload = run_sweep(cfg)
        stem = Path(cfg.out_dir, "sweep_kl_weight_deterministic_mnist")
        stored = json.loads(stem.with_suffix(".json").read_text())
        assert stored == json.loads(json.dumps(payload))
        assert (stored["schema_version"], stored["kind"], stored["run_id"],
                stored["blas_threads"]) == (1, "sweep", cfg.run_id(), openblas)
        [row] = stored["rows"]
        assert stem.with_suffix(".csv").read_text() == (
            f"kl_weight,mean_accuracy,std_accuracy\n"
            f"0.5,{row['accuracies'][0]:.6f},0.000000\n")

    def test_points_of_one_run_id_rejected(self, synthetic_data_dir, tmp_path):
        # Their trials would write the same files at the same time.
        cfg = fast_config(synthetic_data_dir, tmp_path, sweep="kl_weight",
                          kl_weight_grid=(0.1, 0.1))
        with pytest.raises(ConfigError, match="one run id to two points"):
            run_sweep(cfg)
        assert os.listdir(cfg.out_dir) == []

    def test_empty_grid_rejected(self, synthetic_data_dir, tmp_path):
        cfg = fast_config(synthetic_data_dir, tmp_path, sweep="prior",
                          prior_grid=())
        with pytest.raises(ConfigError, match="empty grid"):
            run_sweep(cfg)


class TestRunOod:
    def test_ood_payload(self, trained_run):
        cfg, _ = trained_run
        payload = run_ood(cfg)
        assert len(payload["trials"]) == 2
        for trial in payload["trials"]:
            assert 0.0 <= trial["auroc_variance"] <= 1.0
            assert 0.0 <= trial["auroc_entropy"] <= 1.0
        assert os.path.exists(os.path.join(cfg.out_dir,
                                           f"ood_{cfg.run_id()}.json"))

    def test_missing_ood_data_is_config_error(self, trained_run, tmp_path):
        cfg, _ = trained_run
        # Point at a directory that has train/test but no OOD pair.
        import shutil
        alt = tmp_path / "no_ood"
        alt.mkdir()
        for stem in ("train", "t10k"):
            for kind in ("images-idx3", "labels-idx1"):
                shutil.copy(os.path.join(cfg.data_dir, f"{stem}-{kind}-ubyte"),
                            alt / f"{stem}-{kind}-ubyte")
        with pytest.raises(ConfigError, match="OOD data missing"):
            run_ood(cfg.replace(data_dir=str(alt)))

    def test_self_comparison_near_half(self, synthetic_data_dir, tmp_path,
                                       trained_run):
        # Scoring the model's own test set as "OOD" gives AUROC ~ 0.5.
        import shutil
        cfg, _ = trained_run
        alt = tmp_path / "self_ood"
        alt.mkdir()
        for stem in ("train", "t10k"):
            for kind in ("images-idx3", "labels-idx1"):
                shutil.copy(os.path.join(cfg.data_dir, f"{stem}-{kind}-ubyte"),
                            alt / f"{stem}-{kind}-ubyte")
        for kind in ("images-idx3", "labels-idx1"):
            shutil.copy(os.path.join(cfg.data_dir, f"t10k-{kind}-ubyte"),
                        alt / f"notmnist-{kind}-ubyte")
        ckpt = os.path.join(cfg.out_dir, f"{cfg.run_id()}_seed0.ckpt")
        payload = run_ood(cfg.replace(data_dir=str(alt), out_dir=str(alt),
                                      n_eval_samples=20), checkpoint=ckpt)
        assert abs(payload["mean_auroc_entropy"] - 0.5) < 0.06


    @pytest.mark.parametrize("model,dropout_p", [("deterministic", 0.5),
                                                 ("dropout", 0.0)])
    def test_point_net_ranks_no_variance(self, synthetic_data_dir, tmp_path,
                                         model, dropout_p):
        # Dropout at p = 0 is the point net: its variance is exactly 0 on
        # every image, so the variance AUROC is that of all ties.
        cfg = fast_config(synthetic_data_dir, tmp_path, model=model,
                          dropout_p=dropout_p, n_trials=1, iterations=25,
                          n_eval_samples=10)
        assert run_train(cfg)[0]["mean_max_variance"] == 0.0
        assert run_ood(cfg)["trials"][0]["auroc_variance"] == 0.5


class TestRunAttackDetect:
    def test_attack_curve_payload(self, trained_run):
        cfg, _ = trained_run
        payload = run_attack(cfg)
        assert payload["n_attacked"] == 60
        assert len(payload["mean_curve"]) == len(cfg.eps_grid)
        stem = f"attack_{cfg.run_id()}_s{cfg.n_attack_samples}"
        assert os.path.exists(os.path.join(cfg.out_dir, stem + ".csv"))

    def test_detect_payload(self, trained_run):
        cfg, _ = trained_run
        payload = run_detect(cfg.replace(detect_full_test=False))
        trial = payload["trials"][0]
        assert trial["n_samples"] == 60
        assert set(k for k in trial if k.startswith("auroc_")) == {
            "auroc_variance", "auroc_entropy",
            "auroc_variance_balanced", "auroc_entropy_balanced"}
        for name in trial["artifacts"].values():
            assert os.path.exists(os.path.join(cfg.out_dir, name))

    def test_detect_csv_has_the_clean_predictions_the_json_counts(
            self, trained_run, tmp_path):
        # One draw per prediction: an independent second clean prediction
        # would disagree with the first on some samples.
        cfg, _ = trained_run
        ckpt = os.path.join(cfg.out_dir, f"{cfg.run_id()}_seed0.ckpt")
        trial = run_detect(cfg.replace(out_dir=str(tmp_path), n_eval_samples=1,
                                       detect_full_test=False),
                           checkpoint=ckpt)["trials"][0]
        rows = read_csv(os.path.join(tmp_path, trial["artifacts"]["csv"]))
        assert sum(r["pred_before"] == r["true_label"] for r in rows) == (
            trial["n_correct_clean"])
        assert sum(r["success"] for r in rows) == trial["n_successful_attacks"]

    def test_detect_balances_successful_attacks_against_correct_cleans(
            self, synthetic_data_dir, tmp_path):
        # A barely trained deterministic model misclassifies some clean
        # samples, and a small budget leaves some attacks failing, so both
        # filters drop samples.  Its prediction is a pure function of the
        # input, so the scores can be recomputed from the saved images.
        cfg = fast_config(synthetic_data_dir, tmp_path, model="deterministic",
                          n_trials=1, iterations=3, attack_epsilon=0.02,
                          detect_full_test=False)
        run_train(cfg)
        trial = run_detect(cfg)["trials"][0]
        model = load_model(os.path.join(cfg.out_dir,
                                        f"{cfg.run_id()}_seed0.ckpt"))
        prefix = take_prefix(load_split(cfg.data_dir, "test"), 60)
        artifacts = {k: os.path.join(cfg.out_dir, v)
                     for k, v in trial["artifacts"].items()}
        clean = model.predict(prefix.images)
        adv = model.predict(load_idx(artifacts["images"],
                                     artifacts["labels"]).images)
        correct = clean.predicted_class == prefix.labels
        success = adv.predicted_class != prefix.labels
        assert 0 < correct.sum() < 60 and 0 < success.sum() < 60
        assert trial["n_correct_clean"] == correct.sum()
        assert trial["n_successful_attacks"] == success.sum()
        rows = read_csv(artifacts["csv"])
        assert [r["pred_before"] for r in rows] == clean.predicted_class.tolist()
        for name, scores in (("variance", "max_variance"),
                             ("entropy", "entropy")):
            expected = auroc_balanced(getattr(adv, scores)[success],
                                      getattr(clean, scores)[correct], seed=0)
            assert trial[f"auroc_{name}_balanced"] == expected.value
            assert trial[f"balanced_n_per_class_{name}"] == expected.n_per_class
        unfiltered = auroc_balanced(adv.entropy, clean.entropy, seed=0)
        assert unfiltered.value != trial["auroc_entropy_balanced"]

    def test_missing_checkpoints_is_config_error(self, synthetic_data_dir,
                                                 tmp_path):
        cfg = fast_config(synthetic_data_dir, tmp_path, model="vi")
        with pytest.raises(ConfigError, match="no checkpoints"):
            run_attack(cfg)

    def test_detect_with_no_successful_attacks(self, synthetic_data_dir,
                                               tmp_path):
        # At epsilon = 0 no attack on the perfect classifier succeeds, so the
        # balanced AUROC is undefined (recorded as null), while the plain
        # AUROC still exists.
        cfg = fast_config(synthetic_data_dir, tmp_path, model="deterministic",
                          attack_epsilon=0.0, detect_full_test=False,
                          attack_prefix=50, n_trials=1)
        payload = run_detect(cfg, checkpoint=perfect_checkpoint(tmp_path))
        trial = payload["trials"][0]
        assert trial["clean_accuracy"] == 1.0
        assert trial["n_successful_attacks"] == 0
        assert trial["auroc_entropy_balanced"] is None
        assert payload["mean_auroc_entropy_balanced"] is None
        assert 0.0 <= trial["auroc_entropy"] <= 1.0
        # The report consumes the null without crashing.
        outcome = run_report(str(tmp_path))
        summary = Path(outcome["report_dir"], "summary.txt").read_text()
        assert "balanced_entropy=undefined" in summary


_HEADER = {"schema_version", "kind", "run_id", "model", "dataset", "config",
           "blas_threads"}
_TRIAL_KEYS = _HEADER | {
    "seed", "clean_accuracy", "mean_max_variance", "mean_entropy",
    "mean_max_variance_correct", "mean_max_variance_wrong",
    "mean_entropy_correct", "mean_entropy_wrong", "histograms", "checkpoint",
    "histogram_csv"}


def _written_keys(out_dir, name) -> set:
    with open(os.path.join(out_dir, name)) as f:
        return set(json.load(f))


class TestPayloadKeys:
    """The key set of every result kind, as written to disk."""

    def test_trial_keys(self, trained_run, synthetic_data_dir, tmp_path):
        cfg, _ = trained_run
        assert _written_keys(cfg.out_dir, f"{cfg.run_id()}_seed0.json") == (
            _TRIAL_KEYS | {"mixing_variance", "final_kl", "loss_csv",
                           "final_loss"})
        base = fast_config(synthetic_data_dir, tmp_path, model="deterministic",
                           n_trials=1, iterations=3)
        run_train(base)
        assert _written_keys(tmp_path, f"{base.run_id()}_seed0.json") == (
            _TRIAL_KEYS)

    def test_trial_without_wrong_predictions(self, synthetic_data_dir,
                                             tmp_path, monkeypatch):
        # The wrong-group means of a perfect classifier are null.
        perfect = load_model(perfect_checkpoint(tmp_path))
        monkeypatch.setattr(harness, "train_model_for_trial",
                            lambda cfg, data, seed: (perfect, []))
        cfg = fast_config(synthetic_data_dir, tmp_path, model="deterministic")
        result = harness.run_trial(cfg, None, load_split(synthetic_data_dir,
                                                         "test"), seed=0)
        assert result["clean_accuracy"] == 1.0
        assert result["mean_max_variance_wrong"] is None
        assert result["mean_entropy_wrong"] is None
        assert result["mean_entropy_correct"] == result["mean_entropy"]
        assert result["mean_max_variance_correct"] == (
            result["mean_max_variance"])

    def test_evaluation_keys(self, trained_run, tmp_path):
        cfg, _ = trained_run
        ckpt = os.path.join(cfg.out_dir, f"{cfg.run_id()}_seed0.ckpt")
        cfg = cfg.replace(out_dir=str(tmp_path), detect_full_test=False)
        run_ood(cfg, checkpoint=ckpt)
        assert _written_keys(tmp_path, f"ood_{cfg.run_id()}.json") == (
            _HEADER | {"trials", "mean_auroc_variance", "std_auroc_variance",
                       "mean_auroc_entropy", "std_auroc_entropy"})
        run_attack(cfg, checkpoint=ckpt)
        assert _written_keys(tmp_path, f"attack_{cfg.run_id()}_s1.json") == (
            _HEADER | {"n_attack_samples", "n_attacked", "trials",
                       "mean_curve", "std_curve"})
        run_detect(cfg, checkpoint=ckpt)
        assert _written_keys(
            tmp_path, f"detect_{cfg.run_id()}_eps0.25.json") == (
            _HEADER | {"epsilon", "trials"}
            | {f"{stat}_auroc_{score}" for stat in ("mean", "std")
               for score in ("variance", "entropy", "variance_balanced",
                             "entropy_balanced")})


class TestRunReport:
    def test_empty_dir_warns_but_succeeds(self, tmp_path):
        outcome = run_report(str(tmp_path))
        assert outcome["warnings"]
        assert os.path.exists(os.path.join(outcome["report_dir"], "summary.txt"))

    def test_unreadable_json_is_named_in_warnings(self, tmp_path, capsys):
        (tmp_path / "ml_mnist_seed0.json").write_text('{"kind": "trial", "se')
        (tmp_path / "list.json").write_text("[]")
        outcome = run_report(str(tmp_path))
        skipped = [w for w in outcome["warnings"] if "ml_mnist_seed0.json" in w]
        assert len(skipped) == 1
        summary = Path(outcome["report_dir"], "summary.txt").read_text()
        assert skipped[0] in summary
        assert main(["--out-dir", str(tmp_path), "report"]) == 0
        assert "ml_mnist_seed0.json" in capsys.readouterr().err

    def test_full_report(self, trained_run):
        cfg, _ = trained_run
        run_attack(cfg)
        outcome = run_report(cfg.out_dir)
        names = outcome["written"]
        assert "table_accuracy_by_kl_weight.csv" in names
        assert any(n.startswith("fig_robustness_") for n in names)
        assert any(n.startswith("fig_mixing_variance_layer1_") for n in names)
        table = Path(outcome["report_dir"],
                     "table_accuracy_by_kl_weight.csv").read_text()
        assert table.startswith("dataset,model,kl_weight,n_trials,")
        assert "mnist,ml" in table

    def test_report_is_pure_function_of_directory(self, trained_run, tmp_path):
        cfg, _ = trained_run
        a = run_report(cfg.out_dir, str(tmp_path / "r1"))
        b = run_report(cfg.out_dir, str(tmp_path / "r2"))
        for name in a["written"]:
            if name.endswith(".csv") or name.endswith(".txt"):
                ca = Path(a["report_dir"], name).read_text()
                cb = Path(b["report_dir"], name).read_text()
                assert ca == cb


class TestCli:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") == 9

    def test_negative_gradcheck_seed_is_a_one_line_config_error(self, capsys):
        assert main(["gradcheck", "--gradcheck-seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: --gradcheck-seed must be >= 0, "
                                "got -1\n")

    def test_bad_config_file_exits_one(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("unknown_knob = 3\n")
        assert main(["--config", str(path), "train"]) == 1

    def test_missing_config_file_exits_one(self):
        assert main(["--config", "/nonexistent.cfg", "train"]) == 1

    def test_report_on_a_missing_results_dir_is_a_one_line_config_error(
            self, tmp_path, capsys):
        missing = tmp_path / "does_not_exist"
        assert main(["report", "--results-dir", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: no results directory {missing}\n"
        assert not missing.exists()

    def test_config_file_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(bytes([0xff, 0xfe, 0x00]))
        assert main(["--config", str(path), "train"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["--bogus", "train"], "unrecognized arguments: --bogus"),
        (["nosuchcmd"], "argument command: invalid choice: 'nosuchcmd'"),
        (["attack", "--bogus"], "unrecognized arguments: --bogus"),
        (["gradcheck", "--gradcheck-seed", "x"],
         "argument --gradcheck-seed: invalid int value: 'x'")])
    def test_usage_error_is_a_one_line_config_error(self, argv, message,
                                                    capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {message}")
        assert captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "usage: infmix" in capsys.readouterr().out

    def test_train_and_report_via_cli(self, synthetic_data_dir, tmp_path,
                                      capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "model = deterministic\n"
            "iterations = 25\n"
            "batch_size = 100\n"
            "n_trials = 2\n"
            "n_eval_samples = 2\n")
        code = main(["--config", str(cfg_path),
                     "--data-dir", synthetic_data_dir,
                     "--out-dir", str(tmp_path / "out"), "train"])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out
        assert main(["--out-dir", str(tmp_path / "out"), "report"]) == 0

    def test_detect_with_undefined_balanced_auroc(self, synthetic_data_dir,
                                                  tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "model = deterministic\n"
            "attack_epsilon = 0\n"
            "detect_full_test = false\n"
            "attack_prefix = 50\n"
            "attack_iterations = 2\n"
            "n_eval_samples = 1\n")
        code = main(["--config", str(cfg_path), "--data-dir", synthetic_data_dir,
                     "--out-dir", str(tmp_path / "out"), "detect",
                     "--checkpoint", perfect_checkpoint(tmp_path)])
        assert code == 0
        assert "balanced entropy undefined" in capsys.readouterr().out

    def test_empty_eps_grid_exits_one_before_any_attack(
            self, synthetic_data_dir, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("model = deterministic\neps_grid =\n")
        out_dir = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--data-dir", synthetic_data_dir,
                     "--out-dir", str(out_dir), "attack",
                     "--checkpoint", perfect_checkpoint(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: empty eps_grid: no attack to run\n"
        assert not list(out_dir.glob("attack_*"))

    @pytest.mark.parametrize("command", ["ood", "attack", "detect"])
    @pytest.mark.parametrize("shapes,widths", [
        (((7, 4), (5, 10)), "6 inputs to 10 classes"),
        (((785, 4), (5, 3)), "784 inputs to 3 classes")])
    def test_checkpoint_that_does_not_fit_the_data_exits_one(
            self, synthetic_data_dir, tmp_path, capsys, command, shapes, widths):
        path = str(tmp_path / "other.ckpt")
        save_model(DropoutMlp(weights=[np.zeros(s) for s in shapes], p_drop=0.0),
                   path)
        code = main(["--data-dir", synthetic_data_dir, "--out-dir",
                     str(tmp_path / "out"), command, "--checkpoint", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: checkpoint {path} maps {widths}")
        assert err.count("\n") == 1

    def test_ood_split_that_does_not_fit_the_network_exits_one(
            self, synthetic_data_dir, tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(synthetic_data_dir, data_dir)
        path = data_dir / "notmnist-images-idx3-ubyte"
        write_idx(path, np.pad(read_idx(path), ((0, 0), (2, 2), (2, 2))))
        code = main(["--data-dir", str(data_dir), "--out-dir",
                     str(tmp_path / "out"), "ood",
                     "--checkpoint", perfect_checkpoint(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: the ood split has 1024 pixels, "
                                "but the test split has 784\n")
        assert not (tmp_path / "out").exists()

    def test_float_test_pixel_outside_the_unit_interval_exits_one(
            self, synthetic_data_dir, tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(synthetic_data_dir, data_dir)
        path = data_dir / "t10k-images-idx3-ubyte"
        images = read_idx(path) / 255.0
        images[0, 10, 10] = 5.0
        write_idx(path, images, IDX_FLOAT64)
        code = main(["--data-dir", str(data_dir), "--out-dir",
                     str(tmp_path / "out"), "detect",
                     "--checkpoint", perfect_checkpoint(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: float pixels outside [0, 1] in {path}\n")

    @pytest.mark.parametrize("split", ["train", "t10k"])
    @pytest.mark.parametrize("model", ["ml", "dropout"])
    def test_images_that_do_not_fit_the_network_exit_one(
            self, synthetic_data_dir, tmp_path, capsys, split, model):
        data_dir = tmp_path / "data"
        shutil.copytree(synthetic_data_dir, data_dir)
        write_idx(data_dir / f"{split}-images-idx3-ubyte",
                  read_idx(data_dir / f"{split}-images-idx3-ubyte")[:, :10, :10])
        out_dir = tmp_path / "out"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"model = {model}\niterations = 5\nn_trials = 1\n")
        code = main(["--config", str(cfg_path), "--data-dir", str(data_dir),
                     "--out-dir", str(out_dir), "train"])
        assert code == 1
        err = capsys.readouterr().err
        name = "train" if split == "train" else "test"
        assert err == (f"config error: the {name} split has 100 pixels, but "
                       f"the network takes 784 inputs\n")
        assert not out_dir.exists()

    def test_idx_header_past_the_file_exits_one(self, synthetic_data_dir,
                                                  tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(synthetic_data_dir, data_dir)
        path = data_dir / "train-images-idx3-ubyte"
        with open(path, "r+b") as f:    # 60000 x 65535 x 65535 bytes claimed
            f.write(bytes([0, 0, 8, 3]) + b"".join(
                d.to_bytes(4, "big") for d in (60000, 65535, 65535)))
        code = main(["--data-dir", str(data_dir), "--out-dir",
                     str(tmp_path / "out"), "train"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: truncated IDX file (payload): {path}\n")

    def test_cut_gzip_idx_file_exits_one(self, synthetic_data_dir, tmp_path,
                                         capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(synthetic_data_dir, data_dir)
        images = data_dir / "train-images-idx3-ubyte"
        path = data_dir / "train-images-idx3-ubyte.gz"
        blob = gzip.compress(images.read_bytes())
        path.write_bytes(blob[:len(blob) // 2])
        images.unlink()
        code = main(["--data-dir", str(data_dir), "--out-dir",
                     str(tmp_path / "out"), "train"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: corrupt gzip IDX file {path}: Compressed file "
            f"ended before the end-of-stream marker was reached\n")

    # A header of 0 dims, and a pair of files of 0 images and 0 labels.
    @pytest.mark.parametrize("image_file, label_file, message", [
        (bytes([0, 0, 8, 0]), None, "IDX header with no dims in {}"),
        (bytes([0, 0, 8, 3, 0, 0, 0, 0, 0, 0, 0, 28, 0, 0, 0, 28]),
         bytes([0, 0, 8, 1, 0, 0, 0, 0]), "no images in {}")],
        ids=["no dims", "no images"])
    def test_idx_file_with_no_data_exits_one(self, synthetic_data_dir, tmp_path,
                                             capsys, image_file, label_file,
                                             message):
        data_dir = tmp_path / "data"
        shutil.copytree(synthetic_data_dir, data_dir)
        images = data_dir / "train-images-idx3-ubyte"
        images.write_bytes(image_file)
        if label_file is not None:
            (data_dir / "train-labels-idx1-ubyte").write_bytes(label_file)
        code = main(["--data-dir", str(data_dir), "--out-dir",
                     str(tmp_path / "out"), "train"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: {message.format(images)}\n")

    def test_diverged_training_exits_one_without_traceback(
            self, synthetic_data_dir, tmp_path, capsys):
        # A finite but huge step size overflows the loss at iteration 3.  A
        # numpy warning on the way would be a second stderr line.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("model = ml\n"
                            "learning_rate = 1e12\n"
                            "iterations = 5\n"
                            "batch_size = 100\n"
                            "n_trials = 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(cfg_path), "--data-dir",
                         synthetic_data_dir, "--out-dir", str(tmp_path / "out"),
                         "train"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("numerical error: training diverged (non-finite loss) "
                       "at iteration 3\n")

    def test_cli_overrides_take_effect(self):
        from infmix.cli import build_parser, resolve_config
        args = build_parser().parse_args(
            ["--data-dir", "d", "--trials", "3", "--seed", "5", "train"])
        cfg = resolve_config(args)
        assert (cfg.data_dir, cfg.n_trials, cfg.base_seed) == ("d", 3, 5)
