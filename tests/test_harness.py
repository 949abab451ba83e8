"""Config contract, end-to-end orchestration on synthetic data, and the CLI."""

import json
import os

import numpy as np
import pytest

from infmix.cli import main
from infmix.harness import (ConfigError, ExperimentConfig, config_text,
                            load_config, parse_config_text, predict_dataset,
                            run_attack, run_detect, run_ood, run_report,
                            run_sweep, run_train)
from infmix.network import StochasticMlp
from infmix.tensor import Rng

FAST = dict(n_train_samples=2, n_eval_samples=4, batch_size=100,
            iterations=40, n_trials=2, loss_record_every=5,
            attack_iterations=4, eps_grid=(0.0, 0.2), attack_prefix=60,
            ood_prefix=200)


def fast_config(data_dir, out_dir, **overrides):
    return ExperimentConfig(data_dir=data_dir, out_dir=str(out_dir),
                            **{**FAST, **overrides})


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
            payload = json.load(open(path))
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
        a = open(os.path.join(cfg.out_dir, name), "rb").read()
        b = open(os.path.join(cfg2.out_dir, name), "rb").read()
        assert a == b

    def test_threaded_trials_match_serial(self, synthetic_data_dir, tmp_path):
        serial = fast_config(synthetic_data_dir, tmp_path / "s",
                             model="deterministic", iterations=25)
        threaded = serial.replace(out_dir=str(tmp_path / "t"), threads=2)
        run_train(serial)
        run_train(threaded)
        for seed in serial.trial_seeds():
            name = f"{serial.run_id()}_seed{seed}.ckpt"
            assert (open(os.path.join(serial.out_dir, name), "rb").read()
                    == open(os.path.join(threaded.out_dir, name), "rb").read())

    @pytest.mark.parametrize("model", ["dropout", "ensemble"])
    def test_baseline_kinds_run(self, synthetic_data_dir, tmp_path, model):
        cfg = fast_config(synthetic_data_dir, tmp_path, model=model,
                          n_trials=1, iterations=25, ensemble_size=2)
        results = run_train(cfg)
        assert results[0]["model"] == model


class TestPredictDataset:
    def test_chunks_keyed_by_start_index(self):
        # Each chunk draws from rng.derive(start): its draws depend on where
        # the chunk starts, not on how many draws run per forward pass.
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        x = Rng(1).uniform(0, 1, (7, 6))
        whole = predict_dataset(net, x, 5, Rng(2), chunk=3)
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

    def test_missing_checkpoints_is_config_error(self, synthetic_data_dir,
                                                 tmp_path):
        cfg = fast_config(synthetic_data_dir, tmp_path, model="vi")
        with pytest.raises(ConfigError, match="no checkpoints"):
            run_attack(cfg)

    def test_detect_with_no_successful_attacks(self, synthetic_data_dir,
                                               tmp_path):
        # A template-matching classifier is perfect on the patch data, so at
        # epsilon = 0 no attack succeeds and the balanced AUROC is undefined
        # (recorded as null), while the plain AUROC still exists.
        import numpy as np
        from infmix.baselines import DeterministicMlp
        from infmix.checkpoint import save_model

        w = np.zeros((785, 10))
        for c in range(10):
            row, col = divmod(c, 5)
            r0, c0 = 3 + row * 12, 2 + col * 5
            patch = np.zeros((28, 28))
            patch[r0:r0 + 6, c0:c0 + 4] = 1.0
            w[:784, c] = patch.ravel()
        ckpt = tmp_path / "perfect.ckpt"
        save_model(DeterministicMlp(weights=[w]), str(ckpt))

        cfg = fast_config(synthetic_data_dir, tmp_path, model="deterministic",
                          attack_epsilon=0.0, detect_full_test=False,
                          attack_prefix=50, n_trials=1)
        payload = run_detect(cfg, checkpoint=str(ckpt))
        trial = payload["trials"][0]
        assert trial["clean_accuracy"] == 1.0
        assert trial["n_successful_attacks"] == 0
        assert trial["auroc_entropy_balanced"] is None
        assert payload["mean_auroc_entropy_balanced"] is None
        assert 0.0 <= trial["auroc_entropy"] <= 1.0
        # The report consumes the null without crashing.
        outcome = run_report(str(tmp_path))
        summary = open(os.path.join(outcome["report_dir"], "summary.txt")).read()
        assert "balanced_entropy=undefined" in summary


class TestRunReport:
    def test_empty_dir_warns_but_succeeds(self, tmp_path):
        outcome = run_report(str(tmp_path))
        assert outcome["warnings"]
        assert os.path.exists(os.path.join(outcome["report_dir"], "summary.txt"))

    def test_full_report(self, trained_run):
        cfg, _ = trained_run
        run_attack(cfg)
        outcome = run_report(cfg.out_dir)
        names = outcome["written"]
        assert "table_accuracy_by_kl_weight.csv" in names
        assert any(n.startswith("fig_robustness_") for n in names)
        assert any(n.startswith("fig_mixing_variance_layer1_") for n in names)
        table = open(os.path.join(outcome["report_dir"],
                                  "table_accuracy_by_kl_weight.csv")).read()
        assert table.startswith("dataset,model,kl_weight,n_trials,")
        assert "mnist,ml" in table

    def test_report_is_pure_function_of_directory(self, trained_run, tmp_path):
        cfg, _ = trained_run
        a = run_report(cfg.out_dir, str(tmp_path / "r1"))
        b = run_report(cfg.out_dir, str(tmp_path / "r2"))
        for name in a["written"]:
            if name.endswith(".csv") or name.endswith(".txt"):
                ca = open(os.path.join(a["report_dir"], name)).read()
                cb = open(os.path.join(b["report_dir"], name)).read()
                assert ca == cb


class TestCli:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") == 8

    def test_bad_config_file_exits_one(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("unknown_knob = 3\n")
        assert main(["--config", str(path), "train"]) == 1

    def test_missing_config_file_exits_one(self):
        assert main(["--config", "/nonexistent.cfg", "train"]) == 1

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

    def test_cli_overrides_take_effect(self):
        from infmix.cli import build_parser, resolve_config
        args = build_parser().parse_args(
            ["--data-dir", "d", "--trials", "3", "--seed", "5",
             "--threads", "2", "train"])
        cfg = resolve_config(args)
        assert (cfg.data_dir, cfg.n_trials, cfg.base_seed, cfg.threads) == (
            "d", 3, 5, 2)
