"""Command-line interface.

Subcommands: train, sweep, ood, attack, detect, gradcheck, report.
Exit codes: 0 success, 1 config/usage error or a diverged run,
2 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from . import gradcheck as gradcheck_mod
from . import harness
from .checkpoint import CheckpointError
from .data import DataConsistencyError, IdxFormatError
from .harness import ConfigError, ExperimentConfig, load_config
from .objectives import TrainingDiverged

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFICATION = 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line and exits EXIT_CONFIG, not with
    argparse's 2, which here means a failed verification.  Subcommand
    parsers are made of the same class."""

    def error(self, message):
        self.exit(EXIT_CONFIG,
                  f"usage error: {message} (see {self.prog} --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="infmix",
        description="Train and evaluate infinite-mixture stochastic MLPs "
                    "(mixture-likelihood or variational objective) plus "
                    "deterministic / dropout / ensemble baselines.")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--data-dir", help="directory with the IDX files")
    parser.add_argument("--out-dir", help="where results are written")
    parser.add_argument("--seed", type=int, help="override base_seed")
    parser.add_argument("--trials", type=int, help="override n_trials")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="train n_trials models and evaluate them")
    sub.add_parser("sweep", help="run the configured hyperparameter grid")
    for name, text in (("ood", "test-vs-OOD AUROC from trained checkpoints"),
                       ("attack", "robustness curve over the epsilon grid"),
                       ("detect", "adversarial detection AUROC at the "
                                  "configured operating point")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--checkpoint", help="evaluate one checkpoint file "
                                            "instead of the run's trials")
    g = sub.add_parser("gradcheck", help="finite-difference verification of "
                                         "all analytic gradients")
    g.add_argument("--gradcheck-seed", type=int, default=0)
    r = sub.add_parser("report", help="consolidate a results directory into "
                                      "tables and plot data")
    r.add_argument("--results-dir", help="defaults to out_dir")
    r.add_argument("--report-dir", help="defaults to <results-dir>/report")
    return parser


def resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.data_dir is not None:
        overrides["data_dir"] = args.data_dir
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    return cfg.replace(**overrides) if overrides else cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        if args.command == "gradcheck":
            if args.gradcheck_seed < 0:
                raise ConfigError(
                    f"--gradcheck-seed must be >= 0, got {args.gradcheck_seed}")
            results = gradcheck_mod.run_all_checks(seed=args.gradcheck_seed)
            for res in results:
                print(res.line())
            if all(r.passed for r in results):
                print("gradcheck: all checks passed")
                return EXIT_OK
            print("gradcheck: FAILED", file=sys.stderr)
            return EXIT_VERIFICATION
        cfg = resolve_config(args)
        if args.command == "report":
            results_dir = args.results_dir or cfg.out_dir
            outcome = harness.run_report(results_dir, args.report_dir)
            for warning in outcome["warnings"]:
                print(f"warning: {warning}", file=sys.stderr)
            print(f"report written to {outcome['report_dir']} "
                  f"({len(outcome['written'])} files)")
            return EXIT_OK
        if args.command == "train":
            results = harness.run_train(cfg)
            for res in results:
                print(f"{res['run_id']} seed={res['seed']} "
                      f"accuracy={res['clean_accuracy']:.4f}")
            return EXIT_OK
        if args.command == "sweep":
            payload = harness.run_sweep(cfg)
            for row in payload["rows"]:
                print(f"{cfg.sweep}={row['value']}: "
                      f"accuracy={row['mean_accuracy']:.4f} "
                      f"+- {row['std_accuracy']:.4f}")
            return EXIT_OK
        if args.command == "ood":
            payload = harness.run_ood(cfg, checkpoint=args.checkpoint)
            print(f"ood {payload['run_id']}: "
                  f"variance AUROC {payload['mean_auroc_variance']:.4f}, "
                  f"entropy AUROC {payload['mean_auroc_entropy']:.4f}")
            return EXIT_OK
        if args.command == "attack":
            payload = harness.run_attack(cfg, checkpoint=args.checkpoint)
            for eps, acc in zip(cfg.eps_grid, payload["mean_curve"]):
                print(f"eps={eps}: robust accuracy {acc:.4f}")
            return EXIT_OK
        if args.command == "detect":
            payload = harness.run_detect(cfg, checkpoint=args.checkpoint)
            balanced = payload["mean_auroc_entropy_balanced"]
            print(f"detection {payload['run_id']} eps={payload['epsilon']}: "
                  f"variance {payload['mean_auroc_variance']:.4f}, "
                  f"entropy {payload['mean_auroc_entropy']:.4f}, "
                  f"balanced entropy "
                  + (f"{balanced:.4f}" if balanced is not None else "undefined"))
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, OSError, IdxFormatError, DataConsistencyError,
            CheckpointError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDiverged, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
