#!/usr/bin/env python3
"""Run the complete experimental protocol against one dataset directory.

Produces, under --out-dir:
  - prior-variance sweep (both objectives, kl_weight = 1)
  - kl-weight sweep (both objectives, unit prior)
  - baseline runs (deterministic, dropout, ensemble)
  - OOD AUROCs (needs notmnist-* IDX files in the data dir)
  - robustness curves at 1, 5, and 100 gradient samples plus baselines
  - adversarial detection at eps = 0.25
  - consolidated report (tables, figure data, ordering summary)

Full fidelity (30,000 iterations x 10 trials per grid point) takes many
CPU-hours; --iterations/--trials scale it down for smoke runs.
"""

import argparse
import sys

from infmix import harness
from infmix.harness import ExperimentConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--dataset", default="mnist")
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=30_000)
    parser.add_argument("--threads", type=int,
                        default=ExperimentConfig().threads,
                        help="workers (default: the allowed CPUs when "
                             "OPENBLAS_NUM_THREADS=1, else 1)")
    parser.add_argument("--skip-ood", action="store_true")
    parser.add_argument("--skip-attacks", action="store_true")
    args = parser.parse_args()

    base = ExperimentConfig(
        dataset=args.dataset, data_dir=args.data_dir, out_dir=args.out_dir,
        n_trials=args.trials, iterations=args.iterations, threads=args.threads)

    for model in ("ml", "vi"):
        print(f"=== prior sweep: {model}")
        harness.run_sweep(base.replace(model=model, sweep="prior", kl_weight=1.0))
        print(f"=== kl-weight sweep: {model}")
        harness.run_sweep(base.replace(model=model, sweep="kl_weight",
                                       prior_variance=1.0))

    for model in ("deterministic", "dropout", "ensemble"):
        print(f"=== baseline: {model}")
        harness.run_train(base.replace(model=model))

    unit = {"kl_weight": 1.0, "prior_variance": 1.0}
    if not args.skip_ood:
        for model in ("ml", "vi"):
            print(f"=== ood: {model}")
            try:
                harness.run_ood(base.replace(model=model, **unit))
            except harness.ConfigError as exc:
                print(f"skipping ood ({exc})", file=sys.stderr)
                break

    if not args.skip_attacks:
        for model in ("ml", "vi"):
            for n_grad in (1, 5, 100):
                print(f"=== attack: {model} with {n_grad} gradient samples")
                harness.run_attack(base.replace(model=model,
                                                n_attack_samples=n_grad, **unit))
        for model in ("deterministic", "dropout", "ensemble"):
            print(f"=== attack: {model}")
            harness.run_attack(base.replace(model=model))
        for model in ("ml", "vi"):
            print(f"=== detection: {model}")
            harness.run_detect(base.replace(model=model, **unit))

    outcome = harness.run_report(args.out_dir)
    print(f"report: {outcome['report_dir']} ({len(outcome['written'])} files)")
    for warning in outcome["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)


if __name__ == "__main__":
    main()
