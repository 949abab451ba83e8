#!/usr/bin/env python3
"""Run the complete experimental protocol against one dataset directory.

Produces, under --out-dir:
  - the trials of the kl-weight sweep (both objectives, unit prior) and of
    the prior-variance sweep (both objectives, kl_weight = 1), and of the
    baselines (deterministic, dropout, ensemble), each model trained once
  - OOD AUROCs (needs notmnist-* IDX files in the data dir)
  - robustness curves at 1, 5, and 100 gradient samples plus baselines
  - adversarial detection at eps = 0.25
  - consolidated report (tables, figure data, ordering summary)

Full fidelity (30,000 iterations x 10 trials per grid point) takes many
CPU-hours; --iterations/--trials scale it down for smoke runs.  Bad input
ends in one stderr line and exit code 1.
"""

import sys

from infmix import cli, harness
from infmix.harness import ExperimentConfig

# The point where the two sweeps meet; OOD scoring and the attacks read it.
UNIT = {"kl_weight": 1.0, "prior_variance": 1.0}


def protocol_points(base: ExperimentConfig) -> list:
    """The protocol's trainings, each once: the kl-weight sweep's points,
    then the prior sweep's, then the three baselines.  The point where the
    sweeps meet keeps the kl-weight sweep's config."""
    runs = [(model, sweep) for sweep in ("kl_weight", "prior")
            for model in ("ml", "vi")]
    runs += [(model, "none") for model in ("deterministic", "dropout", "ensemble")]
    points = {}
    for model, sweep in runs:
        for point in harness.sweep_points(
                base.replace(model=model, sweep=sweep, **UNIT)):
            points.setdefault(point.run_id(), point)
    return list(points.values())


def run_protocol(args) -> int:
    base = ExperimentConfig(
        dataset=args.dataset, data_dir=args.data_dir, out_dir=args.out_dir,
        n_trials=args.trials, iterations=args.iterations)

    points = protocol_points(base)
    print(f"=== train: {len(points)} models x {args.trials} trial(s), in one map")
    harness.run_points(base, points)

    if not args.skip_ood:
        for model in ("ml", "vi"):
            print(f"=== ood: {model}")
            try:
                harness.run_ood(base.replace(model=model, **UNIT))
            except harness.ConfigError as exc:
                print(f"skipping ood ({exc})", file=sys.stderr)
                break

    if not args.skip_attacks:
        for model in ("ml", "vi"):
            for n_grad in (1, 5, 100):
                print(f"=== attack: {model} with {n_grad} gradient samples")
                harness.run_attack(base.replace(model=model,
                                                n_attack_samples=n_grad, **UNIT))
        for model in ("deterministic", "dropout", "ensemble"):
            print(f"=== attack: {model}")
            harness.run_attack(base.replace(model=model))
        for model in ("ml", "vi"):
            print(f"=== detection: {model}")
            harness.run_detect(base.replace(model=model, **UNIT))

    outcome = harness.run_report(args.out_dir)
    print(f"report: {outcome['report_dir']} ({len(outcome['written'])} files)")
    for warning in outcome["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    return cli.EXIT_OK


def main() -> int:
    parser = cli.OneLineParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--dataset", default="mnist")
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=30_000)
    parser.add_argument("--skip-ood", action="store_true")
    parser.add_argument("--skip-attacks", action="store_true")
    args = parser.parse_args()
    return cli.exit_code(lambda: run_protocol(args))


if __name__ == "__main__":
    sys.exit(main())
