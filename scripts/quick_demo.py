#!/usr/bin/env python3
"""Two-minute end-to-end demo on synthetic data: generates an IDX directory,
trains a small mixture with both objectives, attacks it, and writes a report.

Every command runs inside the work directory with the relative paths
``data`` and ``results``, so the result files embed no absolute path and
two demo trees compare with ``diff -r``.

Usage: python scripts/quick_demo.py /tmp/infmix_demo
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# The CLI runs from this checkout's source, installed or not.
INFMIX = [sys.executable, "-m", "infmix.cli"]


def run(cmd, work_dir):
    print("+", " ".join(cmd))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    subprocess.run(cmd, check=True, env=env, cwd=work_dir)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("work_dir")
    args = parser.parse_args()

    work_dir = args.work_dir
    os.makedirs(work_dir, exist_ok=True)

    run([sys.executable, os.path.join(HERE, "make_synthetic_data.py"),
         "data", "--train", "2000", "--test", "500", "--ood", "500"], work_dir)

    config = ("schema_version = 1\n"
              "dataset = synthetic\n"
              "iterations = 600\n"
              "batch_size = 100\n"
              "n_trials = 2\n"
              "n_eval_samples = 25\n"
              "eps_grid = 0,0.1,0.2,0.3\n"
              "attack_iterations = 10\n"
              "attack_prefix = 200\n"
              "detect_full_test = false\n")
    with open(os.path.join(work_dir, "demo.cfg"), "w") as f:
        f.write(config)

    common = ["--data-dir", "data", "--out-dir", "results"]
    run([*INFMIX, "--config", "demo.cfg", *common, "gradcheck"], work_dir)
    for model in ("ml", "vi"):
        # One model kind per invocation; the config's model field defaults to
        # ml, so write the override into a per-model config line instead.
        model_cfg = f"demo.cfg.{model}"
        with open(os.path.join(work_dir, model_cfg), "w") as f:
            f.write(config + f"model = {model}\n")
        for command in ("train", "attack", "ood"):
            run([*INFMIX, "--config", model_cfg, *common, command], work_dir)
    run([*INFMIX, "--config", "demo.cfg", *common, "report"], work_dir)
    out_dir = os.path.join(work_dir, "results")
    print(f"\ndemo artifacts under {out_dir} (report in {out_dir}/report)")


if __name__ == "__main__":
    main()
