#!/usr/bin/env python3
"""Two-minute end-to-end demo on synthetic data: generates an IDX directory,
trains a small mixture with both objectives, attacks it, and writes a report.

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


def run(cmd):
    print("+", " ".join(cmd))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    subprocess.run(cmd, check=True, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("work_dir")
    args = parser.parse_args()

    data_dir = os.path.join(args.work_dir, "data")
    out_dir = os.path.join(args.work_dir, "results")
    os.makedirs(args.work_dir, exist_ok=True)

    run([sys.executable, os.path.join(HERE, "make_synthetic_data.py"),
         data_dir, "--train", "2000", "--test", "500", "--ood", "500"])

    cfg_path = os.path.join(args.work_dir, "demo.cfg")
    with open(cfg_path, "w") as f:
        f.write("schema_version = 1\n"
                "dataset = synthetic\n"
                "iterations = 600\n"
                "batch_size = 100\n"
                "n_trials = 2\n"
                "n_eval_samples = 25\n"
                "eps_grid = 0,0.1,0.2,0.3\n"
                "attack_iterations = 10\n"
                "attack_prefix = 200\n"
                "detect_full_test = false\n")

    common = ["--config", cfg_path, "--data-dir", data_dir, "--out-dir", out_dir]
    run([*INFMIX, *common, "gradcheck"])
    for model in ("ml", "vi"):
        # One model kind per invocation; the config's model field defaults to
        # ml, so write the override into a per-model config line instead.
        model_cfg = cfg_path + f".{model}"
        with open(model_cfg, "w") as f:
            f.write(open(cfg_path).read() + f"model = {model}\n")
        run([*INFMIX, "--config", model_cfg, "--data-dir", data_dir,
             "--out-dir", out_dir, "train"])
        run([*INFMIX, "--config", model_cfg, "--data-dir", data_dir,
             "--out-dir", out_dir, "attack"])
        run([*INFMIX, "--config", model_cfg, "--data-dir", data_dir,
             "--out-dir", out_dir, "ood"])
    run([*INFMIX, *common, "report"])
    print(f"\ndemo artifacts under {out_dir} (report in {out_dir}/report)")


if __name__ == "__main__":
    main()
