#!/usr/bin/env python3
"""Generate a synthetic IDX dataset directory for smoke-testing the
pipeline without MNIST.

Images are 28x28 with a class-dependent bright patch over background noise;
a small MLP reaches high accuracy within a few hundred iterations.  The
"ood" split uses a shifted patch layout so uncertainty scores actually
separate it from the test split.
"""

import argparse
import os

import numpy as np

from infmix.data import write_idx


def synthetic_arrays(n, seed, side=28, n_classes=10, style=0):
    """Images whose class is a bright patch position; learnable by a small
    MLP in a few hundred iterations.  ``style`` shifts the patch layout so a
    second call yields an out-of-distribution variant."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, n)
    images = rng.uniform(0.0, 0.3, (n, side, side))
    for i, c in enumerate(labels):
        row, col = divmod(int(c), 5)
        r0 = 3 + row * 12 + style * 3
        c0 = 2 + col * 5
        images[i, r0:r0 + 6, c0:c0 + 4] += 0.7
    images = np.clip(images, 0.0, 1.0)
    return np.rint(images * 255).astype(np.uint8), labels.astype(np.uint8)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir")
    parser.add_argument("--train", type=int, default=6000)
    parser.add_argument("--test", type=int, default=1000)
    parser.add_argument("--ood", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    splits = (("train", args.train, args.seed, 0),
              ("t10k", args.test, args.seed + 1, 0),
              ("notmnist", args.ood, args.seed + 2, 2))
    for stem, n, seed, style in splits:
        images, labels = synthetic_arrays(n, seed, style=style)
        write_idx(os.path.join(args.out_dir, f"{stem}-images-idx3-ubyte"), images)
        write_idx(os.path.join(args.out_dir, f"{stem}-labels-idx1-ubyte"), labels)
        print(f"wrote {stem}: {n} samples")


if __name__ == "__main__":
    main()
