"""Shared fixtures: synthetic IDX datasets for fast pipeline tests, the
worker budget pinned to a CPU count and the check that the pool is at rest,
and discovery of real IDX data (env var
INFMIX_DATA_DIR) for the long-running reproduction tests, which skip when
the files are absent."""

import importlib.util
import os
import threading
from pathlib import Path

import pytest

from infmix import tensor
from infmix.data import Dataset, load_idx, write_idx


def one_worker_per_cpu(monkeypatch, cpus):
    """Let pools outside any other use ``cpus`` workers, as an affinity mask
    of ``cpus`` CPUs with BLAS on one thread would."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(tensor, "allowed_cpus", lambda: cpus)


def pool_threads():
    return [t for t in threading.enumerate() if t.name == "infmix-worker"]


def pool_at_rest():
    """No pool thread computes or holds a CPU: every one alive is parked,
    there are fewer of them than the budget has CPUs, and no CPU of the
    budget is held."""
    pool = tensor._POOL
    parked = [pool.threads[jobs] for jobs in pool.parked]
    return (pool.held == 0
            and sorted(map(id, pool_threads())) == sorted(map(id, parked))
            and len(parked) < tensor.default_threads())


# The images of ``scripts/make_synthetic_data.py``, from the script itself.
_spec = importlib.util.spec_from_file_location(
    "make_synthetic_data",
    Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_data.py")
_generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_generator)
synthetic_arrays = _generator.synthetic_arrays


def write_synthetic_split(data_dir, stem, n, seed, style=0):
    images, labels = synthetic_arrays(n, seed, style=style)
    write_idx(os.path.join(data_dir, f"{stem}-images-idx3-ubyte"), images)
    write_idx(os.path.join(data_dir, f"{stem}-labels-idx1-ubyte"), labels)


@pytest.fixture(scope="session")
def synthetic_data_dir(tmp_path_factory):
    """Directory with train/test/ood IDX pairs of synthetic patch images."""
    d = tmp_path_factory.mktemp("synthetic_idx")
    write_synthetic_split(d, "train", n=800, seed=0)
    write_synthetic_split(d, "t10k", n=400, seed=1)
    write_synthetic_split(d, "notmnist", n=400, seed=2, style=2)
    return str(d)


@pytest.fixture(scope="session")
def synthetic_train(synthetic_data_dir) -> Dataset:
    return load_idx(os.path.join(synthetic_data_dir, "train-images-idx3-ubyte"),
                    os.path.join(synthetic_data_dir, "train-labels-idx1-ubyte"))


@pytest.fixture(scope="session")
def synthetic_test(synthetic_data_dir) -> Dataset:
    return load_idx(os.path.join(synthetic_data_dir, "t10k-images-idx3-ubyte"),
                    os.path.join(synthetic_data_dir, "t10k-labels-idx1-ubyte"))


def real_data_dir(dataset="mnist"):
    """Real IDX data location, or None.  INFMIX_DATA_DIR points at the MNIST
    directory; INFMIX_FMNIST_DIR at Fashion-MNIST."""
    env = "INFMIX_DATA_DIR" if dataset == "mnist" else "INFMIX_FMNIST_DIR"
    d = os.environ.get(env)
    if d and os.path.isdir(d):
        return d
    return None


def require_real_data(dataset="mnist"):
    d = real_data_dir(dataset)
    if d is None:
        pytest.skip(f"real {dataset} IDX data not available (set "
                    f"{'INFMIX_DATA_DIR' if dataset == 'mnist' else 'INFMIX_FMNIST_DIR'})")
    return d
