"""Byte-identity of the tree surrogates against recorded golden digests.

Every case fits one tree-based surrogate (or a sweep of them) on a fixed
corpus and hashes the six node arrays of every fitted tree: children,
feature, threshold, value and sample count. The arrays enter the hash as raw
bytes, so a digest matches only if every node is the same to the last bit,
signed zeros included. A last case pins the point sequence a Listing-1 style
``Optimizer(base_estimator="ET", acq_func="gp_hedge")`` asks over 30 tells,
and checks that two fit threads ask exactly the same points.

The corpus covers the shapes that make tree construction take its rare
branches: ``-0.0`` targets, X rounded to quarters (tied values and a
constant feature), targets rounded to a few levels (pure nodes), feature
subsampling, ``min_samples_leaf`` above one and bounded depth.

The digests in ``data/surrogate_golden_digests.json`` were recorded with
the tree construction as it stood before the single vectorized split loop.
Regenerate them only for a deliberate change of the model, with::

    PYTHONPATH=src python -m tests.test_surrogate_golden > tests/data/surrogate_golden_digests.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.bayesopt import Optimizer, Real
from repro.surrogate import (
    DecisionTreeRegressor,
    ExtraTreesRegressor,
    GBRTQuantile,
    RandomForestRegressor,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "surrogate_golden_digests.json"

_NODE_ARRAYS = ("_cl", "_cr", "_feat", "_thr", "_val", "_nsamp")


def _dataset(name: str) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("uniform-n"):
        n = int(name.removeprefix("uniform-n"))
        X = rng.uniform(size=(n, 4))
        y = np.sin(6.0 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=n)
    elif name == "quarters":
        X = np.round(rng.uniform(size=(40, 4)) * 4.0) / 4.0
        X[:, 2] = 0.5  # a constant feature
        y = X[:, 0] - X[:, 1] + 0.05 * rng.normal(size=40)
    elif name == "pure":
        X = rng.uniform(size=(36, 3))
        y = np.round(2.0 * X[:, 0] + 0.3 * rng.normal(size=36))
    elif name == "signed-zero":
        X = np.round(rng.uniform(size=(30, 3)) * 8.0) / 8.0
        y = np.where(rng.uniform(size=30) < 0.5, -0.0, 0.0)
        y[rng.uniform(size=30) < 0.2] = -1.5
    else:
        raise KeyError(name)
    return X, y


DATASETS = ("uniform-n15", "uniform-n30", "uniform-n60", "quarters", "pure", "signed-zero")

#: (max_features, min_samples_leaf, max_depth) sweep for single trees.
TREE_PARAMS = list(itertools.product((None, "sqrt", 2), (1, 2, 3), (None, 3)))


def _hash_trees(trees: list[DecisionTreeRegressor]) -> str:
    h = hashlib.sha256()
    for tree in trees:
        for name in _NODE_ARRAYS:
            arr = getattr(tree, name)
            h.update(name.encode())
            h.update(str(arr.dtype).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _tree_sweep(splitter: str, dataset: str) -> str:
    X, y = _dataset(dataset)
    trees = [
        DecisionTreeRegressor(
            splitter=splitter,
            max_features=max_features,
            min_samples_leaf=min_samples_leaf,
            max_depth=max_depth,
            random_state=seed,
        ).fit(X, y)
        for seed, (max_features, min_samples_leaf, max_depth) in enumerate(TREE_PARAMS)
    ]
    return _hash_trees(trees)


def _forests(cls: type, dataset: str, variants: list[dict]) -> str:
    X, y = _dataset(dataset)
    trees: list[DecisionTreeRegressor] = []
    for seed, kwargs in enumerate(variants):
        trees += cls(8, random_state=seed, **kwargs).fit(X, y).estimators_
    return _hash_trees(trees)


def _gbrt(dataset: str) -> str:
    X, y = _dataset(dataset)
    model = GBRTQuantile(10, random_state=4).fit(X, y)
    return _hash_trees([tree for m in model._models for tree in m.estimators_])


def optimizer_run(fit_jobs: int | None = None) -> str:
    """SHA-256 of the points a 30-tell ET/gp_hedge campaign asks."""
    opt = Optimizer(
        [Real(20.0, 60.0), Real(20.0, 60.0), Real(3.0, 9.0), Real(20.0, 60.0)],
        base_estimator="ET",
        acq_func="gp_hedge",
        acq_n_candidates=500,
        fit_jobs=fit_jobs,
        random_state=7,
    )
    asked = []
    for _ in range(30):
        x = opt.ask()
        asked.append([repr(float(v)) for v in x])
        y = (x[0] - 35.0) ** 2 / 400.0 + np.sin(x[1] / 6.0) + abs(x[2] - 6.0) + x[3] / 60.0
        opt.tell(x, float(y))
    return hashlib.sha256(json.dumps(asked).encode()).hexdigest()


CASES: dict[str, Callable[[], str]] = {}
for _ds in DATASETS:
    CASES[f"tree-best-{_ds}"] = lambda ds=_ds: _tree_sweep("best", ds)
    CASES[f"tree-random-{_ds}"] = lambda ds=_ds: _tree_sweep("random", ds)
    CASES[f"et-{_ds}"] = lambda ds=_ds: _forests(
        ExtraTreesRegressor,
        ds,
        [{}, {"max_features": "sqrt", "min_samples_leaf": 2}, {"max_features": 2, "max_depth": 4}],
    )
    CASES[f"rf-{_ds}"] = lambda ds=_ds: _forests(
        RandomForestRegressor, ds, [{}, {"min_samples_leaf": 3, "max_depth": 3}]
    )
    CASES[f"gbrt-{_ds}"] = lambda ds=_ds: _gbrt(ds)
CASES["optimizer-et-gp_hedge"] = optimizer_run


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_surrogate_fit_is_byte_identical(case):
    assert CASES[case]() == _golden()[case]


def test_parallel_fit_asks_the_serial_points():
    assert optimizer_run(fit_jobs=2) == _golden()["optimizer-et-gp_hedge"]


def test_corpus_has_signed_zero_leaves():
    """The signed-zero case reaches leaves holding one ``-0.0`` target."""
    X, y = _dataset("signed-zero")
    tree = DecisionTreeRegressor(splitter="random", random_state=0).fit(X, y)
    leaves = tree.apply(X)
    negative_zero = (y == 0.0) & np.signbit(y)
    assert any(tree._nsamp[leaf] == 1 for leaf in leaves[negative_zero])


def test_digest_sees_the_sign_of_zero():
    X, y = _dataset("signed-zero")
    tree = DecisionTreeRegressor(random_state=0).fit(X, y)
    before = _hash_trees([tree])
    leaf = int(np.flatnonzero(tree._val == 0.0)[0])
    tree._val[leaf] = -tree._val[leaf]
    assert _hash_trees([tree]) != before


if __name__ == "__main__":
    print(json.dumps({name: CASES[name]() for name in sorted(CASES)}, indent=2))
