"""Tree ensembles: Random Forest and Extra-Trees (the paper's surrogate).

Both provide the uncertainty estimate Bayesian optimization needs: the
standard deviation of per-tree predictions (plus a small jitter floor so
acquisition functions never divide by zero on duplicated points).
"""

from __future__ import annotations

from typing import Any, Literal

import numpy as np

from repro.errors import ValidationError
from repro.surrogate.base import SurrogateModel, check_fit_inputs
from repro.surrogate.tree import _LEAF, DecisionTreeRegressor, check_max_features

__all__ = ["RandomForestRegressor", "ExtraTreesRegressor"]


class _BaseForest(SurrogateModel):
    """Shared machinery for bagged tree ensembles."""

    _splitter: Literal["best", "random"] = "best"
    _bootstrap: bool = True

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | Literal["sqrt"] | None = None,
        random_state: int | None = None,
        std_floor: float = 1e-9,
        n_jobs: int | None = None,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        if n_jobs is not None and n_jobs != -1 and n_jobs < 1:
            raise ValidationError("n_jobs must be >= 1, -1, or None")
        check_max_features(max_features)
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.std_floor = float(std_floor)
        self.n_jobs = n_jobs
        self.estimators_: list[DecisionTreeRegressor] = []

    def _worker_count(self) -> int:
        if self.n_jobs is None:
            return 1
        if self.n_jobs == -1:
            import os

            return max(1, (os.cpu_count() or 1) - 1)
        return int(self.n_jobs)

    def fit(self, X: Any, y: Any) -> "_BaseForest":
        X, y = check_fit_inputs(X, y)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        n = len(y)
        # Per-tree randomness (seed stream, bootstrap rows) is drawn
        # sequentially from the forest rng *before* any tree is fitted, so
        # the ensemble is byte-identical whether the fits below run serially
        # or across a thread pool.
        specs: list[tuple[np.random.Generator, np.ndarray | None]] = []
        for _ in range(self.n_estimators):
            tree_rng = np.random.default_rng(rng.integers(0, 2**63))
            idx = rng.integers(0, n, size=n) if self._bootstrap else None
            specs.append((tree_rng, idx))

        def _build(spec: tuple[np.random.Generator, np.ndarray | None]) -> DecisionTreeRegressor:
            tree_rng, idx = spec
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                splitter=self._splitter,
                random_state=tree_rng,
            )
            if idx is not None:
                tree.fit(X[idx], y[idx])
            else:
                tree.fit(X, y)
            return tree

        workers = min(self._worker_count(), self.n_estimators)
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                estimators = list(pool.map(_build, specs))
        else:
            estimators = [_build(spec) for spec in specs]
        self.estimators_ = estimators
        self._pack()
        return self

    def _pack(self) -> None:
        """Concatenate all trees into one node-array set for joint traversal.

        Prediction walks every (tree, row) pair in a single vectorized loop
        whose iteration count is the *deepest* tree rather than the sum of
        depths — the per-tree Python loop used to dominate acquisition
        scoring over large candidate batches.
        """
        trees = self.estimators_
        offsets = np.cumsum([0] + [t.node_count for t in trees[:-1]])
        self._roots = offsets.astype(np.int64)
        self._cl_all = np.concatenate(
            [np.where(t._cl == _LEAF, _LEAF, t._cl + off) for t, off in zip(trees, offsets)]
        )
        self._cr_all = np.concatenate(
            [np.where(t._cr == _LEAF, _LEAF, t._cr + off) for t, off in zip(trees, offsets)]
        )
        self._feat_all = np.concatenate([t._feat for t in trees])
        self._thr_all = np.concatenate([t._thr for t in trees])
        self._val_all = np.concatenate([t._val for t in trees])
        self._count_all = np.concatenate([t._nsamp for t in trees])

    def _packed_leaves(self, X: np.ndarray) -> np.ndarray:
        """Packed leaf index for every (tree, row) pair, flat ``n_trees*n_rows``."""
        n_rows = len(X)
        n_trees = len(self.estimators_)
        node = np.repeat(self._roots, n_rows)
        rows = np.tile(np.arange(n_rows), n_trees)
        active = np.nonzero(self._cl_all[node] != _LEAF)[0]
        while active.size:
            nodes = node[active]
            go_left = X[rows[active], self._feat_all[nodes]] <= self._thr_all[nodes]
            nxt = np.where(go_left, self._cl_all[nodes], self._cr_all[nodes])
            node[active] = nxt
            active = active[self._cl_all[nxt] != _LEAF]
        return node

    def predict(
        self, X: Any, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        X = self._check_predict_input(X)
        if not self.estimators_:
            raise ValidationError(f"{type(self).__name__} is not fitted yet")
        node = self._packed_leaves(X)
        preds = self._val_all[node].reshape(len(self.estimators_), len(X))
        mean = preds.mean(axis=0)
        if return_std:
            std = preds.std(axis=0)
            return mean, np.maximum(std, self.std_floor)
        return mean

    # -- incremental updates -------------------------------------------------------

    supports_partial_fit = True

    def partial_fit(self, X: Any, y: Any) -> "_BaseForest":
        """Online insertion into every tree's leaf statistics.

        Each fresh sample is routed through the packed node arrays once and
        shifts the running mean of the leaf it lands in, per tree. Structure
        is frozen until the next full refit; bootstrapped forests fold every
        sample into every tree (the resampling distinction is restored at
        the refit). The packed value array — the only array ``predict``
        reads for outputs — is rebuilt on a copy and swapped in atomically,
        so concurrent predicts never observe a torn update.
        """
        X, y = check_fit_inputs(X, y)
        if not self.estimators_:
            raise ValidationError(f"{type(self).__name__} is not fitted yet")
        X = self._check_predict_input(X)
        node = self._packed_leaves(X)
        n_rows = len(X)
        new_val = self._val_all.copy()
        counts = self._count_all
        for flat, value in zip(node, y[np.tile(np.arange(n_rows), len(self.estimators_))]):
            n = counts[flat]
            new_val[flat] += (value - new_val[flat]) / (n + 1.0)
            counts[flat] = n + 1.0
        self._val_all = new_val  # atomic publish
        return self


class RandomForestRegressor(_BaseForest):
    """Breiman-style forest: bootstrap rows + best splits on feature subsets."""

    name = "RF"
    _splitter = "best"
    _bootstrap = True

    def __init__(self, n_estimators: int = 50, **kwargs: Any) -> None:
        kwargs.setdefault("max_features", "sqrt")
        super().__init__(n_estimators, **kwargs)


class ExtraTreesRegressor(_BaseForest):
    """Extremely randomized trees (Geurts 2006): random thresholds, no
    bootstrap — the ``base_estimator='ET'`` of the paper's Listing 1."""

    name = "ET"
    _splitter = "random"
    _bootstrap = False
