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
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        check_max_features(max_features)
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.std_floor = float(std_floor)
        self.estimators_: list[DecisionTreeRegressor] = []

    def fit(self, X: Any, y: Any) -> "_BaseForest":
        X, y = check_fit_inputs(X, y)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        n = len(y)
        # Each tree's seed, then its bootstrap rows, are drawn from the
        # forest rng in turn; the surrogate golden digests pin this order.
        estimators: list[DecisionTreeRegressor] = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                splitter=self._splitter,
                random_state=np.random.default_rng(rng.integers(0, 2**63)),
            )
            if self._bootstrap:
                idx = rng.integers(0, n, size=n)
                tree.fit(X[idx], y[idx])
            else:
                tree.fit(X, y)
            estimators.append(tree)
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
