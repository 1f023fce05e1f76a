"""Gradient Boosting Regression Trees (Friedman 2001, the paper's [27]).

Two estimators:

- :class:`GradientBoostingRegressor` — stage-wise boosting of shallow CART
  trees with least-squares or quantile (pinball) loss. Quantile loss uses
  the standard leaf re-estimation: each stage's tree is fitted to the loss
  gradient, then its leaf values are replaced by the residual quantile of
  the samples falling in that leaf.
- :class:`GBRTQuantile` — the scikit-optimize-style wrapper bundling the
  0.16 / 0.50 / 0.84 quantile models so ``predict(return_std=True)`` yields
  a mean and a ±1σ-equivalent spread for acquisition functions.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro.surrogate.base import SurrogateModel, check_fit_inputs
from repro.surrogate.tree import DecisionTreeRegressor

__all__ = ["GradientBoostingRegressor", "GBRTQuantile"]


class GradientBoostingRegressor(SurrogateModel):
    """Stage-wise additive model of shallow regression trees."""

    name = "gbrt-single"

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 3,
        subsample: float = 1.0,
        loss: str = "ls",
        quantile: float = 0.5,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        if not 0 < learning_rate <= 1:
            raise ValidationError("learning_rate must be in (0, 1]")
        if not 0 < subsample <= 1:
            raise ValidationError("subsample must be in (0, 1]")
        if loss not in ("ls", "quantile"):
            raise ValidationError(f"unknown loss {loss!r}")
        if not 0 < quantile < 1:
            raise ValidationError("quantile must be in (0, 1)")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.subsample = float(subsample)
        self.loss = loss
        self.quantile = float(quantile)
        self.random_state = random_state
        self.estimators_: list[DecisionTreeRegressor] = []
        self.init_: float = 0.0

    # -- loss helpers --------------------------------------------------------------

    def _initial_prediction(self, y: np.ndarray) -> float:
        if self.loss == "ls":
            return float(y.mean())
        return float(np.quantile(y, self.quantile))

    def _negative_gradient(self, y: np.ndarray, pred: np.ndarray) -> np.ndarray:
        if self.loss == "ls":
            return y - pred
        return np.where(y > pred, self.quantile, self.quantile - 1.0)

    def _leaf_update(self, residual: np.ndarray) -> float:
        if self.loss == "ls":
            return float(residual.mean())
        return float(np.quantile(residual, self.quantile))

    # -- fitting ---------------------------------------------------------------------

    def fit(self, X: Any, y: Any) -> "GradientBoostingRegressor":
        X, y = check_fit_inputs(X, y)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        self.init_ = self._initial_prediction(y)
        pred = np.full(len(y), self.init_)
        self.estimators_ = []
        n = len(y)
        for _ in range(self.n_estimators):
            grad = self._negative_gradient(y, pred)
            if self.subsample < 1.0:
                idx = rng.choice(n, size=max(2, int(self.subsample * n)), replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=np.random.default_rng(rng.integers(0, 2**63)),
            )
            tree.fit(X[idx], grad[idx])
            # Leaf re-estimation on the residuals of the FULL training set.
            leaves = tree.apply(X)
            residual = y - pred
            updates: dict[int, float] = {}
            for leaf in np.unique(leaves):
                updates[int(leaf)] = self._leaf_update(residual[leaves == leaf])
            tree.set_leaf_values(updates)
            pred = pred + self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
        return self

    def predict(
        self, X: Any, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        X = self._check_predict_input(X)
        if not self.estimators_:
            raise ValidationError("GradientBoostingRegressor is not fitted yet")
        pred = np.full(len(X), self.init_)
        for tree in self.estimators_:
            pred += self.learning_rate * tree.predict(X)
        if return_std:
            return pred, np.zeros_like(pred)
        return pred


class GBRTQuantile(SurrogateModel):
    """Three quantile GBRT models giving mean ± spread (skopt's GBRT mode)."""

    name = "GBRT"

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        random_state: int | None = None,
        quantiles: tuple[float, float, float] = (0.16, 0.5, 0.84),
    ) -> None:
        super().__init__()
        lo, mid, hi = quantiles
        if not 0 < lo < mid < hi < 1:
            raise ValidationError("quantiles must be increasing within (0, 1)")
        self.quantiles = quantiles
        self._models = [
            GradientBoostingRegressor(
                n_estimators,
                learning_rate=learning_rate,
                max_depth=max_depth,
                loss="quantile",
                quantile=q,
                random_state=None if random_state is None else random_state + i,
            )
            for i, q in enumerate(quantiles)
        ]

    def fit(self, X: Any, y: Any) -> "GBRTQuantile":
        X, y = check_fit_inputs(X, y)
        self.n_features_ = X.shape[1]
        for model in self._models:
            model.fit(X, y)
        return self

    def predict(
        self, X: Any, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        X = self._check_predict_input(X)
        lo = self._models[0].predict(X)
        mid = self._models[1].predict(X)
        hi = self._models[2].predict(X)
        if return_std:
            # (q84 - q16) / 2 ≈ one standard deviation for a Gaussian.
            std = np.maximum((hi - lo) / 2.0, 1e-9)
            return mid, std
        return mid
