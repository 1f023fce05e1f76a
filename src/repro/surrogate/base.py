"""Surrogate model protocol and name-based lookup."""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.errors import ValidationError

__all__ = ["SurrogateModel", "get_surrogate", "check_fit_inputs"]


def check_fit_inputs(X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    """Validate and convert training data to float arrays.

    Rows whose objective value is NaN or ±inf are **dropped** rather than
    rejected: a failed measurement (crashed trial, diverged simulation) must
    not poison tree construction — a single NaN turns every split-score SSE
    into NaN, silently producing a stump. Non-finite *features* still raise,
    because they indicate a broken space transform, not a bad measurement.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-D, got shape {X.shape}")
    if len(X) != len(y):
        raise ValidationError(f"X has {len(X)} rows but y has {len(y)} values")
    if len(y) == 0:
        raise ValidationError("cannot fit on an empty dataset")
    if not np.isfinite(X).all():
        raise ValidationError("X contains non-finite values")
    finite = np.isfinite(y)
    if not finite.all():
        X = X[finite]
        y = y[finite]
        if len(y) == 0:
            raise ValidationError("all y values are non-finite; nothing to fit")
    return X, y


class SurrogateModel(abc.ABC):
    """Common interface: ``fit`` then ``predict`` (optionally with std)."""

    #: name used in configurations (``base_estimator='ET'``).
    name: str = ""

    def __init__(self) -> None:
        self.n_features_: int | None = None

    @abc.abstractmethod
    def fit(self, X: Any, y: Any) -> "SurrogateModel":
        """Train on ``X`` (n, d) / ``y`` (n,); returns self."""

    @abc.abstractmethod
    def predict(
        self, X: Any, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Predict ``y`` for rows of ``X``; optionally with uncertainty."""

    # -- shared helpers -----------------------------------------------------------

    def _check_predict_input(self, X: Any) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self.n_features_ is None:
            raise ValidationError(f"{type(self).__name__} is not fitted yet")
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return X

    def score(self, X: Any, y: Any) -> float:
        """Coefficient of determination R² (1 = perfect)."""
        X, y = check_fit_inputs(X, y)
        pred = np.asarray(self.predict(X))
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0:
            return 1.0 if ss_res == 0 else 0.0
        return 1.0 - ss_res / ss_tot


def get_surrogate(name: str, **kwargs: Any) -> SurrogateModel:
    """Resolve a surrogate by its configuration alias.

    Aliases follow scikit-optimize: ``ET`` (extra trees), ``RF`` (random
    forest), ``GBRT``, ``GP`` (Kriging), plus ``tree``, ``poly``, ``knn``
    and ``dummy``.
    """
    from repro.surrogate.dummy import DummyRegressor
    from repro.surrogate.forest import ExtraTreesRegressor, RandomForestRegressor
    from repro.surrogate.gbrt import GBRTQuantile
    from repro.surrogate.gp import GaussianProcessRegressor
    from repro.surrogate.knn import KNeighborsRegressor
    from repro.surrogate.polynomial import PolynomialRegressor
    from repro.surrogate.tree import DecisionTreeRegressor

    aliases: dict[str, type[SurrogateModel]] = {
        "et": ExtraTreesRegressor,
        "extratrees": ExtraTreesRegressor,
        "rf": RandomForestRegressor,
        "randomforest": RandomForestRegressor,
        "gbrt": GBRTQuantile,
        "gp": GaussianProcessRegressor,
        "kriging": GaussianProcessRegressor,
        "tree": DecisionTreeRegressor,
        "poly": PolynomialRegressor,
        "polynomial": PolynomialRegressor,
        "knn": KNeighborsRegressor,
        "dummy": DummyRegressor,
    }
    try:
        cls = aliases[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown surrogate {name!r}; available: {sorted(aliases)}"
        ) from None
    return cls(**kwargs)
