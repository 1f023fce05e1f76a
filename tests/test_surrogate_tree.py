"""Tests for the CART tree and its Extra-Trees splitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.surrogate import DecisionTreeRegressor, ExtraTreesRegressor, RandomForestRegressor
from repro.surrogate.base import check_fit_inputs


class TestFitInputs:
    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            check_fit_inputs(np.zeros(3), np.zeros(3))  # 1-D X
        with pytest.raises(ValidationError):
            check_fit_inputs(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValidationError):
            check_fit_inputs(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValidationError):
            check_fit_inputs([[np.nan, 1.0]], [1.0])


class TestDecisionTree:
    def test_fits_training_data_exactly_when_unbounded(self, rng):
        X = rng.uniform(size=(50, 2))
        y = rng.normal(size=50)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.predict(X) == pytest.approx(y, abs=1e-12)

    def test_max_depth_limits(self, rng):
        X = rng.uniform(size=(200, 2))
        y = rng.normal(size=200)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert tree.depth <= 3

    def test_min_samples_leaf(self, rng):
        X = rng.uniform(size=(100, 1))
        y = rng.normal(size=100)
        tree = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)
        leaves = tree.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 10

    def test_constant_target_single_leaf(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor().fit(X, np.ones(20))
        assert tree.node_count == 1
        assert tree.predict([[5.0]])[0] == 1.0

    def test_learns_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.predict([[0.2]])[0] == 0.0
        assert tree.predict([[0.9]])[0] == 1.0
        # the split should land near 0.5
        assert abs(tree.threshold_[0] - 0.5) < 0.02

    def test_random_splitter_also_learns(self, rng):
        X = rng.uniform(size=(300, 2))
        y = 2.0 * X[:, 0] + X[:, 1]
        tree = DecisionTreeRegressor(splitter="random", random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.9

    def test_predict_before_fit(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_feature_count_checked(self, rng):
        tree = DecisionTreeRegressor().fit(rng.uniform(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(ValidationError):
            tree.predict([[1.0, 2.0, 3.0]])

    def test_set_leaf_values(self, rng):
        X = rng.uniform(size=(20, 1))
        y = rng.normal(size=20)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        leaves = np.unique(tree.apply(X))
        tree.set_leaf_values({int(leaf): 42.0 for leaf in leaves})
        assert (tree.predict(X) == 42.0).all()

    def test_set_leaf_values_rejects_internal_node(self, rng):
        X = rng.uniform(size=(50, 1))
        y = X[:, 0]
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        if tree.node_count > 1:
            with pytest.raises(ValidationError):
                tree.set_leaf_values({0: 1.0})

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(splitter="weird")
        for bad in ("log2", "auto", 0, -3, 2.5, float("nan"), True):
            with pytest.raises(ValidationError):
                DecisionTreeRegressor(max_features=bad)
            with pytest.raises(ValidationError):
                ExtraTreesRegressor(max_features=bad)
            with pytest.raises(ValidationError):
                RandomForestRegressor(max_features=bad)
        X = np.arange(12.0).reshape(6, 2)
        for good in (None, "sqrt", 1, 2, 5, np.int64(2), 2.0):
            tree = DecisionTreeRegressor(max_features=good, random_state=0).fit(X, X[:, 0])
            assert tree.node_count > 1

    @given(
        n=st.integers(5, 60),
        seed=st.integers(0, 100),
        splitter=st.sampled_from(["best", "random"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_predictions_within_target_range(self, n, seed, splitter):
        """Tree predictions are convex combinations of training targets."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 2))
        y = rng.normal(size=n)
        tree = DecisionTreeRegressor(splitter=splitter, random_state=seed).fit(X, y)
        preds = tree.predict(rng.uniform(size=(30, 2)))
        assert (preds >= y.min() - 1e-9).all()
        assert (preds <= y.max() + 1e-9).all()


def _node_rows(tree: DecisionTreeRegressor, X: np.ndarray) -> dict[int, np.ndarray]:
    """Training rows that reach each node (children always follow parents)."""
    rows = {0: np.arange(len(X))}
    for node in range(tree.node_count):
        if node not in rows or tree._cl[node] == -1:
            continue
        idx = rows[node]
        go_left = X[idx, tree._feat[node]] <= tree._thr[node]
        rows[int(tree._cl[node])] = idx[go_left]
        rows[int(tree._cr[node])] = idx[~go_left]
    return rows


@st.composite
def _fitted_trees(draw):
    """A tree fitted on tie-heavy or continuous data, with its training set."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    if draw(st.booleans()):
        X = np.round(X * 4.0) / 4.0  # tied values, often constant features
    y = rng.normal(size=n)
    y_kind = draw(st.sampled_from(["normal", "rounded", "signed-zero"]))
    if y_kind == "rounded":
        y = np.round(y)  # pure nodes
    elif y_kind == "signed-zero":
        y = np.where(y < 0.0, -0.0, np.round(y))
    tree = DecisionTreeRegressor(
        splitter=draw(st.sampled_from(["best", "random"])),
        max_features=draw(st.sampled_from([None, "sqrt", 1, 2])),
        min_samples_leaf=draw(st.integers(1, 3)),
        max_depth=draw(st.sampled_from([None, 1, 2, 4])),
        random_state=draw(st.integers(0, 1000)),
    ).fit(X, y)
    return tree, X, y


class TestFittedTreeInvariants:
    @given(case=_fitted_trees())
    @settings(max_examples=60, deadline=None)
    def test_node_counts_add_up(self, case):
        tree, X, _ = case
        rows = _node_rows(tree, X)
        assert tree._nsamp[0] == len(X)
        for node in range(tree.node_count):
            assert tree._nsamp[node] == len(rows[node])
            if tree._cl[node] != -1:
                children = tree._nsamp[tree._cl[node]] + tree._nsamp[tree._cr[node]]
                assert tree._nsamp[node] == children

    @given(case=_fitted_trees())
    @settings(max_examples=60, deadline=None)
    def test_thresholds_lie_within_node_range(self, case):
        """Every threshold is in ``[min, max)`` of its node's feature values."""
        tree, X, _ = case
        rows = _node_rows(tree, X)
        for node in np.flatnonzero(tree._cl != -1):
            x = X[rows[node], tree._feat[node]]
            assert x.min() <= tree._thr[node] < x.max()

    @given(case=_fitted_trees())
    @settings(max_examples=60, deadline=None)
    def test_leaf_values_are_exact_means(self, case):
        """Each leaf holds ``np.mean`` of the training targets ``apply`` routes to it."""
        tree, X, y = case
        leaves = tree.apply(X)
        assert set(leaves.tolist()) == set(np.flatnonzero(tree._cl == -1).tolist())
        for leaf in np.unique(leaves):
            expected = np.mean(y[leaves == leaf])
            assert tree._val[leaf].tobytes() == expected.tobytes()
