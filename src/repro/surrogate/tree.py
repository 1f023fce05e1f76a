"""CART regression tree with exhaustive or randomized split selection.

One implementation serves three estimators:

- ``splitter="best"`` → classic CART (scan every threshold) — used by
  :class:`~repro.surrogate.forest.RandomForestRegressor` and standalone.
- ``splitter="random"`` → one uniform-random threshold per candidate
  feature — the *extremely randomized* split rule of Extra-Trees
  (Geurts et al. 2006), the paper's surrogate of choice.

The tree is stored in parallel arrays (children, feature, threshold, value),
which keeps prediction a tight loop and makes ``apply()`` (leaf indices,
needed by gradient boosting's leaf re-estimation) trivial.

Construction is exact: for one seed the node arrays are, bit for bit,
those of a plain per-feature scan that takes ``ndarray.mean`` and
``((v - mean) ** 2).sum()`` of each side of each candidate split and draws
one scalar ``uniform`` per live feature (see ``_mean_sse`` and ``fit``).
"""

from __future__ import annotations

from typing import Any, Literal

import numpy as np

from repro.errors import ValidationError
from repro.surrogate.base import SurrogateModel, check_fit_inputs

__all__ = ["DecisionTreeRegressor"]

_LEAF = -1


def _mean_sse(v: np.ndarray) -> tuple[float, float]:
    """``v.mean()`` and ``((v - v.mean()) ** 2).sum()``, bit for bit.

    Both sums are ``np.add.reduce`` over the whole compacted side, which is
    pairwise summation; ``np.add.reduceat`` over several sides at once sums
    sequentially and gives different bits. One sample short-cuts to a mean
    of ``v[0] + 0.0`` (``np.add.reduce`` of ``[-0.0]`` is ``+0.0``) and an
    SSE of exactly ``0.0``.
    """
    if len(v) == 1:
        return v[0] + 0.0, 0.0
    mean = np.add.reduce(v) / len(v)
    d = v - mean
    return mean, np.add.reduce(d * d)


def check_max_features(value: Any) -> None:
    """Accept ``None``, ``"sqrt"`` or a positive integer (an integral float too)."""
    if value is None or isinstance(value, str) and value == "sqrt":
        return
    number = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not (number and float(value).is_integer() and value >= 1):
        raise ValidationError(
            f"max_features must be None, 'sqrt' or a positive integer, got {value!r}"
        )


class DecisionTreeRegressor(SurrogateModel):
    """Variance-reduction regression tree.

    Parameters mirror the scikit-learn names where they exist:

    - ``max_depth`` — maximum tree depth (``None`` = unbounded).
    - ``min_samples_split`` — minimum samples to attempt a split.
    - ``min_samples_leaf`` — minimum samples in each child.
    - ``max_features`` — number of features considered per split
      (``None`` = all, ``"sqrt"``, or a positive int).
    - ``splitter`` — ``"best"`` (CART) or ``"random"`` (Extra-Trees rule).
    """

    name = "tree"

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | Literal["sqrt"] | None = None,
        splitter: Literal["best", "random"] = "best",
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if max_depth is not None and max_depth < 1:
            raise ValidationError("max_depth must be >= 1 or None")
        if min_samples_split < 2:
            raise ValidationError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")
        if splitter not in ("best", "random"):
            raise ValidationError(f"unknown splitter {splitter!r}")
        check_max_features(max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self._rng = (
            random_state
            if isinstance(random_state, np.random.Generator)
            else np.random.default_rng(random_state)
        )
        # tree arrays (filled by fit)
        self.children_left_: list[int] = []
        self.children_right_: list[int] = []
        self.feature_: list[int] = []
        self.threshold_: list[float] = []
        self.value_: list[float] = []
        self.n_node_samples_: list[int] = []

    # -- construction -------------------------------------------------------------

    def fit(self, X: Any, y: Any) -> "DecisionTreeRegressor":
        """Grow the tree depth-first, right child first, in one loop.

        Each node gathers its rows once (``Xn``, ``v``) and hands the
        compacted halves to its children; the winning split's sides become
        the children's targets and give their means. The random splitter
        draws every live feature's threshold with one vector ``uniform``
        (after the ``choice`` of candidate features, when ``max_features``
        subsamples), which yields the same values in the same order as one
        scalar draw per feature, and compares all of them in one 2-D mask.
        A node that cannot split is never pushed; it would draw nothing
        from the RNG either way.
        """
        X, y = check_fit_inputs(X, y)
        n_features = self.n_features_ = X.shape[1]
        k = self._n_candidate_features()
        subsample = k < n_features
        features = np.arange(n_features)
        rng = self._rng
        randomized = self.splitter == "random"
        min_leaf = self.min_samples_leaf
        min_split = max(self.min_samples_split, 2 * min_leaf)
        max_depth = np.inf if self.max_depth is None else self.max_depth

        cl = self.children_left_ = [_LEAF]
        cr = self.children_right_ = [_LEAF]
        feat = self.feature_ = [_LEAF]
        thr = self.threshold_ = [np.nan]
        val = self.value_ = [float(_mean_sse(y)[0])]
        nsamp = self.n_node_samples_ = [len(y)]

        def splittable(v: np.ndarray, depth: int) -> bool:
            if len(v) < min_split or depth >= max_depth:
                return False
            values = v.tolist()
            return min(values) != max(values)

        stack = [(X, y, 0, 0)] if splittable(y, 0) else []
        while stack:
            Xn, v, depth, node = stack.pop()
            if subsample:
                features = rng.choice(n_features, size=k, replace=False)
                cols = Xn[:, features]
            else:
                cols = Xn
            lo = np.minimum.reduce(cols)
            hi = np.maximum.reduce(cols)
            live = (lo != hi).nonzero()[0]
            if not len(live):
                continue
            best_j = -1
            if randomized:
                cuts = rng.uniform(lo[live], hi[live])
                masks = cols.T[live] <= cuts[:, None]
                rights = ~masks
                for j in range(len(live)):
                    m = masks[j]
                    left = v[m]
                    right = v[rights[j]]
                    if len(left) < min_leaf or len(right) < min_leaf:
                        continue
                    mean_l, sse_l = _mean_sse(left)
                    mean_r, sse_r = _mean_sse(right)
                    sse = float(sse_l + sse_r)
                    if best_j < 0 or sse < best_sse:
                        best_j, best_sse = j, sse
                        best = (m, left, right, mean_l, mean_r)
                if best_j < 0:
                    continue
                f = int(features[live[best_j]])
                t = float(cuts[best_j])
                m, left, right, mean_l, mean_r = best
            else:
                for j in live:
                    found = self._best_threshold(cols[:, j], v)
                    if found is not None and (best_j < 0 or found[0] < best_sse):
                        best_j, (best_sse, t) = j, found
                if best_j < 0:
                    continue
                f = int(features[best_j])
                m = Xn[:, f] <= t
                left = v[m]
                right = v[~m]
                if len(left) < min_leaf or len(right) < min_leaf:
                    continue
                mean_l = _mean_sse(left)[0]
                mean_r = _mean_sse(right)[0]

            feat[node] = f
            thr[node] = t
            left_id = len(val)
            cl[node] = left_id
            cr[node] = left_id + 1
            cl += (_LEAF, _LEAF)
            cr += (_LEAF, _LEAF)
            feat += (_LEAF, _LEAF)
            thr += (np.nan, np.nan)
            val += (float(mean_l), float(mean_r))
            nsamp += (len(left), len(right))
            depth += 1
            if splittable(left, depth):
                stack.append((Xn.compress(m, axis=0), left, depth, left_id))
            if splittable(right, depth):
                stack.append((Xn.compress(~m, axis=0), right, depth, left_id + 1))
        self._finalize()
        return self

    def _n_candidate_features(self) -> int:
        assert self.n_features_ is not None
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        return min(int(self.max_features), self.n_features_)

    def _best_threshold(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
        """Exhaustive CART scan: minimal total SSE over all thresholds."""
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        n = len(xs)
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        total_sum = csum[-1]
        total_sq = csum2[-1]

        # Valid split positions: after index i (1-based count i+1 on left),
        # honouring min_samples_leaf and distinct x values.
        counts = np.arange(1, n)
        left_sum = csum[:-1]
        left_sq = csum2[:-1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        right_counts = n - counts
        sse = (
            left_sq
            - left_sum**2 / counts
            + right_sq
            - right_sum**2 / right_counts
        )
        valid = (xs[1:] != xs[:-1]) & (counts >= self.min_samples_leaf) & (
            right_counts >= self.min_samples_leaf
        )
        if not valid.any():
            return None
        sse = np.where(valid, sse, np.inf)
        pos = int(np.argmin(sse))
        threshold = float(0.5 * (xs[pos] + xs[pos + 1]))
        return float(sse[pos]), threshold

    def _finalize(self) -> None:
        self._cl = np.asarray(self.children_left_, dtype=np.int64)
        self._cr = np.asarray(self.children_right_, dtype=np.int64)
        self._feat = np.asarray(self.feature_, dtype=np.int64)
        self._thr = np.asarray(self.threshold_, dtype=np.float64)
        self._val = np.asarray(self.value_, dtype=np.float64)
        self._nsamp = np.asarray(self.n_node_samples_, dtype=np.float64)

    # -- incremental updates -------------------------------------------------------

    supports_partial_fit = True

    def partial_fit(self, X: Any, y: Any) -> "DecisionTreeRegressor":
        """Online insertion: route fresh samples to leaves, update leaf means.

        The tree *structure* is frozen — each new sample only shifts the
        running mean of the leaf it lands in, which is the cheap half of a
        Mondrian-style online tree. Structural growth is deferred to the next
        full refit (the optimizer forces one once the dataset has doubled).

        Publish-safety: the updated value array is built on a copy and then
        swapped in with a single attribute assignment, so a concurrent
        ``predict`` sees either the old or the new leaf values, never a torn
        mix of both.
        """
        X, y = check_fit_inputs(X, y)
        if not self.value_:
            raise ValidationError("DecisionTreeRegressor is not fitted yet")
        X = self._check_predict_input(X)
        leaves = self.apply(X)
        new_val = self._val.copy()
        counts = self._nsamp
        for leaf, value in zip(leaves, y):
            n = counts[leaf]
            new_val[leaf] += (value - new_val[leaf]) / (n + 1.0)
            counts[leaf] = n + 1.0
        self._val = new_val  # atomic publish
        for leaf in np.unique(leaves):
            self.value_[int(leaf)] = float(new_val[leaf])
            self.n_node_samples_[int(leaf)] = int(counts[leaf])
        return self

    # -- inference ---------------------------------------------------------------

    def apply(self, X: Any) -> np.ndarray:
        """Leaf node index for each row of ``X``."""
        X = self._check_predict_input(X)
        node = np.zeros(len(X), dtype=np.int64)
        active = self._cl[node] != _LEAF
        while active.any():
            rows = np.nonzero(active)[0]
            nodes = node[rows]
            go_left = X[rows, self._feat[nodes]] <= self._thr[nodes]
            node[rows] = np.where(go_left, self._cl[nodes], self._cr[nodes])
            active = self._cl[node] != _LEAF
        return node

    def predict(
        self, X: Any, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        leaves = self.apply(X)
        mean = self._val[leaves]
        if return_std:
            # A single tree has no ensemble spread; report zeros.
            return mean, np.zeros_like(mean)
        return mean

    @property
    def node_count(self) -> int:
        return len(self.value_)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        depths = np.zeros(self.node_count, dtype=int)
        for node in range(self.node_count):
            left = self.children_left_[node]
            right = self.children_right_[node]
            for child in (left, right):
                if child != _LEAF:
                    depths[child] = depths[node] + 1
        return int(depths.max()) if self.node_count else 0

    def set_leaf_values(self, leaf_values: dict[int, float]) -> None:
        """Overwrite leaf predictions (gradient boosting leaf re-estimation)."""
        for leaf, value in leaf_values.items():
            if self.children_left_[leaf] != _LEAF:
                raise ValidationError(f"node {leaf} is not a leaf")
            self.value_[leaf] = float(value)
        self._finalize()
