"""Tests for acquisitions and the ask/tell Bayesian optimizer."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.bayesopt import (
    Integer,
    Optimizer,
    Real,
    Space,
    expected_improvement,
    lower_confidence_bound,
    probability_of_improvement,
)
from repro.errors import OptimizationError, ValidationError


class TestAcquisitions:
    def test_ei_zero_without_hope(self):
        mu = np.array([10.0])
        std = np.array([1e-9])
        assert expected_improvement(mu, std, y_best=1.0)[0] == pytest.approx(0.0, abs=1e-6)

    def test_ei_positive_when_below_best(self):
        assert expected_improvement(np.array([0.0]), np.array([0.5]), y_best=1.0)[0] > 0.5

    def test_ei_grows_with_std_at_same_mean(self):
        mu = np.array([1.0, 1.0])
        std = np.array([0.1, 2.0])
        ei = expected_improvement(mu, std, y_best=1.0)
        assert ei[1] > ei[0]

    def test_pi_is_probability(self):
        pi = probability_of_improvement(np.array([0.0, 5.0]), np.array([1.0, 1.0]), y_best=1.0)
        assert ((pi >= 0) & (pi <= 1)).all()
        assert pi[0] > pi[1]

    def test_lcb_prefers_low_mean_high_std(self):
        acq = lower_confidence_bound(np.array([1.0, 1.0]), np.array([0.1, 1.0]), kappa=2.0)
        assert acq[1] > acq[0]

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            expected_improvement(np.zeros(3), np.zeros(2), 0.0)

    def test_ei_and_pi_bits_equal_scipy_stats_norm(self):
        """The acquisitions skip ``scipy.stats``, but not one bit changes."""
        rng = np.random.default_rng(20211)
        for _ in range(100):  # 100 y_best values x 1000 points = 1e5 draws
            y_best = float(rng.normal(0.0, 10.0))
            mu = rng.normal(y_best, 10.0 ** rng.uniform(-3, 2), size=1000)
            std = 10.0 ** rng.uniform(-14, 3, size=1000)  # below 1e-12 is clipped
            for xi in (0.0, 0.01):
                sigma = np.maximum(std, 1e-12)
                improvement = y_best - xi - mu
                z = improvement / sigma
                ei = improvement * stats.norm.cdf(z) + sigma * stats.norm.pdf(z)
                pi = stats.norm.cdf(z)
                got_ei = expected_improvement(mu, std, y_best, xi)
                got_pi = probability_of_improvement(mu, std, y_best, xi)
                assert got_ei.tobytes() == ei.tobytes()
                assert got_pi.tobytes() == pi.tobytes()


class TestOptimizer:
    def _space(self):
        return Space([Real(-2.0, 2.0, name="a"), Real(-2.0, 2.0, name="b")])

    @staticmethod
    def _quadratic(x):
        return (x[0] - 0.5) ** 2 + (x[1] + 1.0) ** 2

    @pytest.mark.parametrize("estimator", ["ET", "GP", "RF"])
    def test_beats_initial_design(self, estimator):
        opt = Optimizer(
            self._space(),
            base_estimator=estimator,
            n_initial_points=8,
            acq_func="EI",
            random_state=0,
            acq_n_candidates=500,
        )
        result = opt.run(self._quadratic, 32)
        assert result.fun < result.best_after(8) + 1e-12
        assert result.fun < 0.35

    def test_gp_hedge_runs(self):
        opt = Optimizer(
            self._space(), base_estimator="ET", n_initial_points=6,
            acq_func="gp_hedge", random_state=1, acq_n_candidates=300,
        )
        result = opt.run(self._quadratic, 20)
        assert result.fun < 0.5
        assert (opt._gains >= 0).all()

    def test_initial_points_use_generator(self):
        opt = Optimizer(
            self._space(), n_initial_points=5, initial_point_generator="sobol", random_state=0
        )
        points = [opt.ask() for _ in range(5)]
        assert len(points) == 5
        assert len({tuple(p) for p in points}) == 5

    def test_ask_tell_async_pending(self):
        """Multiple asks before any tell must return distinct points."""
        opt = Optimizer(self._space(), n_initial_points=3, random_state=0)
        pending = [opt.ask() for _ in range(6)]
        assert len({tuple(np.round(p, 9)) for p in pending}) == 6
        for p in pending:
            opt.tell(p, self._quadratic(p))
        assert len(opt.yi) == 6
        assert not opt._pending

    def test_tell_quarantines_nonfinite(self):
        """A NaN tell is recorded (never re-suggested) but poisons nothing:
        later asks still return finite candidates and the incumbent ignores
        the quarantined value."""
        opt = Optimizer(self._space(), n_initial_points=3, random_state=0)
        x = opt.ask()
        opt.tell(x, float("nan"))
        assert len(opt.yi) == 1
        assert opt._n_finite == 0
        for _ in range(8):
            x = opt.ask()
            opt.tell(x, self._quadratic(x))
        x = opt.ask()
        opt.tell(x, float("inf"))
        # model-based asks after non-finite tells stay finite
        x = opt.ask()
        assert np.isfinite(np.asarray(x, dtype=float)).all()
        result = opt.result()
        assert math.isfinite(result.fun)
        assert result.n_evaluations == 10

    def test_result_requires_a_finite_tell(self):
        opt = Optimizer(self._space(), n_initial_points=2, random_state=0)
        opt.tell(opt.ask(), float("nan"))
        with pytest.raises(OptimizationError):
            opt.result()

    def test_result_before_tell(self):
        opt = Optimizer(self._space())
        with pytest.raises(OptimizationError):
            opt.result()

    def test_tell_clears_pending_for_integer_dims(self):
        """Regression: integer decoding collapses unit coords, so tell()
        must match pending suggestions by decoded point — stale pending
        entries would otherwise pile up constant-liar fantasies."""
        space = Space([Integer(0, 20, name="a")])
        opt = Optimizer(space, base_estimator="ET", n_initial_points=4,
                        acq_func="EI", random_state=0, acq_n_candidates=300)
        for _ in range(12):
            x = opt.ask()
            opt.tell(x, float((x[0] - 13) ** 2))
        assert not opt._pending
        assert opt.result().fun <= 4.0

    def test_integer_space_dedup(self):
        """Tiny integer spaces: asks must not repeat forever."""
        space = Space([Integer(0, 2, name="k")])
        opt = Optimizer(space, n_initial_points=2, acq_func="EI", random_state=0,
                        acq_n_candidates=50)
        seen = []
        for _ in range(6):
            x = opt.ask()
            seen.append(x[0])
            opt.tell(x, float(x[0]))
        assert set(seen) <= {0, 1, 2}

    def test_result_tracks_history(self):
        opt = Optimizer(self._space(), n_initial_points=4, random_state=0)
        result = opt.run(self._quadratic, 10)
        assert result.n_evaluations == 10
        assert len(result.x_iters) == 10
        assert result.fun == min(result.func_vals)
        assert result.to_dict()["fun"] == result.fun

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            Optimizer(self._space(), n_initial_points=0)
        with pytest.raises(ValidationError):
            Optimizer(self._space(), acq_func="UCB-magic")
        with pytest.raises(ValidationError):
            Optimizer(self._space(), lie_strategy="cl_median")

    def test_tell_is_lazy_and_result_matches(self):
        """tell() no longer rebuilds the result; result() serves the cache."""
        opt = Optimizer(self._space(), n_initial_points=4, random_state=0)
        assert opt.tell(opt.ask(), 1.0) is None
        for _ in range(5):
            x = opt.ask()
            opt.tell(x, self._quadratic(x))
        result = opt.result()
        assert result.n_evaluations == 6
        assert result.fun == min(result.func_vals)
        assert result.x == result.x_iters[result.func_vals.index(result.fun)]

    def test_callable_base_estimator(self):
        from repro.surrogate import KNeighborsRegressor

        opt = Optimizer(
            self._space(),
            base_estimator=lambda: KNeighborsRegressor(3),
            n_initial_points=5,
            acq_func="EI",
            random_state=0,
            acq_n_candidates=200,
        )
        result = opt.run(self._quadratic, 15)
        assert result.fun < 1.0


class _CountingFactory:
    """Surrogate factory that counts how many models were fitted."""

    def __init__(self):
        from repro.surrogate import KNeighborsRegressor

        self.fits = 0
        self._cls = KNeighborsRegressor

    def __call__(self):
        self.fits += 1
        return self._cls(3)


class TestBatchedAsk:
    def _space(self):
        return Space([Real(-2.0, 2.0, name="a"), Real(-2.0, 2.0, name="b")])

    def test_batch_points_distinct_and_pending(self):
        opt = Optimizer(self._space(), n_initial_points=3, random_state=0,
                        acq_n_candidates=200)
        batch = opt.ask(8)
        assert len(batch) == 8
        assert len({tuple(np.round(p, 9)) for p in batch}) == 8
        assert len(opt._pending) == 8
        for p in batch:
            opt.tell(p, float(p[0] ** 2 + p[1] ** 2))
        assert not opt._pending

    def test_batch_fits_surrogate_once(self):
        factory = _CountingFactory()
        opt = Optimizer(self._space(), base_estimator=factory, n_initial_points=3,
                        acq_func="EI", random_state=0, acq_n_candidates=200)
        for _ in range(3):
            x = opt.ask()
            opt.tell(x, float(x[0] ** 2))
        before = factory.fits
        opt.ask(6)
        assert factory.fits == before + 1

    def test_refit_throttle_bounds_fits(self):
        factory = _CountingFactory()
        opt = Optimizer(self._space(), base_estimator=factory, n_initial_points=3,
                        acq_func="EI", random_state=0, acq_n_candidates=200,
                        refit_every=5)
        for _ in range(23):
            x = opt.ask()
            opt.tell(x, float(x[0] ** 2))
        # 20 model-phase asks with refits gated to every 5 fresh observations
        # (plus the staleness override) must fit far fewer than 20 models.
        assert factory.fits <= 8

    def test_model_history_capped_and_opt_in(self):
        opt = Optimizer(self._space(), n_initial_points=3, acq_func="EI",
                        random_state=0, acq_n_candidates=100)
        for _ in range(8):
            x = opt.ask()
            opt.tell(x, float(x[0] ** 2))
        assert opt.models == []  # default: flat memory, nothing retained
        kept = Optimizer(self._space(), n_initial_points=3, acq_func="EI",
                         random_state=0, acq_n_candidates=100, keep_models=2)
        for _ in range(8):
            x = kept.ask()
            kept.tell(x, float(x[0] ** 2))
        assert 1 <= len(kept.models) <= 2

    def test_invalid_batch_and_params(self):
        with pytest.raises(ValidationError):
            Optimizer(self._space()).ask(0)
        with pytest.raises(ValidationError):
            Optimizer(self._space(), refit_every=0)
        with pytest.raises(ValidationError):
            Optimizer(self._space(), keep_models=-1)


class TestPendingMatch:
    """Regression tests for _pop_pending (close points, representation drift)."""

    def test_nearest_unit_point_wins_over_first(self):
        space = Space([Real(0.0, 1.0, name="a")])
        opt = Optimizer(space, n_initial_points=1, random_state=0)
        far = np.array([0.5])
        near = np.array([0.5 + 4e-7])
        opt._pending = [
            (far, [0.5], "EI"),
            (near, [0.5 + 4e-7], "PI"),
        ]
        # Told point sits closest to `near`, but within atol of both; the
        # old first-allclose scan would pop `far` and misattribute the gain.
        opt.tell([0.5 + 4.2e-7], 1.0)
        assert len(opt._pending) == 1
        assert opt._pending[0][2] == "EI"

    def test_tuple_and_numpy_representation_drift(self):
        space = Space([Real(0.0, 1.0, name="a"), Integer(1, 9, name="b")])
        opt = Optimizer(space, n_initial_points=2, random_state=0)
        x = opt.ask()
        opt.tell((np.float64(x[0]), float(x[1])), 0.5)  # tuple + int→float drift
        assert not opt._pending
        assert opt.result().n_evaluations == 1

    def test_exact_decoded_match_beats_unit_distance(self):
        space = Space([Integer(0, 20, name="k")])
        opt = Optimizer(space, n_initial_points=1, random_state=0)
        # Two pending entries decoding to different integers whose unit
        # coords are far from the told slice-centre: exact match must win.
        opt._pending = [
            (np.array([0.21]), [4], "LCB"),
            (np.array([0.40]), [8], "EI"),
        ]
        opt.tell([8], 3.0)
        assert len(opt._pending) == 1
        assert opt._pending[0][2] == "LCB"


class TestAskFallbackDedup:
    """The initial-design wrap and random fallback must respect taken points."""

    def test_replayed_design_points_not_reasked(self):
        space = Space([Real(0.0, 1.0, name="a"), Real(0.0, 1.0, name="b")])
        probe = Optimizer(space, n_initial_points=4, random_state=7)
        design = [probe.ask() for _ in range(4)]
        opt = Optimizer(space, n_initial_points=4, random_state=7)
        # Resume replay: the first two design points were already evaluated.
        opt.tell(design[0], 1.0)
        opt.tell(design[1], 2.0)
        nxt = opt.ask()
        for replayed in design[:2]:
            assert np.max(np.abs(np.asarray(nxt) - np.asarray(replayed))) > 1e-6

    def test_random_fallback_distinct_after_design_exhausted(self):
        space = Space([Real(0.0, 1.0, name="a"), Real(0.0, 1.0, name="b")])
        opt = Optimizer(space, n_initial_points=2, random_state=0)
        points = [opt.ask() for _ in range(8)]  # 2 design + 6 random fallback
        assert len({tuple(np.round(p, 6)) for p in points}) == 8


class TestHedgeAccounting:
    def _told_initial(self, opt, n=4):
        for _ in range(n):
            x = opt.ask()
            opt.tell(x, 1.0)

    def test_tell_unasked_point_leaves_gains_untouched(self):
        """Resume replay tells points that were never asked this session."""
        space = Space([Real(0.0, 1.0, name="a")])
        opt = Optimizer(space, n_initial_points=2, random_state=0)
        opt.tell([0.25], 0.9)
        opt.tell([0.75], 0.1)
        assert np.all(opt._gains == 0.0)
        assert opt.result().fun == 0.1

    def test_improving_hedge_tell_updates_one_gain(self):
        space = Space([Real(0.0, 1.0, name="a"), Real(0.0, 1.0, name="b")])
        opt = Optimizer(space, n_initial_points=2, acq_func="gp_hedge",
                        random_state=3, acq_n_candidates=100)
        self._told_initial(opt, 2)
        x = opt.ask()
        opt.tell(x, 0.0)  # strict improvement over the 1.0 incumbents
        assert float(opt._gains.sum()) == pytest.approx(1.0)
        assert (opt._gains > 0).sum() == 1

    def test_batched_hedge_asks_account_gains(self):
        space = Space([Real(0.0, 1.0, name="a"), Real(0.0, 1.0, name="b")])
        opt = Optimizer(space, n_initial_points=2, acq_func="gp_hedge",
                        random_state=5, acq_n_candidates=100)
        self._told_initial(opt, 2)
        batch = opt.ask(4)
        assert len(opt._pending) == 4
        for i, x in enumerate(batch):
            opt.tell(x, 0.5 - 0.1 * i)
        assert not opt._pending
        assert float(opt._gains.sum()) > 0.0
        assert np.all(opt._gains >= 0.0)
