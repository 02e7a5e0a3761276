"""Tests for the trial runner."""

import numpy as np
import pytest

from repro.experiments.trials import TrialConfig, run_meta_trials, run_trials, trial_error


class TestTrialConfig:
    def test_invalid_condition(self):
        with pytest.raises(ValueError):
            TrialConfig(condition="magic")

    def test_defaults(self):
        cfg = TrialConfig()
        assert cfg.condition == "baseline"
        assert cfg.epsilon_percent == 0.0
        assert cfg.infer_dtype == "float64"

    def test_invalid_infer_dtype(self):
        with pytest.raises(ValueError):
            TrialConfig(condition="ml", infer_dtype="float16")

    def test_infer_dtype_requires_ml_condition(self):
        with pytest.raises(ValueError):
            TrialConfig(condition="baseline", infer_dtype="float32")

    def test_float32_runtime_dtype_accepted(self):
        cfg = TrialConfig(condition="ml", infer_dtype="float32")
        assert cfg.infer_dtype == "float32"

    def test_infer_option_mirrors_match_the_runtime(self):
        # trials.py hand-copies these tuples to avoid importing the infer
        # runtime; this pins the copies to the source of truth.
        import repro.experiments.trials as trials
        import repro.infer as infer

        assert trials.INFER_BACKENDS == infer.INFER_BACKENDS
        assert trials.INFER_DTYPES == infer.PLANNED_DTYPES


class TestTrialError:
    def test_baseline_trial_runs(self, geometry, response):
        err = trial_error(
            geometry, response, np.random.default_rng(0), TrialConfig()
        )
        assert 0.0 <= err <= 180.0

    def test_oracle_conditions_run(self, geometry, response):
        for cond in ("no_background", "true_deta"):
            err = trial_error(
                geometry,
                response,
                np.random.default_rng(1),
                TrialConfig(condition=cond),
            )
            assert 0.0 <= err <= 180.0

    def test_ml_requires_pipeline(self, geometry, response):
        with pytest.raises(ValueError):
            trial_error(
                geometry,
                response,
                np.random.default_rng(2),
                TrialConfig(condition="ml"),
            )

    def test_ml_condition(self, geometry, response, tiny_models):
        err = trial_error(
            geometry,
            response,
            np.random.default_rng(3),
            TrialConfig(condition="ml"),
            ml_pipeline=tiny_models,
        )
        assert 0.0 <= err <= 180.0

    def test_perturbation_applied(self, geometry, response):
        err = trial_error(
            geometry,
            response,
            np.random.default_rng(4),
            TrialConfig(epsilon_percent=10.0),
        )
        assert 0.0 <= err <= 180.0


class TestRunTrials:
    def test_shape_and_range(self, geometry, response):
        errs = run_trials(geometry, response, seed=0, n_trials=3,
                          config=TrialConfig())
        assert errs.shape == (3,)
        assert np.all((errs >= 0) & (errs <= 180))

    def test_reproducible(self, geometry, response):
        a = run_trials(geometry, response, seed=1, n_trials=3,
                       config=TrialConfig())
        b = run_trials(geometry, response, seed=1, n_trials=3,
                       config=TrialConfig())
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, geometry, response):
        a = run_trials(geometry, response, seed=1, n_trials=3,
                       config=TrialConfig())
        b = run_trials(geometry, response, seed=2, n_trials=3,
                       config=TrialConfig())
        assert not np.array_equal(a, b)

    def test_invalid_count(self, geometry, response):
        with pytest.raises(ValueError):
            run_trials(geometry, response, seed=0, n_trials=0,
                       config=TrialConfig())

    def test_meta_trials(self, geometry, response):
        sets = run_meta_trials(
            geometry, response, seed=0, n_trials=2, n_meta=2,
            config=TrialConfig(),
        )
        assert len(sets) == 2
        assert all(s.shape == (2,) for s in sets)
        assert not np.array_equal(sets[0], sets[1])
