"""Tests for feature scoring and selection."""

import numpy as np
import pytest

from repro.ml import SelectKBest, mutual_info_classif


def _informative_data(seed=0, n=300):
    """Features 0-1 informative, 2-3 pure noise."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = np.column_stack(
        [
            y * 2.0 + rng.normal(scale=0.5, size=n),
            -y * 1.5 + rng.normal(scale=0.5, size=n),
            rng.normal(size=n),
            rng.normal(size=n),
        ]
    )
    return X, y


class TestMutualInfo:
    def test_informative_score_higher(self):
        X, y = _informative_data(seed=1)
        scores = mutual_info_classif(X, y)
        assert scores[0] > scores[2] + 0.1

    def test_nonnegative(self):
        X, y = _informative_data(seed=2)
        assert np.all(mutual_info_classif(X, y) >= 0)

    def test_independent_feature_near_zero(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2000, 1))
        y = rng.integers(0, 2, size=2000)
        assert mutual_info_classif(X, y)[0] < 0.05

    def test_invalid_bins(self):
        X, y = _informative_data()
        with pytest.raises(ValueError):
            mutual_info_classif(X, y, n_bins=1)


class TestSelectKBest:
    def test_keeps_informative_features(self):
        X, y = _informative_data(seed=4)
        selector = SelectKBest(mutual_info_classif, k=2).fit(X, y)
        np.testing.assert_array_equal(selector.get_support(indices=True), [0, 1])

    def test_transform_shape(self):
        X, y = _informative_data(seed=5)
        Z = SelectKBest(mutual_info_classif, k=3).fit_transform(X, y)
        assert Z.shape == (len(y), 3)

    def test_k_all(self):
        X, y = _informative_data(seed=6)
        Z = SelectKBest(mutual_info_classif, k="all").fit_transform(X, y)
        assert Z.shape == X.shape

    def test_custom_score_func(self):
        # Scores that favour the noise columns: the selection must follow
        # the callable, not the data.
        X, y = _informative_data(seed=7)
        selector = SelectKBest(lambda X, y: np.arange(X.shape[1]), k=2).fit(X, y)
        assert set(selector.get_support(indices=True)) == {2, 3}

    def test_invalid_k(self):
        X, y = _informative_data()
        with pytest.raises(ValueError):
            SelectKBest(mutual_info_classif, k=0).fit(X, y)
        with pytest.raises(ValueError):
            SelectKBest(mutual_info_classif, k=100).fit(X, y)

    def test_transform_feature_mismatch(self):
        X, y = _informative_data()
        selector = SelectKBest(mutual_info_classif, k=2).fit(X, y)
        with pytest.raises(ValueError):
            selector.transform(X[:, :2])

