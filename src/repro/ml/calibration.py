"""Probability calibration — Platt scaling (Platt, 1999).

This is the related-work comparator (Section II.E of the paper): Chawla
et al. used Platt's scaling on the output of a single base classifier to
obtain prediction probabilities.  The paper argues such point-estimate
probabilities are *not* model confidence — a model can emit a confident
sigmoid output on an input it knows nothing about.  Ablation A1 in
DESIGN.md quantifies that claim by comparing Platt-confidence and
ensemble-entropy as unknown-workload detectors.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, clone
from .validation import check_X_y, column_or_1d

__all__ = ["PlattScaler", "CalibratedClassifier"]


class PlattScaler(BaseEstimator):
    """Fit ``P(y=1 | s) = sigmoid(a * s + b)`` to decision scores.

    Uses the Platt target smoothing (t+ = (N+ + 1)/(N+ + 2),
    t- = 1/(N- + 2)) and L-BFGS on the cross-entropy.
    """

    def fit(self, scores, y) -> "PlattScaler":
        """Fit the sigmoid parameters from scores and binary labels."""
        scores = column_or_1d(np.asarray(scores, dtype=float), name="scores")
        y = column_or_1d(y)
        if len(scores) != len(y):
            raise ValueError("scores and y must have the same length.")
        labels = np.unique(y)
        if len(labels) != 2:
            raise ValueError("PlattScaler requires exactly 2 classes.")
        self.classes_ = labels
        positive = y == labels[1]
        n_pos = int(positive.sum())
        n_neg = len(y) - n_pos
        # Platt's smoothed targets guard against overconfident extremes.
        t = np.where(positive, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

        def objective(params: np.ndarray):
            a, b = params
            z = a * scores + b
            # cross-entropy with logits, stable form
            loss = np.mean(np.logaddexp(0.0, z) - t * z)
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
            grad_common = p - t
            return loss, np.array(
                [np.mean(grad_common * scores), np.mean(grad_common)]
            )

        # Local import: scipy.optimize is slow to load, and the fleet
        # imports repro.ml without ever fitting a calibrator.
        from scipy import optimize

        result = optimize.minimize(
            objective, np.array([1.0, 0.0]), jac=True, method="L-BFGS-B"
        )
        self.a_, self.b_ = float(result.x[0]), float(result.x[1])
        return self

    def predict_proba(self, scores) -> np.ndarray:
        """Two-column probability matrix for the fitted classes."""
        scores = column_or_1d(np.asarray(scores, dtype=float), name="scores")
        z = np.clip(self.a_ * scores + self.b_, -500, 500)
        p1 = 1.0 / (1.0 + np.exp(-z))
        return np.column_stack([1.0 - p1, p1])


class CalibratedClassifier(BaseEstimator, ClassifierMixin):
    """Wrap a classifier with held-out Platt scaling.

    The training data is split into a fit part and a calibration part;
    the base model trains on the former and the sigmoid is fitted on the
    latter's decision scores (avoiding the optimistic bias of
    calibrating on training scores).
    """

    def __init__(
        self,
        estimator: BaseEstimator,
        *,
        calibration_fraction: float = 0.25,
        random_state: int | np.random.Generator | None = None,
    ):
        self.estimator = estimator
        self.calibration_fraction = calibration_fraction
        self.random_state = random_state

    def fit(self, X, y) -> "CalibratedClassifier":
        """Fit the base model and its Platt sigmoid."""
        from .model_selection import train_test_split

        X, y = check_X_y(X, y)
        if not 0.0 < self.calibration_fraction < 1.0:
            raise ValueError(
                f"calibration_fraction must be in (0, 1); got {self.calibration_fraction}."
            )
        X_fit, X_cal, y_fit, y_cal = train_test_split(
            X,
            y,
            test_size=self.calibration_fraction,
            random_state=self.random_state,
            stratify=y,
        )
        self.base_estimator_ = clone(self.estimator)
        self.base_estimator_.fit(X_fit, y_fit)
        self.classes_ = self.base_estimator_.classes_
        self.n_features_in_ = X.shape[1]
        scores = self._decision_scores(self.base_estimator_, X_cal)
        self.scaler_ = PlattScaler().fit(scores, y_cal)
        return self

    @staticmethod
    def _decision_scores(model: BaseEstimator, X) -> np.ndarray:
        if hasattr(model, "decision_function"):
            return model.decision_function(X)
        proba = model.predict_proba(X)
        # Convert the positive-class probability to a logit-like score.
        p1 = np.clip(proba[:, 1], 1e-7, 1.0 - 1e-7)
        return np.log(p1 / (1.0 - p1))

    def predict_proba(self, X) -> np.ndarray:
        """Calibrated class probabilities."""
        X = self._check_predict_input(X)
        scores = self._decision_scores(self.base_estimator_, X)
        return self.scaler_.predict_proba(scores)

    def predict(self, X) -> np.ndarray:
        """Labels of the higher calibrated probability."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def confidence(self, X) -> np.ndarray:
        """Max calibrated probability — the 'confidence' the paper warns
        about misconstruing as model uncertainty."""
        return self.predict_proba(X).max(axis=1)
