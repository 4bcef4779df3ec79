"""Support Vector Machines.

Two implementations are provided:

* :class:`LinearSVC` — primal L2-regularised squared-hinge SVM solved
  with L-BFGS.  Because the primal problem is strictly convex, bagging
  replicas trained on bootstrap resamples land on nearly identical
  hyperplanes — exactly the low-diversity failure mode the paper reports
  for the SVM ensemble ("bagging is unable to generate enough diversity",
  Section V.A).
* :class:`SVC` — kernel SVM (RBF/linear/poly) trained with a simplified
  SMO working-set solver.  Practical for the DVFS-scale datasets
  (thousands of samples); mirrors the paper in that it does not converge
  within budget on the much larger HPC dataset.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import BaseEstimator, ClassifierMixin
from .exceptions import ConvergenceError, ConvergenceWarning
from .metrics.pairwise import linear_kernel, polynomial_kernel, rbf_kernel
from .validation import check_random_state, check_X_y

__all__ = ["LinearSVC", "SVC"]


class LinearSVC(BaseEstimator, ClassifierMixin):
    """Linear SVM minimising squared hinge loss + L2 penalty (primal).

    Parameters mirror :class:`LogisticRegression`: ``C`` is the inverse
    regularisation strength.
    """

    def __init__(
        self,
        *,
        C: float = 1.0,
        max_iter: int = 500,
        tol: float = 1e-6,
        fit_intercept: bool = True,
        random_state: int | np.random.Generator | None = None,
    ):
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None) -> "LinearSVC":
        """Fit the primal squared-hinge problem with L-BFGS."""
        X, y = check_X_y(X, y)
        if sample_weight is not None:
            weights = np.round(np.asarray(sample_weight)).astype(int)
            if np.any(weights < 0):
                raise ValueError("sample_weight must be non-negative.")
            X = np.repeat(X, weights, axis=0)
            y = np.repeat(y, weights, axis=0)
        if self.C <= 0:
            raise ValueError(f"C must be positive; got {self.C}.")
        self.classes_ = np.unique(y)
        if len(self.classes_) != 2:
            raise ValueError("LinearSVC supports binary classification only.")
        self.n_features_in_ = X.shape[1]
        y_signed = np.where(y == self.classes_[1], 1.0, -1.0)
        n_samples, n_features = X.shape
        alpha = 1.0 / (self.C * n_samples)

        def objective(w_full: np.ndarray):
            w = w_full[:n_features]
            b = w_full[n_features] if self.fit_intercept else 0.0
            margins = y_signed * (X @ w + b)
            slack = np.maximum(0.0, 1.0 - margins)
            loss = np.mean(slack**2) + 0.5 * alpha * (w @ w)
            coeff = -2.0 * y_signed * slack / n_samples
            grad_w = X.T @ coeff + alpha * w
            if self.fit_intercept:
                return loss, np.concatenate([grad_w, [coeff.sum()]])
            return loss, grad_w

        rng = check_random_state(self.random_state)
        size = n_features + (1 if self.fit_intercept else 0)
        w0 = rng.normal(scale=1e-3, size=size)
        # Local import: scipy.optimize is slow to load, and the fleet
        # imports repro.ml without ever fitting this model.
        from scipy import optimize

        result = optimize.minimize(
            objective,
            w0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        if not result.success:
            warnings.warn(
                "LinearSVC solver did not fully converge.",
                ConvergenceWarning,
                stacklevel=2,
            )
        self.coef_ = result.x[:n_features][None, :]
        self.intercept_ = np.array(
            [result.x[n_features] if self.fit_intercept else 0.0]
        )
        return self

    def decision_function(self, X) -> np.ndarray:
        """Signed distance to the separating hyperplane."""
        X = self._check_predict_input(X)
        return (X @ self.coef_.T + self.intercept_).ravel()

    def predict(self, X) -> np.ndarray:
        """Predicted class labels."""
        return self.classes_[(self.decision_function(X) > 0).astype(int)]


class SVC(BaseEstimator, ClassifierMixin):
    """Kernel SVM trained with a simplified SMO working-set solver.

    Parameters
    ----------
    C:
        Box constraint on the dual variables.
    kernel:
        ``"rbf"`` (default), ``"linear"`` or ``"poly"``.
    gamma:
        Kernel coefficient; ``"scale"`` uses ``1 / (n_features * X.var())``.
    max_passes:
        Number of consecutive no-progress sweeps before declaring
        convergence.
    max_iter:
        Hard cap on full sweeps over the data.  If exhausted,
        behaviour follows ``on_no_convergence``: ``"warn"`` (keep the
        current model) or ``"raise"`` (:class:`ConvergenceError`) — the
        latter reproduces the paper's "SVM failed to converge using the
        bootstrapped dataset" observation on oversized inputs.
    """

    def __init__(
        self,
        *,
        C: float = 1.0,
        kernel: str = "rbf",
        gamma: float | str = "scale",
        degree: int = 3,
        coef0: float = 1.0,
        tol: float = 1e-3,
        max_passes: int = 3,
        max_iter: int = 100,
        on_no_convergence: str = "warn",
        random_state: int | np.random.Generator | None = None,
    ):
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.tol = tol
        self.max_passes = max_passes
        self.max_iter = max_iter
        self.on_no_convergence = on_no_convergence
        self.random_state = random_state

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = X.var()
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0 / X.shape[1]
        if self.gamma == "auto":
            return 1.0 / X.shape[1]
        gamma = float(self.gamma)
        if gamma <= 0:
            raise ValueError(f"gamma must be positive; got {gamma}.")
        return gamma

    def _kernel_matrix(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        gamma = self._gamma_
        if self.kernel == "rbf":
            return rbf_kernel(X, Y, gamma=gamma)
        if self.kernel == "linear":
            return linear_kernel(X, Y)
        if self.kernel == "poly":
            return polynomial_kernel(
                X, Y, degree=self.degree, gamma=gamma, coef0=self.coef0
            )
        raise ValueError(f"Unknown kernel {self.kernel!r}.")

    def fit(self, X, y, sample_weight=None) -> "SVC":
        """Train dual variables with SMO; stores support vectors only."""
        X, y = check_X_y(X, y)
        if sample_weight is not None:
            weights = np.round(np.asarray(sample_weight)).astype(int)
            if np.any(weights < 0):
                raise ValueError("sample_weight must be non-negative.")
            X = np.repeat(X, weights, axis=0)
            y = np.repeat(y, weights, axis=0)
        if self.C <= 0:
            raise ValueError(f"C must be positive; got {self.C}.")
        self.classes_ = np.unique(y)
        if len(self.classes_) != 2:
            raise ValueError("SVC supports binary classification only.")
        self.n_features_in_ = X.shape[1]
        self._gamma_ = self._resolve_gamma(X)

        y_signed = np.where(y == self.classes_[1], 1.0, -1.0)
        n = len(y_signed)
        K = self._kernel_matrix(X)
        alphas = np.zeros(n)
        b = 0.0
        rng = check_random_state(self.random_state)

        # f(i) cached as K @ (alphas * y) + b is recomputed incrementally.
        errors = -y_signed.copy()  # f(x)=0 initially, E = f - y
        passes = 0
        sweeps = 0
        converged = False
        while passes < self.max_passes:
            if sweeps >= self.max_iter:
                break
            sweeps += 1
            changed = 0
            for i in range(n):
                E_i = errors[i]
                r_i = E_i * y_signed[i]
                if not ((r_i < -self.tol and alphas[i] < self.C) or
                        (r_i > self.tol and alphas[i] > 0)):
                    continue
                # Second-choice heuristic: max |E_i - E_j|.
                j = int(np.argmax(np.abs(errors - E_i)))
                if j == i:
                    j = int(rng.integers(n - 1))
                    if j >= i:
                        j += 1
                if self._smo_step(i, j, K, y_signed, alphas, errors):
                    changed += 1
                    continue
                # Fall back to a random second index.
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                if self._smo_step(i, j, K, y_signed, alphas, errors):
                    changed += 1
            if changed == 0:
                passes += 1
            else:
                passes = 0
        else:
            converged = True

        if not converged:
            message = (
                f"SVC/SMO did not converge within max_iter={self.max_iter} "
                f"sweeps on n={n} samples."
            )
            if self.on_no_convergence == "raise":
                raise ConvergenceError(message)
            warnings.warn(message, ConvergenceWarning, stacklevel=2)

        # Recover the bias from the KKT conditions of free vectors.
        free = (alphas > 1e-8) & (alphas < self.C - 1e-8)
        f_no_bias = K @ (alphas * y_signed)
        if free.any():
            b = float(np.mean(y_signed[free] - f_no_bias[free]))
        else:
            support = alphas > 1e-8
            b = (
                float(np.mean(y_signed[support] - f_no_bias[support]))
                if support.any()
                else 0.0
            )

        support = alphas > 1e-8
        self.support_ = np.flatnonzero(support)
        self.support_vectors_ = X[support]
        self.dual_coef_ = (alphas * y_signed)[support]
        self.intercept_ = np.array([b])
        self.n_iter_ = sweeps
        return self

    def _smo_step(
        self,
        i: int,
        j: int,
        K: np.ndarray,
        y: np.ndarray,
        alphas: np.ndarray,
        errors: np.ndarray,
    ) -> bool:
        """One SMO pair update; returns True when alphas changed."""
        if i == j:
            return False
        a_i_old, a_j_old = alphas[i], alphas[j]
        if y[i] != y[j]:
            low = max(0.0, a_j_old - a_i_old)
            high = min(self.C, self.C + a_j_old - a_i_old)
        else:
            low = max(0.0, a_i_old + a_j_old - self.C)
            high = min(self.C, a_i_old + a_j_old)
        if low >= high:
            return False
        eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
        if eta >= 0:
            return False
        a_j = a_j_old - y[j] * (errors[i] - errors[j]) / eta
        a_j = float(np.clip(a_j, low, high))
        if abs(a_j - a_j_old) < 1e-7 * (a_j + a_j_old + 1e-7):
            return False
        a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
        alphas[i], alphas[j] = a_i, a_j
        # Incremental error update: f changes by the two delta terms.
        delta_i = (a_i - a_i_old) * y[i]
        delta_j = (a_j - a_j_old) * y[j]
        errors += delta_i * K[:, i] + delta_j * K[:, j]
        return True

    def decision_function(self, X) -> np.ndarray:
        """Kernel expansion over the support vectors plus bias."""
        X = self._check_predict_input(X)
        if len(self.support_vectors_) == 0:
            return np.full(X.shape[0], self.intercept_[0])
        K = self._kernel_matrix(X, self.support_vectors_)
        return K @ self.dual_coef_ + self.intercept_[0]

    def predict(self, X) -> np.ndarray:
        """Predicted class labels."""
        return self.classes_[(self.decision_function(X) > 0).astype(int)]
