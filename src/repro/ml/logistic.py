"""Logistic regression with Newton-Raphson fitting and Wald inference.

Two places in the paper need a proper logistic regression rather than a
boosted classifier:

* the **combined locator model** (Eq. 2) blends a disposition classifier's
  score with its parent major-location classifier's score through a
  logistic regression with coefficients gamma;
* the **Table-5 outage analysis** regresses future DSLAM outage events on
  the number of top-ranked predictions per DSLAM and reports coefficients
  and P-values.

We therefore implement maximum-likelihood logistic regression (IRLS /
Newton-Raphson with a small ridge term for stability) and Wald standard
errors from the inverse Hessian.  A fit keeps its Wald z-scores; the
two-sided normal P-values ``2 * ndtr(-|z|)`` (bit-identical to
``2 * scipy.stats.norm.sf(|z|)``) are computed when read, so a fit whose
P-values nobody reads -- the locator's Eq.-2 blend -- never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LogisticRegressionResult", "fit_logistic_regression"]


@dataclass(frozen=True)
class LogisticRegressionResult:
    """A fitted logistic regression ``P(y=1|x) = sigmoid(intercept + x.w)``.

    Attributes:
        coefficients: fitted weights, one per input column.
        intercept: fitted bias term.
        std_errors: Wald standard errors of the coefficients (same order).
        intercept_std_error: Wald standard error of the intercept.
        z_scores: Wald z-scores of the coefficients (``inf`` where the
            standard error is 0).
        intercept_z_score: Wald z-score of the intercept.
        n_iter: Newton iterations performed.
        converged: whether the gradient tolerance was reached.
        log_likelihood: final (unpenalised) log-likelihood.
    """

    coefficients: np.ndarray
    intercept: float
    std_errors: np.ndarray
    intercept_std_error: float
    z_scores: np.ndarray
    intercept_z_score: float
    n_iter: int
    converged: bool
    log_likelihood: float

    @property
    def p_values(self) -> np.ndarray:
        """Two-sided Wald P-values of the coefficients."""
        return _two_sided_p(self.z_scores)

    @property
    def intercept_p_value(self) -> float:
        """Two-sided Wald P-value of the intercept."""
        return float(_two_sided_p(np.array([self.intercept_z_score]))[0])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Return ``P(y = 1 | x)`` for each row of ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        z = self.intercept + X @ self.coefficients
        return _sigmoid(z)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 labels at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(int)


def _two_sided_p(z: np.ndarray) -> np.ndarray:
    """``2 * P(Z > |z|)`` for a standard normal ``Z``."""
    from scipy.special import ndtr

    return 2.0 * ndtr(-np.abs(z))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def fit_logistic_regression(
    X: np.ndarray,
    y: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-8,
    ridge: float = 1e-8,
) -> LogisticRegressionResult:
    """Fit a binary logistic regression by Newton-Raphson.

    Args:
        X: (n_samples, n_features) design matrix (an intercept column is
            added internally; do not include one).
        y: binary outcomes in {0, 1} (or {-1, +1}, converted).
        max_iter: Newton iteration cap.
        tol: infinity-norm gradient tolerance for convergence.
        ridge: tiny L2 penalty that keeps the Hessian invertible on
            separable or collinear data.

    Returns:
        A :class:`LogisticRegressionResult` with coefficients, Wald
        standard errors, z-scores and (on read) two-sided P-values.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"X must be 1-D or 2-D, got shape {X.shape}")
    y = np.asarray(y, dtype=float)
    if set(np.unique(y).tolist()) <= {-1.0, 1.0} and -1.0 in y:
        y = (y > 0).astype(float)
    if not set(np.unique(y).tolist()) <= {0.0, 1.0}:
        raise ValueError("y must be binary")
    n, k = X.shape
    if y.shape != (n,):
        raise ValueError("y must have one entry per row of X")
    if n == 0:
        raise ValueError("cannot fit on empty data")

    design = np.column_stack([np.ones(n), X])
    beta = np.zeros(k + 1)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        z = design @ beta
        p = _sigmoid(z)
        grad = design.T @ (y - p) - ridge * beta
        if float(np.max(np.abs(grad))) < tol:
            converged = True
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hessian = (design * w[:, None]).T @ design + ridge * np.eye(k + 1)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        # Dampen huge steps that can occur on near-separable data.
        norm = float(np.max(np.abs(step)))
        if norm > 10.0:
            step *= 10.0 / norm
        beta = beta + step

    z = design @ beta
    p = _sigmoid(z)
    w = np.clip(p * (1.0 - p), 1e-12, None)
    hessian = (design * w[:, None]).T @ design + ridge * np.eye(k + 1)
    try:
        covariance = np.linalg.inv(hessian)
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(hessian)
    std = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        z_scores = np.where(std > 0, beta / std, np.inf)

    eps = 1e-12
    log_likelihood = float(np.sum(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))

    return LogisticRegressionResult(
        coefficients=beta[1:].copy(),
        intercept=float(beta[0]),
        std_errors=std[1:].copy(),
        intercept_std_error=float(std[0]),
        z_scores=z_scores[1:].copy(),
        intercept_z_score=float(z_scores[0]),
        n_iter=n_iter,
        converged=converged,
        log_likelihood=log_likelihood,
    )
