"""Maximum-likelihood fits and model comparison.

The paper's central statistical reading of Fig. 1 is that contact and
inter-contact times follow "a first power-law phase and an exponential
cut-off phase".  The model behind that phrase is the *truncated power
law* ``p(x) ~ x^{-alpha} * exp(-lambda x)``; this module fits it by
maximum likelihood alongside the pure power-law, pure exponential and
lognormal alternatives, and compares them by AIC so experiments can
assert "truncated power law beats pure exponential and pure power law"
— the shape claim — without relying on visual inspection.

scipy is imported inside the functions that use it.  This module sits
on the import path of ``repro.core`` and so of every process-pool
worker, where a module-level scipy import cost several hundred
milliseconds of cold start that no pipeline task needs
(``tests/unit/test_import_budget.py`` keeps it off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit above a threshold ``xmin``."""

    model: str
    params: dict[str, float]
    xmin: float
    n: int
    log_likelihood: float
    cdf: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    @property
    def n_params(self) -> int:
        """Number of free parameters of the model."""
        return len(self.params)

    @property
    def aic(self) -> float:
        """Akaike information criterion (lower is better)."""
        return 2.0 * self.n_params - 2.0 * self.log_likelihood

    def ks(self, sample: Sequence[float]) -> float:
        """Kolmogorov-Smirnov distance of the fit to a sample tail."""
        tail = _tail(sample, self.xmin)
        return ks_distance(tail, self.cdf)


def _tail(sample: Iterable[float], xmin: float) -> np.ndarray:
    """Sorted observations at or above ``xmin``."""
    values = np.asarray(list(sample), dtype=float)
    tail = np.sort(values[values >= xmin])
    if tail.size < 2:
        raise ValueError(f"need at least 2 observations >= xmin={xmin}, got {tail.size}")
    return tail


def ks_distance(sample: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup-distance between a sample's ECDF and a model CDF."""
    values = np.sort(np.asarray(list(sample), dtype=float))
    if values.size == 0:
        raise ValueError("cannot compute KS distance of an empty sample")
    n = values.size
    model = np.asarray(cdf(values), dtype=float)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(upper - model), np.abs(model - lower))))


def fit_exponential(sample: Sequence[float], xmin: float | None = None) -> FitResult:
    """Shifted exponential MLE: ``p(x) = lam * exp(-lam (x - xmin))``."""
    values = np.asarray(list(sample), dtype=float)
    if xmin is None:
        xmin = float(values.min())
    tail = _tail(values, xmin)
    excess_mean = float(tail.mean() - xmin)
    if excess_mean <= 0:
        raise ValueError("sample is degenerate at xmin; exponential fit undefined")
    lam = 1.0 / excess_mean
    loglik = tail.size * np.log(lam) - lam * float((tail - xmin).sum())

    def cdf(x: np.ndarray) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        return np.where(x_arr < xmin, 0.0, 1.0 - np.exp(-lam * (x_arr - xmin)))

    return FitResult("exponential", {"rate": lam}, float(xmin), tail.size, float(loglik), cdf)


def fit_power_law(sample: Sequence[float], xmin: float | None = None) -> FitResult:
    """Continuous Pareto MLE: ``p(x) ~ x^{-alpha}`` for ``x >= xmin``."""
    values = np.asarray(list(sample), dtype=float)
    if xmin is None:
        positive = values[values > 0]
        if positive.size == 0:
            raise ValueError("power-law fit needs positive observations")
        xmin = float(positive.min())
    if xmin <= 0:
        raise ValueError(f"xmin must be positive for a power law, got {xmin}")
    tail = _tail(values, xmin)
    log_ratio = float(np.log(tail / xmin).sum())
    if log_ratio <= 0:
        raise ValueError("sample is degenerate at xmin; power-law fit undefined")
    alpha = 1.0 + tail.size / log_ratio
    loglik = (
        tail.size * np.log((alpha - 1.0) / xmin)
        - alpha * float(np.log(tail / xmin).sum())
    )

    def cdf(x: np.ndarray) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail_prob = np.power(np.maximum(x_arr, xmin) / xmin, 1.0 - alpha)
        return np.where(x_arr < xmin, 0.0, 1.0 - tail_prob)

    return FitResult("power_law", {"alpha": alpha}, float(xmin), tail.size, float(loglik), cdf)


def fit_lognormal(sample: Sequence[float], xmin: float | None = None) -> FitResult:
    """Lognormal MLE on the tail above ``xmin`` (untruncated likelihood).

    The fit uses the plain lognormal density renormalized over
    ``[xmin, inf)``, matching how the other tail models are treated.
    """
    values = np.asarray(list(sample), dtype=float)
    if xmin is None:
        positive = values[values > 0]
        if positive.size == 0:
            raise ValueError("lognormal fit needs positive observations")
        xmin = float(positive.min())
    if xmin <= 0:
        raise ValueError(f"xmin must be positive for a lognormal, got {xmin}")
    tail = _tail(values, xmin)
    logs = np.log(tail)

    def negloglik(theta: np.ndarray) -> float:
        mu, sigma = theta
        if sigma <= 0:
            return np.inf
        norm = 1.0 - _lognorm_cdf(xmin, mu, sigma)
        if norm <= 0:
            return np.inf
        dens = (
            -np.log(tail * sigma * np.sqrt(2.0 * np.pi))
            - (logs - mu) ** 2 / (2.0 * sigma**2)
        )
        return float(-(dens.sum() - tail.size * np.log(norm)))

    from scipy import optimize

    start = np.array([logs.mean(), max(logs.std(), 1e-3)])
    result = optimize.minimize(negloglik, start, method="Nelder-Mead")
    mu, sigma = float(result.x[0]), float(abs(result.x[1]))
    norm = 1.0 - _lognorm_cdf(xmin, mu, sigma)

    def cdf(x: np.ndarray) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        raw = (
            _lognorm_cdf(np.maximum(x_arr, xmin), mu, sigma) - _lognorm_cdf(xmin, mu, sigma)
        ) / norm
        return np.where(x_arr < xmin, 0.0, raw)

    return FitResult(
        "lognormal",
        {"mu": mu, "sigma": sigma},
        float(xmin),
        tail.size,
        float(-result.fun),
        cdf,
    )


def _lognorm_cdf(x: np.ndarray | float, mu: float, sigma: float) -> np.ndarray | float:
    from scipy import special

    return 0.5 * (1.0 + special.erf((np.log(x) - mu) / (sigma * np.sqrt(2.0))))


def fit_truncated_power_law(
    sample: Sequence[float],
    xmin: float | None = None,
) -> FitResult:
    """MLE for ``p(x) = C * x^{-alpha} * exp(-lam x)`` on ``x >= xmin``.

    This is the "power-law phase + exponential cut-off" model the paper
    reads off Fig. 1.  The normalizing constant is evaluated by
    numerical quadrature, which is robust for the alpha < 1 regimes
    where the incomplete-gamma closed form misbehaves.
    """
    values = np.asarray(list(sample), dtype=float)
    if xmin is None:
        positive = values[values > 0]
        if positive.size == 0:
            raise ValueError("truncated power-law fit needs positive observations")
        xmin = float(positive.min())
    if xmin <= 0:
        raise ValueError(f"xmin must be positive, got {xmin}")
    from scipy import integrate, optimize

    tail = _tail(values, xmin)
    sum_log = float(np.log(tail).sum())
    sum_x = float(tail.sum())
    n = tail.size

    def log_norm(alpha: float, lam: float) -> float:
        # Z = integral_{xmin}^{inf} x^{-alpha} e^{-lam x} dx, computed in
        # a scaled form to stay finite for large lam * xmin.
        def integrand(u: float) -> float:
            x = xmin + u
            return (x / xmin) ** (-alpha) * np.exp(-lam * u)

        value, _err = integrate.quad(integrand, 0.0, np.inf, limit=200)
        if value <= 0:
            return np.inf
        # Z = xmin^{-alpha} e^{-lam xmin} * value
        return -alpha * np.log(xmin) - lam * xmin + np.log(value)

    def negloglik(theta: np.ndarray) -> float:
        alpha, lam = theta
        if lam <= 0 or alpha < 0:
            return np.inf
        ln_z = log_norm(alpha, lam)
        if not np.isfinite(ln_z):
            return np.inf
        return float(n * ln_z + alpha * sum_log + lam * sum_x)

    # Seed from the pure fits: power-law alpha and exponential rate.
    alpha0 = max(fit_power_law(tail, xmin).params["alpha"] - 0.5, 0.1)
    lam0 = fit_exponential(tail, xmin).params["rate"] * 0.5
    result = optimize.minimize(
        negloglik,
        np.array([alpha0, max(lam0, 1e-9)]),
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-6, "maxiter": 2000},
    )
    alpha, lam = float(result.x[0]), float(result.x[1])
    ln_z = log_norm(alpha, lam)

    def cdf(x: np.ndarray) -> np.ndarray:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x_arr)
        for i, xi in enumerate(x_arr):
            if xi <= xmin:
                out[i] = 0.0
                continue

            def integrand(u: float) -> float:
                point = xmin + u
                return (point / xmin) ** (-alpha) * np.exp(-lam * u)

            partial, _err = integrate.quad(integrand, 0.0, xi - xmin, limit=200)
            total = np.exp(ln_z + alpha * np.log(xmin) + lam * xmin)
            out[i] = min(partial / total, 1.0) if total > 0 else 1.0
        return out if np.asarray(x).ndim else float(out[0])

    return FitResult(
        "truncated_power_law",
        {"alpha": alpha, "rate": lam},
        float(xmin),
        n,
        float(-result.fun),
        cdf,
    )


def compare_fits(
    sample: Sequence[float],
    xmin: float | None = None,
    models: Sequence[str] = ("power_law", "exponential", "truncated_power_law", "lognormal"),
) -> list[FitResult]:
    """Fit the requested models on a common tail, best AIC first.

    When ``xmin`` is omitted it defaults to the smallest positive
    observation so every model sees the same data.
    """
    values = np.asarray(list(sample), dtype=float)
    if xmin is None:
        positive = values[values > 0]
        if positive.size == 0:
            raise ValueError("model comparison needs positive observations")
        xmin = float(positive.min())
    fitters = {
        "power_law": fit_power_law,
        "exponential": fit_exponential,
        "truncated_power_law": fit_truncated_power_law,
        "lognormal": fit_lognormal,
    }
    unknown = set(models) - set(fitters)
    if unknown:
        raise ValueError(f"unknown models: {sorted(unknown)}")
    results = [fitters[name](values, xmin) for name in models]
    results.sort(key=lambda fit: fit.aic)
    return results
