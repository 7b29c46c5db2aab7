"""Polar inverse-CDF samplers for planar noise distributions.

Both mechanisms in the paper draw planar noise in polar coordinates
(Algorithm 3): the angle is uniform on [0, 2*pi) and the radius follows
the distribution's radial marginal, sampled by inverting its CDF.

* Isotropic planar Gaussian: the radius is Rayleigh(sigma), with CDF
  ``F(r) = 1 - exp(-r^2 / (2 sigma^2))`` (paper Eq. 15).
* Planar Laplace (geo-IND): the radius has CDF
  ``C_eps(r) = 1 - (1 + eps r) e^{-eps r}``, inverted with the
  Lambert-W function's -1 branch, as in Andres et al. 2013.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import lambertw

#: Below this quantile level the planar-Laplace inversion switches from
#: Lambert-W to its branch-point series (better conditioned near p = 0).
_SMALL_P_SERIES_THRESHOLD = 1e-6

__all__ = [
    "rayleigh_quantile",
    "rayleigh_cdf",
    "rayleigh_radius_from_uniform",
    "sample_gaussian_noise",
    "planar_laplace_radial_cdf",
    "planar_laplace_radial_quantile",
    "planar_laplace_radius_from_uniform",
    "sample_planar_laplace_noise",
    "polar_to_cartesian",
]


def rayleigh_cdf(r: np.ndarray, sigma: float) -> np.ndarray:
    """CDF of the radial distance of an isotropic planar Gaussian (Eq. 15)."""
    r = np.asarray(r, dtype=float)
    return 1.0 - np.exp(-(r * r) / (2.0 * sigma * sigma))


def rayleigh_quantile(p: float, sigma: float) -> float:
    """Inverse of :func:`rayleigh_cdf`: ``r = sigma * sqrt(-2 ln(1 - p))``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"quantile level must be in [0, 1), got {p}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return sigma * math.sqrt(-2.0 * math.log1p(-p))


def polar_to_cartesian(radius: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Convert polar noise samples into an ``(n, 2)`` Cartesian offset array."""
    radius = np.asarray(radius, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def rayleigh_radius_from_uniform(s: np.ndarray, sigma: float) -> np.ndarray:
    """Invert the Rayleigh CDF elementwise: ``r = sigma * sqrt(-2 log1p(-s))``.

    The deterministic half of :func:`sample_gaussian_noise`, factored out
    so population-level kernels can draw the uniforms from per-user
    streams and run this transform batched over every user at once while
    staying bit-identical (the expression is purely elementwise).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    s = np.asarray(s, dtype=float)
    return sigma * np.sqrt(-2.0 * np.log1p(-s))


def sample_gaussian_noise(
    sigma: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` isotropic planar Gaussian offsets via Algorithm 3.

    Samples the angle uniformly and the radius by inverting the Rayleigh
    CDF, exactly the procedure the paper prescribes (rather than calling a
    library normal sampler) so that the implementation matches the text.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    theta = rng.uniform(0.0, 2.0 * math.pi, size)
    s = rng.uniform(0.0, 1.0, size)
    radius = rayleigh_radius_from_uniform(s, sigma)
    return polar_to_cartesian(radius, theta)


def planar_laplace_radial_cdf(r: np.ndarray, epsilon: float) -> np.ndarray:
    """``C_eps(r) = 1 - (1 + eps r) e^{-eps r}`` — radial CDF of planar Laplace."""
    r = np.asarray(r, dtype=float)
    return 1.0 - (1.0 + epsilon * r) * np.exp(-epsilon * r)


def planar_laplace_radial_quantile(p: float, epsilon: float) -> float:
    """Invert the planar-Laplace radial CDF at level ``p``.

    Solving ``(1 + eps r) e^{-eps r} = 1 - p`` gives
    ``r = -(1/eps) * (W_{-1}((p - 1)/e) + 1)`` on the -1 branch of the
    Lambert-W function (Andres et al. 2013, Theorem 4.2).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"quantile level must be in [0, 1), got {p}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if p < _SMALL_P_SERIES_THRESHOLD:
        # Near p = 0 the Lambert-W argument sits at the -1/e branch point,
        # where (p - 1)/e loses p's low bits and scipy's W_{-1} degrades
        # (below p ~ 5e-9 it returns r with C(r) off by orders of
        # magnitude).  The branch-point series of W_{-1} inverts
        # C_eps(r) = p directly: r = (s + s^2/3 + 11 s^3/72)/eps with
        # s = sqrt(2p); truncation error is O(s^4), so at the 1e-6
        # threshold both branches agree to ~1e-10 relative.
        s = math.sqrt(2.0 * p)
        return (s + s * s / 3.0 + 11.0 * s * s * s / 72.0) / epsilon
    w = lambertw((p - 1.0) / math.e, k=-1)
    return float(-(w.real + 1.0) / epsilon)


def planar_laplace_radius_from_uniform(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Invert the planar-Laplace radial CDF elementwise via Lambert-W.

    The deterministic half of :func:`sample_planar_laplace_noise`; see
    :func:`rayleigh_radius_from_uniform` for why it is factored out.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    p = np.asarray(p, dtype=float)
    w = lambertw((p - 1.0) / math.e, k=-1)
    return np.asarray(-(w.real + 1.0) / epsilon, dtype=float)


def sample_planar_laplace_noise(
    epsilon: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` planar Laplace offsets with per-metre budget ``epsilon``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    theta = rng.uniform(0.0, 2.0 * math.pi, size)
    p = rng.uniform(0.0, 1.0, size)
    # Vectorised Lambert-W inversion over the batch.
    radius = planar_laplace_radius_from_uniform(p, epsilon)
    return polar_to_cartesian(radius, theta)
