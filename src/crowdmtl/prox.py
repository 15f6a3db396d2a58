"""Proximal operators for the non-smooth penalties.

Each operator solves argmin_x 0.5 ||x - m||_F^2 + tau * g(x) for its
penalty g and is exact, so the solver's non-smooth step introduces no
inner iteration.
"""

from __future__ import annotations

import numpy as np


def prox_l1(m, tau: float):
    """Soft thresholding: sign(m) * max(|m| - tau, 0)."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    m = np.asarray(m, dtype=float)
    return np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)


def prox_l21_rows(m, tau: float):
    """Group soft threshold on rows: r <- r * max(1 - tau/||r||_2, 0)."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    m = np.asarray(m, dtype=float)
    norms = np.sqrt((m * m).sum(axis=-1, keepdims=True))
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(1.0 - tau / norms[nz], 0.0)
    return m * scale


def prox_l21_cols(m, tau: float):
    """Group soft threshold on columns (per-task groups)."""
    return prox_l21_rows(np.asarray(m, dtype=float).T, tau).T


def project_l1_ball_rows(v, radius: float):
    """Row-wise Euclidean projection onto the l1 ball of the given radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if radius == 0:
        return np.zeros_like(v)
    a = np.abs(v)
    inside = a.sum(axis=1) <= radius
    if inside.all():
        return v.copy()
    u = np.sort(a, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    j = np.arange(1, v.shape[1] + 1)
    rho = np.count_nonzero(u - (css - radius) / j > 0, axis=1)
    rho = np.maximum(rho, 1)
    theta = (css[np.arange(v.shape[0]), rho - 1] - radius) / rho
    w = np.sign(v) * np.maximum(a - theta[:, None], 0.0)
    w[inside] = v[inside]
    return w


def prox_linf_rows(m, tau: float):
    """Row-wise prox of the l-infinity norm via Moreau decomposition.

    prox_{tau ||.||_inf}(r) = r - proj_{l1 ball of radius tau}(r).
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    m = np.asarray(m, dtype=float)
    squeeze = m.ndim == 1
    m2 = np.atleast_2d(m)
    out = m2 - project_l1_ball_rows(m2, tau)
    return out[0] if squeeze else out
