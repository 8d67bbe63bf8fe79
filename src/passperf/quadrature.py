"""Chebyshev-node quadrature (Fejer's first rule) and logarithmic integrals.

The N-node rule approximates int_{-1}^{1} f(t) dt by sum_k w_k f(t_k) at the
first-kind Chebyshev nodes t_k = cos(theta_k), theta_k = (2k - 1) pi / (2N),
with Fejer's weights
w_k = (2/N) (1 - 2 sum_{j=1}^{floor(N/2)} cos(2 j theta_k) / (4 j^2 - 1)).
The weights are positive and the rule integrates every polynomial of degree
below N exactly, so smooth integrands converge as fast as their Chebyshev
coefficients decay (Waldvogel, BIT 46, 2006); positive weights also carry
pointwise bounds between integrands over to their integrals.

``j0``/``j1`` integrate ln(a + b t^2) and t ln(a + b t^2) from 0 in a form
without cancellation, so that they stay accurate when b/a is tiny (high
SNR) as well as large.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class IntegrationError(RuntimeError):
    """The integrand produced a non-finite value at a quadrature node."""


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray  # strictly decreasing, in (-1, 1)
    weights: np.ndarray  # Fejer's first-rule weights, all positive


@lru_cache(maxsize=128, typed=True)
def chebyshev_rule(n_nodes: int) -> QuadratureRule:
    """First-kind Chebyshev nodes and Fejer's weights of order ``n_nodes``, an
    integer >= 1 (not a bool); ValueError otherwise."""
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, numbers.Integral) or n_nodes < 1:
        raise ValueError(f"n_nodes must be an integer >= 1, got {n_nodes!r}")
    k = np.arange(1, n_nodes + 1)
    theta = (2.0 * k - 1.0) * np.pi / (2.0 * n_nodes)
    nodes = np.cos(theta)
    # one node vector per term, so memory stays O(N) at any order; smallest
    # terms first
    series = np.zeros(n_nodes)
    for j in range(n_nodes // 2, 0, -1):
        series += np.cos(2.0 * j * theta) / (4.0 * j * j - 1.0)
    weights = (2.0 / n_nodes) * (1.0 - 2.0 * series)
    # Symmetrise so that t_k == -t_{N+1-k} holds exactly in floating point.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def _evaluate(f, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(nodes), dtype=float)
    if vals.ndim == 0:
        vals = np.full(nodes.shape, vals.item())
    bad = ~np.isfinite(vals)
    if np.any(bad):
        t = np.broadcast_to(nodes, vals.shape)[bad][0]
        raise IntegrationError(f"integrand not finite at node t={t!r}")
    return vals


def integrate_unit(f, n_nodes: int):
    """Approximate int_{-1}^{1} f(t) dt with the N-node rule.

    ``f`` maps the nodes to values of shape (..., N), nodes on the last
    axis; the result holds one integral per leading index, and is a float
    when there is none.
    """
    rule = chebyshev_rule(n_nodes)
    vals = _evaluate(f, rule.nodes)
    if vals.ndim == 1:
        return float(rule.weights @ vals)
    # one 1-D dot per row: a 2-D matrix-vector product rounds differently
    return np.array([rule.weights @ row for row in vals.reshape(-1, n_nodes)]).reshape(
        vals.shape[:-1]
    )


def integrate_interval(f, a: float, b: float, n_nodes: int):
    """Approximate int_a^b f(x) dx via the affine map onto [-1, 1]."""
    if a == b:
        return 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * integrate_unit(lambda t: f(half * np.asarray(t) + mid), n_nodes)


def _check_log_args(a, b, u) -> None:
    if np.any(np.asarray(a) <= 0.0):
        raise ValueError("j0/j1 require a > 0 (logarithm of a non-positive value)")
    if np.any(np.asarray(b) < 0.0):
        raise ValueError("j0/j1 require b >= 0")
    if np.any(np.asarray(u) < 0.0):
        raise ValueError("j0/j1 require u >= 0")


# For s = b u^2 / a under _SERIES_S the closed forms of phi0 and phi1 lose
# digits to cancellation (1 - arctan(r)/r and (1 + s) ln(1 + s) - s); short
# alternating series are used there instead, truncated where the next term
# falls under 1e-17 relative.
_SERIES_S = 1e-2
_SERIES_TERMS = 8
# Series coefficients of phi0 and phi1 (below), highest power first:
# (-1)^(n+1) / (n (2n + 1)) and (-1)^(n+1) / (n (n + 1)).
_PHI0_SERIES = tuple((-1.0) ** (n + 1) / (n * (2 * n + 1)) for n in range(_SERIES_TERMS, 0, -1))
_PHI1_SERIES = tuple((-1.0) ** (n + 1) / (n * (n + 1)) for n in range(_SERIES_TERMS, 0, -1))


def _phi_closed(s):
    log = np.log1p(s)
    root = np.sqrt(s)
    return log - 2.0 * (1.0 - np.arctan(root) / root), ((1.0 + s) * log - s) / s


def _phi_series(s):
    phi0 = phi1 = 0.0
    for c0, c1 in zip(_PHI0_SERIES, _PHI1_SERIES):
        phi0 = s * (c0 + phi0)
        phi1 = s * (c1 + phi1)
    return phi0, phi1


def _log1p_moments(u, r):
    """int_0^u ln(1 + r t^2) dt and int_0^u t ln(1 + r t^2) dt for u, r >= 0.

    With s = r u^2 these are u phi0(s) and (u^2 / 2) phi1(s), where
    phi0(s) = ln(1 + s) - 2 (1 - arctan(sqrt(s)) / sqrt(s)) and
    phi1(s) = ((1 + s) ln(1 + s) - s) / s; both vanish at s = 0. Arguments
    broadcast against each other. Each element goes through only the form
    its s needs: the closed form at s >= _SERIES_S, the series below.
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(r, dtype=float) * u**2
    small = s < _SERIES_S
    if not small.any():
        phi0, phi1 = _phi_closed(s)
    elif small.all():
        phi0, phi1 = _phi_series(s)
    else:
        phi0, phi1 = np.empty_like(s), np.empty_like(s)
        phi0[~small], phi1[~small] = _phi_closed(s[~small])
        phi0[small], phi1[small] = _phi_series(s[small])
    return u * phi0, 0.5 * u**2 * phi1


def _maybe_scalar(arr):
    arr = np.asarray(arr)
    return arr.item() if arr.ndim == 0 else arr


def j0(u, a, b):
    """Integral of ln(a + b t^2) over [0, u].

    u (ln a + ln(1 + s) - 2 (1 - arctan(sqrt(s)) / sqrt(s))) with
    s = b u^2 / a, written so that no large terms cancel; continuous down
    to b = 0, where it is u ln(a).
    """
    _check_log_args(a, b, u)
    m0, _ = _log1p_moments(u, np.asarray(b, float) / np.asarray(a, float))
    return _maybe_scalar(m0 + np.asarray(u, float) * np.log(a))


def j1(u, a, b):
    """Integral of t ln(a + b t^2) over [0, u].

    (u^2 / 2) (ln a + ((1 + s) ln(1 + s) - s) / s) with s = b u^2 / a,
    written so that no large terms cancel; continuous down to b = 0, where
    it is (u^2 / 2) ln(a).
    """
    _check_log_args(a, b, u)
    _, m1 = _log1p_moments(u, np.asarray(b, float) / np.asarray(a, float))
    return _maybe_scalar(m1 + 0.5 * np.asarray(u, float) ** 2 * np.log(a))
