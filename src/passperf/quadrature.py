"""Chebyshev-node quadrature (Fejer's first rule) and logarithmic integrals.

The N-node rule approximates int_{-1}^{1} f(t) dt by sum_k w_k f(t_k) at the
first-kind Chebyshev nodes t_k = cos(theta_k), theta_k = (2k - 1) pi / (2N),
with Fejer's weights
w_k = (2/N) (1 - 2 sum_{j=1}^{floor(N/2)} cos(2 j theta_k) / (4 j^2 - 1)).
The weights are positive and the rule integrates every polynomial of degree
below N exactly, so smooth integrands converge as fast as their Chebyshev
coefficients decay (Waldvogel, BIT 46, 2006); positive weights also carry
pointwise bounds between integrands over to their integrals.

``integrate_rows`` is the one function that applies the rule. It takes
many integrands at once, one row each, ``ROW_BLOCK`` rows per integrand
call; a single integral is a one-row call.

``_log1p_moments`` integrates ln(1 + r t^2) and t ln(1 + r t^2) from 0 in a
form without cancellation, so that it stays accurate when s = r u^2 is
tiny as well as large: the closed form where s is at least ``_SERIES_S``
and an 8-term series below, chosen per element. Its one caller is the WDMA
rate ceiling's mean over the y-separation (``geometry.expected_log_excess``);
the average rates go through the positive log-ratio kernel
``geometry._hat_moment``. The closed forms and the series work in place on
arrays of their own and never write their inputs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Most rows per integrand call of ``integrate_rows``. It keeps the
# (rows x nodes) arrays of one call small (under 1.3 MB traced for 4096
# powers), and the first call of ``sweep.find_crossover`` (the two bracket
# ends and the 15 evenly spaced points between them) still fits in one
# block. On the 451 powers of -50:400:1 dB, 64 rows are faster than 17 and
# than one block for all three blocked metrics.
ROW_BLOCK = 64


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
    # Symmetrise so that t_k == -t_{N+1-k} and w_k == w_{N+1-k} hold exactly
    # in floating point (the middle node of an odd order is then exactly 0):
    # the WDMA rate integrals evaluate their even integrands on the
    # nonnegative nodes only and mirror the values, which relies on this.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def integrate_rows(f, rows, n_nodes: int) -> np.ndarray:
    """Approximate int_{-1}^{1} f(t) dt once per entry of the 1-D ``rows``.

    ``f(t, block)`` maps the nodes and a slice of ``rows`` to values of
    shape (len(block), N). It gets at most ``ROW_BLOCK`` rows per call, so
    the (rows x nodes) arrays stay small however many rows there are. Each
    row's integral depends only on that row, so it equals a one-row call
    bit for bit. A non-finite value raises IntegrationError naming its node.
    """
    rule = chebyshev_rule(n_nodes)

    def block(part):
        vals = np.asarray(f(rule.nodes, part), dtype=float)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            t = np.broadcast_to(rule.nodes, vals.shape)[bad][0]
            raise IntegrationError(f"integrand not finite at node t={t!r}")
        # a stack of (1 x N) @ (N x 1) products rounds as 1-D dots do; a 2-D
        # matrix-vector product does not
        return np.matmul(vals[:, None, :], rule.weights[:, None])[:, 0, 0]

    if len(rows) <= ROW_BLOCK:
        return block(rows)
    return np.concatenate(
        [block(rows[first : first + ROW_BLOCK]) for first in range(0, len(rows), ROW_BLOCK)]
    )


# For s = r u^2 under _SERIES_S the closed forms of phi0 and phi1 lose
# digits to cancellation (1 - arctan(sqrt(s))/sqrt(s) and
# (1 + s) ln(1 + s) - s); short alternating series are used there instead,
# truncated where the next term falls under 1e-17 relative.
_SERIES_S = 1e-2
_SERIES_TERMS = 8
# Series coefficients of phi0 and phi1 (below), highest power first:
# (-1)^(n+1) / (n (2n + 1)) and (-1)^(n+1) / (n (n + 1)).
_PHI0_SERIES = tuple((-1.0) ** (n + 1) / (n * (2 * n + 1)) for n in range(_SERIES_TERMS, 0, -1))
_PHI1_SERIES = tuple((-1.0) ** (n + 1) / (n * (n + 1)) for n in range(_SERIES_TERMS, 0, -1))


def _phi_closed(s):
    # in place on fresh arrays (``s`` is not written); phi0 is taken as
    # 2 (q - 1) + log with q = arctan(sqrt(s)) / sqrt(s): rounding is
    # symmetric, so 2 (q - 1) is exactly -2 (1 - q) and this is
    # log - 2 (1 - q) bit for bit
    s = np.asarray(s, dtype=float)
    log = np.log1p(s)
    root = np.sqrt(s)
    phi0 = np.arctan(root)
    phi0 /= root
    phi0 -= 1.0
    phi0 *= 2.0
    phi0 += log
    phi1 = s + 1.0
    phi1 *= log
    phi1 -= s
    phi1 /= s
    return phi0, phi1


def _phi_series(s):
    # Horner in place on fresh arrays: phi = s (c + phi), from s c_first
    s = np.asarray(s, dtype=float)
    phi0 = s * _PHI0_SERIES[0]
    phi1 = s * _PHI1_SERIES[0]
    for c0, c1 in zip(_PHI0_SERIES[1:], _PHI1_SERIES[1:]):
        phi0 += c0
        phi0 *= s
        phi1 += c1
        phi1 *= s
    return phi0, phi1


def _log1p_moments(u, r):
    """int_0^u ln(1 + r t^2) dt and int_0^u t ln(1 + r t^2) dt for u, r >= 0.

    With s = r u^2 these are u phi0(s) and (u^2 / 2) phi1(s), where
    phi0(s) = ln(1 + s) - 2 (1 - arctan(sqrt(s)) / sqrt(s)) and
    phi1(s) = ((1 + s) ln(1 + s) - s) / s; both vanish at s = 0. Arguments
    broadcast against each other. Each element takes the closed form at
    s >= _SERIES_S (a NaN s too) and the series below.
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(r, dtype=float) * u**2
    small = s < _SERIES_S
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = _phi_closed(s)
    series = _phi_series(np.where(small, s, 0.0))
    phi0, phi1 = (np.where(small, part, whole) for part, whole in zip(series, closed))
    phi0 *= u
    phi1 *= 0.5 * u**2
    return phi0, phi1
