"""Chebyshev-node quadrature (Fejer's first rule).

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

