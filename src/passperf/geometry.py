"""Analytic kernels of the geometry both access schemes share.

User x-coordinates are uniform along the service region, y-coordinates are
uniform in two disjoint sub-regions on either side of the waveguide axis.
The y-separation of the two users follows a triangular law, which gives the
closed-form log-expectation over it and the segment sum of an outage
quadratic in a radius, shared by the WDMA outage, its floor and the NOMA
far-user outage. They read the law from ``dist``, a ``config.ReducedModel``
in the analytic metrics: its ``half_width`` (the sub-region depth) and
``support_lo`` (twice the offset from the axis), in reduced units, and
return NumPy values of their inputs' broadcast shape, 0-d for scalar
inputs. Placements are drawn by ``montecarlo``, which imports nothing from
here.
"""

from __future__ import annotations

import numpy as np

from .quadrature import _log1p_moments


def _segment_sum(squares, b1, b2, b3, b4, k_rising, k_falling, w):
    """Integral over v of an outage that the triangular law makes piecewise
    quadratic in a radius rho(v), split at b1 <= b2 <= b3 <= b4: zero below
    b1, (rho - k_rising)^2 / (2 w^2) on [b1, b2], 1 - (rho - k_falling)^2 /
    (2 w^2) on [b2, b3] and one on [b3, b4]. ``squares(u, v, k)`` is the
    integral of (rho - k)^2 from u to v: in closed form for the WDMA outage
    floor and the NOMA far-user outage, by quadrature for the WDMA outage.
    """
    return (
        squares(b1, b2, k_rising) / (2.0 * w * w)
        + (b3 - b2)
        - squares(b2, b3, k_falling) / (2.0 * w * w)
        + (b4 - b3)
    )


def expected_log_excess(a, b, dist):
    """E[ln(a + b U^2)] - ln(a) for the y-separation U ~ ``dist``; a > 0, b >= 0.

    The triangular density is linear on each half of its support, so the
    mean is the second difference (T(lo) - 2 T(lo + w) + T(lo + 2w)) / w^2
    of T(p) = int_0^p (p - t) ln(1 + (b/a) t^2) dt; with zero offset this is
    the adjacent-region closed form, and the end lo = 0, where T is exactly
    +0.0, is not evaluated. ln(a) is left out because it dwarfs the rest at
    high SNR. ``a`` and ``b`` broadcast against each other.

    T is taken at the support points lo (if nonzero), lo + w and lo + 2w
    in one ``_log1p_moments`` call, with the points on a leading axis, so
    that each point's slice is the whole contiguous ratio b/a and every
    inner loop runs over it; T = p m0 - m1 from the two moments.
    """
    lo, w = dist.support_lo, dist.half_width
    ratio = np.asarray(b, dtype=float) / np.asarray(a, dtype=float)
    points = np.array([lo, lo + w, lo + 2.0 * w] if lo else [w, 2.0 * w])
    points = points.reshape(points.shape + (1,) * ratio.ndim)
    t, m1 = _log1p_moments(points, ratio)
    t *= points
    t -= m1
    t0 = t[0] if lo else 0.0
    return (t0 - 2.0 * t[-2] + t[-1]) / (w * w)
