"""Orthonormal Hermite polynomials for the standard normal weight.

The convention used everywhere is the orthonormal one: E[H_m(Z) H_n(Z)] is
the Kronecker delta for Z standard normal, H_0 = 1, H_1(x) = x,
H_2(x) = (x^2 - 1)/sqrt(2).  Evaluation goes through the stable three-term
recurrence sqrt(m+1) H_{m+1}(x) = x H_m(x) - sqrt(m) H_{m-1}(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import _check_fits


def eval_all(max_order: int, x: np.ndarray) -> np.ndarray:
    """Stack H_0..H_max_order along a new leading axis, one recurrence pass."""
    x = np.asarray(x, dtype=float)
    out = np.empty((max_order + 1,) + x.shape)
    out[0] = 1.0
    if max_order >= 1:
        out[1] = x
    for k in range(1, max_order):
        out[k + 1] = (x * out[k] - math.sqrt(k) * out[k - 1]) / math.sqrt(k + 1)
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss quadrature against the standard normal density."""

    nodes: np.ndarray
    weights: np.ndarray


#: per-node rescale threshold of the Christoffel recurrence; squares of
#: values below it, summed over any practical order, stay finite
_RESCALE_ABOVE = 2.0**480


def _christoffel_recurrence(x: np.ndarray, order: int):
    """H_{q-1}(x), H_q(x) and sum_{k<q} H_k(x)^2 for q = order, rescaled per node.

    Returns ``(h_prev, h, total, shift)``: the true values are
    ``h_prev * 2**shift``, ``h * 2**shift`` and ``total * 4**shift``.
    Rescaling by powers of two is exact, so the values agree bit for bit with
    the plain recurrence wherever that one does not overflow.
    """
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    total = np.zeros_like(x)
    shift = np.zeros(x.shape, dtype=int)
    for k in range(order):
        total += h * h
        h, h_prev = (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1), h
        mag = np.maximum(np.abs(h), np.abs(h_prev))
        if mag.max() > _RESCALE_ABOVE:
            e = np.where(mag > _RESCALE_ABOVE, np.frexp(mag)[1], 0)
            h, h_prev = np.ldexp(h, -e), np.ldexp(h_prev, -e)
            total = np.ldexp(total, -2 * e)
            shift += e
    return h_prev, h, total, shift


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Order-q rule; exact for polynomials of degree <= 2q-1 against phi.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the orthonormal recurrence (off-diagonal
    sqrt(1..q-1)), symmetrized and polished by two Newton steps on H_q with
    H_q' = sqrt(q) H_{q-1}.  The weights are the Christoffel numbers
    w_i = 1 / sum_{k<q} H_k(x_i)^2, not renormalized; their sum is 1 to
    rounding.  Nodes are exactly antisymmetric and weights exactly symmetric.
    Weights far out in the tail may underflow to 0 at high order.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if order == 1:
        return QuadratureRule(nodes=np.array([0.0]), weights=np.array([1.0]))
    # the Jacobi matrix and its two diagonal parts
    _check_fits(3 * order * order * 8, f"the Jacobi matrices of the order-{order} Gauss rule")
    off = np.sqrt(np.arange(1.0, order))
    eig = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    half = order // 2
    # positive nodes, largest first; the mirrored eigenvalue is averaged in
    x = (eig[::-1][:half] - eig[:half]) / 2.0
    for _ in range(2):
        h_prev, h, _, _ = _christoffel_recurrence(x, order)
        x = x - h / (math.sqrt(order) * h_prev)
    points = np.append(x, 0.0) if order % 2 else x
    _, _, total, shift = _christoffel_recurrence(points, order)
    w = np.ldexp(1.0 / total, -2 * shift)
    centre = w[half:]  # the node at 0 for odd orders, else empty
    nodes = np.concatenate([-x, np.zeros(order % 2), x[::-1]])
    weights = np.concatenate([w[:half], centre, w[:half][::-1]])
    return QuadratureRule(nodes=nodes, weights=weights)


def normal_pdf(x, out: np.ndarray | None = None) -> float | np.ndarray:
    """Standard normal density; an ndarray for array input, written into ``out`` if given.

    ``out`` may be x itself.  Multiplying by -0.5 is -(x**2)/2 exactly, in
    every IEEE case.
    """
    z = np.multiply(np.square(x, out=out, dtype=float), -0.5, out=out)
    return np.divide(np.exp(z, out=out), math.sqrt(2.0 * math.pi), out=out)


def normal_sf(x) -> float:
    """P(Z > x) for Z standard normal."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def indicator_integrals(max_order: int, threshold: float) -> np.ndarray:
    """Half-line integrals of H_0..H_max_order against phi over [threshold, infinity).

    For m >= 1 the closed form phi(K) H_{m-1}(K) / sqrt(m) applies, from one
    :func:`eval_all` pass; it is 0 where phi(K) underflows, as it does at
    K = +-inf, however large H_{m-1}(K) is.  For m = 0 the integral is the
    normal survival function.  Discontinuous payoffs get their chaos
    coefficients from here, never from quadrature across the jump.
    """
    if max_order < 0:
        raise ValueError("Hermite order must be non-negative")
    out = np.zeros(max_order + 1)
    out[0] = normal_sf(threshold)
    pdf = float(normal_pdf(threshold))
    if max_order >= 1 and pdf:
        below = eval_all(max_order - 1, threshold)
        out[1:] = pdf * below / np.sqrt(np.arange(1, max_order + 1))
    return out


def hermite_indicator_integral(m: int, threshold: float) -> float:
    """Entry m of :func:`indicator_integrals`."""
    return float(indicator_integrals(m, threshold)[m])
