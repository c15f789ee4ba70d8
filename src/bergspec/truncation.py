"""Brute-force Galerkin oracle on the p = 2 Bergman space.

Truncation matrices of the weighted composition operator in the monomial
orthonormal basis e_k(z) = sqrt((k+1)/pi) z^k, Gelfand spectral-radius
estimates via matrix powers, and dense eigenvalue clouds.  Each radial node
of the Galerkin quadrature projects every column at once: one FFT over the
Vandermonde block of u_t phi_t^k on that circle.

Truncation spectra of non-normal operators are indicative only: eigenvalues
of a finite section need not approximate the spectrum of the operator, so
`eigen_cloud` output must not be read as a spectral certificate.  The Gelfand
estimate min_n ||M^n||^(1/n) is the quantity cross-validated against theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .scenario import Scenario, cocycle, flow

__all__ = [
    "TruncationMatrix",
    "build_matrix",
    "gelfand_radius",
    "eigen_cloud",
]

# radial panel breakpoints graded toward the unit circle; the integrand
# carries boundary growth of order (1 - r)^{-2} at worst before weighting
_RADIAL_PANELS = (0.0, 0.5, 0.8, 0.9, 0.95, 0.98, 0.99,
                  0.995, 0.998, 0.9993, 0.9998, 1.0)
_RADIAL_ORDER = 12       # Gauss-Legendre points per radial panel
_ANGULAR = 1024          # equispaced nodes on each circle, one FFT length


@dataclass(frozen=True)
class TruncationMatrix:
    N: int
    entries: np.ndarray
    t: float


def _radial_nodes():
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(_RADIAL_ORDER)
    nodes, weights = [], []
    for a, b in zip(_RADIAL_PANELS[:-1], _RADIAL_PANELS[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def build_matrix(s: Scenario, t, N) -> TruncationMatrix:
    """Galerkin matrix of the time-t weighted composition operator.

    Entry (j, k) = <u_t phi_t^k c_k, e_j>; with the monomial basis this is
    M[j,k] = 2 sqrt((j+1)(k+1)) * int_0^1 a_j(r;k) r^{j+1} dr, where
    a_j(r;k) is the j-th Fourier coefficient of u_t phi_t^k on |z| = r.  At
    each radial node one FFT down the Vandermonde block u_t phi_t^k,
    k < N, gives every column's coefficients together.
    """
    if s.p != 2.0:
        raise EvaluationError("the Galerkin oracle is defined on p = 2 only")
    if N > 256:
        raise EvaluationError("N <= 256 required")
    t = float(t)
    theta = 2.0 * math.pi * np.arange(_ANGULAR) / _ANGULAR
    circle = np.exp(1j * theta)

    M = np.zeros((N, N), dtype=complex)
    j = np.arange(N)
    for r, wr in zip(*_radial_nodes()):
        z = r * circle
        if t == 0.0:
            zt = z
            u = np.ones_like(z)
        else:
            zt = flow(s, t, z)
            u = s._v(zt) / s._v(z)
        P = np.vander(zt, N, increasing=True)
        P *= u[:, None]
        coeff = np.fft.fft(P, axis=0)[:N] / _ANGULAR
        M += wr * coeff * (r ** (j + 1))[:, None]
    M *= 2.0 * np.sqrt((j[:, None] + 1.0) * (j[None, :] + 1.0))
    return TruncationMatrix(N, M, t)


def resolution_horizon(M: TruncationMatrix):
    """Largest power of the time-t section that still resolves the operator.

    The semigroup concentrates mass at boundary scale e^{-nt}, which a degree-N
    polynomial basis resolves only while e^{nt} stays below N; beyond that
    horizon ||M^n||^{1/n} decays toward the section's own spectral radius,
    a truncation artifact rather than an operator quantity.
    """
    t = max(abs(M.t), 1e-9)
    return max(1, int(round(math.log(M.N + 1.0) / t)) - 1)


def gelfand_radius(M: TruncationMatrix, n_max):
    """Spectral-radius estimate min_n ||M^n||_2^{1/n}.

    The full sequence up to n_max is returned; the reported minimum is taken
    over powers up to the section's resolution horizon (see
    `resolution_horizon`), since later terms under-run the true radius.
    """
    if n_max < 8:
        raise ValueError("n_max >= 8 required")
    A = M.entries
    P = np.eye(M.N, dtype=complex)
    seq = []
    for n in range(1, n_max + 1):
        P = P @ A
        seq.append(np.linalg.norm(P, 2) ** (1.0 / n))
    n_eff = min(n_max, resolution_horizon(M))
    return min(seq[:n_eff]), seq


def eigen_cloud(M: TruncationMatrix):
    """Eigenvalues of the dense truncation, sorted by modulus then phase.
    Indicative only (non-normal truncation)."""
    vals = np.linalg.eigvals(M.entries)
    order = np.lexsort((np.angle(vals), np.abs(vals)))
    return [complex(v) for v in vals[order]]
