"""Brute-force Galerkin oracle on the p = 2 Bergman space.

Truncation matrices of the weighted composition operator in the monomial
orthonormal basis e_k(z) = sqrt((k+1)/pi) z^k, Gelfand spectral-radius
estimates via matrix powers, and dense eigenvalue clouds.  In this basis
the entry <u_t phi_t^k e_k, e_j> is sqrt((k+1)/(j+1)) times the j-th Taylor
coefficient of u_t phi_t^k.  One FFT of n samples on the Cauchy circle
|z| = e^{-1/N} gives the first N coefficients of u_t and phi_t, the only
place aliasing enters; each further column is the previous one times
phi_t, a truncated power-series product (the lower-triangular Toeplitz
matrix of phi_t).  A section costs O(n log n + N^3), in float64 when the
first N coefficients of u_t and phi_t are real (strips and half_strips with
real parameters, the trident without its d factor): then its powers and
eigenvalues use real LAPACK.

Truncation spectra of non-normal operators are indicative only: eigenvalues
of a finite section need not approximate the spectrum of the operator, so
`eigen_cloud` output must not be read as a spectral certificate.  The Gelfand
estimate min_n ||M^n||^(1/n) is the quantity cross-validated against theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .errors import CoverageError, EvaluationError
from .scenario import Scenario, _weight_ratio, cocycle, flow

__all__ = [
    "TruncationMatrix",
    "build_matrix",
    "gelfand_radius",
    "eigen_cloud",
]


@dataclass(frozen=True)
class TruncationMatrix:
    N: int
    entries: np.ndarray
    t: float


N_MAX = 256     # the largest section size `build_matrix` accepts
_REAL_TOL = 1e-13   # max |Im c_j| / max |c_j| below which a series is real
_CHUNK = 8          # matrix powers per batched SVD in `gelfand_radius`


def build_matrix(s: Scenario, t, N) -> TruncationMatrix:
    """Galerkin matrix of the time-t weighted composition operator.

    Entry (j, k) = <u_t phi_t^k e_k, e_j>.  Integrating over each circle
    |z| = r leaves the j-th Taylor coefficient a_j of u_t phi_t^k, so
    M[j,k] = sqrt((k+1)/(j+1)) * a_j(u_t phi_t^k).  One FFT of n equispaced
    samples of u_t and phi_t on |z| = rho gives c_j = a_j rho^j, j < N, up
    to aliases c_{j+n} damped by rho^n: the only place aliasing enters.
    With rho = e^{-1/N}, dividing by rho^j amplifies rounding by at most e,
    and n = the smallest power of two >= max(1024, 40 N) damps aliases by
    e^{-40}.  Column 0 is a(u_t); column k+1 is T times column k, T the
    lower-triangular Toeplitz matrix of a(phi_t), since a product's first N
    coefficients need only the first N of each factor.  T compresses the
    multiplication by phi_t on H^2, |phi_t| < 1, so ||T||_2 <= 1 and
    rounding does not grow with k.  Cost: O(n log n + N^3).

    Each of u_t and phi_t counts as real when max_j |Im c_j| <= _REAL_TOL *
    max_j |c_j|; when both are, the section is built from their real parts
    and is float64.  The test is exact enough: real-coefficient models read
    at most 1.3e-15 (FFT round-off), a genuine imaginary part reads 5e-10 or
    more, and dropping parts below 1e-13 of the largest coefficient moves
    no digit of the 12 that `truncate` prints.
    """
    if s.p != 2.0:
        raise EvaluationError("the Galerkin oracle is defined on p = 2 only")
    if N > N_MAX:
        raise EvaluationError(f"N <= {N_MAX} required")
    t = float(t)
    if t == 0.0:
        return TruncationMatrix(N, np.eye(N), t)
    rho = math.exp(-1.0 / N)
    n = max(1024, 1 << (40 * N - 1).bit_length())
    z = rho * np.exp(2j * math.pi * np.arange(n) / n)
    zt = flow(s, t, z)
    j = np.arange(N)
    with np.errstate(over="ignore", invalid="ignore"):
        u, phi = (np.fft.fft(np.stack([_weight_ratio(s, t, z, zt), zt]))[:, :N]
                  / (n * rho ** j))
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(phi))):
        raise FloatingPointError(f"the Taylor coefficients of u_t or phi_t "
                                 f"at t = {t:g} are not finite")
    if all(np.max(np.abs(c.imag)) <= _REAL_TOL * np.max(np.abs(c))
           for c in (u, phi)):
        u, phi = u.real, phi.real
    T = np.tril(phi[j[:, None] - j])

    M = np.empty((N, N), dtype=u.dtype)
    M[:, 0] = u
    for k in range(1, N):
        M[:, k] = T @ M[:, k - 1]
    M *= np.sqrt((j[None, :] + 1.0) / (j[:, None] + 1.0))
    return TruncationMatrix(N, M, t)


def _horizon(N, t):
    return round(math.log(N + 1.0) / max(abs(t), 1e-9)) - 1


def resolution_horizon(M: TruncationMatrix):
    """Largest power of the time-t section that still resolves the operator.

    The semigroup concentrates mass at boundary scale e^{-nt}, which a degree-N
    polynomial basis resolves only while e^{nt} stays below N; beyond that
    horizon ||M^n||^{1/n} decays toward the section's own spectral radius,
    a truncation artifact rather than an operator quantity.  A horizon below
    1, where e^{1.5t} > N + 1, resolves no power at all, and an estimate
    from it says nothing: that is a CoverageError naming the smallest N
    that resolves t.
    """
    n = _horizon(M.N, M.t)
    if n < 1:
        fit = next((f"N >= {k}" for k in range(M.N, N_MAX + 1)
                    if _horizon(k, M.t) >= 1),
                   f"N + 1 >= e^{1.5 * M.t:g}, above the largest N, {N_MAX}")
        raise CoverageError(f"at t = {M.t:g} a section of N = {M.N} resolves no "
                            f"power of T_t (resolution horizon {n}): that needs {fit}")
    return n


def gelfand_radius(M: TruncationMatrix, n_max):
    """Spectral-radius estimate min_n ||M^n||_2^{1/n}.

    The full sequence up to n_max is returned; the reported minimum is taken
    over powers up to the section's resolution horizon (see
    `resolution_horizon`), since later terms under-run the true radius.
    The powers keep M's dtype, so a real section stays in real LAPACK, and
    are formed in place, _CHUNK to a stack, whose 2-norms come from one SVD
    call: the LAPACK call of `np.linalg.norm(P, 2)`, so each is bitwise one
    norm per power, and memory stays at _CHUNK sections whatever n_max is.
    """
    if n_max < 8:
        raise ValueError("n_max >= 8 required")
    n_eff = min(n_max, resolution_horizon(M))
    A = P = M.entries
    stack = np.empty((_CHUNK,) + A.shape, A.dtype)
    stack[0] = A                           # power 1; the loops make the rest
    seq = []
    for n0 in range(0, n_max, _CHUNK):     # powers n0 + 1 ... n0 + m
        m = min(_CHUNK, n_max - n0)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n0 == 0, m):
                P = np.matmul(P, A, out=stack[i])
        finite = np.isfinite(stack[:m]).all(axis=(1, 2))
        if not finite.all():
            raise FloatingPointError(f"power {n0 + 1 + np.argmin(finite)} of "
                                     "the section is not finite")
        top = np.linalg.svd(stack[:m], compute_uv=False).max(axis=-1)
        seq += [top[i] ** (1.0 / (n0 + i + 1)) for i in range(m)]
    return min(seq[:n_eff]), seq


def eigen_cloud(M: TruncationMatrix):
    """Eigenvalues of the dense truncation, sorted by modulus then phase.
    Indicative only (non-normal truncation)."""
    vals = np.linalg.eigvals(M.entries)
    order = np.lexsort((np.angle(vals), np.abs(vals)))
    return [complex(v) for v in vals[order]]
