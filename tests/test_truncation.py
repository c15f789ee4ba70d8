"""Galerkin truncation oracle: matrix entries, norms, radius estimates."""

import math

import numpy as np
import pytest

from bergspec import truncation
from bergspec.errors import EvaluationError, InversionError
from bergspec.regions import gammas_from, operator_radius
from bergspec.scenario import cocycle, make_builtin, parse_scenario
from bergspec.truncation import (TruncationMatrix, build_matrix, eigen_cloud,
                                 gelfand_radius, resolution_horizon)
from test_cli import _exp_log_twin
from test_scenario import TWINS, _twin


def test_identity_at_t_zero(strip_unweighted):
    M = build_matrix(strip_unweighted, 0.0, 24)
    assert M.entries.dtype == np.float64
    assert np.max(np.abs(M.entries - np.eye(24))) < 1e-12


def test_first_column_is_projection_of_cocycle(strip_weighted):
    # column 0 = coefficients of u_t * 1 in the orthonormal monomial basis:
    # <u_t, e_j> computed independently on a fine polar grid
    s = strip_weighted
    t = 0.6
    M = build_matrix(s, t, 16)
    nr, ntheta = 4000, 512
    r = (np.arange(nr) + 0.5) / nr
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    z = r[:, None] * np.exp(1j * theta)[None, :]
    u = cocycle(s, t, z.ravel()).reshape(z.shape)
    for j in (0, 1, 3, 7):
        e_j = math.sqrt((j + 1) / math.pi) * z ** j
        integrand = u * np.conj(e_j) * r[:, None]
        val = integrand.sum() * (2 * np.pi / ntheta) * (1.0 / nr)
        val *= math.sqrt(1.0 / math.pi)  # T e_0 = u_t * e_0(z) = u_t / sqrt(pi)
        assert abs(M.entries[j, 0] - val) < 5e-4


def test_composition_column_against_taylor_series(strip_unweighted):
    # unweighted strip flow has the closed form
    # phi_t(z) = ((e^t-1) + (e^t+1) z)/((e^t+1) + (e^t-1) z);
    # column k of the matrix must be the basis coefficients of phi_t^k
    s = strip_unweighted
    t = 1.0
    N = 12
    M = build_matrix(s, t, N)
    et = math.e
    a, b = et - 1.0, et + 1.0
    # Taylor coefficients of phi_t via series division
    n_terms = 64
    num = np.zeros(n_terms)
    num[0], num[1] = a, b
    den = np.zeros(n_terms)
    den[0], den[1] = b, a
    phi = np.zeros(n_terms)
    for n in range(n_terms):
        acc = num[n] - sum(phi[m] * den[n - m] for m in range(n))
        phi[n] = acc / den[0]
    col = np.zeros(n_terms)
    col[0] = 1.0
    # T e_k = sqrt((k+1)/pi) phi^k; with phi^k = sum c_m z^m the entry is
    # <T e_k, e_j> = c_j * sqrt((k+1)/(j+1))
    j = np.arange(N)
    for k in range(N):
        expected = col[:N] * np.sqrt((k + 1.0) / (j + 1.0))
        assert np.max(np.abs(M.entries[:, k] - expected)) < 1e-12, k
        col = np.convolve(col, phi)[:n_terms]


# an independent reference, the area integral over the disk: Gauss-Legendre
# panels in r graded toward the unit circle, and on each circle one FFT per
# column of u_t phi_t^k, keeping its first N coefficients
_PANELS = (0.0, 0.5, 0.8, 0.9, 0.95, 0.98, 0.99,
           0.995, 0.998, 0.9993, 0.9998, 1.0)


def _column_by_column(s, t, N):
    x, w = np.polynomial.legendre.leggauss(12)
    n = 1024
    circle = np.exp(2j * np.pi * np.arange(n) / n)
    M = np.zeros((N, N), dtype=complex)
    j = np.arange(N)
    for a, b in zip(_PANELS[:-1], _PANELS[1:]):
        for r, wr in zip(0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w):
            z = r * circle
            zt = truncation.flow(s, t, z)
            u = s._v(zt) / s._v(z)
            powers = np.ones_like(zt)
            for k in range(N):
                coeff = np.fft.fft(u * powers) / n
                M[:, k] += wr * coeff[:N] * r ** (j + 1)
                powers = powers * zt
    return M * 2.0 * np.sqrt((j[:, None] + 1.0) * (j[None, :] + 1.0))


def test_weighted_columns_match_column_by_column_projection():
    s = make_builtin("strip_flow", 2.0, c=0.4, s=0.7)
    M = build_matrix(s, 1.0, 24).entries
    ref = _column_by_column(s, 1.0, 24)
    assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(ref))


_MEAN_VALUE_CASES = {
    "strip_flow": lambda: make_builtin("strip_flow", 2.0, c=0.4, s=0.7),
    "half_strip": lambda: make_builtin("half_strip", 2.0, c=0.3, s=0.6),
    "trident": lambda: make_builtin("trident", 2.0, d=0.5),
    "strip_flow_twin": lambda: _twin(*TWINS[0].values[:4])[1],
    "trident_twin": lambda: _twin(*TWINS[1].values[:4])[1],
}


def _fft_per_column(s, t, N):
    # the same circle |z| = e^{-1/N} and n as build_matrix, with one FFT per
    # column of u_t phi_t^k instead of the power-series recursion
    rho = math.exp(-1.0 / N)
    n = max(1024, 1 << (40 * N - 1).bit_length())
    z = rho * np.exp(2j * np.pi * np.arange(n) / n)
    zt = truncation.flow(s, t, z)
    col = s._v(zt) / s._v(z)
    M = np.empty((N, N), dtype=complex)
    for k in range(N):
        M[:, k] = np.fft.fft(col)[:N]
        col = col * zt
    j = np.arange(N)
    return (M * np.sqrt((j[None, :] + 1.0) / (j[:, None] + 1.0))
            / (n * rho ** j[:, None]))


@pytest.mark.parametrize("name, N", [
    *((name, N) for name in ("strip_flow", "half_strip", "trident")
      for N in (24, 120, 256)),
    ("trident_twin", 24),
])
def test_series_recursion_matches_one_fft_per_column(name, N, monkeypatch):
    s = _MEAN_VALUE_CASES[name]()
    ref = _fft_per_column(s, 1.0, N)
    sizes = []
    real_flow = truncation.flow

    def flow(s, t, z):
        sizes.append(z.size)
        return real_flow(s, t, z)

    monkeypatch.setattr(truncation, "flow", flow)
    M = build_matrix(s, 1.0, N).entries
    assert sizes == [max(1024, 1 << (40 * N - 1).bit_length())]
    assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("t", [0.8, 1.0])
@pytest.mark.parametrize("name", list(_MEAN_VALUE_CASES))
def test_first_entry_is_the_cocycle_at_zero(name, t):
    # mean-value identity: M[0,0] = <u_t e_0, e_0> is the average of u_t
    # over the disk, which is u_t(0)
    s = _MEAN_VALUE_CASES[name]()
    M = build_matrix(s, t, 24).entries
    u0 = cocycle(s, t, np.array([0j]))[0]
    assert abs(M[0, 0] - u0) <= 1e-13 * abs(u0)


def test_semigroup_consistency_of_sections(strip_unweighted):
    # M(t1 + t2) ~ M(t1) M(t2) on the well-resolved upper-left block
    s = strip_unweighted
    A = build_matrix(s, 0.4, 96).entries
    B = build_matrix(s, 0.7, 96).entries
    C = build_matrix(s, 1.1, 96).entries
    blk = 24
    err = np.max(np.abs((A @ B)[:blk, :blk] - C[:blk, :blk]))
    assert err < 1e-8


def test_p_and_size_validation(strip_unweighted):
    s3 = make_builtin("strip_flow", 3.0)
    with pytest.raises(EvaluationError):
        build_matrix(s3, 1.0, 8)
    with pytest.raises(EvaluationError):
        build_matrix(strip_unweighted, 1.0, 500)


@pytest.mark.parametrize("error", [InversionError, EvaluationError])
def test_flow_failure_on_the_cauchy_circle_surfaces(strip_unweighted, monkeypatch,
                                                    error):
    # the build flows the circle |z| = e^{-1/N} and must not swallow a failure
    real_flow = truncation.flow

    def flow(s, t, z):
        if np.allclose(np.abs(z), math.exp(-1 / 4)):
            raise error("injected")
        return real_flow(s, t, z)

    monkeypatch.setattr(truncation, "flow", flow)
    with pytest.raises(error):
        build_matrix(strip_unweighted, 1.0, 4)


def test_gelfand_diagonal_cases():
    ident = TruncationMatrix(8, np.eye(8, dtype=complex), 1.0)
    r, seq = gelfand_radius(ident, 10)
    assert r == pytest.approx(1.0)
    assert all(x == pytest.approx(1.0) for x in seq)
    half = TruncationMatrix(8, 0.5 * np.eye(8, dtype=complex), 1.0)
    r, _ = gelfand_radius(half, 10)
    assert r == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gelfand_radius(ident, 4)


def test_gelfand_sequence_full_length():
    M = TruncationMatrix(4, np.diag([2.0, 1.0, 0.5, 0.25]).astype(complex),
                         1.0)
    r, seq = gelfand_radius(M, 12)
    assert len(seq) == 12
    assert r <= min(seq[:resolution_horizon(M)]) + 1e-15


def test_gelfand_radius_vs_theory(strip_unweighted):
    s = strip_unweighted
    g = gammas_from(s.fixed_points, s.p)
    M = build_matrix(s, 1.0, 60)
    r, _ = gelfand_radius(M, 24)
    theory = operator_radius(g, 1.0)
    assert theory == pytest.approx(math.e)
    assert 0.85 * math.e <= r <= 1.15 * math.e
    assert r <= 1.05 * theory


def test_eigen_cloud_sorted_and_bounded(strip_unweighted):
    M = build_matrix(strip_unweighted, 1.0, 40)
    cloud = eigen_cloud(M)
    mags = [abs(v) for v in cloud]
    assert all(a <= b + 1e-12 for a, b in zip(mags, mags[1:]))
    assert mags[-1] <= 1.5  # indicative cloud stays near the unit scale


# the section is float64 exactly when u_t and phi_t have real Taylor
# coefficients: real-parameter strips, half_strips, the trident without its
# complex d factor, and an expression twin with real coefficients
_STRIP_TWIN = _exp_log_twin("strip_flow", 0.4, 0.7, 0.15)
_REAL_SECTIONS = {
    "strip": lambda: make_builtin("strip_flow", 2.0, c=0.4, s=0.7),
    "strip_a3": lambda: make_builtin("strip_flow", 2.0, a=3.0, c=0.4, s=0.7,
                                     d=0.2),
    "half_strip": lambda: make_builtin("half_strip", 2.0, c=0.3, s=0.3),
    "half_strip_d": lambda: make_builtin("half_strip", 2.0, c=0.3, s=0.3,
                                         d=0.3),
    "trident_d0": lambda: make_builtin("trident", 2.0, c=0.2, s=0.3),
    "strip_twin": lambda: parse_scenario(_STRIP_TWIN),
}
_COMPLEX_SECTIONS = {
    "trident_d": lambda: make_builtin("trident", 2.0, c=0.0, s=0.1, d=0.5),
    # an imaginary part of 5e-10 of the largest coefficient stays complex
    "strip_twin_tilted": lambda: parse_scenario(_STRIP_TWIN.replace(
        "v_expr = ", "v_expr = exp(1e-9*i*z) * ")),
}


@pytest.mark.parametrize("name", list(_REAL_SECTIONS) + list(_COMPLEX_SECTIONS))
def test_a_real_coefficient_model_gives_a_float64_section(name):
    real = name in _REAL_SECTIONS
    s = (_REAL_SECTIONS if real else _COMPLEX_SECTIONS)[name]()
    for N in (24, 60):
        dtype = build_matrix(s, 1.0, N).entries.dtype
        assert dtype == (np.float64 if real else np.complex128)


@pytest.mark.parametrize("N", [24, 60])
@pytest.mark.parametrize("name", list(_REAL_SECTIONS))
def test_a_real_section_powers_and_factors_as_its_complex_copy(name, N):
    M = build_matrix(_REAL_SECTIONS[name](), 1.0, N)
    Mc = TruncationMatrix(N, M.entries.astype(complex), M.t)
    r, seq = gelfand_radius(M, 24)
    rc, seq_c = gelfand_radius(Mc, 24)
    assert abs(r - rc) <= 1e-13 * rc
    assert all(abs(x - y) <= 1e-13 * y for x, y in zip(seq, seq_c))
    top, top_c = abs(eigen_cloud(M)[-1]), abs(eigen_cloud(Mc)[-1])
    assert abs(top - top_c) <= 1e-13 * top_c


def _per_power_sequence(A, n_max):
    """||A^n||_2^{1/n}, n = 1..n_max, each power one product from the last
    and each norm its own `np.linalg.norm` call."""
    P, seq = A, [np.linalg.norm(A, 2)]
    for n in range(2, n_max + 1):
        P = P @ A
        seq.append(np.linalg.norm(P, 2) ** (1.0 / n))
    return seq


# batched SVDs of in-place powers read the same LAPACK singular values as one
# norm per power, for float64 and complex sections and a partial last chunk
@pytest.mark.parametrize("n_max", [8, 13, 24])
@pytest.mark.parametrize("name, dtype", [("strip", np.float64),
                                         ("trident_d", np.complex128)])
@pytest.mark.parametrize("N, t", [(60, 1.0), (13, 0.5), (24, 0.0)])
def test_gelfand_sequence_is_bitwise_the_per_power_norms(name, dtype, N, t,
                                                         n_max):
    s = {**_REAL_SECTIONS, **_COMPLEX_SECTIONS}[name]()
    M = build_matrix(s, t, N)
    assert M.entries.dtype == (np.float64 if t == 0.0 else dtype)
    r, seq = gelfand_radius(M, n_max)
    ref = _per_power_sequence(M.entries, n_max)
    assert np.array(seq).tobytes() == np.array(ref).tobytes()
    assert r == min(ref[:min(n_max, resolution_horizon(M))])
