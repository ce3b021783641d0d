import io
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dtrsyl
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from torusmix import cli, covariance
from torusmix import (
    CovarianceOperator,
    FourierField,
    NoiseSpec,
    advection_matrix,
    block_operator_norm,
    covariance_by_quadrature,
    covariance_distance,
    default_cellular_flow,
    eigenvalue_summary,
    generator,
    h1_trace,
    lyapunov_covariance,
    make_cellular,
    mode_table,
    read_covariance,
    shear_limit_covariance,
    spectrum,
    write_covariance,
)
from torusmix.covariance import (_LEAF, _split, _triangular_lyapunov, _triangular_sylvester,
                                 gaussian_increment_covariance)
from torusmix.fields import random_field
from torusmix.operators import BlockDiagonal, _symmetry_sectors, invariant_blocks

from strategies import dihedral_flows, random_flows, symmetric_flows


def unit_noise(N, entries):
    return NoiseSpec.from_modes(N, entries)


# ---------------------------------------------------------------------------
# Lyapunov solve
# ---------------------------------------------------------------------------


def test_ou_stationary_variance_heat_only():
    # u = 0, forcing one coefficient: scalar OU with variance
    # nu psi^2 / (2 nu |k|^2) = psi^2 / (2 |k|^2), independent of nu
    N = 4
    t = mode_table(N)
    i = t.coefficient_index((0, 1), "cos")
    noise = unit_noise(N, [((0, 1), "cos", 1.0)])
    for nu in (1.0, 0.1, 0.01):
        Q = lyapunov_covariance(generator(None, nu, N), noise)
        expected = np.zeros_like(Q.matrix)
        expected[i, i] = 0.5
        assert np.allclose(Q.matrix, expected, atol=1e-12)


def test_ou_variance_higher_mode_and_fractional():
    N = 4
    t = mode_table(N)
    noise = unit_noise(N, [((1, 1), "sin", 2.0)])
    Q = lyapunov_covariance(generator(None, 0.3, N), noise)
    i = t.coefficient_index((1, 1), "sin")
    assert Q.matrix[i, i] == pytest.approx(4.0 / (2.0 * 2.0), rel=1e-12)
    # fractional dissipation s = 1/2: rate |k|^{2s} = sqrt(2)
    Qf = lyapunov_covariance(generator(None, 0.3, N, s=0.5), noise)
    assert Qf.matrix[i, i] == pytest.approx(4.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)


def test_zero_noise_gives_zero_covariance(shear):
    N = 4
    noise = NoiseSpec(N, np.zeros(mode_table(N).size))
    Q = lyapunov_covariance(generator(shear, 0.2, N), noise)
    assert np.all(Q.matrix == 0.0)


def test_singleton_blocks_match_closed_form_bit_for_bit():
    # without a flow every block is a singleton a = -nu |k|^2, and the Schur
    # path gives the scalar solution -nu psi^2 / (2 a) to the last bit
    N, nu = 3, 0.37
    amps = np.random.default_rng(4).uniform(0.1, 2.0, mode_table(N).size)
    op = generator(None, nu, N)
    Q = lyapunov_covariance(op, NoiseSpec(N, amps))
    a = op.matrix.diagonal()
    assert len(Q.blocks.blocks) == a.size
    want = -(nu * amps**2) / (2.0 * a)
    assert np.array_equal(Q.blocks.diagonal().view(np.uint64), want.view(np.uint64))


def test_lyapunov_rejects_inviscid(shear):
    noise = unit_noise(4, [((0, 1), "cos", 1.0)])
    with pytest.raises(ValueError, match="nu > 0"):
        lyapunov_covariance(generator(shear, 0.0, 4), noise)


def test_lyapunov_rejects_non_generator(shear):
    from torusmix import advection_matrix

    noise = unit_noise(4, [((0, 1), "cos", 1.0)])
    with pytest.raises(ValueError, match="generator"):
        lyapunov_covariance(advection_matrix(shear, 4), noise)


def test_shear_block_decoupling(shear):
    # generator is block diagonal in k1, so mixed forcing cannot correlate
    # the x-independent block with the rest
    N = 6
    t = mode_table(N)
    noise = unit_noise(N, [((0, 1), "cos", 1.0), ((2, 1), "cos", 1.0)])
    Q = lyapunov_covariance(generator(shear, 0.1, N), noise)
    onaxis = np.flatnonzero(t.k1 == 0)
    rest = np.flatnonzero(t.k1 != 0)
    cross = Q.matrix[np.ix_(onaxis, rest)]
    assert np.max(np.abs(cross)) < 1e-12


def test_lyapunov_residual_certificate(cellular, rng):
    N = 6
    noise = NoiseSpec(N, np.abs(random_field(N, rng).coeffs))
    A = generator(cellular, 0.07, N)
    Q = lyapunov_covariance(A, noise)
    res = A.dense() @ Q.matrix + Q.matrix @ A.dense().T + 0.07 * np.diag(noise.amps**2)
    bound = 1e-10 * (
        np.linalg.norm(A.dense(), "fro") * np.linalg.norm(Q.matrix, "fro")
        + 0.07 * noise.total_intensity
    )
    assert np.linalg.norm(res, "fro") <= bound
    assert Q.meta["residual_fro"] <= bound


def test_psd_and_norm_bound(shear, cellular, rng):
    # min eigenvalue >= -1e-10 ||Q||_op and ||Q||_op <= ||Psi||^2 / (2 lambda_1)
    for flow, nu in ((shear, 0.2), (cellular, 0.05)):
        noise = NoiseSpec(6, np.abs(random_field(6, rng).coeffs))
        Q = lyapunov_covariance(generator(flow, nu, 6), noise)
        assert Q.min_eigenvalue() >= -1e-10 * Q.operator_norm
        assert Q.operator_norm <= noise.total_intensity / 2.0 + 1e-9


def _quasi_triangular(rng, b):
    """Stable upper quasi-triangular T with 2 x 2 bumps, one across the cut b/2."""
    T = np.triu(rng.standard_normal((b, b)), 1) / math.sqrt(b)
    T[np.diag_indices(b)] = -rng.uniform(0.5, 2.0, b)
    starts = [] if b < 2 else [b // 2 - 1]
    for i in range(2, b - 1, 9):
        if all(abs(i - j) >= 2 for j in starts):
            starts.append(i)
    for i in starts:        # eigenvalues d +- i sqrt(c1 c2), in LAPACK's standard form
        T[i, i] = T[i + 1, i + 1] = -rng.uniform(0.5, 2.0)
        T[i, i + 1], T[i + 1, i] = rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)
    return T


def _dtrsyl(Ta, Tb, G):
    x, scale, info = dtrsyl(Ta, Tb, G, tranb="T")
    assert info == 0
    return x / scale


@pytest.mark.parametrize("b", [1, 63, 64, 65, 129, 300])
def test_triangular_lyapunov_matches_dtrsyl(b):
    rng = np.random.default_rng(b)
    T = _quasi_triangular(rng, b)
    if b > _LEAF:
        assert _split(T) == b // 2 + 1     # the cut moves off the bump
    G = rng.standard_normal((b, b))
    F = G + G.T
    Y = F.copy()
    _triangular_lyapunov(T, Y)
    want = _dtrsyl(T, T, F)
    assert np.max(np.abs(Y - want)) <= 1e-13 * np.max(np.abs(want))
    residual = np.linalg.norm(T @ Y + Y @ T.T - F)
    assert residual <= 1e-14 * (2 * np.linalg.norm(T) * np.linalg.norm(Y) + np.linalg.norm(F))


@pytest.mark.parametrize("m,k", [(150, 70), (40, 200), (65, 129)])
def test_triangular_sylvester_matches_dtrsyl(m, k):
    rng = np.random.default_rng(m * k)
    Ta, Tb = _quasi_triangular(rng, m), _quasi_triangular(rng, k)
    G = rng.standard_normal((m, k))
    X = G.copy()
    _triangular_sylvester(Ta, Tb, X)
    want = _dtrsyl(Ta, Tb, G)
    assert np.max(np.abs(X - want)) <= 1e-13 * np.max(np.abs(want))
    residual = np.linalg.norm(Ta @ X + X @ Tb.T - G)
    scale = (np.linalg.norm(Ta) + np.linalg.norm(Tb)) * np.linalg.norm(X) + np.linalg.norm(G)
    assert residual <= 1e-14 * scale


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(symmetric_flows().map(lambda flow: (flow, True)),
                      dihedral_flows().map(lambda flow: (flow, True)),
                      random_flows().map(lambda flow: (flow, False))),
       N=st.integers(6, 8), nu=st.floats(0.05, 1.0), forcing_seed=st.integers(0, 2**32 - 1))
@example(case=(default_cellular_flow(), True), N=8, nu=0.1, forcing_seed=0)
def test_lyapunov_above_leaf_size_matches_dense_solve(case, N, nu, forcing_seed):
    # blocks of up to 288 rows, so the triangular solve recurses past _LEAF
    # rows, and symmetric flows split their blocks into sectors; dihedral
    # ones such as sin x sin y (the example) split some sectors again and
    # have twin sectors, whose Schur form is reused
    flow, symmetric = case
    rng = np.random.default_rng(forcing_seed)
    n = mode_table(N).size
    amps = np.where(rng.random(n) < 0.2, rng.uniform(0.1, 2.0, n), 0.0)
    amps[rng.integers(n)] = 1.0
    noise = NoiseSpec(N, amps)
    op = generator(flow, nu, N)
    if symmetric:
        assert any(sum(1 + len(twins) for _, twins, _ in sectors) > 1
                   for _, sectors in _symmetry_sectors(op))
    Q = lyapunov_covariance(op, noise)
    Qd = sla.solve_continuous_lyapunov(op.dense(), -nu * np.diag(noise.amps**2))
    want = 0.5 * (Qd + Qd.T)
    assert np.max(np.abs(Q.matrix - want)) <= 1e-12 * np.max(np.abs(want))


def _check_complex_sector_blocks(op, noise):
    """Q per forced block with a complex-structure sector against the dense
    solve of its block; returns the number of such blocks."""
    Q = lyapunov_covariance(op, noise)
    stored = {tuple(idx): block for idx, block in Q.blocks.blocks}
    A, psi2 = op.dense(), op.nu * noise.amps**2
    checked = 0
    for idx, sectors in _symmetry_sectors(op):
        if psi2[idx].any() and any(complex_form for _, _, complex_form in sectors):
            want = sla.solve_continuous_lyapunov(A[np.ix_(idx, idx)], -np.diag(psi2[idx]))
            want = 0.5 * (want + want.T)
            assert np.abs(stored[tuple(idx)] - want).max() <= 1e-12 * np.abs(want).max()
            checked += 1
    return checked


@pytest.mark.parametrize("N", [8, 16])
def test_lyapunov_on_complex_sectors_of_sin_x_sin_y(cellular, N):
    # the 272-row block at N = 16 (72 at N = 8) is two sectors with a complex
    # structure, each solved from the complex Schur form at half its rows
    noise = unit_noise(N, [((k1, k2), parity, 1.0) for k1, k2 in ((0, 1), (1, 0), (1, 1))
                           for parity in ("cos", "sin")])
    assert _check_complex_sector_blocks(generator(cellular, 0.05, N), noise) == 1


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=dihedral_flows(), N=st.integers(2, 6), nu=st.floats(0.05, 1.0),
       forcing_seed=st.integers(0, 2**32 - 1))
def test_lyapunov_on_complex_sectors_of_dihedral_flows(flow, N, nu, forcing_seed):
    rng = np.random.default_rng(forcing_seed)
    n = mode_table(N).size
    amps = np.where(rng.random(n) < 0.3, rng.uniform(0.1, 2.0, n), 0.0)
    amps[rng.integers(n)] = 1.0
    _check_complex_sector_blocks(generator(flow, nu, N), NoiseSpec(N, amps))


def test_increment_covariance_without_step_bound(shear):
    # strong dissipation over a long step: S(t) = X - E X E^T with
    # A X + X A^T + Psi Psi^T = 0, where one Van Loan exponential over all
    # of t loses S(t) to cancellation (relative error ~1e20 at t = 5)
    N, nu = 5, 0.9
    noise = unit_noise(N, [((0, 1), "cos", 1.0), ((1, 1), "cos", 1.0)])
    op = generator(shear, nu, N)
    A = op.dense()
    X = sla.solve_continuous_lyapunov(A, -np.diag(noise.amps**2))
    for t in (1.0, 5.0):
        E, S = gaussian_increment_covariance(op, noise, t)
        Ed = sla.expm(t * A)
        want = X - Ed @ X @ Ed.T
        assert np.max(np.abs(S.toarray() - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(E.toarray() - Ed)) <= 1e-12


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_quadrature_single_mode_closed_form():
    # u = 0, one forced mode: nu int_0^T e^{-2 nu |k|^2 t} dt in closed form
    N = 3
    t = mode_table(N)
    i = t.coefficient_index((0, 2), "cos")
    nu, lam, psi = 0.25, 4.0, 1.5
    noise = unit_noise(N, [((0, 2), "cos", psi)])
    A = generator(None, nu, N)
    prev = 0.0
    for T in (1.0, 4.0, 16.0):
        Q = covariance_by_quadrature(A, noise, T=T, h=0.001)
        exact = psi**2 / (2 * lam) * (1.0 - math.exp(-2 * nu * lam * T))
        assert Q.matrix[i, i] == pytest.approx(exact, rel=1e-6)
        assert Q.matrix[i, i] > prev  # converges upward in T
        prev = Q.matrix[i, i]


def test_quadrature_zero_noise(shear):
    noise = NoiseSpec(4, np.zeros(mode_table(4).size))
    Q = covariance_by_quadrature(generator(shear, 0.5, 4), noise, T=10.0, h=0.01)
    assert np.all(Q.matrix == 0.0)


def test_quadrature_exponentiates_the_forced_blocks_only(shear, monkeypatch):
    # S(T) vanishes off the forced blocks: the oracle runs one Van Loan step
    # per forced invariant block and stores nothing else
    N = 6
    noise = unit_noise(N, [((0, 1), "cos", 1.0), ((1, 1), "cos", 1.0), ((2, 3), "sin", 0.5)])
    A = generator(shear, 0.5, N)
    forced = [idx for idx in invariant_blocks(A) if noise.amps[idx].any()]
    assert 1 < len(forced) < len(invariant_blocks(A))
    sizes = []
    step = covariance._increment_block

    def counted(a, psi2, t, h=None):
        sizes.append(len(a))
        return step(a, psi2, t, h)

    monkeypatch.setattr(covariance, "_increment_block", counted)
    Q = covariance_by_quadrature(A, noise, T=20.0, h=0.01)
    assert sizes == [len(idx) for idx in forced]
    assert [idx.tolist() for idx, _ in Q.blocks.blocks] == [idx.tolist() for idx in forced]


def test_quadrature_agrees_with_lyapunov_mixed_forcing(shear):
    # mixed forcing, on an x-averaged and an x-dependent mode: the oracle is
    # exact up to round-off and a tail below exp(-80)
    N = 6
    nu = 0.5
    noise = unit_noise(N, [((0, 1), "cos", 1.0), ((1, 1), "cos", 1.0)])
    A = generator(shear, nu, N)
    Ql = lyapunov_covariance(A, noise)
    Qq = covariance_by_quadrature(A, noise, T=40 / nu, h=0.002)
    dist = np.linalg.norm(Ql.matrix - Qq.matrix, "fro")
    assert dist <= 1e-6 * np.linalg.norm(Ql.matrix, "fro")
    assert Qq.meta["tail_bound"] < 1e-30


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=st.one_of(random_flows(), symmetric_flows()), N=st.integers(2, 6),
       nu=st.floats(0.05, 1.0), forcing_seed=st.integers(0, 2**32 - 1))
def test_quadrature_matches_lyapunov_on_random_flows(flow, N, nu, forcing_seed):
    # sparse forcing, at least one coefficient; the tail beyond T = 20/nu is
    # below exp(-40), so both routes must agree to round-off
    rng = np.random.default_rng(forcing_seed)
    n = mode_table(N).size
    amps = np.where(rng.random(n) < 0.2, rng.uniform(0.1, 2.0, n), 0.0)
    amps[rng.integers(n)] = 1.0
    noise = NoiseSpec(N, amps)
    A = generator(flow, nu, N)
    Ql = lyapunov_covariance(A, noise)
    Qq = covariance_by_quadrature(A, noise, T=20 / nu, h=0.01 / nu)
    assert np.linalg.norm(Ql.matrix - Qq.matrix) <= 1e-10 * np.linalg.norm(Ql.matrix)
    for Q in (Ql, Qq):
        assert h1_trace(Q) == pytest.approx(noise.total_intensity / 2, rel=1e-10)


# ---------------------------------------------------------------------------
# shear limit covariance
# ---------------------------------------------------------------------------


def test_shear_limit_values():
    N = 4
    t = mode_table(N)
    noise = unit_noise(N, [((0, 1), "cos", 1.0)])
    Q0 = shear_limit_covariance(noise)
    i = t.coefficient_index((0, 1), "cos")
    assert Q0.matrix[i, i] == 0.5
    assert np.count_nonzero(Q0.matrix) == 1

    noise3 = unit_noise(N, [((0, 3), "cos", 2.0)])
    Q3 = shear_limit_covariance(noise3)
    i = t.coefficient_index((0, 3), "cos")
    assert Q3.matrix[i, i] == pytest.approx(2.0 / 9.0)


def test_shear_limit_vanishes_for_x_dependent_forcing():
    # forcing only x-dependent modes: the limit measure degenerates to zero
    noise = unit_noise(4, [((1, 1), "cos", 1.0), ((2, -1), "sin", 0.7)])
    Q0 = shear_limit_covariance(noise)
    assert np.all(Q0.matrix == 0.0)


def test_exact_block_identity_shear_pure_axis_forcing(shear):
    # forcing on k1 = 0 only: Q_nu equals the limit exactly for every nu
    N = 6
    noise = unit_noise(N, [((0, 1), "cos", 1.0), ((0, 2), "sin", 0.5)])
    Q0 = shear_limit_covariance(noise)
    for nu in (0.2, 0.1, 0.05, 0.025):
        Q = lyapunov_covariance(generator(shear, nu, N), noise)
        assert covariance_distance(Q, Q0) < 1e-12


def test_distance_to_limit_decreases_with_nu(shear):
    N = 8
    noise = unit_noise(N, [((0, 1), "cos", 1.0), ((1, 1), "cos", 1.0)])
    Q0 = shear_limit_covariance(noise)
    dists = [
        covariance_distance(lyapunov_covariance(generator(shear, nu, N), noise), Q0)
        for nu in (0.2, 0.1, 0.05, 0.025)
    ]
    assert all(a > b for a, b in zip(dists, dists[1:]))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_h1_trace_balance_every_flow(shear, cellular):
    # tr(diag(|k|^2) Q) = ||Psi||^2 / 2 exactly in the Galerkin system
    noise = unit_noise(6, [((1, 1), "sin", 1.0)])
    for flow in (None, shear, cellular):
        for nu in (0.5, 0.05):
            Q = lyapunov_covariance(generator(flow, nu, 6), noise)
            assert h1_trace(Q) == pytest.approx(0.5, abs=1e-9)


def test_h1_trace_trivial_and_limit():
    N = 4
    noise = unit_noise(N, [((0, 1), "cos", 1.0)])
    zero = shear_limit_covariance(NoiseSpec(N, np.zeros(mode_table(N).size)))
    assert h1_trace(zero) == 0.0
    Q0 = shear_limit_covariance(noise)
    assert h1_trace(Q0) == pytest.approx(0.5)


def test_block_operator_norm_selectors():
    N = 4
    noise = unit_noise(N, [((0, 1), "cos", 1.0)])
    Q0 = shear_limit_covariance(noise)
    assert block_operator_norm(Q0, "all") == pytest.approx(0.5)
    assert block_operator_norm(Q0, "k1-nonzero") == 0.0
    assert block_operator_norm(Q0, lambda k1, k2, parity: k1 == 0) == pytest.approx(0.5)


def test_offblock_norm_decreases_with_nu(shear):
    N = 8
    noise = unit_noise(N, [((0, 1), "cos", 1.0), ((1, 1), "cos", 1.0)])
    vals = [
        block_operator_norm(
            lyapunov_covariance(generator(shear, nu, N), noise), "k1-nonzero"
        )
        for nu in (0.2, 0.1, 0.05, 0.025)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_covariance_distance_basics(shear):
    noise = unit_noise(4, [((0, 1), "cos", 1.0)])
    Q = lyapunov_covariance(generator(shear, 0.1, 4), noise)
    assert covariance_distance(Q, Q) == 0.0
    other = shear_limit_covariance(unit_noise(6, [((0, 1), "cos", 1.0)]))
    with pytest.raises(ValueError, match="match"):
        covariance_distance(Q, other)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=st.one_of(random_flows(), symmetric_flows()), N=st.integers(2, 5),
       nu=st.floats(0.05, 1.0), forcing_seed=st.integers(0, 2**32 - 1))
def test_per_block_results_match_dense_computation(flow, N, nu, forcing_seed):
    # every result kept per invariant block against one computation on the
    # whole dense matrix, to 1e-12 of the result's scale
    rng = np.random.default_rng(forcing_seed)
    n = mode_table(N).size
    amps = np.where(rng.random(n) < 0.2, rng.uniform(0.1, 2.0, n), 0.0)
    amps[rng.integers(n)] = 1.0
    noise = NoiseSpec(N, amps)
    op = generator(flow, nu, N)
    A, C = op.dense(), np.diag(noise.amps**2)

    def close(got, want):
        scale = max(np.max(np.abs(want)), 1e-300)
        return np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * scale

    Q = lyapunov_covariance(op, noise)
    Qd = sla.solve_continuous_lyapunov(A, -nu * C)
    assert close(Q.matrix, 0.5 * (Qd + Qd.T))
    # S(t) = X - E X E^T with A X + X A^T + Psi Psi^T = 0
    E, S = gaussian_increment_covariance(op, noise, 1.0, h=0.05)
    Ed = sla.expm(A)
    assert close(E.toarray(), Ed)
    assert close(S.toarray(), Qd / nu - Ed @ (Qd / nu) @ Ed.T)

    eigs = sla.eigvalsh(Q.matrix)
    assert close(eigenvalue_summary(Q), eigs[::-1])
    tops = []
    for idx, block in Q.blocks.blocks:
        vals, vecs = sla.eigh(block)
        tops.append((vals[-1], idx, vecs[:, -1]))
    top, idx, vec = max(tops, key=lambda t: t[0])
    assert close(top, eigs[-1])
    v = np.zeros(n)
    v[idx] = vec
    assert close(Q.matrix @ v, top * v)
    table = mode_table(N)
    for selector, mask in (("all", np.ones(n, bool)), ("k1-nonzero", table.k1 != 0),
                           ("k1-zero", table.k1 == 0)):
        sub = Q.matrix[np.ix_(mask, mask)]
        want = np.max(np.abs(sla.eigvalsh(sub))) if mask.any() else 0.0
        assert abs(block_operator_norm(Q, selector) - want) <= 1e-12 * Q.operator_norm
    Q0 = shear_limit_covariance(noise)
    want = np.max(np.abs(sla.eigvalsh(Q.matrix - Q0.matrix)))
    assert close(covariance_distance(Q, Q0), want)

    B = advection_matrix(flow, N)
    rep = spectrum(B)
    assert close(rep.frequencies, sla.eigvalsh(1j * B.dense()))
    assert close(1j * B.dense() @ rep.vectors, rep.vectors * rep.frequencies)


# ---------------------------------------------------------------------------
# memory of the solve and of the top eigenspace
# ---------------------------------------------------------------------------

# the forcing of the benchmark's support ladders: every mode with |k|^2 <= 2
LOW_MODES = [((k1, k2), parity, 1.0) for k1, k2 in ((0, 1), (1, 0), (1, 1), (1, -1))
             for parity in ("cos", "sin")]


def _one_block_generator(N, nu=0.05, seed=7):
    """A random |k|_inf <= 2 cellular flow: its generator is one block, one sector."""
    psi = np.random.default_rng(seed).uniform(-1.0, 1.0, mode_table(2).size)
    A = generator(make_cellular(FourierField(2, psi)), nu, N)
    assert [len(idx) for idx in invariant_blocks(A)] == [mode_table(N).size]
    return A


def _traced_peak(fn, *args):
    """tracemalloc peak of fn(*args), after one call that fills the caches."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("N", [12, 16])
def test_solve_and_top_eigenspace_hold_few_block_arrays(N):
    # b = 624 and 1088.  The solve holds T, W and Y (then W, W Y and Q),
    # and a quarter-size GEMM product where a 2 x 2 bump at the top split
    # leaves no room in Y21; the top eigenspace holds one copy of the block
    b = mode_table(N).size
    A = _one_block_generator(N)
    noise = unit_noise(N, LOW_MODES)
    assert _traced_peak(lyapunov_covariance, A, noise) <= 3.3 * 8 * b * b
    Q = lyapunov_covariance(A, noise)
    assert _traced_peak(cli._top_eigenspace, Q) <= 2.2 * 8 * b * b


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM of Linux")
def test_top_eigenspace_peak_rss():
    # tracemalloc does not see the workspace numpy.linalg allocates, so the
    # peak RSS of a fresh process judges the eigh step: a full syevd held the
    # eigenvectors, a copy and a 2 b^2 workspace beside the stored block.
    # VmHWM, not ru_maxrss, which keeps the parent's peak across exec.
    code = """
import re
import numpy as np
from torusmix import CovarianceOperator, mode_table
from torusmix.cli import _top_eigenspace
from torusmix.operators import BlockDiagonal

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))

N = 16
b = mode_table(N).size
G = np.random.default_rng(0).standard_normal((b, 8))
Q = G @ G.T
Q[np.diag_indices(b)] += 1.0
Q = CovarianceOperator(N, BlockDiagonal(b, [(np.arange(b), Q)]))
before = peak_kb()
_top_eigenspace(Q)
print((peak_kb() - before) * 1024 / (8 * b * b))
"""
    src = str(Path(covariance.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert float(done.stdout) <= 1.5


def _check_top_eigenspace(Q):
    """``cli._top_eigenspace`` against the cluster of one full ``np.linalg.eigh``."""
    top, basis = cli._top_eigenspace(Q)
    vals, vecs = np.linalg.eigh(Q.matrix)
    cluster = vals >= vals[-1] - cli._TOP_CLUSTER_RTOL * vals[-1]
    assert len(basis) == cluster.sum()
    assert abs(top - vals[-1]) <= 1e-13 * vals[-1]
    V = np.column_stack([f.coeffs for f in basis])
    rayleigh = np.einsum("ij,ij->j", V, Q.matrix @ V)
    assert np.max(np.abs(rayleigh - vals[cluster])) <= 1e-13 * vals[-1]
    P = vecs[:, cluster] @ vecs[:, cluster].T
    assert np.max(np.abs(V @ V.T - P)) <= 1e-10
    return len(basis)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=st.one_of(random_flows(), dihedral_flows()), N=st.integers(2, 6),
       nu=st.floats(0.05, 1.0), forcing_seed=st.integers(0, 2**32 - 1))
def test_partial_top_eigenspace_matches_full_eigh(flow, N, nu, forcing_seed):
    rng = np.random.default_rng(forcing_seed)
    n = mode_table(N).size
    amps = np.where(rng.random(n) < 0.2, rng.uniform(0.1, 2.0, n), 0.0)
    amps[rng.integers(n)] = 1.0
    Q = lyapunov_covariance(generator(flow, nu, N), NoiseSpec(N, amps))
    vals = np.linalg.eigvalsh(Q.matrix)
    below = vals[vals < vals[-1] - 1e-10 * vals[-1]]
    # the projectors agree to 1e-10 only where the cluster is well apart
    # from the next eigenvalue (the error of either goes as eps / gap)
    assume(below.size == 0 or vals[-1] - below[-1] >= 1e-5 * vals[-1])
    _check_top_eigenspace(Q)


def test_top_eigenspace_of_the_default_support_ladder(cellular):
    # configs/cellular_support_default.ini: for nu >= 0.025 the top is a
    # pair, split across twin sectors or, at nu = 0.2, inside the sector
    # where a lattice map is a complex structure; at nu = 0.0125 it is simple
    noise = unit_noise(16, LOW_MODES)
    B = advection_matrix(cellular, 16)
    dims = [_check_top_eigenspace(lyapunov_covariance(generator(B, nu, 16), noise))
            for nu in (0.2, 0.1, 0.05, 0.025, 0.0125)]
    assert dims == [2, 2, 2, 2, 1]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _exported(Q) -> bytes:
    buf = io.BytesIO()
    write_covariance(Q, buf)
    return buf.getvalue()


def _assert_same_blocks(blocks, read):
    assert len(read.blocks) == len(blocks.blocks)
    for (idx, block), (ridx, rblock) in zip(blocks.blocks, read.blocks):
        assert np.array_equal(idx, ridx)
        assert np.array_equal(block.view(np.uint64), rblock.view(np.uint64))   # sign bits too


def _v2_text(blocks, N, provenance="p") -> bytes:
    """The block text of covariance v2: index lines, then rows in %.17g."""
    lines = ["# torusmix covariance v2", f"N {N}", f"provenance {provenance}",
             f"blocks {len(blocks)}"]
    for idx, block in blocks:
        lines.append(" ".join(map(str, idx)))
        lines += [" ".join(f"{v:.17g}" for v in row) for row in np.asarray(block).tolist()]
    return ("\n".join(lines) + "\n").encode()


def test_covariance_export_round_trip(shear, tmp_path):
    noise = unit_noise(4, [((0, 1), "cos", 1.0), ((1, 0), "sin", 0.3)])
    Q = lyapunov_covariance(generator(shear, 0.1, 4), noise)
    buf = io.BytesIO()
    write_covariance(Q, buf)
    buf.seek(0)
    path = tmp_path / "Q.cov"
    write_covariance(Q, path)
    assert path.read_bytes() == buf.getvalue()
    for source in (buf, path):
        R = read_covariance(source)
        assert R.N == Q.N
        assert np.array_equal(R.matrix, Q.matrix)
        assert R.provenance == Q.provenance


@st.composite
def block_partitions(draw):
    """A covariance on random disjoint index sets of N = 2 (singletons, unsorted, none)."""
    n = mode_table(2).size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)[:draw(st.integers(0, n))]
    cuts = np.sort(rng.choice(np.arange(1, max(perm.size, 1)),
                              size=min(draw(st.integers(0, 6)), max(perm.size - 1, 0)),
                              replace=False))
    specials = np.array([-0.0, 5e-324, -1e308, np.nan, np.inf, 1 / 3])
    blocks = []
    for idx in np.split(perm, cuts):
        if idx.size:
            values = rng.standard_normal((idx.size, idx.size))
            values.flat[rng.integers(0, values.size, 2)] = rng.choice(specials, 2)
            blocks.append((idx, values))
    return CovarianceOperator(2, BlockDiagonal(n, blocks), provenance=f"random {len(blocks)}")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(Q=block_partitions())
@example(Q=CovarianceOperator(2, BlockDiagonal(mode_table(2).size, []), provenance="empty"))
def test_covariance_export_v3_round_trip_is_bit_exact(Q, tmp_path):
    # through a path and a byte buffer: every value bit for bit, NaN and -0.0 too
    data = _exported(Q)
    path = tmp_path / "Q.cov"
    write_covariance(Q, path)
    assert path.read_bytes() == data
    assert data.startswith(f"# torusmix covariance v3\nN 2\nprovenance {Q.provenance}\n"
                           f"blocks {len(Q.blocks.blocks)}\n".encode())
    for source in (path, io.BytesIO(data)):
        R = read_covariance(source)
        assert R.N == 2 and R.provenance == Q.provenance
        _assert_same_blocks(Q.blocks, R.blocks)


def test_covariance_export_writes_the_same_bytes_twice(shear):
    Q = lyapunov_covariance(generator(shear, 0.1, 6), unit_noise(6, [((1, 1), "cos", 1.0)]))
    assert max(len(idx) for idx, _ in Q.blocks.blocks) > 1
    assert _exported(Q) == _exported(Q)
    assert _exported(read_covariance(io.BytesIO(_exported(Q)))) == _exported(Q)


def test_covariance_export_v2_round_trip_is_bit_exact():
    # v2 text of earlier versions: a -0.0 inside a block, a singleton, an
    # unsorted index array, uncovered rows
    N, n = 2, mode_table(2).size
    blocks = BlockDiagonal(n, [
        (np.array([0, 5, 9]), np.array([[2.0, -0.0, 0.1], [-0.0, 1.5, 1 / 3], [0.1, 1 / 3, 0.7]])),
        (np.array([3]), np.array([[0.25]])),
        (np.array([20, 7]), np.array([[3.0, 1e-300], [1e-300, 2.0]])),
    ])
    text = _v2_text(blocks.blocks, N, "p q")
    lines = text.decode().splitlines()
    assert lines[4] == "0 5 9" and lines[5].split()[1] == "-0"
    assert lines[8:10] == ["3", "0.25"] and lines[10] == "20 7"
    R = read_covariance(io.BytesIO(text))
    assert R.N == N and R.provenance == "p q"
    _assert_same_blocks(blocks, R.blocks)
    assert np.array_equal(R.matrix.view(np.uint64), blocks.toarray().view(np.uint64))
    # a dense v2 covariance is one block over all indices; v3 writes it back
    # bit for bit
    dense = CovarianceOperator(N, blocks.toarray(), provenance="d")
    R = read_covariance(io.BytesIO(_v2_text(dense.blocks.blocks, N, "d")))
    assert np.array_equal(R.matrix.view(np.uint64), dense.matrix.view(np.uint64))
    assert _exported(R) == _exported(dense)


def test_covariance_export_matches_per_value_format():
    # each block's values are the little-endian float64 of each value in
    # turn, row by row: -0.0, a subnormal, 1e308 and integral floats
    N, n = 2, mode_table(2).size
    values = np.array([[-0.0, 5e-324, 1e308], [3.0, -2.0, 1 / 3], [0.1, 2.5e-310, -1e308]])
    blocks = BlockDiagonal(n, [(np.array([4, 1, 7]), values), (np.array([2]), np.array([[8.0]]))])
    data = _exported(CovarianceOperator(N, blocks, provenance="p"))
    packed = b"".join(struct.pack("<d", v) for v in values.ravel().tolist())
    assert data == (b"# torusmix covariance v3\nN 2\nprovenance p\nblocks 2\n"
                    + b"4 1 7\n" + packed + b"2\n" + struct.pack("<d", 8.0))
    R = read_covariance(io.BytesIO(data))
    _assert_same_blocks(blocks, R.blocks)


def test_covariance_import_reads_v1():
    # the dense text of earlier versions: every row of the matrix, zeros included
    rows = ["0.5 0 0 0", "0 0.25 -0.125 0", "0 -0.125 0.25 0", "0 0 0 -0"]
    n = mode_table(1).size
    assert n == 8
    text = "# torusmix covariance v1\nN 1\nprovenance old\n" + "\n".join(
        row + " 0 0 0 0" for row in rows) + "\n" + "\n".join(["0 0 0 0 0 0 0 0"] * 4) + "\n"
    R = read_covariance(io.BytesIO(text.encode()))
    want = np.zeros((n, n))
    want[0, 0], want[1, 1], want[2, 2] = 0.5, 0.25, 0.25
    want[1, 2] = want[2, 1] = -0.125
    want[3, 3] = -0.0
    assert R.N == 1 and R.provenance == "old"
    assert np.array_equal(R.matrix.view(np.uint64), want.view(np.uint64))


_TWO_BLOCKS = [(np.array([1]), np.array([[0.5]])), (np.array([2, 4, 6]), np.eye(3))]


@pytest.mark.parametrize("cut", ["inside-block", "short-index-line", "index-out-of-range"])
def test_covariance_import_rejects_broken_v2(cut):
    n = mode_table(2).size
    lines = _v2_text(_TWO_BLOCKS, 2).splitlines(keepends=True)
    assert lines[6] == b"2 4 6\n"
    if cut == "inside-block":
        lines = lines[:8]
    elif cut == "short-index-line":
        lines[6] = b"2 4\n"
    else:
        lines[6] = f"2 4 {n}\n".encode()
    with pytest.raises(ValueError, match="block 1"):
        read_covariance(io.BytesIO(b"".join(lines)))


@pytest.mark.parametrize("defect,message", [
    ("truncated-values", "block 1: 64 of its 72 value bytes"),
    ("trailing-bytes", "trailing bytes after block 1"),
    ("bad-index-line", "block 1: bad index line"),
    ("index-out-of-range", "block 1: bad index line"),
    ("repeated-index", "block 1: an index repeats within the block"),
    ("shared-index", "block 1: index 1 is in an earlier block"),
])
def test_covariance_import_rejects_broken_v3(defect, message):
    n = mode_table(2).size
    data = _exported(CovarianceOperator(2, BlockDiagonal(n, _TWO_BLOCKS)))
    head, line, values = data[:-78], data[-78:-72], data[-72:]    # 72 bytes: 3 x 3 values
    assert line == b"2 4 6\n"
    line = {"bad-index-line": b"2 4 x\n", "index-out-of-range": f"2 4 {n}\n".encode(),
            "repeated-index": b"2 4 4\n", "shared-index": b"2 4 1\n"}.get(defect, line)
    values = {"truncated-values": values[:-8], "trailing-bytes": values + b"\0"}.get(
        defect, values)
    with pytest.raises(ValueError, match=message):
        read_covariance(io.BytesIO(head + line + values))


@pytest.mark.parametrize("second,message", [
    ("1 2", "block 1: index 1 is in an earlier block"),
    ("3 3", "block 1: an index repeats within the block"),
], ids=["shared-index", "repeated-index"])
def test_covariance_import_rejects_overlapping_blocks(second, message):
    # blocks [[1, 0], [0, 1]] and [[5, 0], [0, 5]]: toarray would overwrite
    # the first with the second on a shared index
    text = ("# torusmix covariance v2\nN 2\nprovenance p\nblocks 2\n"
            f"0 1\n1 0\n0 1\n{second}\n5 0\n0 5\n")
    with pytest.raises(ValueError, match=message):
        read_covariance(io.BytesIO(text.encode()))


def test_covariance_import_rejects_bad_tag(shear):
    Q = lyapunov_covariance(generator(shear, 0.1, 2), unit_noise(2, [((0, 1), "cos", 1.0)]))
    data = _exported(Q).replace(b"\nN 2\n", b"\nM 2\n")
    with pytest.raises(ValueError, match="truncation"):
        read_covariance(io.BytesIO(data))
    with pytest.raises(ValueError, match="not a torusmix covariance file"):
        read_covariance(io.BytesIO(_exported(Q).replace(b"v3", b"v9")))


@pytest.mark.parametrize(
    "lines,missing",
    [(1, "truncation header"), (2, "provenance"), (3, "block count")],
    ids=["header-only", "cut-after-N", "no-rows"],
)
def test_covariance_import_rejects_truncated_file(shear, lines, missing):
    Q = lyapunov_covariance(generator(shear, 0.1, 2), unit_noise(2, [((0, 1), "cos", 1.0)]))
    data = b"".join(_exported(Q).splitlines(keepends=True)[:lines])
    with pytest.raises(ValueError, match=missing):
        read_covariance(io.BytesIO(data))


def test_eigenvalue_summary_descending(shear):
    noise = unit_noise(4, [((0, 1), "cos", 1.0)])
    Q = lyapunov_covariance(generator(shear, 0.1, 4), noise)
    eigs = eigenvalue_summary(Q)
    assert np.all(np.diff(eigs) <= 0)
    assert eigs[0] == pytest.approx(0.5)
