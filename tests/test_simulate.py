import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torusmix import (
    FourierField,
    NoiseSpec,
    SimConfig,
    empirical_covariance,
    energy_balance_residual,
    make_field,
    mode_table,
    simulate,
)
from torusmix.flows import make_cellular, sin_shear
from torusmix.operators import (advection_matrix, dissipation_matrix, generator,
                                invariant_blocks, semigroup_apply)
from torusmix.covariance import gaussian_increment_covariance
from torusmix.simulate import _WINDOW, CovarianceAccumulator, _factor_psd, _member_rng

from strategies import random_flows


def single_mode_noise(N, amp=1.0):
    return NoiseSpec.from_modes(N, [((0, 1), "cos", amp)])


def zero_noise(N):
    return NoiseSpec(N, np.zeros(mode_table(N).size))


def test_config_validation():
    noise = single_mode_noise(4)
    with pytest.raises(ValueError):
        SimConfig(flow=None, nu=0.1, noise=noise, dt=-0.1)
    with pytest.raises(ValueError):
        SimConfig(flow=None, nu=0.1, noise=noise, horizon=1.0, burn_in=2.0)
    with pytest.raises(ValueError):
        SimConfig(flow=None, nu=0.1, noise=noise, scheme="Euler")
    with pytest.raises(ValueError):
        SimConfig(flow=None, nu=0.1, noise=noise, ensemble=0)
    with pytest.raises(ValueError, match="horizon must be an integer multiple"):
        SimConfig(flow=None, nu=0.1, noise=noise, dt=0.3, horizon=1.0, burn_in=0.0)
    with pytest.raises(ValueError, match="burn_in must be an integer multiple"):
        SimConfig(flow=None, nu=0.1, noise=noise, dt=0.1, horizon=1.0, burn_in=0.25)
    for nu in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="nu must be >= 0 and finite"):
            SimConfig(flow=None, nu=nu, noise=noise)
    for order in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="s must be positive and finite"):
            SimConfig(flow=None, nu=0.1, noise=noise, s=order)


def test_noiseless_em_contracts(shear):
    # nu Psi = 0 reduces the step to deterministic semi-implicit advection;
    # the L2 norm is then nonincreasing for nu > 0
    N = 4
    cfg = SimConfig(flow=shear, nu=0.5, noise=zero_noise(N), scheme="SemiImplicitEM",
                    dt=0.01, horizon=1.0, burn_in=0.0, ensemble=1, seed=0)
    f0 = make_field(N, [((0, 1), "cos", 1.0), ((2, 1), "sin", 0.5)])
    stats = simulate(cfg, f0)
    assert np.all(np.diff(stats.mean_l2_sq) <= 1e-14)
    assert stats.sample_count == len(stats.times)


def test_seed_reproducibility(shear):
    N = 4
    cfg = SimConfig(flow=shear, nu=0.1, noise=single_mode_noise(N),
                    scheme="SemiImplicitEM", dt=0.1, horizon=5.0, burn_in=1.0,
                    ensemble=4, seed=123)
    f0 = make_field(N, [])
    a = simulate(cfg, f0)
    b = simulate(cfg, f0)
    assert np.array_equal(a.mean_l2_sq, b.mean_l2_sq)
    assert np.array_equal(a.mean_h1_sq, b.mean_h1_sq)
    assert np.array_equal(a.accumulator.m2, b.accumulator.m2)
    # a different seed produces different trajectories
    c = simulate(SimConfig(flow=shear, nu=0.1, noise=single_mode_noise(N),
                           scheme="SemiImplicitEM", dt=0.1, horizon=5.0, burn_in=1.0,
                           ensemble=4, seed=124), f0)
    assert not np.array_equal(a.mean_l2_sq, c.mean_l2_sq)


@pytest.mark.parametrize("scheme", ["SemiImplicitEM", "ExactGaussian"])
def test_members_do_not_depend_on_ensemble_size(shear, scheme):
    # each member steps on its own (seed, member) stream, so the first three
    # members of an ensemble of six repeat an ensemble of three
    N = 4
    noise = NoiseSpec.from_modes(N, [((0, 1), "cos", 1.0), ((1, 1), "sin", 0.5)])
    runs = [
        simulate(SimConfig(flow=shear, nu=0.1, noise=noise, scheme=scheme, dt=0.25,
                           horizon=40.0, burn_in=2.0, ensemble=M, seed=5),
                 make_field(N, [((1, 0), "cos", 0.3)]))
        for M in (3, 6)
    ]
    small, large = runs
    pairs = [(small.member_l2_sq, large.member_l2_sq[:3])]
    pairs += zip(small.member_covariances, large.member_covariances[:3])
    for a, b in pairs:
        if scheme == "SemiImplicitEM":
            assert np.array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_exact_gaussian_ou_variance():
    # u = 0, single forced mode: empirical stationary variance approaches
    # psi^2/(2 |k|^2) within 3 standard errors (M * samples >= 1e4)
    N = 4
    cfg = SimConfig(flow=None, nu=0.1, noise=single_mode_noise(N),
                    scheme="ExactGaussian", dt=0.5, horizon=300.0, burn_in=25.0,
                    ensemble=32, seed=42)
    stats = simulate(cfg, make_field(N, []))
    assert stats.sample_count >= 10_000
    Q = empirical_covariance(stats)
    i = mode_table(N).index[(0, 1, "cos")]
    entries = np.array([c[i, i] for c in stats.member_covariances])
    se = entries.std(ddof=1) / math.sqrt(len(entries))
    assert abs(Q.matrix[i, i] - 0.5) <= 3.0 * se
    # everything off the forced coefficient stays at noise level
    off = Q.matrix.copy()
    off[i, i] = 0.0
    assert np.max(np.abs(off)) < 0.05


def test_empirical_covariance_trivial_case():
    # zero noise from zero data: the covariance accumulator sees only zeros
    N = 3
    cfg = SimConfig(flow=None, nu=0.2, noise=zero_noise(N), scheme="SemiImplicitEM",
                    dt=0.1, horizon=2.0, burn_in=0.0, ensemble=1, seed=0)
    stats = simulate(cfg, make_field(N, []))
    assert np.all(empirical_covariance(stats).matrix == 0.0)
    with pytest.raises(ValueError):  # burn-in must leave room for samples
        SimConfig(flow=None, nu=0.2, noise=zero_noise(N), scheme="SemiImplicitEM",
                  dt=1.0, horizon=1.0, burn_in=1.0, ensemble=1, seed=0)


def test_energy_balance_deterministic_dt_convergence():
    # zero noise, u = 0, one mode: the residual is pure scheme error and
    # shrinks at first order as dt halves (exact decay e^{-2 nu |k|^2 t})
    N = 3
    nu = 0.3
    f0 = make_field(N, [((0, 1), "cos", 1.0)])
    residuals = []
    for dt in (0.1, 0.05, 0.025):
        cfg = SimConfig(flow=None, nu=nu, noise=zero_noise(N), scheme="SemiImplicitEM",
                        dt=dt, horizon=2.0, burn_in=0.0, ensemble=1, seed=0)
        stats = simulate(cfg, f0)
        residuals.append(abs(energy_balance_residual(stats, (0.0, 2.0))))
    # also check the scheme converges to the exact heat decay
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert min(orders) >= 0.9
    cfg = SimConfig(flow=None, nu=nu, noise=zero_noise(N), scheme="SemiImplicitEM",
                    dt=0.025, horizon=2.0, burn_in=0.0, ensemble=1, seed=0)
    stats = simulate(cfg, f0)
    exact = math.exp(-2 * nu * 2.0)
    assert stats.mean_l2_sq[-1] == pytest.approx(exact, rel=0.05)


def test_exact_gaussian_stationary_energy_balance(shear):
    # exact-in-law stepping: the balance residual is mean-zero noise
    N = 4
    cfg = SimConfig(flow=shear, nu=0.1, noise=single_mode_noise(N),
                    scheme="ExactGaussian", dt=0.5, horizon=200.0, burn_in=50.0,
                    ensemble=24, seed=9)
    stats = simulate(cfg, make_field(N, []))
    res = energy_balance_residual(stats, (50.0, 200.0))
    se = stats.member_residuals.std(ddof=1) / math.sqrt(cfg.ensemble)
    assert abs(res) <= 5.0 * se
    with pytest.raises(ValueError, match="grid"):
        energy_balance_residual(stats, (50.0, 199.87))
    with pytest.raises(ValueError):
        energy_balance_residual(stats, (60.0, 60.0))


def test_stationary_h1_level(shear):
    # time-averaged E ||f||_H1^2 = ||Psi||^2 / 2 within 5%
    N = 4
    noise = NoiseSpec.from_modes(N, [((0, 1), "cos", 1.0), ((1, 1), "sin", 0.7)])
    cfg = SimConfig(flow=shear, nu=0.2, noise=noise, scheme="ExactGaussian",
                    dt=0.5, horizon=300.0, burn_in=25.0, ensemble=40, seed=11)
    stats = simulate(cfg, make_field(N, []))
    assert stats.sample_count >= 10_000
    level = stats.member_h1_means.mean()
    assert level == pytest.approx(noise.total_intensity / 2.0, rel=0.05)


def test_gaussianity_of_stationary_coefficients():
    # the invariant law is Gaussian: per-coefficient skewness and excess
    # kurtosis vanish within tight bands at 1e5 samples
    N = 3
    cfg = SimConfig(flow=None, nu=0.1, noise=single_mode_noise(N),
                    scheme="ExactGaussian", dt=0.5, horizon=1075.0, burn_in=25.0,
                    ensemble=48, seed=31)
    stats = simulate(cfg, make_field(N, []),
                     track_coefficients=(((0, 1), "cos"),))
    samples = stats.tracked_samples[((0, 1), "cos")]
    assert samples.size >= 100_000
    x = samples - samples.mean()
    m2 = np.mean(x**2)
    skew = np.mean(x**3) / m2**1.5
    kurt = np.mean(x**4) / m2**2 - 3.0
    assert -0.1 < skew < 0.1
    assert -0.2 < kurt < 0.2


def test_exponential_moment_tail(shear):
    # fraction of samples with ||f||^2 above 5 ||Psi||^2/(nu lambda_1) < 1%
    N = 4
    nu = 0.1
    noise = single_mode_noise(N)
    cfg = SimConfig(flow=shear, nu=nu, noise=noise, scheme="ExactGaussian",
                    dt=0.5, horizon=150.0, burn_in=25.0, ensemble=24, seed=3)
    stats = simulate(cfg, make_field(N, []))
    burn = int(round(cfg.burn_in / cfg.dt))
    samples = stats.member_l2_sq[:, burn:].ravel()
    threshold = 5.0 * noise.total_intensity / nu
    assert np.mean(samples > threshold) < 0.01


def test_scheme_agreement_as_dt_shrinks(shear):
    # SemiImplicitEM approaches the ExactGaussian stationary variance; each
    # dt stays within the combined statistical + O(dt) bias tolerance
    N = 4
    nu = 0.1
    noise = single_mode_noise(N)
    i = mode_table(N).index[(0, 1, "cos")]

    eg = SimConfig(flow=shear, nu=nu, noise=noise, scheme="ExactGaussian",
                   dt=0.5, horizon=550.0, burn_in=50.0, ensemble=32, seed=17)
    stats_eg = simulate(eg, make_field(N, []))
    v_eg = empirical_covariance(stats_eg).matrix[i, i]
    ent = np.array([c[i, i] for c in stats_eg.member_covariances])
    se_eg = ent.std(ddof=1) / math.sqrt(len(ent))

    for dt in (0.1, 0.05, 0.025):
        em = SimConfig(flow=shear, nu=nu, noise=noise, scheme="SemiImplicitEM",
                       dt=dt, horizon=550.0, burn_in=50.0, ensemble=32, seed=18)
        stats_em = simulate(em, make_field(N, []))
        v_em = empirical_covariance(stats_em).matrix[i, i]
        ent_em = np.array([c[i, i] for c in stats_em.member_covariances])
        se_em = ent_em.std(ddof=1) / math.sqrt(len(ent_em))
        # scalar semi-implicit bias bound: (psi^2/(2 lam)) * dt nu lam / 2, doubled
        bias = 0.5 * dt * nu * 1.0
        assert abs(v_em - v_eg) <= 5.0 * (se_em + se_eg) + bias


def test_instability_guard():
    # a wildly explicit-unstable configuration must abort, not overflow
    from torusmix import SimulationUnstable
    from torusmix.flows import ShearProfile, make_shear

    N = 6
    strong = make_shear(ShearProfile(sin_amps=(40.0,)))
    cfg = SimConfig(flow=strong, nu=0.0, noise=zero_noise(N),
                    scheme="SemiImplicitEM", dt=0.9, horizon=450.0, ensemble=1, seed=0)
    f0 = make_field(N, [((1, 0), "cos", 1.0)])
    with pytest.raises(SimulationUnstable):
        simulate(cfg, f0)


def test_accumulator_merge_matches_batch(rng):
    dim = 5
    xs = rng.standard_normal((40, dim))
    one = CovarianceAccumulator(dim)
    for x in xs:
        one.add(x)
    left, right = CovarianceAccumulator(dim), CovarianceAccumulator(dim)
    for x in xs[:13]:
        left.add(x)
    for x in xs[13:]:
        right.add(x)
    left.merge(right)
    batch = CovarianceAccumulator(dim)
    batch.add(xs)
    for acc in (left, one, batch):
        assert np.allclose(acc.covariance(), np.cov(xs.T, ddof=1), atol=1e-12)
        assert acc.count == 40


def test_accumulator_insufficient_samples():
    acc = CovarianceAccumulator(3)
    acc.add(np.zeros(3))
    with pytest.raises(ValueError, match="at least 2"):
        acc.covariance()


def _increment_noise(N):
    return NoiseSpec.from_modes(
        N, [((0, 1), "cos", 1.0), ((1, 0), "sin", 0.7), ((1, -1), "cos", 1.2)])


INCREMENT_FLOWS = [
    (sin_shear(), 6),
    (make_cellular(make_field(2, [((1, 1), "sin", 0.5), ((1, -1), "cos", 0.3)])), 8),
]


@pytest.mark.parametrize("flow, N", INCREMENT_FLOWS)
def test_gaussian_increment_covariance_matches_quadrature(flow, N):
    # fixed 64-node Gauss-Legendre rule on int_0^dt exp(sA) Psi Psi^T exp(sA)^T ds
    dt = 0.5
    op = generator(flow, 0.1, N)
    A = op.dense()
    noise = _increment_noise(N)
    PPt = np.diag(noise.amps**2)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    reference = np.zeros_like(A)
    for s, w in zip(0.5 * dt * (nodes + 1.0), 0.5 * dt * weights):
        E = sla.expm(s * A)
        reference += w * (E @ PPt @ E.T)
    E, sigma = (M.toarray() for M in gaussian_increment_covariance(op, noise, dt))
    assert np.linalg.norm(sigma - reference) <= 1e-13 * np.linalg.norm(reference)
    E_ref = sla.expm(dt * A)
    assert np.linalg.norm(E - E_ref) <= 1e-13 * np.linalg.norm(E_ref)


@pytest.mark.parametrize("dt", [0.05, 0.5])
@pytest.mark.parametrize("flow, N", INCREMENT_FLOWS)
def test_increment_factor_is_continuous_in_sigma(flow, N, dt):
    # the factor must not depend on the eigenvector signs and bases LAPACK
    # picks: a 1e-16 relative perturbation of Sigma may move the square root
    # by about sqrt(1e-16) where Sigma has round-off eigenvalues, not by O(1)
    _, sigma = gaussian_increment_covariance(generator(flow, 0.1, N), _increment_noise(N), dt)
    sigma = 0.1 * sigma.toarray()
    G = np.random.default_rng(7).standard_normal(sigma.shape)
    bumped = sigma + 1e-16 * np.linalg.norm(sigma) * (G + G.T) / np.linalg.norm(G + G.T)
    L, L_bumped = _factor_psd(sigma), _factor_psd(bumped)
    assert np.allclose(L @ L.T, sigma, rtol=0, atol=1e-12 * np.linalg.norm(sigma))
    assert np.linalg.norm(L_bumped - L) <= 1e-6 * np.linalg.norm(L)


def test_exact_gaussian_draws_one_normal_per_forced_row():
    # sin y shear at N = 6 forced on cos y and cos(x + y): the forced blocks
    # are the singleton (0, 1) and one 13-row block; the first step from
    # f0 = 0 is L xi with xi the member's first normals, one per such row
    N, nu, dt = 6, 0.1, 0.5
    noise = NoiseSpec.from_modes(N, [((0, 1), "cos", 1.0), ((1, 1), "cos", 1.0)])
    table = mode_table(N)
    keys = [((int(k1), int(k2)), "cos" if q == 0 else "sin")
            for k1, k2, q in zip(table.k1, table.k2, table.parity)]
    cfg = SimConfig(flow=sin_shear(), nu=nu, noise=noise, scheme="ExactGaussian",
                    dt=dt, horizon=dt, burn_in=0.0, ensemble=1, seed=5)
    stats = simulate(cfg, make_field(N, []), track_coefficients=tuple(keys))
    f1 = np.array([stats.tracked_samples[key][1] for key in keys])
    _, sigma = gaussian_increment_covariance(generator(sin_shear(), nu, N), noise, dt)
    forced = [(idx, Sb) for idx, Sb in sigma.blocks if noise.amps[idx].any()]
    assert sorted(len(idx) for idx, _ in forced) == [1, 13]
    cols = np.sort(np.concatenate([idx for idx, _ in forced]))
    xi = _member_rng(5, 0).standard_normal((1, cols.size))[0]
    L = np.zeros((table.size, table.size))
    for idx, Sb in forced:
        L[np.ix_(idx, idx)] = _factor_psd(nu * Sb)
    want = L[:, cols] @ xi
    assert np.allclose(f1, want, rtol=0, atol=1e-14 * np.linalg.norm(want))
    # without forcing no normal is drawn and the path stays at zero
    quiet = simulate(dataclasses.replace(cfg, noise=zero_noise(N)), make_field(N, []))
    assert not quiet.mean_l2_sq.any()


def test_residual_series_matches_energy_balance(shear):
    N = 4
    cfg = SimConfig(flow=shear, nu=0.1, noise=single_mode_noise(N), scheme="SemiImplicitEM",
                    dt=0.1, horizon=50.0, burn_in=1.0, ensemble=3, seed=2)
    stats = simulate(cfg, make_field(N, []))
    for j in (1, 7, 250, 500):
        expected = energy_balance_residual(stats, (0.0, stats.times[j]))
        assert stats.residual_series[j] == pytest.approx(expected, rel=0, abs=1e-12)


def _whole_space_run(cfg, f0):
    """States (M, steps + 1, n), L2 and H1 norms (M, steps + 1) of every member.

    The reference for ``simulate``: an n x M state with the whole sparse B
    or the whole dense E and L, drawing the same normals (one window of
    steps at a time, one per forced coefficient or per row of a forced
    block), and the norms summed over all n rows.
    """
    N, M, noise = f0.N, cfg.ensemble, cfg.noise
    n = f0.coeffs.size
    if cfg.scheme == "ExactGaussian":
        E, sigma = gaussian_increment_covariance(generator(cfg.flow, cfg.nu, N, s=cfg.s),
                                                 noise, cfg.dt)
        E, L = E.toarray(), np.zeros((n, n))
        forced = [(idx, Sb) for idx, Sb in sigma.blocks if noise.amps[idx].any()]
        for idx, Sb in forced:
            L[np.ix_(idx, idx)] = _factor_psd(cfg.nu * Sb)
        cols = np.sort(np.concatenate([idx for idx, _ in forced] + [np.empty(0, int)]))
        L = L[:, cols]
        draws = cols.size
    else:
        B = advection_matrix(cfg.flow, N).matrix
        dd = dissipation_matrix(N, cfg.s).matrix.diagonal()
        div = (1.0 / (1.0 - cfg.dt * cfg.nu * dd))[:, None]
        kick = (math.sqrt(cfg.nu * cfg.dt) * noise.amps[noise.support])[:, None]
        draws = noise.support.size
    rngs = [_member_rng(cfg.seed, m) for m in range(M)]
    lam = mode_table(N).lam.astype(float)[:, None]
    F = np.repeat(f0.coeffs[:, None], M, axis=1)
    states, l2, h1 = [], [], []
    for j in range(cfg.steps + 1):
        if j:
            w = (j - 1) % _WINDOW
            if w == 0:
                k = min(_WINDOW, cfg.steps + 1 - j)
                xi = np.stack([rng.standard_normal((k, draws)) for rng in rngs], axis=-1)
            if cfg.scheme == "ExactGaussian":
                F = E @ F + L @ xi[w]
            else:
                rhs = F - cfg.dt * (B @ F)
                rhs[noise.support] += kick * xi[w]
                F = div * rhs
        sq = F * F
        states.append(F.T)
        l2.append(sq.sum(axis=0))
        h1.append((lam * sq).sum(axis=0))
    return np.stack(states, axis=1), np.array(l2).T, np.array(h1).T


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=st.one_of(st.just(sin_shear()), random_flows()), N=st.integers(2, 4),
       scheme=st.sampled_from(["SemiImplicitEM", "ExactGaussian"]),
       M=st.integers(1, 3), steps=st.integers(2, 70), data=st.data())
def test_active_blocks_match_whole_space_stepping(flow, N, scheme, M, steps, data):
    # stepping only the blocks that the noise forces or f0 touches gives the
    # whole-space trajectories, and the whole-space state is zero elsewhere
    table = mode_table(N)
    low = [int(i) for i in np.flatnonzero(table.lam <= 2)]
    forced = data.draw(st.lists(st.sampled_from(low), max_size=3, unique=True))
    touched = data.draw(st.lists(st.integers(0, table.size - 1), max_size=2, unique=True))
    amps, coeffs = np.zeros(table.size), np.zeros(table.size)
    amps[forced] = data.draw(st.lists(st.floats(0.5, 1.5), min_size=len(forced),
                                      max_size=len(forced)))
    coeffs[touched] = 0.5
    f0 = FourierField(N, coeffs)
    dt = 0.05
    cfg = SimConfig(flow=flow, nu=0.3, noise=NoiseSpec(N, amps), scheme=scheme, dt=dt,
                    horizon=steps * dt, burn_in=dt, ensemble=M, seed=3)
    used = (amps != 0) | (coeffs != 0)
    active = np.sort(np.concatenate(
        [idx for idx in invariant_blocks(advection_matrix(flow, N)) if used[idx].any()]
        + [np.empty(0, int)]))
    keys = [((int(table.k1[i]), int(table.k2[i])), "cos" if table.parity[i] == 0 else "sin")
            for i in active]
    stats = simulate(cfg, f0, track_coefficients=tuple(keys))
    assert np.array_equal(stats.active, active)
    ref, l2, h1 = _whole_space_run(cfg, f0)
    off = np.setdiff1d(np.arange(table.size), active)
    assert not ref[:, :, off].any()
    got = np.array([stats.tracked_samples[key] for key in keys]).reshape(len(keys), M, steps)
    got = got.transpose(1, 2, 0)
    want = ref[:, 1:, active]
    exact = scheme == "SemiImplicitEM"
    if exact:
        assert np.array_equal(got, want)
    else:
        scale = max(np.abs(want).max(initial=0.0), 1e-300)
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale
    # numpy sums the rows of an n x M state one after another, so zero rows
    # change nothing; a single column (M = 1) it sums pairwise, and there the
    # zero rows regroup the sum
    for value, expected in ((stats.member_l2_sq, l2), (stats.mean_h1_sq, h1.mean(axis=0))):
        if exact and M > 1:
            assert np.array_equal(value, expected)
        else:
            assert np.allclose(value, expected, rtol=1e-13, atol=0)
    for cov, states in zip(stats.member_covariances, ref[:, 1:]):
        expected = np.cov(states.T) if active.size else np.zeros((table.size,) * 2)
        assert np.allclose(cov, expected, rtol=0, atol=1e-12 * max(np.abs(expected).max(), 1.0))


def test_exact_gaussian_on_an_unforced_block_is_the_semigroup():
    # f0 on the (1, 0) block of the sin y shear, forcing on the (0, 1)
    # singleton only: on that block every member follows exp(t_j A) f0
    N, nu, dt = 4, 0.2, 0.25
    flow, noise = sin_shear(), single_mode_noise(N)
    f0 = make_field(N, [((1, 0), "cos", 1.0), ((1, 1), "sin", -0.4)])
    A = generator(flow, nu, N)
    block = next(idx for idx in invariant_blocks(A) if f0.coeffs[idx].any())
    assert not noise.amps[block].any()
    table = mode_table(N)
    keys = [((int(table.k1[i]), int(table.k2[i])), "cos" if table.parity[i] == 0 else "sin")
            for i in block]
    cfg = SimConfig(flow=flow, nu=nu, noise=noise, scheme="ExactGaussian", dt=dt,
                    horizon=20 * dt, burn_in=0.0, ensemble=2, seed=1)
    stats = simulate(cfg, f0, track_coefficients=tuple(keys))
    paths = np.array([stats.tracked_samples[key].reshape(2, -1) for key in keys])
    for j, t in enumerate(stats.times):
        want = semigroup_apply(A, t, f0).coeffs[block]
        for m in range(2):
            assert np.abs(paths[:, m, j] - want).max() <= 1e-12 * np.abs(want).max()


def test_member_covariances_are_canonically_indexed():
    # u = 0 forced on sin(x + y) only: the one active row is not row 0, and
    # the member covariances hold its variance psi^2 / (2 |k|^2) there
    N = 3
    noise = NoiseSpec.from_modes(N, [((1, 1), "sin", 1.0)])
    i = mode_table(N).index[(1, 1, "sin")]
    assert i != 0
    cfg = SimConfig(flow=None, nu=0.2, noise=noise, scheme="ExactGaussian", dt=0.5,
                    horizon=200.0, burn_in=20.0, ensemble=8, seed=4)
    stats = simulate(cfg, make_field(N, []))
    assert stats.active.tolist() == [i]
    covs = stats.member_covariances
    for cov in covs:
        assert cov.shape == (mode_table(N).size,) * 2
        assert np.flatnonzero(cov).tolist() == [i * cov.shape[0] + i]
    entries = np.array([cov[i, i] for cov in covs])
    assert abs(entries.mean() - 0.25) <= 3.0 * entries.std(ddof=1) / math.sqrt(len(entries))
    assert np.array_equal(empirical_covariance(stats).matrix != 0, covs[0] != 0)
