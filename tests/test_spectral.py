import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from torusmix import (
    advection_matrix,
    default_cellular_flow,
    dissipation_matrix,
    h1_growth_average,
    invariant_blocks,
    low_mode_time_average,
    make_field,
    mode_table,
    shear_E_projection,
    shear_exact_evolution,
    sobolev_norm,
    spectrum,
    streamline_projection,
)
from torusmix import spectral
from torusmix.fields import field_from_grid, random_field, sample_grid
from torusmix.flows import ShearProfile, make_shear
from torusmix.operators import _symmetry_sectors
from torusmix.spectral import (_inviscid_series, _streamline_projector, invariant_projection,
                               shear_h1sq_series)

from strategies import dihedral_flows, random_flows


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_requires_advection(shear):
    from torusmix import generator

    with pytest.raises(ValueError, match="advection"):
        spectrum(generator(shear, 0.1, 4))


def test_spectrum_shear_kernel_contains_x_independent_modes(shear):
    N = 8
    rep = spectrum(advection_matrix(shear, N))
    assert rep.kernel_dim >= 2 * N
    # frequencies of the skew matrix come in +/- pairs
    freqs = np.sort(rep.frequencies)
    assert np.allclose(freqs, -freqs[::-1], atol=1e-12)


def test_spectrum_zero_flow_all_zero():
    rep = spectrum(advection_matrix(None, 4))
    assert np.all(rep.frequencies == 0.0)
    assert rep.kernel_dim == rep.frequencies.size


def test_spectrum_eigenvalues_purely_imaginary(cellular):
    B = advection_matrix(cellular, 8).dense()
    eigs = np.linalg.eigvals(B)
    assert np.max(np.abs(eigs.real)) < 1e-10


def test_spectrum_vectors_orthonormal(cellular):
    rep = spectrum(advection_matrix(cellular, 6))
    V = rep.vectors
    gram = V.conj().T @ V
    assert np.max(np.abs(gram - np.eye(V.shape[1]))) < 1e-10


def test_spectrum_csv_export(tmp_path, shear):
    rep = spectrum(advection_matrix(shear, 3))
    path = tmp_path / "spec.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,lambda"
    assert len(lines) == 1 + rep.frequencies.size


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_shear_projection_basics(rng):
    keeps = make_field(5, [((0, 2), "sin", 1.5)])
    kills = make_field(5, [((3, 1), "cos", 2.0)])
    assert np.array_equal(shear_E_projection(keeps).coeffs, keeps.coeffs)
    assert sobolev_norm(shear_E_projection(kills), 0) == 0.0
    for _ in range(5):
        f = random_field(5, rng)
        pf = shear_E_projection(f)
        qf = f - pf
        # orthogonal decomposition (Pythagoras)
        assert sobolev_norm(f, 0) ** 2 == pytest.approx(
            sobolev_norm(pf, 0) ** 2 + sobolev_norm(qf, 0) ** 2, rel=1e-13
        )
        assert np.array_equal(shear_E_projection(pf).coeffs, pf.coeffs)


def test_shear_projection_commutes_with_generator_blocks(shear):
    N = 6
    t = mode_table(N)
    P = np.diag((t.k1 == 0).astype(float))
    B = advection_matrix(shear, N).dense()
    D = dissipation_matrix(N).dense()
    assert np.max(np.abs(P @ B - B @ P)) < 1e-12
    assert np.max(np.abs(P @ D - D @ P)) < 1e-12


def test_streamline_projection_fixes_functions_of_psi(cellular):
    from torusmix import cellular_streamfunction

    psi = cellular_streamfunction(2).embed(8)
    out = streamline_projection(cellular, psi, bins=64, grid=256)
    dev = sobolev_norm(out - psi, 0) / sobolev_norm(psi, 0)
    assert dev <= 0.05


def test_streamline_projection_kills_odd_functions(cellular):
    # cos x is odd under (x, y) -> (pi - x, pi - y), which preserves psi,
    # so its conditional mean on every level set vanishes
    f = make_field(8, [((1, 0), "cos", 1.0)])
    out = streamline_projection(cellular, f, bins=64, grid=256)
    assert sobolev_norm(out, 0) <= 0.02


def test_streamline_projector_matches_direct_binning(cellular, rng):
    # one projector ranks psi once and projects many fields; each result is
    # the direct equal-count bin average, bit for bit
    from torusmix import make_cellular

    def direct(flow, f, bins, grid):
        order = np.argsort(sample_grid(flow.streamfunction, grid).ravel(), kind="stable")
        values = sample_grid(f, grid).ravel()
        averaged = np.empty_like(values)
        for chunk in np.array_split(order, bins):
            averaged[chunk] = values[chunk].mean()
        return field_from_grid(averaged.reshape(grid, grid), f.N)

    for flow, bins, grid in [(cellular, 16, 64), (make_cellular(random_field(2, rng)), 8, 96)]:
        project = _streamline_projector(flow, bins, grid)
        f = random_field(8, rng)
        for g in (f, project(f), random_field(6, rng)):
            want = direct(flow, g, bins, grid).coeffs
            assert np.array_equal(project(g).coeffs, want)
            assert np.array_equal(streamline_projection(flow, g, bins=bins, grid=grid).coeffs, want)


def test_streamline_projection_zero_field(cellular):
    z = make_field(8, [])
    out = streamline_projection(cellular, z, bins=16, grid=64)
    assert sobolev_norm(out, 0) == 0.0


def test_streamline_projection_validation(cellular):
    f = make_field(8, [((1, 0), "cos", 1.0)])
    with pytest.raises(ValueError, match="bins"):
        streamline_projection(cellular, f, bins=1, grid=64)
    with pytest.raises(ValueError, match="grid"):
        streamline_projection(cellular, f, bins=8, grid=16)


def test_streamline_projection_approximately_idempotent(cellular, rng):
    # rough input: the binned average carries content beyond the truncation,
    # so idempotence is approximate (~0.17 observed at these parameters)
    f = random_field(8, rng)
    once = streamline_projection(cellular, f, bins=64, grid=256)
    twice = streamline_projection(cellular, once, bins=64, grid=256)
    dev = sobolev_norm(twice - once, 0) / max(sobolev_norm(once, 0), 1e-30)
    assert dev < 0.25
    # smooth invariant input: idempotent to the binning error
    from torusmix import cellular_streamfunction

    psi = cellular_streamfunction(2).embed(8)
    p1 = streamline_projection(cellular, psi, bins=64, grid=256)
    p2 = streamline_projection(cellular, p1, bins=64, grid=256)
    assert sobolev_norm(p2 - p1, 0) / sobolev_norm(p1, 0) < 0.05


def test_invariant_projection_dispatch(shear, cellular):
    f = make_field(4, [((1, 0), "cos", 1.0)])
    assert sobolev_norm(invariant_projection(shear, f), 0) == 0.0
    out = invariant_projection(cellular, f, bins=32, grid=128)
    assert sobolev_norm(out, 0) < 0.05
    with pytest.raises(ValueError):
        invariant_projection(None, f)


# ---------------------------------------------------------------------------
# exact shear evolution and H1 growth
# ---------------------------------------------------------------------------


def test_shear_exact_evolution_identity_at_zero(shear, rng):
    f = random_field(4, rng)
    out = shear_exact_evolution(shear.profile, f, 0.0)
    assert np.allclose(f.embed(out.N).coeffs, out.coeffs, atol=1e-12)


def test_shear_exact_evolution_preserves_x_independent_content(shear):
    f = make_field(4, [((0, 2), "cos", 0.8), ((1, 1), "sin", 0.6)])
    out = shear_exact_evolution(shear.profile, f, 3.0, ygrid=256)
    assert out.coefficient((0, 2), "cos") == pytest.approx(0.8, abs=1e-12)


def test_shear_exact_evolution_l2_preserved(shear, rng):
    f = random_field(4, rng)
    for t in (0.5, 2.0, 5.0):
        out = shear_exact_evolution(shear.profile, f, t, ygrid=256)
        assert sobolev_norm(out, 0) == pytest.approx(sobolev_norm(f, 0), abs=1e-8)


def test_shear_exact_h1_value_and_galerkin_cross_check(shear):
    # f0 = cos x under u = sin y: ||f(t)||_H1^2 = 1 + t^2/2, so 3.0 at t = 2
    f0 = make_field(4, [((1, 0), "cos", 1.0)])
    out = shear_exact_evolution(shear.profile, f0, 2.0, ygrid=128)
    assert sobolev_norm(out, 1) ** 2 == pytest.approx(3.0, abs=1e-8)
    # cross-check against the truncated Galerkin evolution at N=32
    from torusmix import generator, semigroup_apply

    A = generator(shear, 0.0, 32)
    g = semigroup_apply(A, 2.0, f0.embed(32))
    assert sobolev_norm(g, 1) ** 2 == pytest.approx(3.0, rel=0.02)


def test_h1sq_series_closed_form_general_profile():
    # for data on a single |k1| with y-symmetric amplitudes (so the slice
    # profile g is real), ||f(t)||_H1^2 = ||f0||_H1^2 + t^2 k1^2 ||u' g||^2,
    # and k1^2 ||u' g||^2 equals k1^2 * int u'(y)^2 f0(x,y)^2 dx dy
    profile = ShearProfile(cos_amps=(0.7,), sin_amps=(0.0, 1.3))
    shear = make_shear(profile)
    k1 = 2
    f0 = make_field(
        4, [((k1, -1), "cos", 0.4), ((k1, 0), "cos", 1.0), ((k1, 1), "cos", 0.4)]
    )
    # independent oracle: dense-grid quadrature of u'(y)^2 f0(x, y)^2
    M = 512
    vals = sample_grid(f0, M)
    y = 2 * math.pi * np.arange(M) / M
    dup = profile.derivative(y)[None, :]
    gamma = k1**2 * (2 * math.pi / M) ** 2 * np.sum((dup * vals) ** 2)
    h1sq0 = sobolev_norm(f0, 1) ** 2
    times = np.array([0.0, 1.0, 2.5])
    series = shear_h1sq_series(profile, f0, times)
    assert np.allclose(series, h1sq0 + times**2 * gamma, rtol=1e-10)
    # the averaged form: G(T) = ||f0||_H1^2 + (T^2/3) k1^2 ||u' g||^2 to 1e-6
    T = 3.0
    curve = h1_growth_average(shear, f0, [T], method="shear-exact", h=T / 1000)
    assert curve.values[0] == pytest.approx(h1sq0 + T**2 / 3.0 * gamma, rel=1e-6)


def test_growth_average_closed_form(shear):
    # G(T) = 1 + T^2/6 for f0 = cos x under u = sin y, rel. 1e-6 at h = T/1000
    f0 = make_field(8, [((1, 0), "cos", 1.0)])
    curve = h1_growth_average(shear, f0, [1.0, 5.0, 10.0], method="shear-exact")
    exact = 1.0 + np.array([1.0, 25.0, 100.0]) / 6.0
    assert np.allclose(curve.values, exact, rtol=1e-6)
    assert curve.method == "shear-exact"
    assert np.all(curve.h_effective <= np.array([1.0, 5.0, 10.0]) / 1000 + 1e-12)


def test_growth_average_invariant_datum_is_flat(shear):
    # k1 = 0 data sit in the kernel of the shear transport
    f0 = make_field(6, [((0, 2), "sin", 1.0)])
    curve = h1_growth_average(shear, f0, [1.0, 10.0], method="shear-exact")
    assert np.allclose(curve.values, sobolev_norm(f0, 1) ** 2, rtol=1e-12)
    curve2 = h1_growth_average(shear, f0, [2.0], method="truncated-exponential", h=0.01)
    assert curve2.values[0] == pytest.approx(sobolev_norm(f0, 1) ** 2, rel=1e-9)


def test_growth_methods_agree(shear):
    f0 = make_field(6, [((1, 0), "cos", 1.0), ((2, 1), "sin", 0.3)])
    Ts = [1.0, 4.0]
    exact = h1_growth_average(shear, f0, Ts, method="shear-exact", h=0.01)
    galerkin = h1_growth_average(
        shear, f0.embed(24), Ts, method="truncated-exponential", h=0.01
    )
    assert np.allclose(exact.values, galerkin.values, rtol=2e-2)


def test_growth_average_rejects_zero_datum(shear):
    with pytest.raises(ValueError, match="zero"):
        h1_growth_average(shear, make_field(4, []), [1.0])


def test_time_averages_reject_bad_horizon_and_step(shear):
    # before these guards: ZeroDivisionError (h = 0), IndexError (h < 0),
    # ValueError or OverflowError (a NaN or infinite h or T)
    f0 = make_field(4, [((1, 0), "cos", 1.0)])
    for T, h in ((1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (math.inf, 0.01),
                 (math.nan, 0.01), (0.0, 0.01)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            h1_growth_average(shear, f0, [1.0, T], h=h)
        with pytest.raises(ValueError, match="must be positive and finite"):
            low_mode_time_average(shear, f0, 2.0, T, h=h)


def test_growth_cellular_trend(cellular):
    # data orthogonal to the streamline-constant subspace grow on average
    f0 = make_field(16, [((1, 0), "cos", 1.0)])
    curve = h1_growth_average(cellular, f0, [1.0, 10.0],
                              method="truncated-exponential", h=0.02)
    assert curve.values[1] > curve.values[0]


def test_growth_csv_export(tmp_path, shear):
    f0 = make_field(4, [((1, 0), "cos", 1.0)])
    curve = h1_growth_average(shear, f0, [1.0], h=0.01)
    path = tmp_path / "growth.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "T,G"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# low-mode time averages
# ---------------------------------------------------------------------------


def test_low_mode_average_invariant_datum_vanishes(shear):
    f0 = make_field(4, [((0, 1), "cos", 1.0)])
    assert low_mode_time_average(shear, f0, lam_max=4, T=5.0) == 0.0


def test_low_mode_average_decays_for_continuous_spectrum(shear):
    f0 = make_field(4, [((1, 0), "cos", 1.0)])
    v10 = low_mode_time_average(shear, f0, lam_max=4, T=10.0)
    v100 = low_mode_time_average(shear, f0, lam_max=4, T=100.0)
    assert v100 < v10 < sobolev_norm(f0, 0) ** 2


def test_low_mode_average_upper_bound(shear, rng):
    for _ in range(3):
        f0 = random_field(4, rng)
        val = low_mode_time_average(shear, f0, lam_max=9, T=20.0)
        assert val <= sobolev_norm(f0, 0) ** 2 + 1e-8


def test_low_mode_average_cellular_path(cellular):
    f0 = make_field(8, [((1, 0), "cos", 1.0)])
    val = low_mode_time_average(cellular, f0, lam_max=4, T=5.0,
                                projection_kwargs={"bins": 32, "grid": 128})
    assert 0.0 <= val <= sobolev_norm(f0, 0) ** 2 + 1e-6


# ---------------------------------------------------------------------------
# Galerkin evolution in the eigenbasis of each invariant block
# ---------------------------------------------------------------------------


def _expm_series(B, f0, weights, times):
    """The oracle: expm_multiply of -B on the whole space, one state per time."""
    states = expm_multiply(-B.matrix, f0, start=times[0], stop=times[-1], num=len(times),
                           endpoint=True)
    return states**2 @ weights


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=st.one_of(random_flows(), dihedral_flows()), N=st.integers(2, 8),
       seed=st.integers(0, 2**32 - 1), T=st.floats(0.5, 4.0))
@example(flow=default_cellular_flow(), N=8, seed=1, T=4.0)
def test_inviscid_series_matches_expm_multiply(flow, N, seed, T):
    # a random cellular flow has one block of all n rows; sin x sin y (the
    # example) has several, and a random shear many small ones
    f0 = random_field(N, np.random.default_rng(seed)).coeffs
    B = advection_matrix(flow, N)
    lam = mode_table(N).lam.astype(float)
    grids = [np.linspace(0.0, T / 2, 51), np.linspace(0.0, T, 101)]
    h1sq = _inviscid_series(B, f0, lam, grids)
    for series, times in zip(h1sq, grids):
        oracle = _expm_series(B, f0, lam, times)
        assert np.max(np.abs(series - oracle)) <= 1e-12 * np.max(oracle)
    l2sq = _inviscid_series(B, f0, np.ones_like(f0), grids)
    for series in l2sq:
        assert np.max(np.abs(series - f0 @ f0)) <= 1e-12 * (f0 @ f0)


def test_blocks_above_dense_cap_evolve_by_expm_multiply(cellular, monkeypatch):
    # every block above a patched cap stays sparse: the same values, and no eigh
    N = 8
    f0 = make_field(N, [((1, 0), "cos", 1.0), ((2, 1), "sin", 0.4), ((1, 2), "cos", -0.3)])
    rng_f0 = random_field(N, np.random.default_rng(3))
    growth = h1_growth_average(cellular, f0, [1.0, 3.0], method="truncated-exponential", h=0.01)
    low = low_mode_time_average(cellular, rng_f0, lam_max=4, T=3.0, h=0.01,
                                projection_kwargs={"bins": 32, "grid": 128})
    monkeypatch.setattr(spectral, "DENSE_CAP", 0)
    monkeypatch.setattr(spectral, "_sector_eigh", None)
    sparse = h1_growth_average(cellular, f0, [1.0, 3.0], method="truncated-exponential",
                               h=0.01)
    assert np.allclose(sparse.values, growth.values, rtol=1e-12, atol=0)
    assert np.array_equal(sparse.h_effective, growth.h_effective)
    assert low_mode_time_average(cellular, rng_f0, lam_max=4, T=3.0, h=0.01,
                                 projection_kwargs={"bins": 32, "grid": 128}) == pytest.approx(
        low, rel=1e-12)


def _touched_sectors(B, f0):
    """The distinct sectors of B on which f0 has a coordinate, in its sector or a twin."""
    return [V for idx, sectors in _symmetry_sectors(B) if f0[idx].any() for V, twins, _ in sectors
            if any((G.T @ f0[idx]).any() for G in (V, *twins))]


def test_growth_decomposes_each_touched_sector_once(cellular, monkeypatch):
    # one B per call and one eigh per distinct sector that f0 touches,
    # shared by its twins and by every T: cos x and sin y lie in two
    # 72-row blocks, in the 40-row sector of one (not in its 32-row one)
    # and in a twin pair of 36-row sectors of the other
    N = 8
    f0 = make_field(N, [((1, 0), "cos", 1.0), ((0, 1), "sin", 0.5)])
    B = advection_matrix(cellular, N)
    touched = _touched_sectors(B, f0.coeffs)
    assert sorted(V.shape[1] for V in touched) == [36, 40]
    calls = {"advection_matrix": 0, "_sector_eigh": 0}
    for name in calls:
        original = getattr(spectral, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(spectral, name, counted)
    h1_growth_average(cellular, f0, [1.0, 2.0, 4.0], method="truncated-exponential", h=0.05)
    assert calls == {"advection_matrix": 1, "_sector_eigh": len(touched)}
    assert not hasattr(spectral, "expm_multiply")


def test_spectrum_frequencies_come_from_the_shared_sector_eigh(cellular, monkeypatch):
    # one values-only eigh per distinct sector, which its twins reuse, and
    # the lazy eigenvectors from the same sectors
    B = advection_matrix(cellular, 6)
    distinct = sum(1 for _, sectors in _symmetry_sectors(B) for _ in sectors)
    calls = []
    original = spectral._sector_eigh

    def counted(s, vectors=True):
        calls.append(vectors)
        return original(s, vectors)

    monkeypatch.setattr(spectral, "_sector_eigh", counted)
    rep = spectrum(B)
    assert calls == [False] * distinct < [False] * len(rep.frequencies)
    for idx, sectors in _symmetry_sectors(B):
        w = spectral._block_eigh(B, idx, sectors, vectors=False)
        assert np.array_equal(np.sort(w), np.sort(rep.frequencies[np.isin(rep.order, idx)]))
    rep.vectors
    assert calls[distinct:] == [False] * distinct + [True] * distinct


def _check_spectrum(B):
    """Frequencies against eigvalsh(i B_b) per invariant block, the +- pairing
    of each block, and the lazy eigenvectors."""
    rep = spectrum(B)
    Bd = B.dense()
    assert "vectors" not in vars(rep) and "eigenvectors" not in vars(rep)
    for idx in invariant_blocks(B):
        want = np.linalg.eigvalsh(1j * Bd[np.ix_(idx, idx)])
        scale = max(np.abs(want).max(), 1.0)
        got = np.sort(rep.frequencies[np.isin(rep.order, idx)])
        assert np.abs(got - want).max() <= 1e-13 * scale
        assert np.abs(got + got[::-1]).max() <= 1e-13 * scale
    V, w = rep.vectors, rep.frequencies
    scale = max(np.abs(w).max(), 1.0)
    assert np.abs(1j * Bd @ V - V * w).max() <= 1e-12 * scale
    assert np.abs(V.conj().T @ V - np.eye(len(w))).max() <= 1e-12


@pytest.mark.parametrize("N", [8, 16])
def test_spectrum_per_sector_sin_x_sin_y(cellular, N):
    B = advection_matrix(cellular, N)
    assert any(complex_form for _, sectors in _symmetry_sectors(B)
               for _, _, complex_form in sectors)
    _check_spectrum(B)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=dihedral_flows(), N=st.integers(2, 6))
def test_spectrum_per_sector_dihedral_flows(flow, N):
    _check_spectrum(advection_matrix(flow, N))
