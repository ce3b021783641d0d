import math

import numpy as np
import pytest

from torusmix import (
    ShearProfile,
    cellular_streamfunction,
    make_cellular,
    make_shear,
    velocity_coefficients,
)
from torusmix.fields import make_field, random_field


def test_sin_shear_support_and_lipschitz():
    flow = make_shear(ShearProfile(sin_amps=(1.0,)))
    modes = dict(velocity_coefficients(flow))
    assert set(modes) == {(0, 1), (0, -1)}
    # sin y = -i/2 e^{iy} + i/2 e^{-iy}, second velocity component zero
    assert modes[(0, 1)][0] == pytest.approx(-0.5j)
    assert modes[(0, -1)][0] == pytest.approx(0.5j)
    assert modes[(0, 1)][1] == 0.0
    assert flow.lipschitz_bound == pytest.approx(1.0)


def test_shear_rejects_zero_profile():
    with pytest.raises(ValueError, match="zero"):
        make_shear(ShearProfile())
    with pytest.raises(ValueError, match="zero"):
        make_shear(ShearProfile(cos_amps=(0.0, 0.0)))


def test_shear_derivative_zero_count():
    # u' of cos y + cos 2y has finitely many sign changes on [0, 2 pi)
    flow = make_shear(ShearProfile(cos_amps=(1.0, 1.0)))
    assert 1 <= flow.profile_critical_points <= 10
    # independent oracle: count sign changes on a fresh dense grid
    y = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
    du = flow.profile.derivative(y)
    s = np.sign(du[du != 0])
    changes = int(np.count_nonzero(s[1:] != s[:-1])) + int(s[0] != s[-1])
    assert flow.profile_critical_points == changes


def test_cellular_velocity_matches_analytic():
    # psi = sin x sin y gives u = (-sin x cos y, cos x sin y)
    flow = make_cellular(cellular_streamfunction())
    M = 16
    u1, u2 = flow.velocity_on_grid(M)
    x = 2 * math.pi * np.arange(M) / M
    X, Y = np.meshgrid(x, x, indexing="ij")
    assert np.allclose(u1, -np.sin(X) * np.cos(Y), atol=1e-13)
    assert np.allclose(u2, np.cos(X) * np.sin(Y), atol=1e-13)


def test_cellular_velocity_coefficients_by_fft(rng):
    # independent oracle: FFT the sampled velocity and compare coefficients
    psi = random_field(3, rng)
    flow = make_cellular(psi)
    M = 32
    u1, u2 = flow.velocity_on_grid(M)
    f1 = np.fft.fft2(u1) / M**2
    f2 = np.fft.fft2(u2) / M**2
    for (m1, m2), (a1, a2) in flow.velocity.items():
        assert f1[m1 % M, m2 % M] == pytest.approx(a1, abs=1e-12)
        assert f2[m1 % M, m2 % M] == pytest.approx(a2, abs=1e-12)


def test_divergence_free_in_coefficients(rng):
    for _ in range(5):
        psi = random_field(4, rng)
        flow = make_cellular(psi)
        for (m1, m2), (a1, a2) in flow.velocity.items():
            assert abs(m1 * a1 + m2 * a2) < 1e-14


def test_velocity_has_no_mean_mode(rng):
    flows = [
        make_shear(ShearProfile(cos_amps=(0.3,), sin_amps=(1.0, 0.2))),
        make_cellular(cellular_streamfunction()),
        make_cellular(random_field(3, rng)),
    ]
    for flow in flows:
        assert (0, 0) not in flow.velocity


def test_shear_velocity_is_x_independent():
    flow = make_shear(ShearProfile(sin_amps=(1.0, 0.5)))
    assert all(m1 == 0 for (m1, _m2) in flow.velocity)
    assert all(a2 == 0 for (_a1, a2) in flow.velocity.values())


def test_cell_fixed_point_of_default_streamfunction():
    # root-find |grad psi| on a fine grid near (pi/2, pi/2)
    psi = cellular_streamfunction(N=2)
    flow = make_cellular(psi)
    M = 256
    u1, u2 = flow.velocity_on_grid(M)  # grad^perp psi vanishes iff grad psi does
    speed = np.hypot(u1, u2)
    x = 2 * math.pi * np.arange(M) / M
    i = np.argmin(np.abs(x - math.pi / 2))
    window = speed[i - 2 : i + 3, i - 2 : i + 3]
    assert window.min() < 2 * math.pi / M  # velocity ~ distance to fixed point
    assert speed[i, i] < 1e-12


def test_cellular_rejects_zero_streamfunction():
    with pytest.raises(ValueError, match="zero"):
        make_cellular(make_field(2, []))


def test_lipschitz_bound_dominates_gradient(rng):
    # || grad u ||_inf on a fine grid never exceeds the reported triangle bound
    psi = random_field(3, rng)
    flow = make_cellular(psi)
    M = 64
    x = 2 * math.pi * np.arange(M) / M
    X, Y = np.meshgrid(x, x, indexing="ij")
    # assemble the full Jacobian spectrally
    J = np.zeros((2, 2, M, M), dtype=complex)
    for (m1, m2), (a1, a2) in flow.velocity.items():
        phase = np.exp(1j * (m1 * X + m2 * Y))
        J[0, 0] += 1j * m1 * a1 * phase
        J[0, 1] += 1j * m2 * a1 * phase
        J[1, 0] += 1j * m1 * a2 * phase
        J[1, 1] += 1j * m2 * a2 * phase
    frob = np.sqrt(np.sum(np.abs(J.real) ** 2, axis=(0, 1)))
    assert frob.max() <= flow.lipschitz_bound * math.sqrt(2.0) + 1e-9
