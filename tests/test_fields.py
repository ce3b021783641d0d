import io
import math

import numpy as np
import pytest

from torusmix import (
    field_from_grid,
    make_field,
    mode_table,
    project_low,
    project_low_eigencount,
    read_field,
    sample_grid,
    sobolev_norm,
    write_field,
)
from torusmix.fields import random_field


def brute_force_values(f, points):
    """Independent pointwise evaluation straight from the basis definition."""
    table = f.table
    out = np.zeros(len(points))
    for i, c in enumerate(f.coeffs):
        if c == 0.0:
            continue
        k1, k2 = table.k1[i], table.k2[i]
        for p, (x, y) in enumerate(points):
            phase = k1 * x + k2 * y
            basis = math.cos(phase) if table.parity[i] == 0 else math.sin(phase)
            out[p] += c * math.sqrt(2.0) / (2.0 * math.pi) * basis
    return out


def test_make_field_unit_norm():
    f = make_field(4, [((0, 1), "cos", 1.0)])
    assert sobolev_norm(f, 0) == pytest.approx(1.0, abs=1e-15)


def test_make_field_empty_is_zero():
    f = make_field(4, [])
    assert sobolev_norm(f, 0) == 0.0


def test_make_field_rejects_mean_mode():
    with pytest.raises(ValueError, match="mean-zero"):
        make_field(4, [((0, 0), "cos", 1.0)])


def test_make_field_rejects_out_of_truncation():
    with pytest.raises(ValueError, match="truncation"):
        make_field(4, [((5, 0), "cos", 1.0)])


def test_make_field_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        make_field(4, [((0, 1), "cos", 1.0), ((0, 1), "cos", 2.0)])
    # -k aliases the same (cos) slot
    with pytest.raises(ValueError, match="duplicate"):
        make_field(4, [((1, 2), "cos", 1.0), ((-1, -2), "cos", 1.0)])


def test_negative_mode_aliases_with_sine_sign():
    f = make_field(4, [((-1, -2), "sin", 1.0)])
    assert f.coefficient((1, 2), "sin") == -1.0
    assert f.coefficient((-1, -2), "sin") == 1.0


@pytest.mark.parametrize(
    "mode,s,expected",
    [((0, 1), 1.0, 1.0), ((1, 1), 1.0, math.sqrt(2.0)), ((0, 2), 0.5, math.sqrt(2.0))],
)
def test_sobolev_norm_single_modes(mode, s, expected):
    f = make_field(4, [(mode, "cos", 1.0)])
    assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-14)


def test_sobolev_norm_matches_direct_sum(rng):
    f = random_field(6, rng)
    table = mode_table(6)
    for s in (0.0, 0.5, 1.0, 2.0):
        direct = math.sqrt(sum(
            (table.lam[i] ** s) * f.coeffs[i] ** 2 for i in range(table.size)
        ))
        assert sobolev_norm(f, s) == pytest.approx(direct, rel=1e-13)


def test_poincare_inequality(rng):
    # lambda_1 = 1 on the torus: L2 norm never exceeds the H1 norm
    for _ in range(20):
        f = random_field(5, rng)
        assert sobolev_norm(f, 0) <= sobolev_norm(f, 1) + 1e-12


def test_sobolev_monotonic_in_s(rng):
    f = random_field(5, rng)
    values = [sobolev_norm(f, s) for s in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_project_low_identity():
    f = make_field(6, [((3, -2), "sin", 0.7), ((0, 1), "cos", 1.0)])
    g = project_low(f, 6)
    assert np.array_equal(g.coeffs, f.coeffs)


def test_project_low_eigencount_kills_high_mode():
    # first four eigenvalues are all 1, so eigencount 4 keeps only |k|^2 <= 1
    f = make_field(4, [((0, 3), "cos", 1.0)])
    g = project_low_eigencount(f, 4)
    assert sobolev_norm(g, 0) == 0.0
    h = project_low_eigencount(make_field(4, [((0, 1), "sin", 2.0)]), 4)
    assert sobolev_norm(h, 0) == pytest.approx(2.0)


def test_project_low_contraction_and_idempotent(rng):
    for _ in range(10):
        f = random_field(6, rng)
        g = project_low(f, 3)
        # contraction against the direct coefficient sum
        kept = np.abs(g.coeffs) > 0
        assert sobolev_norm(g, 0) <= sobolev_norm(f, 0) + 1e-12
        assert np.array_equal(project_low(g, 3).coeffs, g.coeffs)
        # dropped coefficients are exactly the |k|_inf > 3 ones
        table = mode_table(6)
        outside = (np.abs(table.k1) > 3) | (np.abs(table.k2) > 3)
        assert np.all(g.coeffs[outside] == 0.0)
        assert np.array_equal(g.coeffs[~outside], f.coeffs[~outside])


def test_sample_grid_zero_field():
    assert np.all(sample_grid(make_field(3, []), 10) == 0.0)


def test_sample_grid_basis_value_at_origin():
    f = make_field(3, [((0, 1), "cos", 1.0)])
    vals = sample_grid(f, 12)
    assert vals[0, 0] == pytest.approx(math.sqrt(2.0) / (2.0 * math.pi), rel=1e-12)


def test_sample_grid_matches_brute_force(rng):
    f = random_field(3, rng)
    M = 8
    vals = sample_grid(f, M)
    points = [(2 * math.pi * i / M, 2 * math.pi * j / M) for i in (0, 3, 5) for j in (1, 2)]
    direct = brute_force_values(f, points)
    fft_vals = [vals[i, j] for i in (0, 3, 5) for j in (1, 2)]
    assert np.allclose(fft_vals, direct, atol=1e-12)


def test_discrete_parseval(rng):
    for N, M in ((4, 10), (6, 16), (6, 30)):
        f = random_field(N, rng)
        vals = sample_grid(f, M)
        quad = (2 * math.pi / M) ** 2 * np.sum(vals**2)
        assert quad == pytest.approx(sobolev_norm(f, 0) ** 2, abs=1e-10)


def test_sample_grid_rejects_aliasing_grid():
    f = make_field(4, [])
    with pytest.raises(ValueError, match="too small"):
        sample_grid(f, 9)


def test_field_from_grid_round_trip(rng):
    f = random_field(5, rng)
    g = field_from_grid(sample_grid(f, 16), 5)
    assert np.allclose(g.coeffs, f.coeffs, atol=1e-12)


def test_serialization_bit_exact_round_trip(rng, tmp_path):
    f = random_field(4, rng, scale=math.pi)
    buf = io.StringIO()
    write_field(f, buf)
    buf.seek(0)
    path = tmp_path / "f.txt"
    write_field(f, path)
    assert path.read_text() == buf.getvalue()
    for source in (buf, path):
        g = read_field(source)
        assert g.N == f.N
        assert np.array_equal(g.coeffs, f.coeffs)  # exact, not approx


def test_serialization_rejects_foreign_file():
    with pytest.raises(ValueError, match="field file"):
        read_field(io.StringIO("not a header\n"))


def test_canonical_ordering_is_eigenvalue_sorted():
    table = mode_table(5)
    assert np.all(np.diff(table.lam) >= 0)
    assert table.size == (2 * 5 + 1) ** 2 - 1
    # cos precedes its sine partner
    assert table.parity[0] == 0 and table.parity[1] == 1
    assert table.k1[0] == table.k1[1] and table.k2[0] == table.k2[1]


def test_fields_are_immutable(rng):
    f = random_field(3, rng)
    with pytest.raises(ValueError):
        f.coeffs[0] = 99.0
