"""The lattice index ``ModeTable.slot`` against a per-mode reference.

The reference below builds the canonical ordering, the advection matrix and
the lattice maps one mode at a time from position dictionaries, as the
package once did.  The array construction must give the same arrays, bit
for bit.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from torusmix import FourierField, advection_matrix, default_cellular_flow, mode_table, sin_shear
from torusmix.fields import PARITIES
from torusmix.operators import _REFLECTIONS, _lattice_maps

from strategies import dihedral_flows, random_flows


def _reference_table(N):
    """(k1, k2, lam, parity, index): index maps (k1, k2, parity name) to a position."""
    reps = [(k1, k2) for k1 in range(0, N + 1) for k2 in range(-N, N + 1)
            if k1 > 0 or (k1 == 0 and k2 > 0)]
    reps.sort(key=lambda m: (m[0] ** 2 + m[1] ** 2, abs(m[0]), abs(m[1]), m[0], m[1]))
    k1, k2, lam, parity, index = [], [], [], [], {}
    for a, b in reps:
        for p, name in enumerate(PARITIES):
            index[(a, b, name)] = len(k1)
            k1.append(a)
            k2.append(b)
            lam.append(a * a + b * b)
            parity.append(p)
    arrays = [np.asarray(x, dtype=np.int64) for x in (k1, k2, lam, parity)]
    return (*arrays, index)


def _reference_advection(flow, N):
    """CSR arrays of B from the per-mode convolution on the punctured complex lattice."""
    k1s, k2s, _, parity, _ = _reference_table(N)
    modes = [(a, b) for a in range(-N, N + 1) for b in range(-N, N + 1) if (a, b) != (0, 0)]
    cidx = {m: i for i, m in enumerate(modes)}
    n = len(k1s)
    rows, cols, vals = [], [], []
    h = 1.0 / math.sqrt(2.0)
    for i in range(n):
        k, mk = (int(k1s[i]), int(k2s[i])), (-int(k1s[i]), -int(k2s[i]))
        rows += [cidx[k], cidx[mk]]
        cols += [i, i]
        vals += [h, h] if parity[i] == 0 else [-1j * h, 1j * h]
    V = sp.csc_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex))
    rows, cols, vals = [], [], []
    for (m1, m2), (a1, a2) in flow.velocity.items():
        for (k1, k2), j in cidx.items():
            t1, t2 = k1 + m1, k2 + m2
            if (t1, t2) == (0, 0) or abs(t1) > N or abs(t2) > N:
                continue
            vals.append(1j * (k1 * a1 + k2 * a2))
            rows.append(cidx[(t1, t2)])
            cols.append(j)
    Bc = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex).tocsr()
    Br = (V.getH() @ (Bc @ V)).tocoo()
    Br = sp.coo_matrix((Br.data.real, (Br.row, Br.col)), shape=(n, n))
    Br.eliminate_zeros()
    return sp.csr_matrix(Br)


def _reference_maps(N):
    """The 16 lattice maps (p, s), each p found in the position dictionary."""
    k1, k2, _, parity, index = _reference_table(N)
    maps = []
    for M in _REFLECTIONS:
        m1, m2 = np.asarray(M) @ np.stack([k1, k2])
        rep = (m1 > 0) | ((m1 == 0) & (m2 > 0))
        r1, r2 = np.where(rep, m1, -m1), np.where(rep, m2, -m2)
        p = np.array([index[(int(a), int(b), PARITIES[q])] for a, b, q in zip(r1, r2, parity)])
        flip = np.where(rep | (parity == 0), 1.0, -1.0)
        for t1 in (0, 1):
            for t2 in (0, 1):
                maps.append((p, flip * np.where((t1 * k1 + t2 * k2) % 2, -1.0, 1.0)))
    return maps


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("N", [*range(1, 11), 16])
def test_mode_table_and_lattice_maps_match_reference(N):
    table = mode_table(N)
    k1, k2, lam, parity, index = _reference_table(N)
    for got, want in zip((table.k1, table.k2, table.lam, table.parity), (k1, k2, lam, parity)):
        assert _same_bits(got, want)
    for (a, b, name), i in index.items():
        assert table.slot[N + a, N + b] + PARITIES.index(name) == i
        assert table.slot[N - a, N - b] + PARITIES.index(name) == i
    assert table.slot[N, N] == -1
    assert not table.slot.flags.writeable
    for (p, s), (rp, rs) in zip(_lattice_maps(N), _reference_maps(N), strict=True):
        assert _same_bits(p, rp) and _same_bits(s, rs)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=st.one_of(random_flows(), dihedral_flows()), N=st.integers(1, 10))
@example(flow=sin_shear(), N=16)
@example(flow=default_cellular_flow(), N=16)
def test_advection_matrix_matches_reference(flow, N):
    assume(flow.max_wavenumber <= 2 * N)
    B, ref = advection_matrix(flow, N).matrix, _reference_advection(flow, N)
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(B, name), getattr(ref, name)), name


@pytest.mark.parametrize("N", [1, 2, 5, 9])
def test_coefficient_index_round_trip(N):
    # every coefficient, and its -k alias, maps back to its own position
    table = mode_table(N)
    for i, (a, b, q) in enumerate(zip(table.k1.tolist(), table.k2.tolist(),
                                      table.parity.tolist())):
        assert table.coefficient_index((a, b), PARITIES[q]) == i
        assert table.coefficient_index((-a, -b), PARITIES[q]) == i
    with pytest.raises(ValueError, match="parity"):
        table.coefficient_index((1, 0), "tan")
    with pytest.raises(ValueError, match="mean-zero"):
        table.coefficient_index((0, 0), "cos")


@pytest.mark.parametrize("N,N_new", [(1, 1), (1, 4), (3, 4), (5, 9)])
def test_embed_places_each_coefficient(N, N_new, rng):
    src = mode_table(N)
    f = FourierField(N, rng.standard_normal(src.size))
    index = _reference_table(N_new)[4]
    want = np.zeros(len(index))
    for i in range(src.size):
        want[index[(int(src.k1[i]), int(src.k2[i]), PARITIES[src.parity[i]])]] = f.coeffs[i]
    assert _same_bits(f.embed(N_new).coeffs, want)
