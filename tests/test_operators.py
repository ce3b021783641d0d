import importlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from torusmix import (
    DENSE_CAP,
    advection_matrix,
    default_cellular_flow,
    dissipation_matrix,
    generator,
    invariant_blocks,
    make_cellular,
    make_field,
    mode_table,
    semigroup_apply,
    semigroup_norm,
    sin_shear,
    sobolev_norm,
    write_operator_triplets,
)
from torusmix import operators
from torusmix.fields import random_field
from torusmix.operators import (BlockDiagonal, _blas_pools, _dense_norm, _krylov_norm,
                                _one_blas_pool, _openblas_threads, _sector_bounds,
                                _symmetry_sectors)

from strategies import dihedral_flows, random_flows, symmetric_flows


def test_advection_hand_convolution_sin_shear(shear):
    # u . grad c_(1,0) = 1/2 c_(1,1) - 1/2 c_(1,-1) (hand convolution of
    # sin y against e^{ix}, restated in the real basis)
    N = 4
    B = advection_matrix(shear, N).dense()
    t = mode_table(N)
    col = B[:, t.coefficient_index((1, 0), "cos")]
    expected = np.zeros_like(col)
    expected[t.coefficient_index((1, 1), "cos")] = 0.5
    expected[t.coefficient_index((1, -1), "cos")] = -0.5
    assert np.allclose(col, expected, atol=1e-14)
    # the sine partner couples within the sine family the same way
    col_s = B[:, t.coefficient_index((1, 0), "sin")]
    expected_s = np.zeros_like(col_s)
    expected_s[t.coefficient_index((1, 1), "sin")] = 0.5
    expected_s[t.coefficient_index((1, -1), "sin")] = -0.5
    assert np.allclose(col_s, expected_s, atol=1e-14)


def test_shear_kills_x_independent_columns(shear):
    N = 6
    B = advection_matrix(shear, N).dense()
    t = mode_table(N)
    cols = np.flatnonzero(t.k1 == 0)
    assert np.max(np.abs(B[:, cols])) == 0.0


def test_advection_skew_symmetric(cellular, shear, rng):
    for flow in (cellular, shear, make_cellular(random_field(3, rng))):
        B = advection_matrix(flow, 8).dense()
        assert np.max(np.abs(B + B.T)) < 1e-12


def test_advection_velocity_support_precondition():
    wide = make_cellular(make_field(3, [((3, 3), "cos", 1.0)]))
    with pytest.raises(ValueError, match="support"):
        advection_matrix(wide, 1)  # velocity support 3 > 2 N = 2


def test_advection_quadratic_form_vanishes(cellular, rng):
    B = advection_matrix(cellular, 6).dense()
    for _ in range(10):
        f = random_field(6, rng)
        assert abs(f.coeffs @ (B @ f.coeffs)) < 1e-12 * sobolev_norm(f, 0) ** 2


def test_zero_flow_advection_is_zero():
    B = advection_matrix(None, 4)
    assert np.max(np.abs(B.dense())) == 0.0


@pytest.mark.parametrize(
    "mode,s,expected", [((0, 1), 1.0, -1.0), ((1, 1), 1.0, -2.0), ((0, 2), 0.5, -2.0)]
)
def test_dissipation_diagonal_values(mode, s, expected):
    N = 4
    D = dissipation_matrix(N, s).dense()
    t = mode_table(N)
    i = t.coefficient_index(mode, "cos")
    assert D[i, i] == pytest.approx(expected, rel=1e-15)
    assert np.count_nonzero(D - np.diag(np.diag(D))) == 0


def test_dissipation_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        dissipation_matrix(4, 0.0)


def test_generator_structure(shear, cellular):
    N = 5
    A = generator(shear, 0.3, N)
    B = advection_matrix(shear, N).dense()
    D = dissipation_matrix(N).dense()
    assert np.allclose(A.dense(), -B + 0.3 * D, atol=0)
    # symmetric part equals nu * D exactly
    sym = 0.5 * (A.dense() + A.dense().T)
    assert np.array_equal(sym, 0.3 * D)
    # inviscid generator is skew
    A0 = generator(shear, 0.0, N).dense()
    assert np.max(np.abs(A0 + A0.T)) < 1e-14
    # one representation: CSR at every N, on both sides of DENSE_CAP
    assert mode_table(31).size <= DENSE_CAP < mode_table(32).size
    for N in (4, 31, 32):
        B, D = advection_matrix(cellular, N), dissipation_matrix(N)
        A = generator(cellular, 0.3, N)
        for op in (B, D, A):
            assert sp.issparse(op.matrix) and op.matrix.format == "csr"
        assert np.array_equal(A.dense(), -B.dense() + 0.3 * D.dense())


def test_generator_from_prebuilt_advection(shear, cellular):
    # a nu ladder passes B itself: the same generator, bit for bit
    for flow in (shear, cellular, None):
        B = advection_matrix(flow, 6)
        for nu in (0.0, 0.3):
            want, got = generator(flow, nu, 6).matrix, generator(B, nu, 6).matrix
            assert (want != got).nnz == 0 and got.nnz == want.nnz
    with pytest.raises(ValueError, match="advection matrix at N = 5"):
        generator(advection_matrix(shear, 6), 0.1, 5)
    with pytest.raises(ValueError, match="advection matrix"):
        generator(generator(shear, 0.1, 6), 0.1, 6)


def test_generator_spectral_abscissa(shear, cellular):
    for flow, nu in ((shear, 0.2), (cellular, 0.05), (None, 1.0)):
        A = generator(flow, nu, 5)
        eigs = np.linalg.eigvals(A.dense())
        assert np.max(eigs.real) <= -nu * 1.0 + 1e-10


def test_pure_heat_generator_is_diagonal():
    A = generator(None, 1.0, 4)
    M = A.dense()
    assert np.count_nonzero(M - np.diag(np.diag(M))) == 0
    assert np.allclose(np.diag(M), -mode_table(4).lam.astype(float))


def test_semigroup_identity_at_zero(shear, rng):
    A = generator(shear, 0.1, 4)
    f = random_field(4, rng)
    g = semigroup_apply(A, 0.0, f)
    assert np.array_equal(g.coeffs, f.coeffs)


def test_semigroup_heat_eigenmode_decay():
    A = generator(None, 1.0, 4)
    f = make_field(4, [((0, 1), "cos", 1.0)])
    g = semigroup_apply(A, 1.0, f)
    assert g.coefficient((0, 1), "cos") == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_inviscid_evolution_is_unitary(cellular, rng):
    A = generator(cellular, 0.0, 6)
    for _ in range(3):
        f = random_field(6, rng)
        g = semigroup_apply(A, 5.0, f)
        assert sobolev_norm(g, 0) == pytest.approx(sobolev_norm(f, 0), abs=1e-10)
        # reversibility: negative time allowed and inverts the flow
        back = semigroup_apply(A, -5.0, g)
        assert np.allclose(back.coeffs, f.coeffs, atol=1e-10)


def test_negative_time_rejected_for_viscous(shear, rng):
    A = generator(shear, 0.1, 4)
    with pytest.raises(ValueError, match="negative time"):
        semigroup_apply(A, -1.0, random_field(4, rng))
    with pytest.raises(ValueError):
        semigroup_norm(A, -1.0)


def test_semigroup_property(cellular, rng):
    A = generator(cellular, 0.07, 5)
    for t, s in ((0.5, 1.3), (2.0, 0.1), (1.0, 1.0)):
        f = random_field(5, rng)
        one = semigroup_apply(A, t + s, f)
        two = semigroup_apply(A, t, semigroup_apply(A, s, f))
        assert np.allclose(one.coeffs, two.coeffs, atol=1e-9)


def test_semigroup_norm_trivial_cases(shear):
    A = generator(shear, 0.4, 4)
    assert semigroup_norm(A, 0.0) == 1.0
    heat = generator(None, 0.7, 4)
    for t in (0.5, 2.0):
        assert semigroup_norm(heat, t) == pytest.approx(math.exp(-0.7 * t), rel=1e-12)


def test_semigroup_norm_heat_bound(shear, cellular):
    # ||S_nu(t)|| <= e^{-nu lambda_1 t} for every incompressible flow
    for flow, nu in ((shear, 0.3), (cellular, 0.1)):
        A = generator(flow, nu, 6)
        for t in (1.0, 4.0):
            assert semigroup_norm(A, t) <= math.exp(-nu * t) + 1e-8


def test_semigroup_norm_monotone_contraction(cellular):
    A = generator(cellular, 0.2, 5)
    ts = (0.5, 1.0, 2.0, 4.0)
    vals = [semigroup_norm(A, t) for t in ts]
    assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))


def test_krylov_norm_matches_dense(cellular):
    # exercise the above-cap code path on a small block where dense is exact
    A = generator(cellular, 0.1, 5)
    blocks = invariant_blocks(A)
    big = max(blocks, key=len)
    sub = A.matrix[np.ix_(big, big)].tocsr()
    t = 3.0
    dense = sla.svdvals(sla.expm(t * sub.toarray()))[0]
    assert _krylov_norm(sub, t) == pytest.approx(dense, rel=1e-6)
    # and on a symmetry sector, the matrix semigroup_norm hands to Lanczos
    idx, V = max(((idx, V) for idx, sectors in _symmetry_sectors(A) for V, _, _ in sectors),
                 key=lambda pair: pair[1].shape[1])
    sub = (V.T @ A.matrix[np.ix_(idx, idx)] @ V).tocsr()
    assert V.shape[1] < len(big)
    dense = sla.svdvals(sla.expm(t * sub.toarray()))[0]
    assert _krylov_norm(sub, t) == pytest.approx(dense, rel=1e-6)


def test_galerkin_consistency_under_refinement(cellular):
    # fixed smooth datum and time: successive truncations approach each other
    t = 1.5
    f_small = make_field(4, [((1, 0), "cos", 1.0), ((1, 1), "sin", 0.5)])
    diffs = []
    for N in (4, 8, 16):
        fN = f_small.embed(N)
        f2N = f_small.embed(2 * N)
        gN = semigroup_apply(generator(cellular, 0.0, N), t, fN)
        g2N = semigroup_apply(generator(cellular, 0.0, 2 * N), t, f2N)
        diff = g2N - gN.embed(2 * N)
        diffs.append(sobolev_norm(diff, 0))
    assert diffs[0] > diffs[1] > diffs[2]


@settings(max_examples=40, deadline=None)
@given(flow=random_flows(), N=st.integers(2, 12))
@example(flow=sin_shear(), N=6)
@example(flow=default_cellular_flow(), N=8)
def test_invariant_blocks_partition(flow, N):
    # the blocks partition the indices, each ascending, in order of (length,
    # first index); A couples no two blocks, and each block is one connected
    # component of its sparsity pattern
    A = generator(flow, 0.1, N)
    blocks = invariant_blocks(A)
    n = A.shape[0]
    seen = np.concatenate(blocks)
    assert len(seen) == n and len(np.unique(seen)) == n
    assert all(np.all(np.diff(idx) > 0) for idx in blocks)
    keys = [(len(idx), idx[0]) for idx in blocks]
    assert keys == sorted(keys)
    label = np.empty(n, dtype=int)
    for b, idx in enumerate(blocks):
        label[idx] = b
    i, j = A.matrix.nonzero()
    assert np.all(label[i] == label[j])
    pattern = abs(A.matrix) + abs(A.matrix.T)
    for idx in blocks:
        assert connected_components(pattern[np.ix_(idx, idx)], directed=False)[0] == 1


def test_block_diagonal_matches_dense(rng):
    n = 7
    sym = lambda b: (lambda G: G + G.T)(rng.standard_normal((b, b)))
    P = BlockDiagonal(n, [(np.array([0, 4]), sym(2)), (np.array([2]), sym(1))])
    R = BlockDiagonal(n, [(np.array([4, 5]), sym(2)), (np.array([6]), sym(1))])
    for M in (P, R):
        D = M.toarray()
        assert np.array_equal(M.diagonal(), np.diag(D))
        assert np.allclose(M.eigvalsh(), sla.eigvalsh(D), rtol=0, atol=1e-14)
        for idx, block in M.blocks:
            vals, vecs = sla.eigh(block)
            v = np.zeros(n)
            v[idx] = vecs[:, -1]
            assert np.allclose(D @ v, vals[-1] * v, rtol=0, atol=1e-14)
    # {0, 4} and {4, 5} overlap, so the difference lives on {0, 4, 5}
    diff = BlockDiagonal(n, P.differences(R))
    assert [idx.tolist() for idx, _ in diff.blocks] == [[0, 4, 5], [2], [6]]
    assert np.array_equal(diff.toarray(), P.toarray() - R.toarray())
    D = np.diag([0.0, 3.0, 0.0, 0.0, -1.0, 0.0, 0.0])
    assert np.array_equal(BlockDiagonal.diag(np.diag(D)).toarray(), D)
    with pytest.raises(ValueError, match="block of shape"):
        BlockDiagonal(n, [(np.array([0, 1]), np.eye(3))])


def _sector_splits(op):
    """Check the sectors of ``op``; return (block size, sector sizes) per block.

    The sizes of a block are one tuple per distinct sector: its own size and
    those of its twins.
    """
    A = op.matrix
    n = A.shape[0]
    tol = 1e-14 * np.abs(A.data).max()
    split = [(idx, list(sectors)) for idx, sectors in _symmetry_sectors(op)]
    assert [idx.tolist() for idx, _ in split] == [idx.tolist() for idx in invariant_blocks(op)]
    # a twin basis gives its sector the matrix of the sector it twins
    for idx, sectors in split:
        a = A[np.ix_(idx, idx)]
        for V, twins, _ in sectors:
            sub = (V.T @ a @ V).toarray()
            for G in twins:
                assert np.max(np.abs((G.T @ a @ G).toarray() - sub), initial=0.0) <= tol
    # the sectors and twins, lifted to the whole space, are orthonormal and reduce A
    lifted = [sp.csc_matrix((V.data, idx[V.indices], V.indptr), shape=(n, V.shape[1]))
              for idx, sectors in split for V0, twins, _ in sectors for V in (V0, *twins)]
    assert sum(V.shape[1] for V in lifted) == n
    W = sp.hstack(lifted).toarray()
    assert np.allclose(W.T @ W, np.eye(n), rtol=0, atol=1e-15)
    left = [V.T @ A for V in lifted]
    for i, Vi_A in enumerate(left):
        for j, Vj in enumerate(lifted):
            if i != j:
                assert np.all((Vi_A @ Vj).data == 0.0)
    return sorted((len(idx), tuple(sorted((V.shape[1],) + tuple(G.shape[1] for G in twins)
                                          for V, twins, _ in sectors)))
                  for idx, sectors in split)


def test_symmetry_sectors_cellular(cellular):
    # x -> -x commutes with the sin x sin y generator and halves each block;
    # cos x cos y is sin x sin y translated by (pi/2, pi/2), so it splits
    # alike, but only under reflections through pi such as x -> pi - x.
    # x <-> y composed with a half-period translation commutes too: it
    # splits each half of one 70-row block again, maps one half of the
    # other 70-row block and of one 72-row block onto the other half (a twin
    # sector, same matrix), and squares to -I on the halves of the last block
    cos_cos = make_cellular(make_field(2, [((1, -1), "cos", 1.0), ((1, 1), "cos", 1.0)]))
    expected = [(1, ((1,),))] * 4 + [
        (70, ((15,), (16,), (19,), (20,))), (70, ((35, 35),)),
        (72, ((32,), (40,))), (72, ((36, 36),))]
    for flow in (cellular, cos_cos):
        assert _sector_splits(generator(flow, 0.05, 8)) == expected


def test_symmetry_sectors_shear(shear):
    # y -> pi - y commutes with sin y d/dx: each x-wavenumber block splits
    splits = _sector_splits(generator(shear, 0.05, 8))
    assert splits == [(1, ((1,),))] * 16 + [(17, ((8,), (9,)))] * 16


def test_symmetry_sectors_random_flow_unsplit(rng):
    op = generator(make_cellular(random_field(3, rng)), 0.05, 8)
    splits = _sector_splits(op)
    assert all(sizes == ((size,),) for size, sizes in splits)


def _complex_structure_maps(op, idx, V):
    """The lattice maps g that commute with A on the block ``idx`` and map
    the sector V onto itself with (V^T g V)^2 = -I, as dense G = V^T g V."""
    A = op.dense()[np.ix_(idx, idx)]
    tol = 1e-14 * np.abs(op.matrix.data).max()
    Vd = V.toarray()
    found = []
    for p, s in operators._lattice_maps(op.N):
        if not np.array_equal(np.sort(p[idx]), idx):
            continue
        g = np.zeros((len(idx), len(idx)))
        g[np.searchsorted(idx, p[idx]), np.arange(len(idx))] = s[idx]
        if np.abs(g @ A - A @ g).max() > tol:
            continue
        G = Vd.T @ g @ Vd
        if (np.allclose(g @ Vd, Vd @ G, rtol=0, atol=1e-14)
                and np.allclose(G @ G, -np.eye(len(G)), rtol=0, atol=1e-14)):
            found.append(G)
    return found


def _check_complex_structures(op):
    """Every sector is complex exactly where a commuting map squares to -I
    on it.  On a complex sector of b rows, G0 = diag([[0, -1], [1, 0]], ...)
    is orthogonal, G0^2 = -I, G0 s = s G0 and V G0 = g V for a commuting
    lattice map g.  Returns the number of complex sectors."""
    A = op.matrix
    tol = 1e-14 * np.abs(A.data).max()
    count = 0
    for idx, sectors in _symmetry_sectors(op):
        a = A[np.ix_(idx, idx)]
        for V, _, complex_form in sectors:
            maps = _complex_structure_maps(op, idx, V)
            assert complex_form == bool(maps)
            if not complex_form:
                continue
            count += 1
            b = V.shape[1]
            assert b % 2 == 0
            G0 = np.kron(np.eye(b // 2), [[0.0, -1.0], [1.0, 0.0]])
            s = (V.T @ a @ V).toarray()
            assert np.array_equal(G0.T @ G0, np.eye(b)) and np.array_equal(G0 @ G0, -np.eye(b))
            assert np.abs(G0 @ s - s @ G0).max() <= tol
            assert any(np.allclose(G, G0, rtol=0, atol=1e-14) for G in maps)
    return count


@pytest.mark.parametrize("N", [8, 16])
def test_complex_structures_of_sin_x_sin_y(cellular, N):
    # the two sectors of one 272-row block at N = 16 (144 + 128; 40 + 32 at
    # N = 8) carry a complex structure, and semigroup_norm takes them at
    # half their rows: the norm of the whole blocks
    op = generator(cellular, 0.1, N)
    assert _check_complex_structures(op) == 2
    A = op.dense()
    for t in (1.0, 10.0):
        reference = max(sla.svdvals(sla.expm(t * A[np.ix_(idx, idx)]))[0]
                        for idx in invariant_blocks(op))
        assert semigroup_norm(op, t) == pytest.approx(reference, rel=1e-12)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=dihedral_flows(), N=st.integers(2, 6), nu=st.floats(0.01, 1.0))
def test_complex_structures_of_dihedral_flows(flow, N, nu):
    _check_complex_structures(generator(flow, nu, N))


def test_complex_sector_realifies_to_the_sector(cellular):
    # s is the realification of C: the real columns of a unitary Z are
    # orthonormal, and those of C Z are s times those of Z; an upper
    # triangular matrix realifies to an upper quasi-triangular one.  The
    # real sector matrix is V^T a V itself, and both are Fortran-ordered
    # for LAPACK
    op = generator(cellular, 0.1, 8)
    complex_sectors = 0
    for idx, sectors in _symmetry_sectors(op):
        a = op.matrix[np.ix_(idx, idx)]
        for V, _, complex_form in sectors:
            s = (V.T @ a @ V).toarray()
            C = operators._sector_matrix(a, V, complex_form)    # s itself on a real sector
            assert C.flags.f_contiguous
            if not complex_form:
                assert np.array_equal(C, s)
                continue
            complex_sectors += 1
            assert 2 * len(C) == len(s)
            assert np.allclose(operators._real_columns(C), s, rtol=0, atol=1e-14 * np.abs(s).max())
            Z = sla.qr(C + 1j * np.eye(len(C)))[0]
            W = operators._real_columns(Z)
            assert np.allclose(W.T @ W, np.eye(len(W)), rtol=0, atol=1e-14)
            assert np.allclose(operators._real_columns(C @ Z), s @ W, rtol=0,
                               atol=1e-13 * np.abs(s).max())
            T = operators._real_columns(np.triu(C))
            assert not np.tril(T, -2).any() and not T[2::2, 1::2].diagonal().any()
    assert complex_sectors == 2


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=st.one_of(symmetric_flows(), dihedral_flows()), N=st.integers(2, 6),
       nu=st.floats(0.01, 1.0), t=st.floats(0.1, 10.0))
@example(flow=default_cellular_flow(), N=8, nu=0.1, t=3.0)
def test_semigroup_norm_matches_block_svd_on_symmetric_flows(flow, N, nu, t):
    # dihedral flows such as sin x sin y (the example) have second splits,
    # twin sectors and maps that square to -I; a twin basis must reproduce
    # the matrix of its sector
    op = generator(flow, nu, N)
    blocks = invariant_blocks(op)
    A = op.dense()
    tol = 1e-14 * np.abs(A).max()
    split = False
    for idx, sectors in _symmetry_sectors(op):
        a = A[np.ix_(idx, idx)]
        for V, twins, _ in sectors:
            split = split or V.shape[1] < len(idx)
            sub = V.T @ a @ V
            for G in twins:
                assert np.max(np.abs(G.T @ a @ G - sub)) <= tol
    assert split
    reference = max(sla.svdvals(sla.expm(t * A[np.ix_(idx, idx)]))[0] for idx in blocks)
    assert semigroup_norm(op, t) == pytest.approx(reference, rel=1e-12)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flow=st.one_of(random_flows(), symmetric_flows(), dihedral_flows()), N=st.integers(2, 8),
       nu=st.floats(0.05, 1.0), heat=st.floats(2.0, 20.0))
@example(flow=default_cellular_flow(), N=8, nu=0.1, heat=1.0)
def test_semigroup_norm_skips_only_sectors_below_the_maximum(flow, N, nu, heat):
    # random_flows draws random cellular flows and random shears.  At
    # nu t >= 2 a sector without a |k|^2 = 1 mode has a bound near
    # exp(-2 nu t), and semigroup_norm skips most such sectors; the result
    # must be the maximum over every sector, and no sector may exceed its
    # bound
    t = heat / nu
    op = generator(flow, nu, N)
    norms = []
    for mu, a, V, _ in _sector_bounds(op):
        norm = sla.svdvals(sla.expm(t * (V.T @ a @ V).toarray()))[0]
        assert norm <= math.exp(t * mu)
        norms.append(norm)
    assert semigroup_norm(op, t) == pytest.approx(max(norms), rel=1e-12)


def test_semigroup_norm_exponentiates_only_sectors_with_a_unit_mode(cellular, monkeypatch):
    # sin x sin y at nu t = 1: the sectors holding (1, 0) and (0, 1) have the
    # heat bound e^-1 and reach 0.24; every other sector is bounded by
    # e^-2 = 0.135 and is never exponentiated.  One of them (40 rows) has a
    # complex structure and is exponentiated at half its rows
    nu, N, t = 0.1, 8, 10.0
    op = generator(cellular, nu, N)
    lam = mode_table(N).lam
    unit = sorted(V.shape[1] // (2 if complex_form else 1)
                  for idx, sectors in _symmetry_sectors(op) for V, _, complex_form in sectors
                  if np.any(lam[idx[V.indices]] == 1))
    calls = []

    def counted(A, t):
        calls.append(A.copy())      # _dense_norm overwrites A with tA
        return _dense_norm(A, t)

    monkeypatch.setattr("torusmix.operators._dense_norm", counted)
    norm = semigroup_norm(op, t)
    assert sorted(len(A) for A in calls) == unit == [20, 36]
    assert all(np.diag(A).real.max() == pytest.approx(-nu, rel=1e-12) for A in calls)
    assert 0.24 < norm < math.exp(-1)


@pytest.mark.parametrize("flow, cap", [("cellular", 10), ("shear", 4)])
def test_semigroup_norm_takes_lanczos_above_the_cap(flow, cap, request, monkeypatch):
    # with DENSE_CAP lowered, the sectors that can hold the maximum (40 and
    # 36 rows for sin x sin y, two of 9 rows for sin y) go to Lanczos on
    # exp(tA) exp(tA)^T instead of a dense exponential, to ~1e-8
    op = generator(request.getfixturevalue(flow), 0.1, 8)
    dense = semigroup_norm(op, 10.0)
    calls = []

    def counted(A, t):
        calls.append(A.shape[0])
        return _krylov_norm(A, t)

    monkeypatch.setattr(operators, "DENSE_CAP", cap)
    monkeypatch.setattr(operators, "_krylov_norm", counted)
    assert semigroup_norm(op, 10.0) == pytest.approx(dense, rel=1e-8)
    assert calls and min(calls) > cap


def test_dense_norm_without_underflow(shear):
    # at nu t = 10, exp(ta) of the shear's x-dependent sectors falls to
    # 1e-295, so E^T E would underflow to zero without the power-of-two
    # scaling; semigroup_norm skips these sectors, so call _dense_norm itself
    op = generator(shear, 1.0, 8)
    tiny = 0
    for idx, sectors in _symmetry_sectors(op):
        a = op.matrix[np.ix_(idx, idx)]
        for V, _, _ in sectors:
            if V.shape[1] > 1:
                sub = (V.T @ a @ V).toarray()
                E = sla.expm(10.0 * sub)
                tiny += np.abs(E).max() < 1e-154
                assert _dense_norm(sub, 10.0) == pytest.approx(sla.svdvals(E)[0], rel=1e-12)
    assert tiny >= 4
    assert _dense_norm(np.diag([-1e3, -2e3]), 10.0) == 0.0     # exp(tA) is exactly zero


def test_dense_norm_of_small_complex_sectors(rng):
    # ARPACK's complex Hermitian path needs more than two rows: the complex
    # form of a sector of two or four rows takes a dense eigvalsh
    for m in (1, 2, 3):
        C = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) - 2.0 * np.eye(m)
        want = sla.svdvals(sla.expm(0.5 * C))[0]
        assert _dense_norm(C, 0.5) == pytest.approx(want, rel=1e-12)


def test_semigroup_norm_shear_at_large_heat_time(shear):
    # the case whose x-dependent sectors underflow: the norm is the heat
    # decay of the invariant x-independent mode (0, 1)
    assert semigroup_norm(generator(shear, 1.0, 8), 10.0) == pytest.approx(
        math.exp(-10.0), rel=1e-12)


def test_triplet_export_round_trip(shear):
    op = advection_matrix(shear, 3)
    buf = io.StringIO()
    write_operator_triplets(op, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("# torusmix operator v1 kind=advection")
    M = np.zeros(op.shape)
    for line in lines[1:]:
        i, j, v = line.split()
        M[int(i), int(j)] = float(v)
    assert np.array_equal(M, op.dense())


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------


def _bundled_pools():
    """(numpy get, numpy set, scipy get, scipy set), or skip without two pools."""
    if _blas_pools() is None:
        pytest.skip("numpy and scipy do not each bundle an OpenBLAS")
    return (*_blas_pools()[0], *_blas_pools()[1])


@pytest.fixture
def two_threads():
    """Both pools at two threads for the test, then back to their counts."""
    get, put, scipy_get, scipy_put = _bundled_pools()
    before = get(), scipy_get()
    put(2)
    scipy_put(2)
    yield get, scipy_get
    put(before[0])
    scipy_put(before[1])


def test_one_blas_pool_caps_numpy_and_leaves_scipy(two_threads):
    get, scipy_get = two_threads
    with _one_blas_pool():
        assert get() == 1
        assert scipy_get() == 2


def test_one_blas_pool_restores_numpy_count(two_threads):
    get, _ = two_threads
    with _one_blas_pool():
        pass
    assert get() == 2
    with pytest.raises(ZeroDivisionError):
        with _one_blas_pool():
            1 / 0
    assert get() == 2
    with _one_blas_pool():
        with _one_blas_pool():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_one_blas_pool_for_scipy_caps_and_restores_both(two_threads):
    get, scipy_get = two_threads
    with _one_blas_pool():
        with pytest.raises(ZeroDivisionError):
            with _one_blas_pool(scipy=True):
                assert (get(), scipy_get()) == (1, 1)
                1 / 0
        assert (get(), scipy_get()) == (1, 2)
    assert (get(), scipy_get()) == (2, 2)


@pytest.mark.parametrize("missing", ["shared", "numpy", "scipy"])
def test_one_blas_pool_without_two_pools_is_a_noop(monkeypatch, missing):
    # one BLAS for both packages, or no OpenBLAS symbols found in one
    calls = []
    found = (Path("libopenblas.so"), lambda: 2, calls.append)
    monkeypatch.setattr(operators, "_openblas_threads",
                        lambda package: None if package == missing else found)
    _blas_pools.cache_clear()
    try:
        assert _blas_pools() is None
        with _one_blas_pool(), _one_blas_pool(scipy=True):
            pass
    finally:
        _blas_pools.cache_clear()
    assert calls == []


@pytest.mark.parametrize("package", ["numpy", "scipy"])
def test_blas_lookup_finds_every_bundled_openblas(package):
    # a symbol renamed in a future wheel must fail here, not switch the cap off
    root = Path(importlib.import_module(package).__file__).resolve().parent.parent
    if not any((root / f"{package}.libs").glob("*openblas*.so*")):
        pytest.skip(f"{package} bundles no OpenBLAS")
    path, get, _ = _openblas_threads(package)
    assert path.parent.name == f"{package}.libs"
    assert get() >= 1
