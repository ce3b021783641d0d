"""Hypothesis strategies for flows, the per-block finite-time step of a whole operator, and
Van Loan's formula for that step as a reference, shared by the tests."""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume
from hypothesis import strategies as st

from torusmix import FourierField, make_cellular, make_shear, mode_table
from torusmix.covariance import _doublings, _increment_block
from torusmix.fields import field_from_grid, sample_grid
from torusmix.flows import ShearProfile
from torusmix.operators import BlockDiagonal, _dense, invariant_blocks


# f -> f(Mx + tau) for the lattice reflections M and tau in {0, pi}^2 (in
# units of pi), and those whose affine map is an involution
_REFLECTIONS = [
    (M, tau)
    for M in (((-1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((0, -1), (-1, 0)))
    for tau in ((0, 0), (0, 1), (1, 0), (1, 1))
]
_INVOLUTIONS = [
    (M, tau) for M, tau in _REFLECTIONS
    if all((M[r][0] * tau[0] + M[r][1] * tau[1] + tau[r]) % 2 == 0 for r in (0, 1))
]


def _reflect(psi, M, tau, G=8):
    """psi(Mx + tau), through point values on a G x G grid (G even)."""
    values = sample_grid(psi, G)
    i, j = np.meshgrid(np.arange(G), np.arange(G), indexing="ij")
    gi = (M[0][0] * i + M[0][1] * j + tau[0] * G // 2) % G
    gj = (M[1][0] * i + M[1][1] * j + tau[1] * G // 2) % G
    return field_from_grid(values[gi, gj], psi.N)


@st.composite
def symmetric_flows(draw):
    """A flow that commutes with one lattice reflection f -> f(Mx + tau).

    Amplitudes come from a drawn seed, so they are generic: the reflection
    then maps each invariant block onto itself and splits it.
    Streamfunctions are made odd under the map (u = grad^perp psi then
    satisfies u(Mx + tau) = M u(x)).  Shear profiles keep the harmonics of
    one of the three symmetry classes a shear flow can have: odd j
    (x -> -x, y -> y + pi), cosines (y -> -y), or cos of even j and sin of
    odd j (y -> pi - y).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        psi = FourierField(2, rng.uniform(-1.0, 1.0, mode_table(2).size))
        M, tau = draw(st.sampled_from(_INVOLUTIONS))
        return make_cellular((psi - _reflect(psi, M, tau)) * 0.5)
    keep = draw(st.sampled_from([
        lambda j, cos: j % 2 == 1, lambda j, cos: cos, lambda j, cos: (j % 2 == 0) == cos]))
    a, b = rng.uniform(-1.0, 1.0, (2, 3))
    return make_shear(ShearProfile(
        [x if keep(j, True) else 0.0 for j, x in enumerate(a, start=1)],
        [x if keep(j, False) else 0.0 for j, x in enumerate(b, start=1)]))


def _compose(g, h):
    """The affine map g(h(x)) of two maps (M, tau), tau in units of pi mod 2."""
    (M, t), (K, u) = g, h
    MK = tuple(tuple(sum(M[r][q] * K[q][c] for q in (0, 1)) for c in (0, 1)) for r in (0, 1))
    return MK, tuple((sum(M[r][q] * u[q] for q in (0, 1)) + t[r]) % 2 for r in (0, 1))


@st.composite
def dihedral_flows(draw):
    """A cellular flow that commutes with two lattice reflections f -> f(Mx + tau).

    A random |k|_inf <= 2 streamfunction is averaged over the group the two
    maps generate, each element g weighted by det M_g, so psi(g x) =
    det(M_g) psi(x) and every g commutes with the generator.  Two distinct
    reflections generate rotations and half-period translations too: blocks
    split a second time, twin sectors appear, and some maps square to -I on
    a block.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = mode_table(2)
    low = draw(st.sampled_from([1, 2]))     # |k|_inf <= 1, as sin x sin y, splits more
    psi = FourierField(2, rng.uniform(-1.0, 1.0, table.size)
                       * ((np.abs(table.k1) <= low) & (np.abs(table.k2) <= low)))
    group = {(((1, 0), (0, 1)), (0, 0))}
    gens = [draw(st.sampled_from(_REFLECTIONS)) for _ in range(2)]
    while True:
        grown = group | {_compose(g, h) for g in gens for h in group}
        if grown == group:
            break
        group = grown
    det = lambda M: M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = sum((_reflect(psi, M, tau) * float(det(M)) for M, tau in sorted(group)),
                FourierField(2, np.zeros(table.size)))
    assume(np.abs(total.coeffs).max() > 1e-8)    # the average can vanish
    return make_cellular(total * (1.0 / len(group)))


@st.composite
def random_flows(draw):
    """A random |k|_inf <= 2 streamfunction or a random three-harmonic shear."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return make_cellular(FourierField(2, rng.uniform(-1.0, 1.0, mode_table(2).size)))
    a, b = rng.uniform(-1.0, 1.0, (2, 3))
    return make_shear(ShearProfile(list(a), list(b)))


def increment_blocks(op, noise, t, h=None):
    """(E, S) of the generator ``op``: E = exp(tA), S = int_0^t exp(sA) Psi Psi^T exp(sA)^T ds.

    ``covariance._increment_block`` on each invariant block of ``op``; both
    are ``BlockDiagonal`` with one block per invariant block (no nu factor).
    """
    E, S = [], []
    for idx in invariant_blocks(op):
        a = op.matrix[np.ix_(idx, idx)].toarray()
        Eb, Sb = _increment_block(a, noise.amps[idx] ** 2, t, h)
        E.append((idx, Eb))
        S.append((idx, Sb))
    return BlockDiagonal(op.shape[0], E), BlockDiagonal(op.shape[0], S)


def van_loan_increment(a: np.ndarray, psi2: np.ndarray, t: float, h: float | None = None):
    """Van Loan's (E, S) of one block: the reference for ``covariance._increment_block``.

    Same contract: E = exp(ta), S(t) = int_0^t exp(sa) diag(psi2)
    exp(sa)^T ds (no nu factor).  One Van Loan exponential (Van Loan
    1978, *Computing integrals involving the matrix exponential*) at the
    step tau = t / 2^k: expm of [[-a, diag(psi2)], [0, a^T]] tau is
    [[X11, X12], [0, X22]], with exp(tau a) = X22^T and S(tau) = X22^T X12.
    X11 = exp(-tau a) grows like exp(tau nu max|k|^2), and S(tau) would be
    lost to cancellation, so k is the smallest with tau nu max|k|^2 <= 1
    (the dissipation on the diagonal of a) and tau <= h; ``h`` can only
    tighten the step.  Then k doublings S(2 tau) = S(tau) + E S(tau) E^T,
    E <- E^2 (Smith 1968).  The Van Loan matrix has twice the block's rows
    and holds about 36 b^2 doubles at its peak; it is refused above
    ``operators.DENSE_CAP``.
    """
    b = len(a)
    rate = float(np.max(-np.diag(a), initial=0.0))
    k = max(_doublings(t, h), _doublings(t * rate, 1.0))
    # [[-a, diag(psi2)], [0, a^T]], filled in place: 2b rows, refused above the cap
    C = _dense(sp.csr_matrix((2 * b, 2 * b)))
    np.negative(a, out=C[:b, :b])
    C[b:, b:] = a.T
    C[np.arange(b), np.arange(b, 2 * b)] = psi2
    X = sla.expm((t / 2**k) * C)
    Eb = X[b:, b:].T
    Sb = Eb @ X[:b, b:]
    for _ in range(k):
        Sb += Eb @ Sb @ Eb.T
        Eb = Eb @ Eb
    return Eb, 0.5 * (Sb + Sb.T)
