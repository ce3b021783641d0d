"""Stationary covariances of the stochastically forced scalar.

For the viscous generator A (strictly stable when nu > 0) and forcing with
per-coefficient amplitudes psi, the stationary covariance of

    df = A f dt + sqrt(nu) Psi dW

is the unique solution of the Lyapunov equation

    A Q + Q A^T + nu Psi Psi^T = 0,

equivalent to the time integral  nu * int_0^inf exp(tA) Psi Psi^T exp(tA)^T dt.
:func:`lyapunov_covariance` solves it by Bartels-Stewart per forced
invariant block, on the real Schur forms of the block's symmetry sectors:
the triangular equation splits into one Lyapunov equation per sector and
one Sylvester equation per pair of sectors, each by a recursive blocked
(level-3) solve.  For a block of b rows no step of the solve, its residual
certificate included, holds more than three dense b x b arrays and a
temporary of a quarter of one, and the stored Q is one of them at the
end: a block of ``operators.DENSE_CAP`` rows needs about 0.4 GB.
Its finite-time part has one routine, :func:`_increment_block` (Van Loan's
block exponential plus doubling, on one invariant block): the exact
Gaussian sampler takes its increment from it on the blocks it steps, and
:func:`covariance_by_quadrature`, an oracle independent of Bartels-Stewart,
on the forced blocks.
The x-averaged (k1 = 0) block of the shear dynamics is exactly a bank of
scalar OU processes, giving the closed-form diagonal limit
:func:`shear_limit_covariance` with entries psi^2 / (2 j^2) on the (0, j)
coefficients.

Psi Psi^T is diagonal, so Q vanishes off the forced invariant blocks of A.
A :class:`CovarianceOperator` keeps Q per block (``operators.BlockDiagonal``)
and every diagnostic here works block by block: the H1 trace, the selector
and distance norms, the eigenvalue summary.  The export, covariance v3,
writes the stored blocks and nothing else: text header and index lines,
each block's values as raw little-endian float64, and
:func:`read_covariance` reads it back; it is the one file format.

Two structural identities hold exactly at the Galerkin level for every flow
and every nu > 0, and the test suite enforces them:

* trace balance  tr(diag(|k|^2) Q) = ||Psi||^2 / 2  (skew advection drops
  out of the trace), and
* norm bound  ||Q||_op <= ||Psi||^2 / (2 lambda_1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dtrsyl, get_lapack_funcs

from .fields import PARITIES, _open, mode_table
from .operators import (BlockDiagonal, OperatorMatrix, _dense, _real_columns, _refuse_above_cap,
                        _sector_matrix, _symmetry_sectors, invariant_blocks)

__all__ = [
    "NoiseSpec",
    "CovarianceOperator",
    "LyapunovError",
    "lyapunov_covariance",
    "covariance_by_quadrature",
    "shear_limit_covariance",
    "h1_trace",
    "block_operator_norm",
    "covariance_distance",
    "write_covariance",
    "read_covariance",
    "eigenvalue_summary",
]


class LyapunovError(RuntimeError):
    """Lyapunov solve failed its residual certificate."""


@dataclass(frozen=True)
class NoiseSpec:
    """Forcing amplitudes psi per canonical coefficient.

    Independent scalar Wiener processes drive each coefficient of the real
    orthonormal basis, so Psi Psi^T = diag(psi^2) and the realness pairing
    of conjugate complex modes is automatic.
    """

    N: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        table = mode_table(self.N)
        a = np.array(self.amps, dtype=float)
        if a.shape != (table.size,):
            raise ValueError(
                f"amplitude vector must have shape ({table.size},) for N={self.N}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @classmethod
    def from_modes(cls, N: int, entries: Iterable[tuple]) -> "NoiseSpec":
        """Build from (mode, parity, amplitude) entries, e.g. ((0,1),'cos',1.0)."""
        table = mode_table(N)
        amps = np.zeros(table.size)
        for mode, parity, amplitude in entries:
            idx = table.coefficient_index(mode, parity)
            if amps[idx] != 0.0:
                raise ValueError(f"duplicate forcing entry for {mode} {parity}")
            amps[idx] = float(amplitude)
        return cls(N, amps)

    @property
    def total_intensity(self) -> float:
        """||Psi||^2 = sum psi^2."""
        return float(np.sum(self.amps**2))

    @property
    def support(self) -> np.ndarray:
        """Indices of forced coefficients."""
        return np.flatnonzero(self.amps)


@dataclass(frozen=True)
class CovarianceOperator:
    """Symmetric PSD covariance on the canonical ordering, stored per block.

    ``blocks`` is a :class:`BlockDiagonal` of n = ``mode_table(N).size``
    rows.  ``matrix`` is the dense array, built on first use (up to
    ``operators.DENSE_CAP`` rows).
    """

    N: int
    blocks: BlockDiagonal = field(repr=False)
    provenance: str = "unknown"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = mode_table(self.N).size
        if not isinstance(self.blocks, BlockDiagonal) or self.blocks.n != n:
            raise ValueError(f"covariance must be a BlockDiagonal of {n} rows for N={self.N}")

    @cached_property
    def matrix(self) -> np.ndarray:
        m = _dense(self.blocks)
        m.setflags(write=False)
        return m

    @property
    def operator_norm(self) -> float:
        return float(np.max(np.abs(self.blocks.eigvalsh())))

    def min_eigenvalue(self) -> float:
        return float(self.blocks.eigvalsh()[0])


def _check_generator(A: OperatorMatrix, noise: NoiseSpec) -> None:
    if A.kind != "generator":
        raise ValueError("covariance solvers require a generator matrix")
    if noise.N != A.N:
        raise ValueError("noise truncation does not match operator truncation")


# Largest diagonal block handed to LAPACK's dtrsyl (level-2) by the recursive
# triangular solvers; larger ones are split and updated with GEMM.
_LEAF = 64


def _split(T: np.ndarray) -> int:
    """Cut near the middle of quasi-triangular T that keeps 2 x 2 bumps whole."""
    h = len(T) // 2
    return h + 1 if T[h, h - 1] != 0.0 else h


def _leaf_solve(Ta: np.ndarray, Tb: np.ndarray, X: np.ndarray) -> None:
    # info = 1 (nearly common eigenvalues, solved perturbed) is left to the
    # residual certificate of the caller
    x, scale, _ = dtrsyl(Ta, Tb, X, tranb="T")
    X[...] = x if scale == 1.0 else x / scale


def _triangular_sylvester(Ta: np.ndarray, Tb: np.ndarray, X: np.ndarray) -> None:
    """Overwrite X (holding G) with the solution of Ta X + X Tb^T = G.

    Ta and Tb are upper quasi-triangular.  Recursive blocked (Jonsson &
    Kagstrom, ACM TOMS 2002): halve the longer side of X, solve the bottom
    rows (or right columns) first, update the rest with one GEMM, and call
    dtrsyl once both sides fit in ``_LEAF``.
    """
    m, k = X.shape
    if max(m, k) <= _LEAF:
        _leaf_solve(Ta, Tb, X)
    elif m >= k:
        h = _split(Ta)
        _triangular_sylvester(Ta[h:, h:], Tb, X[h:])
        X[:h] -= Ta[:h, h:] @ X[h:]
        _triangular_sylvester(Ta[:h, :h], Tb, X[:h])
    else:
        h = _split(Tb)
        _triangular_sylvester(Ta, Tb[h:, h:], X[:, h:])
        X[:, :h] -= X[:, h:] @ Tb[:h, h:].T
        _triangular_sylvester(Ta, Tb[:h, :h], X[:, :h])


def _subtract(C: np.ndarray, D: np.ndarray) -> None:
    """C -= D, row by row: on a strided block a ufunc allocates 192 KB of buffers."""
    for c, d in zip(C, D):
        c -= d


def _spare(Y21: np.ndarray, rows: int, cols: int):
    """The leading rows x cols of the unused block ``Y21``, or None if it is too small."""
    return Y21[:rows, :cols] if rows <= Y21.shape[0] and cols <= Y21.shape[1] else None


def _triangular_lyapunov(T: np.ndarray, Y: np.ndarray) -> None:
    """Overwrite symmetric Y (holding F) with the solution of T Y + Y T^T = F.

    T is upper quasi-triangular.  With T = [[T11, T12], [0, T22]]: solve
    Y22, then the Sylvester equation T11 Y12 + Y12 T22^T = F12 - T12 Y22,
    then Y11 from F11 - T12 Y12^T - Y12 T12^T; Y21 = Y12^T is copied, never
    solved.  Until then Y21 is unused, and the products T12 Y22 and
    T12 Y12^T are written into it where they fit: the same GEMMs, without
    a temporary.  A split moved by a 2 x 2 bump leaves Y21 too small, and
    they take one of a quarter of Y.  Blocks of at most ``_LEAF`` rows go
    to dtrsyl.
    """
    b = len(T)
    if b <= _LEAF:
        _leaf_solve(T, T, Y)
        return
    h = _split(T)
    T12, Y12, Y21 = T[:h, h:], Y[:h, h:], Y[h:, :h]
    _triangular_lyapunov(T[h:, h:], Y[h:, h:])
    _subtract(Y12, np.matmul(T12, Y[h:, h:], out=_spare(Y21, h, b - h)))
    _triangular_sylvester(T[:h, :h], T[h:, h:], Y12)
    M = np.matmul(T12, Y12.T, out=_spare(Y21, h, h))
    _subtract(Y[:h, :h], M)
    _subtract(Y[:h, :h], M.T)
    del M
    _triangular_lyapunov(T[:h, :h], Y[:h, :h])
    Y21[...] = Y12.T


def _schur(a: np.ndarray) -> tuple:
    """Schur form (T, U) of the Fortran-ordered ``a``, overwritten by T.

    LAPACK's dgees (zgees for a complex ``a``: T upper triangular) with the
    workspace that ``scipy.linalg.schur`` would query, so the same
    arithmetic, but neither the query nor the solve copies ``a``.
    """
    def keep(*_):
        return None
    gees, = get_lapack_funcs(("gees",), (a,))
    lwork = int(gees(keep, a, lwork=-1, overwrite_a=True)[-2][0].real)
    out = gees(keep, a, lwork=lwork, overwrite_a=True)
    T, U, info = out[0], out[-3], out[-1]
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur form not found ({gees.typecode}gees info {info})")
    return T, U


def _block_lyapunov(A: sp.csr_matrix, idx: np.ndarray, sectors: Iterable,
                    psi2: np.ndarray) -> np.ndarray:
    """Q of a Q + Q a^T + diag(psi2) = 0 on the invariant block a = A[idx, idx].

    Each distinct symmetry sector has the real Schur form
    V_s^T a V_s = U_s T_s U_s^T: its ``operators._sector_matrix``,
    decomposed in place, or on a sector with a complex structure the
    realification of the complex Schur form of its complex form C at half
    the rows (``operators._real_columns``), T_s upper quasi-triangular with
    a 2 x 2 bump [[Re t, -Im t], [Im t, Re t]] per eigenvalue t of C, in
    LAPACK's standard form.  A twin basis G_s (G_s^T a G_s = V_s^T a V_s)
    reuses (T_s, U_s).  A block without symmetry is one sector, V = I.  So
    a = W T W^T with W = [V_1 U_1, G_1 U_1, ...] and T block-diagonal,
    twins repeating T_s, and Y = W^T Q W solves T Y + Y T^T = F with
    F = -W^T diag(psi2) W, which the forcing makes dense.  The equation
    splits over the pairs of sectors, twins counted on their own:
    T_i Y_ii + Y_ii T_i^T = F_ii (:func:`_triangular_lyapunov`), and
    T_i Y_ij + Y_ij T_j^T = F_ij for i < j (:func:`_triangular_sylvester`)
    with Y_ji = Y_ij^T.  No array of b x b holds a Schur form.

    The block is refused above ``DENSE_CAP`` rows, however small its
    sectors: W, Y and Q are b x b.  No step holds more than three b x b
    arrays, beside the forced rows of W and the temporaries of the
    triangular solves; on a block of one sector: its Schur form and
    vectors with a C-ordered copy of one of them; T_s, U_s and W = V U_s;
    T_s, W and Y; then W, W Y and Q.  T_s and U_s are copied to C order
    one at a time (GEMMs on Fortran-ordered operands can round
    differently, and a sparse product would copy a Fortran U_s), and no
    name holds T_s or a view of Y past the solve.  The sparse block a is
    dropped before the triangular solve, and the caller slices it again
    for the residual: held through the solve, its nonzeros would raise the
    peak (the tracemalloc peak from 10.2 to 10.5 MB for the 624-row block
    of a random flow at N = 12).
    """
    _refuse_above_cap(len(idx))
    a = A[np.ix_(idx, idx)]
    T, W = [], []
    for V, twins, complex_form in sectors:
        Ts, U = _schur(_sector_matrix(a, V, complex_form))
        if complex_form:
            Ts, U = _real_columns(Ts), _real_columns(U)
        Ts = np.ascontiguousarray(Ts)
        U = np.ascontiguousarray(U)
        T += [Ts] * (1 + len(twins))
        W += [basis @ U for basis in (V, *twins)]
    del a, Ts, U
    W = W[0] if len(W) == 1 else np.hstack(W)      # one sector: no copy
    forced = np.flatnonzero(psi2)
    Y = (W[forced].T * -psi2[forced]) @ W[forced]
    o = np.cumsum([0] + [len(t) for t in T])
    for i, Ti in enumerate(T):
        rows = Y[o[i]:o[i + 1]]
        _triangular_lyapunov(Ti, rows[:, o[i]:o[i + 1]])
        for j in range(i + 1, len(T)):
            _triangular_sylvester(Ti, T[j], rows[:, o[j]:o[j + 1]])
            Y[o[j]:o[j + 1], o[i]:o[i + 1]] = rows[:, o[j]:o[j + 1]].T
    del T, Ti, rows
    Q = W @ Y
    del Y
    Q = Q @ W.T
    del W
    Q += Q.T
    Q *= 0.5
    return Q


def _residual_sq(a: sp.spmatrix, Q: np.ndarray, psi2: np.ndarray) -> float:
    """||a Q + Q a^T + diag(psi2)||_F^2 for the exactly symmetric Q: R = a Q, R += R^T."""
    R = a @ Q
    R += R.T
    R[np.diag_indices(len(psi2))] += psi2
    return float(np.vdot(R, R))


def lyapunov_covariance(A: OperatorMatrix, noise: NoiseSpec) -> CovarianceOperator:
    """Stationary covariance from the Lyapunov equation A Q + Q A^T = -nu Psi Psi^T.

    Solved blockwise on the invariant subspaces of A (the forcing matrix is
    diagonal, so cross-block covariance vanishes identically), and only the
    forced blocks are stored.  Each forced block, a singleton too, is a
    Bartels-Stewart solve on the real Schur forms of its symmetry sectors
    (``operators._symmetry_sectors``; one Schur form per distinct sector,
    shared by its twins), one triangular equation per pair of sectors
    (:func:`_block_lyapunov`).  The cap ``operators.DENSE_CAP`` applies to
    each forced block, not to n.
    The solve carries the
    residual certificate

        ||A Q + Q A^T + nu Psi Psi^T||_F <= 1e-10 (||A||_F ||Q||_F + nu ||Psi||^2)

    with both Frobenius norms of Q and of the residual summed over the
    blocks, and failure raises :class:`LyapunovError`.
    """
    _check_generator(A, noise)
    nu = A.nu or 0.0
    if nu <= 0.0:
        raise ValueError("stationary covariance requires nu > 0")
    Asp = A.matrix
    psi2 = nu * noise.amps**2
    blocks = []
    res_sq = q_sq = 0.0
    for idx, sectors in _symmetry_sectors(A):
        if not np.any(psi2[idx]):
            continue  # unforced invariant block: Q restricted there is zero
        Qb = _block_lyapunov(Asp, idx, sectors, psi2[idx])
        res_sq += _residual_sq(Asp[np.ix_(idx, idx)], Qb, psi2[idx])
        q_sq += float(np.vdot(Qb, Qb))
        blocks.append((idx, Qb))
    # Q and the residual vanish off the forced blocks, so their Frobenius
    # norms are the root sums of squares over the blocks
    res_norm = math.sqrt(res_sq)
    a_norm = float(np.sqrt((Asp.multiply(Asp)).sum()))
    bound = 1e-10 * (a_norm * math.sqrt(q_sq) + nu * noise.total_intensity)
    if res_norm > max(bound, 1e-300):
        raise LyapunovError(
            f"Lyapunov residual {res_norm:.3e} exceeds certificate {bound:.3e}"
        )
    return CovarianceOperator(
        A.N, BlockDiagonal(A.shape[0], blocks), provenance=f"lyapunov(nu={nu:g})",
        meta={"nu": nu, "residual_fro": res_norm, "s": A.s},
    )


def _doublings(t: float, h: float | None) -> int:
    """Smallest k >= 0 with t / 2^k <= h; 0 without h."""
    return 0 if h is None or t <= h else math.ceil(math.log2(t / h))


def _increment_block(a: np.ndarray, psi2: np.ndarray, t: float, h: float | None = None):
    """E = exp(ta) and S(t) = int_0^t exp(sa) diag(psi2) exp(sa)^T ds (no nu factor).

    ``a`` is one dense invariant block of the generator, forced by
    ``psi2`` (internal: the one finite-time step of ``simulate`` and of
    :func:`covariance_by_quadrature`).  One Van Loan exponential (Van Loan
    1978, *Computing integrals involving the matrix exponential*) at the
    step tau = t / 2^k: expm of [[-a, diag(psi2)], [0, a^T]] tau is
    [[X11, X12], [0, X22]], with exp(tau a) = X22^T and S(tau) = X22^T X12.
    X11 = exp(-tau a) grows like exp(tau nu max|k|^2), and S(tau) would be
    lost to cancellation, so k is the smallest with tau nu max|k|^2 <= 1
    (the dissipation on the diagonal of a) and tau <= h; ``h`` can only
    tighten the step.  Then k doublings S(2 tau) = S(tau) + E S(tau) E^T,
    E <- E^2 (Smith 1968).  The Van Loan matrix has twice the block's rows,
    and it is refused above ``operators.DENSE_CAP``: a block has at most
    ``DENSE_CAP // 2`` rows.
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


def covariance_by_quadrature(
    A: OperatorMatrix, noise: NoiseSpec, T: float, h: float
) -> CovarianceOperator:
    """nu * int_0^T exp(tA) Psi Psi^T exp(tA)^T dt, the oracle for the Lyapunov solve.

    Evaluated per forced invariant block by the Van Loan step
    :func:`_increment_block`, in closed form up to round-off
    (S(T) vanishes off the forced blocks, which are not exponentiated):
    ``h`` bounds the step T / 2^k of the Van Loan exponential
    (``meta['h']``; a block with strong dissipation takes a shorter one),
    not a quadrature error.  The only approximation is the neglected tail,
    bounded by exp(-2 nu lambda_1 T) * nu ||Psi||^2 / (2 nu lambda_1) and
    reported in ``meta['tail_bound']``.  No Bartels-Stewart solve is
    involved, so the oracle stays independent of :func:`lyapunov_covariance`.
    """
    nu = A.nu or 0.0
    if nu <= 0.0:
        raise ValueError("covariance quadrature requires nu > 0")
    _check_generator(A, noise)
    psi2 = noise.amps**2
    blocks = [(idx, nu * _increment_block(_dense(A.matrix, idx), psi2[idx], T, h)[1])
              for idx in invariant_blocks(A) if psi2[idx].any()]
    h_eff = T / 2 ** _doublings(T, h)
    tail = math.exp(-2.0 * nu * T) * noise.total_intensity / 2.0    # lambda_1 = 1
    return CovarianceOperator(
        A.N, BlockDiagonal(A.shape[0], blocks),
        provenance=f"quadrature(nu={nu:g},T={T:g},h={h_eff:g})",
        meta={"nu": nu, "T": T, "h": h_eff, "tail_bound": tail},
    )


def shear_limit_covariance(noise: NoiseSpec) -> CovarianceOperator:
    """Zero-diffusivity limit covariance for non-degenerate shear flows.

    Diagonal, with entry psi^2 / (2 j^2) on every x-independent coefficient
    (mode (0, j)) and zero elsewhere: the x-averaged block is a bank of
    scalar OU processes whose stationary variances survive the limit, while
    the x-dependent block is mixed away.
    """
    table = mode_table(noise.N)
    diag = np.zeros(table.size)
    onaxis = table.k1 == 0
    diag[onaxis] = noise.amps[onaxis] ** 2 / (2.0 * table.k2[onaxis].astype(float) ** 2)
    return CovarianceOperator(noise.N, BlockDiagonal.diag(diag), provenance="shear-limit")


def h1_trace(Q: CovarianceOperator) -> float:
    """tr(diag(|k|^2) Q): the mean squared H1 norm under N(0, Q).

    For any Lyapunov covariance of a generator with s = 1 this equals
    ||Psi||^2 / 2 exactly: the trace kills the skew advection part.
    """
    lam = mode_table(Q.N).lam.astype(float)
    return float(np.sum(lam * Q.blocks.diagonal()))


def _selector_mask(N: int, selector) -> np.ndarray:
    table = mode_table(N)
    if selector is None or selector == "all":
        return np.ones(table.size, dtype=bool)
    if selector == "k1-nonzero":
        return table.k1 != 0
    if selector == "k1-zero":
        return table.k1 == 0
    if callable(selector):
        return np.array([bool(selector(int(k1), int(k2), PARITIES[q]))
                         for k1, k2, q in zip(table.k1, table.k2, table.parity)])
    raise ValueError(f"unknown selector {selector!r}")


def block_operator_norm(Q: CovarianceOperator, selector="all") -> float:
    """Spectral norm of the principal submatrix picked by a mode predicate.

    ``selector`` is 'all', 'k1-nonzero', 'k1-zero', or a callable
    (k1, k2, parity) -> bool.  The submatrix is block-diagonal too: its
    blocks are the stored blocks of Q restricted to the selected modes.
    """
    mask = _selector_mask(Q.N, selector)
    norm = 0.0
    for idx, block in Q.blocks.blocks:
        keep = mask[idx]
        if keep.any():
            sub = block[np.ix_(keep, keep)]
            norm = max(norm, float(np.max(np.abs(sla.eigvalsh(sub)))))
    return norm


def covariance_distance(Q1: CovarianceOperator, Q2: CovarianceOperator) -> float:
    """Operator (spectral) norm of Q1 - Q2, per block of the joined partitions.

    One block of the difference is held at a time.
    """
    if Q1.N != Q2.N:
        raise ValueError("covariance truncations do not match")
    return max((float(np.max(np.abs(sla.eigvalsh(D, overwrite_a=True))))
                for _, D in Q1.blocks.differences(Q2.blocks)), default=0.0)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

_COV_HEADER = b"# torusmix covariance v3"


def write_covariance(Q: CovarianceOperator, path_or_file) -> None:
    """Block export, covariance v3: text header lines, binary blocks.

    The header line, the ``N`` and ``provenance`` lines and a line
    ``blocks <count>``; then, per stored block of b rows, one text line of
    its indices followed by its b * b values as little-endian float64,
    row-major, with no separator.  Rows no block covers are zero.
    ``path_or_file`` is a path or a binary handle; each block goes out from
    its own buffer, with no copy and no per-value work.
    """
    with _open(path_or_file, "wb") as fh:
        fh.write(_COV_HEADER + f"\nN {Q.N}\nprovenance {Q.provenance}\n"
                 f"blocks {len(Q.blocks.blocks)}\n".encode())
        for idx, block in Q.blocks.blocks:
            fh.write((" ".join(map(str, idx.tolist())) + "\n").encode())
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def _block_indices(line: bytes, b: int, n: int, taken: np.ndarray) -> np.ndarray:
    """The indices on the line of block ``b``: distinct, in range, in no earlier block."""
    try:
        idx = np.array(line.split(), dtype=np.int64)
    except ValueError:
        idx = np.empty(0, dtype=np.int64)
    if not idx.size or idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"block {b}: bad index line")
    if np.unique(idx).size != idx.size:
        raise ValueError(f"block {b}: an index repeats within the block")
    if taken[idx].any():
        raise ValueError(f"block {b}: index {idx[taken[idx]][0]} is in an earlier block")
    taken[idx] = True
    return idx


def read_covariance(path_or_file) -> CovarianceOperator:
    """Read a covariance v3 export into its blocks.

    ``path_or_file`` is a path or a binary handle.  The values of a block
    are one ``np.frombuffer`` of exactly 8 b^2 bytes, the blocks must have
    distinct indices in range, and the file ends after its last block.
    A file with any other header line is refused.
    """
    with _open(path_or_file, "rb") as fh:
        if fh.readline().strip() != _COV_HEADER:
            raise ValueError("not a torusmix covariance file")
        words = fh.readline().split()
        if len(words) != 2 or words[0] != b"N" or not words[1].isdigit():
            raise ValueError("missing truncation header line 'N <truncation>'")
        N, n = int(words[1]), mode_table(int(words[1])).size
        tag, _, provenance = fh.readline().decode().strip().partition(" ")
        if tag != "provenance":
            raise ValueError("missing provenance line")
        words = fh.readline().split()
        if len(words) != 2 or words[0] != b"blocks" or not words[1].isdigit():
            raise ValueError("missing block count line 'blocks <count>'")
        blocks, taken = [], np.zeros(n, dtype=bool)
        for b in range(int(words[1])):
            idx = _block_indices(fh.readline(), b, n, taken)
            size = 8 * idx.size**2
            data = fh.read(size)
            if len(data) != size:
                raise ValueError(f"block {b}: {len(data)} of its {size} value bytes")
            blocks.append((idx, np.frombuffer(data, dtype="<f8").reshape(idx.size, idx.size)))
        if fh.read(1):
            raise ValueError(f"trailing bytes after block {len(blocks) - 1}")
    return CovarianceOperator(N, BlockDiagonal(n, blocks), provenance=provenance.strip())


def eigenvalue_summary(Q: CovarianceOperator) -> np.ndarray:
    """Eigenvalues of Q, descending (for the CSV summary export)."""
    return Q.blocks.eigvalsh()[::-1]
