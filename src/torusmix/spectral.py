"""Spectral diagnostics for the advection operator and the inviscid group.

The truncated advection matrix B is real skew-symmetric, so i B is Hermitian
and carries the frequency content of the transport dynamics: eigenvalues of
B are purely imaginary, eigenfrequencies come in +/- pairs, and exp(tB) is
orthogonal.  On top of the eigendecomposition this module provides

* flow-specific projections onto the subspace spanned by smooth invariant
  functions: the x-average (k1 = 0 block) for non-degenerate shear flows,
  and a conditional average over streamfunction level sets for cellular
  flows;
* time-averaged H1 growth probes for initial data orthogonal to that
  subspace, with a mode-exact evolution for shear flows (the solution along
  characteristics multiplies each x-wavenumber slice by a phase
  exp(-i k1 u(y) t), so the squared H1 norm is an explicit quadratic in t);
* low-mode time averages: the fraction of mass the evolution keeps inside a
  fixed band of Laplacian eigenvalues, which decays for data carried by the
  continuous spectrum.

Every eigensolve here goes through ``operators._symmetry_sectors``: one
Hermitian eigensolve per distinct symmetry sector of an invariant block,
which its twins reuse (``_sector_eigh``), of i s for the sector matrix s
that ``operators._sector_matrix`` forms: of i C at half the rows on a
sector with a complex structure, whose frequencies are then eig(i C) and
-eig(i C).  ``spectrum`` takes eigenvalues only; its eigenvectors are
computed on first access.  The Galerkin evolution exp(-tB) f0 of both
probes runs in the eigenbasis of each sector that f0 touches, as
U (exp(i w t) * (U^H c)) on the sector's coordinates c at every point of
every time grid.  A block above ``operators.DENSE_CAP`` rows stays sparse
and is evolved by ``expm_multiply`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .fields import (
    FourierField,
    _write_csv,
    complex_lattice,
    field_from_complex_lattice,
    field_from_grid,
    mode_table,
    sample_grid,
)
from .flows import Flow
from .operators import (DENSE_CAP, BlockDiagonal, OperatorMatrix, _dense, _orbit, _real_columns,
                        _sector_matrix, _symmetry_sectors, advection_matrix)

__all__ = [
    "SpectrumReport",
    "GrowthCurve",
    "spectrum",
    "shear_E_projection",
    "streamline_projection",
    "invariant_projection",
    "h1_growth_average",
    "shear_exact_evolution",
    "low_mode_time_average",
]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenstructure of a truncated advection matrix.

    ``frequencies`` and ``kernel_dim`` come from eigenvalues alone.
    ``eigenvectors``, computed from ``B`` on first access, keeps the
    eigenvectors per invariant block, and ``order[k]`` is the column of its
    dense form that belongs to ``frequencies[k]``.  ``vectors``, built on
    first use, is that dense form with its columns in the order of
    ``frequencies``.
    """

    N: int
    frequencies: np.ndarray = field(repr=False)     # real lambda, ascending
    order: np.ndarray = field(repr=False)           # column of each frequency
    B: OperatorMatrix = field(repr=False)           # the advection matrix, for the vectors
    kernel_dim: int = 0

    @cached_property
    def eigenvectors(self) -> BlockDiagonal:
        """Complex orthonormal eigenvectors, per invariant block."""
        return BlockDiagonal(self.B.shape[0], [(idx, _block_eigh(self.B, idx, sectors)[1])
                                               for idx, sectors in _symmetry_sectors(self.B)])

    @cached_property
    def vectors(self) -> np.ndarray:
        """Complex orthonormal columns, one per entry of ``frequencies``."""
        return _dense(self.eigenvectors)[:, self.order]

    def to_csv(self, path_or_file) -> None:
        _write_csv(path_or_file, ["index", "lambda"], enumerate(self.frequencies))


@dataclass(frozen=True)
class GrowthCurve:
    """Time-averaged squared H1 norms G(T) = (1/T) int_0^T ||S(t) f0||_H1^2 dt."""

    times: np.ndarray
    values: np.ndarray
    method: str
    h: float                     # requested quadrature step bound
    flow_kind: str = ""
    f0: FourierField | None = field(default=None, repr=False)
    h_effective: np.ndarray = field(default=None, repr=False)

    def to_csv(self, path_or_file) -> None:
        _write_csv(path_or_file, ["T", "G"], zip(self.times, self.values))


def spectrum(B: OperatorMatrix) -> SpectrumReport:
    """Eigenfrequencies of a skew-symmetric advection matrix.

    Returns the real eigenfrequencies of the self-adjoint i B (ascending)
    and the dimension of the kernel; the orthonormal complex eigenvectors
    are computed on first access to ``eigenvectors`` or ``vectors``.  The
    frequencies take one values-only Hermitian eigensolve per distinct
    symmetry sector of each invariant block (``_block_eigh``), each sector
    at most ``operators.DENSE_CAP`` rows; the per-block frequencies are
    merged by a stable sort.
    """
    if B.kind != "advection":
        raise ValueError("spectrum expects an advection matrix")
    freqs = np.empty(B.shape[0])
    for idx, sectors in _symmetry_sectors(B):
        freqs[idx] = _block_eigh(B, idx, sectors, vectors=False)
    order = np.argsort(freqs, kind="stable")
    freqs = freqs[order]
    scale = max(1.0, float(np.max(np.abs(freqs))) if freqs.size else 1.0)
    kernel_dim = int(np.count_nonzero(np.abs(freqs) <= 1e-10 * scale))
    return SpectrumReport(N=B.N, frequencies=freqs, order=order, kernel_dim=kernel_dim, B=B)


def _sector_eigh(s: np.ndarray, vectors: bool = True):
    """(w, U) with i s = U diag(w) U^H on one sector, or w alone (internal).

    One Hermitian eigensolve of i s, for the working matrix s of a sector
    (``operators._sector_matrix``): V^T a V, or on a sector with a complex
    structure its complex form C at half the rows, where w and U are in
    C's coordinates and the sector's frequencies are w and -w.  w is
    ascending.
    """
    h = 1j * s
    return sla.eigh(h, overwrite_a=True) if vectors else sla.eigvalsh(h, overwrite_a=True)


def _block_eigh(B: OperatorMatrix, idx: np.ndarray, sectors, vectors: bool = True):
    """(w, X) with i B = X diag(w) X^H on the invariant block ``idx`` of B, or w alone (internal).

    One ``_sector_eigh`` per distinct symmetry sector (``sectors``, from
    ``operators._symmetry_sectors``), which its twins reuse.  The columns
    of X go sector by sector, each twin after its sector, and w holds
    their frequencies in that order.  On a sector with a complex
    structure G, an eigenvector u of i C with frequency w gives the
    sector's eigenvector (x - i G x) / sqrt 2, with x and G x the real
    columns of u and i u (``operators._real_columns``), and its conjugate
    has frequency -w.
    """
    a = B.matrix[np.ix_(idx, idx)]
    ws, cols = [], []
    for V, twins, complex_form in sectors:
        s = _sector_matrix(a, V, complex_form)
        if not vectors:
            w = _sector_eigh(s, False)
            ws += [np.concatenate([w, -w]) if complex_form else w] * (1 + len(twins))
            continue
        w, U = _sector_eigh(s)
        if complex_form:
            X = _real_columns(U) / math.sqrt(2.0)
            U = X[:, 0::2] - 1j * X[:, 1::2]
            w, U = np.concatenate([w, -w]), np.hstack([U, U.conj()])
        for basis in (V, *twins):
            ws.append(w)
            cols.append(basis @ U)
    return (np.concatenate(ws), np.hstack(cols)) if vectors else np.concatenate(ws)


def shear_E_projection(f: FourierField) -> FourierField:
    """Project onto x-independent fields: zero every coefficient with k1 != 0.

    For a non-degenerate shear flow this is the orthogonal projection onto
    the span of the smooth invariant functions (the x-average).
    """
    table = f.table
    return FourierField(f.N, np.where(table.k1 == 0, f.coeffs, 0.0))


def streamline_projection(
    flow: Flow, f: FourierField, bins: int = 64, grid: int = 256
) -> FourierField:
    """Conditional average of f over level sets of the streamfunction.

    Grid points are ranked by psi-value and split into ``bins`` equal-count
    bins; f is replaced by its mean over each bin, transformed back, and
    projected to the truncation of f.  Equal-count binning keeps the bins
    well conditioned near critical values of psi, where level sets
    degenerate.  The operation is approximately idempotent; callers that
    need the deviation apply it twice and compare.
    """
    return _streamline_projector(flow, bins, grid)(f)


def _streamline_projector(flow: Flow, bins: int, grid: int):
    """``streamline_projection`` for one flow, bin count and grid, as a function of f (internal).

    psi is sampled and the grid points are ranked once, for every field the
    returned function projects.
    """
    if flow.streamfunction is None:
        raise ValueError("streamline projection requires a cellular flow")
    if bins < 2:
        raise ValueError("need at least 2 bins")
    psi = flow.streamfunction
    if grid < 2 * psi.N + 2:
        raise ValueError("grid too coarse for the streamfunction")
    chunks = np.array_split(np.argsort(sample_grid(psi, grid).ravel(), kind="stable"), bins)

    def project(f: FourierField) -> FourierField:
        if grid < 4 * f.N:
            raise ValueError(f"grid {grid} too coarse: need grid >= 4 N = {4 * f.N}")
        f_vals = sample_grid(f, grid).ravel()
        averaged = np.empty_like(f_vals)
        for chunk in chunks:
            averaged[chunk] = f_vals[chunk].mean()
        return field_from_grid(averaged.reshape(grid, grid), f.N)

    return project


def invariant_projection(flow: Flow | None, f: FourierField, **kwargs) -> FourierField:
    """Flow-appropriate projection onto the smooth invariant subspace."""
    if flow is not None and flow.kind == "shear":
        return shear_E_projection(f)
    if flow is not None and flow.streamfunction is not None:
        return streamline_projection(flow, f, **kwargs)
    raise ValueError("no invariant projection available for this flow")


# ---------------------------------------------------------------------------
# Shear-exact evolution
# ---------------------------------------------------------------------------


def _slice_profiles(f: FourierField, ygrid: int) -> np.ndarray:
    """x-wavenumber slices of f on a y-grid: row k1+N holds F_{k1}(y_j).

    The field is f(x, y) = sum_{k1} exp(i k1 x) F_{k1}(y) with
    F_{-k1} = conj(F_{k1}).
    """
    N = f.N
    Z = complex_lattice(f)  # [k1+N, k2+N], orthonormal-basis coefficients
    ks = np.arange(-N, N + 1)
    spec = np.zeros((2 * N + 1, ygrid), dtype=complex)
    spec[:, ks % ygrid] = Z / (2.0 * math.pi)
    return np.fft.ifft(spec, axis=1) * ygrid


def shear_exact_evolution(
    profile, f0: FourierField, t: float, ygrid: int | None = None
) -> FourierField:
    """Evolve f0 under the inviscid shear transport for time t, mode-exactly.

    Each x-wavenumber slice is multiplied by exp(-i k1 u(y) t) on a y-grid
    of ``ygrid`` points (default, and minimum, 8 N) and transformed back.
    The returned field lives at the enlarged truncation ygrid/2 - 1 in y so
    that no resolved content is discarded; the L2 norm is preserved up to
    the quadrature error of the grid, which decays spectrally once
    ygrid/2 exceeds N + |k1| t max|u'| + O((|k1| t max|u'|)^{1/3}).
    """
    N = f0.N
    if ygrid is None:
        ygrid = 8 * N
    if ygrid < 8 * N:
        raise ValueError(f"ygrid {ygrid} too coarse: need >= 8 N = {8 * N}")
    y = 2.0 * math.pi * np.arange(ygrid) / ygrid
    phase = np.exp(-1j * np.outer(np.arange(-N, N + 1), profile(y)) * t)
    rows = _slice_profiles(f0, ygrid) * phase
    spec = np.fft.fft(rows, axis=1) / ygrid  # plain coefficients in y
    N2 = ygrid // 2 - 1
    M = max(N, N2)
    Z = np.zeros((2 * N + 1, 2 * M + 1), dtype=complex)
    ks = np.arange(-M, M + 1)
    keep = np.abs(ks) <= N2
    Z[:, np.flatnonzero(keep)] = spec[:, ks[keep] % ygrid] * (2.0 * math.pi)
    big = np.zeros((2 * M + 1, 2 * M + 1), dtype=complex)
    big[M - N : M + N + 1, :] = Z
    big[M, M] = 0.0
    return field_from_complex_lattice(big, M)


def _shear_h1sq_polynomials(profile, f0: FourierField, ygrid: int) -> tuple:
    """Per-slice quadratic coefficients of ||S(t) f0||_H1^2 = alpha + beta t + gamma t^2.

    d_x contributes k1^2 ||F_{k1}||^2 (constant); d_y of a slice is
    (F' - i k1 t u' F) exp(...), whose squared norm is quadratic in t.  All
    integrals are trigonometric polynomials of fixed degree, so the uniform
    y-grid evaluates them exactly once ygrid is large enough (>= 8 N with
    velocity wavenumber <= N covers every case here).
    """
    N = f0.N
    y = 2.0 * math.pi * np.arange(ygrid) / ygrid
    w = 2.0 * math.pi / ygrid * (2.0 * math.pi)  # dy weight and x-integral factor
    du = profile.derivative(y)
    rows = _slice_profiles(f0, ygrid)
    spec = np.fft.fft(rows, axis=1)
    spec *= 1j * np.where(
        np.arange(ygrid) <= ygrid // 2, np.arange(ygrid), np.arange(ygrid) - ygrid
    )
    drows = np.fft.ifft(spec, axis=1)
    alpha = beta = gamma = 0.0
    for row, drow, k1 in zip(rows, drows, range(-N, N + 1)):
        m0 = w * float(np.sum(np.abs(row) ** 2))
        if m0 == 0.0:
            continue
        a = w * float(np.sum(np.abs(drow) ** 2))
        cross = w * complex(np.sum(drow * np.conj(1j * k1 * du * row)))
        c = w * float(np.sum(np.abs(k1 * du * row) ** 2))
        alpha += k1 * k1 * m0 + a
        beta += -2.0 * cross.real
        gamma += c
    return alpha, beta, gamma


def shear_h1sq_series(profile, f0: FourierField, times: np.ndarray,
                      ygrid: int | None = None) -> np.ndarray:
    """||S(t) f0||_H1^2 along ``times`` for the exact shear evolution."""
    if ygrid is None:
        # exact quadrature of |F' - i k1 t u' F|^2 needs the grid to beat
        # twice the integrand bandwidth 2 (N + M_u)
        ygrid = max(8 * f0.N, 4 * (f0.N + profile.max_wavenumber) + 2)
    alpha, beta, gamma = _shear_h1sq_polynomials(profile, f0, ygrid)
    t = np.asarray(times, dtype=float)
    return alpha + beta * t + gamma * t * t


def _inviscid_series(B: OperatorMatrix, f0: np.ndarray, weights: np.ndarray,
                     grids: list) -> list:
    """sum_j weights_j (exp(-tB) f0)_j^2 along each equispaced time grid of ``grids`` (internal).

    ``weights`` must be a function of |k|^2 (the H1 weights, a low-mode
    indicator), so that it commutes with every lattice map and is constant
    on the support of each column of a sector basis: the sum then splits
    into one sum per symmetry sector and twin, over their coordinates
    c = V^T f0 with the weights on their columns.  Block by block, over the
    invariant blocks of B on which both f0 and the weights are nonzero, a
    block of at most ``DENSE_CAP`` rows is decomposed per distinct sector
    that f0 and the weights touch (``_sector_eigh``), and every grid and
    every twin reuses it: exp(-tB) c = U (exp(i w t) * (U^H c)) = P exp(i w t)
    there, with P = U diag(U^H c).  On a sector with a complex structure,
    U and c are in the complex coordinates z_r = c_2r + i c_2r+1 of its
    complex form (``operators._sector_matrix``), at half the rows, and the
    sum is sum_r weights_2r |z_r|^2.  The states are computed in real
    products only, as cos(w t) Re P^T - sin(w t) Im P^T (the real part; on
    a complex sector also the imaginary part, the real part of -i P), two
    real GEMMs on arrays of len(grid) rows per sector.  A larger block is
    evolved sparse, by ``expm_multiply`` per grid.
    """
    out = [np.zeros(len(times)) for times in grids]
    for idx, sectors in _symmetry_sectors(B):
        v, wt = f0[idx], weights[idx]
        if not v.any() or not wt.any():
            continue
        if len(idx) > DENSE_CAP:
            a = -B.matrix[np.ix_(idx, idx)]
            for series, times in zip(out, grids):
                series += _orbit(a, v, times) ** 2 @ wt
            continue
        a = B.matrix[np.ix_(idx, idx)]
        for V, twins, complex_form in sectors:
            parts = []      # (coordinates, weights) of each basis that f0 and the weights touch
            for basis in (V, *twins):
                c, cw = basis.T @ v, basis.multiply(basis).T @ wt
                if complex_form:
                    c, cw = c[0::2] + 1j * c[1::2], cw[0::2]
                if c.any() and cw.any():
                    parts.append((c, cw))
            if not parts:
                continue
            w, U = _sector_eigh(_sector_matrix(a, V, complex_form))
            Pr, Pi, pw = [], [], []
            for c, cw in parts:
                P = (U * (U.conj().T @ c)).T
                for Q in (P, -1j * P) if complex_form else (P,):     # Re z, and Im z = Re(-i z)
                    Pr.append(Q.real)
                    Pi.append(Q.imag)
                    pw.append(cw)
            Pr, Pi, pw = np.hstack(Pr), np.hstack(Pi), np.concatenate(pw)
            for series, times in zip(out, grids):
                theta = np.outer(times, w)
                states = np.cos(theta) @ Pr
                states -= np.sin(theta) @ Pi
                series += states ** 2 @ pw
    return out


def _require_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _time_grid(T: float, h: float | None, steps: int) -> np.ndarray:
    """Equispaced grid on [0, T] with step <= h, or <= T / steps when h is None."""
    step = h if h is not None else T / steps
    return np.linspace(0.0, T, int(math.ceil(T / step)) + 1)


def _trapz_running_average(values: np.ndarray, h: float) -> float:
    total = np.trapezoid(values, dx=h)
    T = h * (len(values) - 1)
    return float(total / T)


def _growth_method(flow: Flow, method: str) -> str:
    """The evolution ``h1_growth_average`` runs for ``method``: 'auto' resolved, others checked.

    'auto' is 'shear-exact' for a shear flow and 'truncated-exponential'
    otherwise.
    """
    if method == "auto":
        return "shear-exact" if flow.kind == "shear" else "truncated-exponential"
    if method not in ("shear-exact", "truncated-exponential"):
        raise ValueError(f"unknown method {method!r}")
    if method == "shear-exact" and flow.kind != "shear":
        raise ValueError("shear-exact method requires a shear flow")
    return method


def h1_growth_average(
    flow: Flow,
    f0: FourierField,
    T_list: Sequence[float],
    method: str = "auto",
    h: float | None = None,
    ygrid: int | None = None,
) -> GrowthCurve:
    """Time-averaged H1 growth G(T) = (1/T) int_0^T ||S(t) f0||_H1^2 dt.

    Inviscid dynamics only.  ``method`` is 'shear-exact' (shear flows: exact
    slice evolution), 'truncated-exponential' (any flow: Galerkin exp(-tB),
    from one eigendecomposition per distinct symmetry sector that f0
    touches, shared by its twins and every T), or 'auto'
    (``_growth_method``).  Each requested T gets a trapezoidal quadrature
    with step <= h (default T/1000), recorded in ``h_effective``.
    """
    if not np.any(f0.coeffs):
        raise ValueError("zero initial datum rejected")
    T_list = sorted(float(T) for T in T_list)
    for T in T_list:
        _require_positive("averaging horizon T", T)
    if h is not None:
        _require_positive("quadrature step h", h)
    method = _growth_method(flow, method)
    grids = [_time_grid(T, h, 1000) for T in T_list]
    if method == "shear-exact":
        series = [shear_h1sq_series(flow.profile, f0, times, ygrid=ygrid) for times in grids]
    else:
        series = _inviscid_series(advection_matrix(flow, f0.N), f0.coeffs,
                                  mode_table(f0.N).lam.astype(float), grids)
    heff = [times[1] - times[0] for times in grids]
    values = [_trapz_running_average(s, step) for s, step in zip(series, heff)]
    return GrowthCurve(
        times=np.asarray(T_list),
        values=np.asarray(values),
        method=method,
        h=float(h) if h is not None else math.nan,
        flow_kind=flow.kind,
        f0=f0,
        h_effective=np.asarray(heff),
    )


# ---------------------------------------------------------------------------
# Low-mode time averages
# ---------------------------------------------------------------------------


def _low_mode_mass_series_shear(
    profile, g0: FourierField, times: np.ndarray, lam_max: float, ygrid: int
) -> np.ndarray:
    """||P_{|k|^2 <= lam_max} S(t) g0||_L2^2 along times, exact shear evolution."""
    N = g0.N
    y = 2.0 * math.pi * np.arange(ygrid) / ygrid
    u = profile(y)
    rows = _slice_profiles(g0, ygrid)
    times = np.asarray(times, dtype=float)
    out = np.zeros(len(times))
    for k1 in range(-N, N + 1):
        row = rows[k1 + N]
        if not np.any(row) or lam_max < k1 * k1:
            continue
        k2max = int(math.floor(math.sqrt(lam_max - k1 * k1)))
        k2s = [k2 for k2 in range(-k2max, k2max + 1) if (k1, k2) != (0, 0)]
        if not k2s:
            continue
        # z_{k1,k2}(t) = (2 pi / G) sum_j row_j exp(-i k1 u(y_j) t) exp(-i k2 y_j)
        evolved = row[None, :] * np.exp(-1j * k1 * np.outer(times, u))
        basis = np.exp(-1j * np.outer(y, k2s))
        coeffs = (evolved @ basis) * (2.0 * math.pi / ygrid)
        out += np.sum(np.abs(coeffs) ** 2, axis=1)
    return out


def low_mode_time_average(
    flow: Flow,
    f0: FourierField,
    lam_max: float,
    T: float,
    h: float | None = None,
    ygrid: int | None = None,
    projection_kwargs: dict | None = None,
) -> float:
    """Averaged low-mode mass of the evolution of the non-invariant part of f0:

        (1/T) int_0^T || P_{|k|^2 <= lam_max} S(t) (I - Pi_e) f0 ||_L2^2 dt

    where Pi_e is the flow's invariant projection (x-average for shear,
    streamline average for cellular).  The value never exceeds ||f0||^2
    beyond quadrature error; for data carried by continuous spectrum it
    decays as T grows.
    """
    if not np.any(f0.coeffs):
        raise ValueError("zero initial datum rejected")
    _require_positive("horizon T", T)
    if h is not None:
        _require_positive("quadrature step h", h)
    g0 = f0 - invariant_projection(flow, f0, **(projection_kwargs or {}))
    times = _time_grid(T, h, 2000)
    table = mode_table(f0.N)
    if flow.kind == "shear":
        if ygrid is None:
            # the y-bandwidth of the evolved slices grows like |k1| t max|u'|
            span = f0.N * float(np.max(np.abs(flow.profile.derivative(
                np.linspace(0, 2 * math.pi, 512))))) * T
            ygrid = int(2 ** math.ceil(math.log2(max(8 * f0.N, 2.5 * span + 64))))
        series = _low_mode_mass_series_shear(flow.profile, g0, times, lam_max, ygrid)
    else:
        series, = _inviscid_series(advection_matrix(flow, f0.N), g0.coeffs,
                                   (table.lam <= lam_max).astype(float), [times])
    return _trapz_running_average(series, times[1] - times[0])
