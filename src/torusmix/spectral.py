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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import expm_multiply

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
from .operators import BlockDiagonal, OperatorMatrix, _dense, advection_matrix, invariant_blocks

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

    ``eigenvectors`` keeps the eigenvectors per invariant block, and
    ``order[k]`` is the column of its dense form that belongs to
    ``frequencies[k]``.  ``vectors``, built on first use, is that dense form
    with its columns in the order of ``frequencies``.
    """

    N: int
    frequencies: np.ndarray = field(repr=False)     # real lambda, ascending
    eigenvectors: BlockDiagonal = field(repr=False)  # complex, per invariant block
    order: np.ndarray = field(repr=False)           # column of each frequency
    kernel_dim: int = 0

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
    """Full eigendecomposition of a skew-symmetric advection matrix.

    Returns the real eigenfrequencies of the self-adjoint i B (ascending)
    with orthonormal complex eigenvectors, and the dimension of the kernel.
    One Hermitian ``eigh`` per invariant block of B, each block at most
    ``operators.DENSE_CAP`` rows; the per-block frequencies are merged by a
    stable sort.
    """
    if B.kind != "advection":
        raise ValueError("spectrum expects an advection matrix")
    n = B.shape[0]
    freqs = np.empty(n)
    blocks = []
    for idx in invariant_blocks(B):
        H = 1j * _dense(B.matrix, idx).astype(complex)
        freqs[idx], vecs = sla.eigh(H)
        blocks.append((idx, vecs))
    order = np.argsort(freqs, kind="stable")
    freqs = freqs[order]
    scale = max(1.0, float(np.max(np.abs(freqs))) if freqs.size else 1.0)
    kernel_dim = int(np.count_nonzero(np.abs(freqs) <= 1e-10 * scale))
    return SpectrumReport(N=B.N, frequencies=freqs, eigenvectors=BlockDiagonal(n, blocks),
                          order=order, kernel_dim=kernel_dim)


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


def _h1sq_series_truncated(flow: Flow, f0: FourierField, times: np.ndarray) -> np.ndarray:
    """||exp(-tB) f0||_H1^2 along an equispaced time grid (Galerkin evolution)."""
    B = advection_matrix(flow, f0.N)
    lam = mode_table(f0.N).lam.astype(float)
    t0, t1, num = float(times[0]), float(times[-1]), len(times)
    states = expm_multiply(-B.matrix, f0.coeffs, start=t0, stop=t1,
                           num=num, endpoint=True)
    return np.einsum("ij,j->i", states**2, lam)


def _require_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _trapz_running_average(values: np.ndarray, h: float) -> float:
    total = np.trapezoid(values, dx=h)
    T = h * (len(values) - 1)
    return float(total / T)


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
    slice evolution), 'truncated-exponential' (any flow: Galerkin exp(-tB)),
    or 'auto'.  Each requested T gets a trapezoidal quadrature with step
    <= h (default T/1000), recorded in ``h_effective``.
    """
    if not np.any(f0.coeffs):
        raise ValueError("zero initial datum rejected")
    T_list = sorted(float(T) for T in T_list)
    for T in T_list:
        _require_positive("averaging horizon T", T)
    if h is not None:
        _require_positive("quadrature step h", h)
    if method == "auto":
        method = "shear-exact" if flow.kind == "shear" else "truncated-exponential"
    if method == "shear-exact" and flow.kind != "shear":
        raise ValueError("shear-exact method requires a shear flow")
    values, heff = [], []
    for T in T_list:
        step = h if h is not None else T / 1000.0
        num = int(math.ceil(T / step)) + 1
        times = np.linspace(0.0, T, num)
        if method == "shear-exact":
            series = shear_h1sq_series(flow.profile, f0, times, ygrid=ygrid)
        elif method == "truncated-exponential":
            series = _h1sq_series_truncated(flow, f0, times)
        else:
            raise ValueError(f"unknown method {method!r}")
        values.append(_trapz_running_average(series, times[1] - times[0]))
        heff.append(times[1] - times[0])
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
    step = h if h is not None else T / 2000.0
    num = int(math.ceil(T / step)) + 1
    times = np.linspace(0.0, T, num)
    table = mode_table(f0.N)
    if flow.kind == "shear":
        if ygrid is None:
            # the y-bandwidth of the evolved slices grows like |k1| t max|u'|
            span = f0.N * float(np.max(np.abs(flow.profile.derivative(
                np.linspace(0, 2 * math.pi, 512))))) * T
            ygrid = int(2 ** math.ceil(math.log2(max(8 * f0.N, 2.5 * span + 64))))
        series = _low_mode_mass_series_shear(flow.profile, g0, times, lam_max, ygrid)
    else:
        B = advection_matrix(flow, f0.N)
        states = expm_multiply(-B.matrix, g0.coeffs, start=0.0, stop=float(T),
                               num=num, endpoint=True)
        mask = (table.lam <= lam_max).astype(float)
        series = np.einsum("ij,j->i", states**2, mask)
    return _trapz_running_average(series, times[1] - times[0])
