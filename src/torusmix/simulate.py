"""Monte Carlo integration of the stochastically forced scalar.

The truncated dynamics is the linear SDE

    df = A f dt + sqrt(nu) Psi dW,      A = -B + nu D,

driven by independent Brownian motions on the forced coefficients.  Two
schemes are provided:

``SemiImplicitEM``
    Implicit in the stiff diagonal dissipation, explicit in advection:
    (I - dt nu D) f^{n+1} = f^n - dt B f^n + sqrt(nu dt) Psi xi_n.

``ExactGaussian``
    Exact in law: f^{n+1} = E f^n + L xi_n with E = exp(dt A), L L^T =
    Sigma_dt = nu int_0^dt exp(sA) Psi Psi^T exp(sA)^T ds.  Each stepped
    invariant block b has its own dense E_b and Sigma_b from the
    finite-time step ``covariance._increment_block``, and only those blocks
    are exponentiated; a block may have up to ``operators.DENSE_CAP``
    rows.  Sigma_dt vanishes off the forced invariant blocks, so xi_n
    holds one normal per row of a forced block, and a forced block adds
    L_b xi_b, with L_b the PSD square root of Sigma_b.

The invariant blocks of B do not mix, and a row outside the blocks that
the noise forces, that f0 touches or that hold a tracked coefficient is
zero at every step.  So the run lives on ``active``, the sorted union of
those blocks (n_a of the n rows): the ensemble is one n_a x M state,
column m holding member m, and a step is one sparse product with
B restricted to ``active`` (SemiImplicitEM) or one dense E_b F_b plus
L_b Xi_b per kept block (ExactGaussian), for all members at once.
Randomness comes from counter-based Philox streams keyed by (seed,
member); each member draws a window of steps at a time, the same numbers
in the same order as one draw per step, so a member's trajectory does not
depend on the ensemble size.
Post-burn-in states of all members are gathered per window of at most
as many steps as there are post-burn-in states, one (window steps x M) x
n_a batch, centred in place and folded with one GEMM into the single
n_a-dimensional accumulator of the run: one n_a x n_a co-moment whatever
M is.  A member's own path is in ``tracked_samples``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .covariance import CovarianceOperator, NoiseSpec, _increment_block
from .fields import FourierField, _write_csv, mode_table
from .flows import Flow
from .operators import (BlockDiagonal, OperatorMatrix, _dense, advection_matrix, dissipation_matrix,
                        generator, invariant_blocks)

__all__ = [
    "SimConfig",
    "TrajectoryStats",
    "CovarianceAccumulator",
    "SimulationUnstable",
    "simulate",
    "empirical_covariance",
    "energy_balance_residual",
]

RNG_ALGORITHM = "philox4x64 (numpy Philox, key = (seed, member))"

# steps per noise draw and per covariance reduction; the noise does not depend
# on it, the covariance only through the round-off of the merge order
_WINDOW = 64


def _window_steps(config: "SimConfig") -> int:
    """Steps of the sample window: ``_WINDOW``, or fewer if fewer states follow the burn-in."""
    return min(_WINDOW, config.steps + 1 - config.burn_steps)


class SimulationUnstable(RuntimeError):
    """Trajectory norm exceeded the blow-up guard."""


@dataclass(frozen=True)
class SimConfig:
    """Ensemble integration plan for one (flow, nu, noise) triple.

    ``burn_in = None`` resolves to five e-folds of the slowest heat rate,
    5 / (nu lambda_1), rounded up to the step grid (0 when nu = 0).
    ``horizon`` and ``burn_in`` must be integer multiples of ``dt``.
    """

    flow: Flow | None
    nu: float
    noise: NoiseSpec
    scheme: str = "SemiImplicitEM"       # or "ExactGaussian"
    dt: float = 0.01
    horizon: float = 10.0                # total integration time T
    burn_in: float | None = None         # samples before this time are discarded
    ensemble: int = 1
    seed: int = 0
    s: float = 1.0                       # fractional dissipation order

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.ensemble < 1:
            raise ValueError("ensemble size must be >= 1")
        if self.scheme not in ("SemiImplicitEM", "ExactGaussian"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 <= self.nu < math.inf:
            raise ValueError("nu must be >= 0 and finite")
        if not 0 < self.s < math.inf:
            raise ValueError("s must be positive and finite")
        if self.burn_in is None:
            auto = 5.0 / self.nu if self.nu > 0 else 0.0
            auto = math.ceil(auto / self.dt - 1e-9) * self.dt
            object.__setattr__(self, "burn_in", auto)
        for name in ("horizon", "burn_in"):
            value = getattr(self, name)
            if not (math.isfinite(value) and abs(round(value / self.dt) * self.dt - value)
                    <= 1e-9 * max(1.0, abs(self.horizon))):
                raise ValueError(f"{name} must be an integer multiple of dt")
        if not (self.burn_in >= 0 and self.steps > self.burn_steps):
            raise ValueError(
                f"need horizon > burn_in >= 0 (burn_in resolved to {self.burn_in:g})"
            )

    @property
    def steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def burn_steps(self) -> int:
        return round(self.burn_in / self.dt)


class CovarianceAccumulator:
    """Streaming (count, mean, co-moment) triple with pairwise merging.

    ``merge`` is commutative and associative up to roundoff; ``simulate``
    adds its batches in a fixed order for reproducibility.
    """

    def __init__(self, dim: int):
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))

    def add(self, x: np.ndarray) -> None:
        """Add one sample or a batch of samples, one per row."""
        X = np.atleast_2d(x)
        mean = X.mean(axis=0)
        C = X - mean
        self._fold(len(X), mean, C.T @ C)

    def merge(self, other: "CovarianceAccumulator") -> None:
        self._fold(other.count, other.mean, other.m2)

    def _fold(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
        """Merge the triple (count, mean, m2) in place: one n x n temporary."""
        if count == 0:
            return
        total = self.count + count
        delta = mean - self.mean
        self.m2 += m2
        self.m2 += np.outer(delta * (self.count * count / total), delta)
        self.mean += delta * (count / total)
        self.count = total

    def covariance(self) -> np.ndarray:
        if self.count < 2:
            raise ValueError("need at least 2 samples for an unbiased covariance")
        cov = self.m2 / (self.count - 1)
        return 0.5 * (cov + cov.T)


@dataclass
class TrajectoryStats:
    """Ensemble statistics of one simulation run.

    ``accumulator`` pools every post-burn-in state of every member on the
    coefficients ``active`` (sorted canonical indices), the rows the run
    steps; every other coefficient is zero.  Per-member statistics are the
    norm series and ``tracked_samples``.
    """

    config: SimConfig
    active: np.ndarray
    times: np.ndarray
    mean_l2_sq: np.ndarray               # E ||f(t)||_L2^2
    mean_h1_sq: np.ndarray               # E ||f(t)||_H1^2
    residual_series: np.ndarray          # energy balance over (t_0, t_i)
    accumulator: CovarianceAccumulator
    member_l2_sq: np.ndarray = field(repr=False)          # (M, steps+1)
    member_residuals: np.ndarray = field(repr=False)      # balance over (burn_in, horizon)
    member_h1_means: np.ndarray = field(repr=False)       # post-burn-in time averages
    tracked_samples: dict | None = field(default=None, repr=False)  # coeff -> samples
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def sample_count(self) -> int:
        return self.accumulator.count

    def write_csv(self, path_or_file) -> None:
        _write_csv(path_or_file, ["t", "mean_l2_sq", "mean_h1_sq", "energy_residual"],
                   zip(self.times, self.mean_l2_sq, self.mean_h1_sq, self.residual_series))


def _factor_psd(sigma: np.ndarray) -> np.ndarray:
    """The PSD square root L = L^T with L L^T = sigma (tiny negatives clipped).

    Unlike a factor made of eigenvector columns, it is a continuous function
    of sigma: the signs and the basis LAPACK picks for the eigenvectors, in
    degenerate eigenspaces too, cancel in V sqrt(lambda) V^T.
    """
    vals, vecs = sla.eigh(sigma)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _union(blocks) -> np.ndarray:
    """The sorted union of index arrays (internal)."""
    return np.sort(np.concatenate([*blocks, np.empty(0, dtype=np.intp)]))


def _kept_blocks(B: OperatorMatrix, noise: NoiseSpec, f0: FourierField, tracked=()) -> list:
    """The invariant blocks of the advection matrix B that ``simulate`` steps (internal).

    Those the noise forces, f0 touches or that hold a coefficient of the
    canonical indices ``tracked``: every other block stays zero.
    """
    used = (noise.amps != 0.0) | (f0.coeffs != 0.0)
    used[list(tracked)] = True
    return [idx for idx in invariant_blocks(B) if used[idx].any()]


def _member_rng(seed: int, member: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(member)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate(
    config: SimConfig,
    f0: FourierField,
    track_coefficients: tuple = (),
) -> TrajectoryStats:
    """Integrate the ensemble and gather stationary statistics.

    Covariance samples are drawn at every step after ``burn_in``.  The run
    aborts with :class:`SimulationUnstable` at the first step where a
    member's L2 norm exceeds 1e6 times max(||f0||, stationary scale
    sqrt(||Psi||^2 / 2)), naming the lowest such member.
    ``track_coefficients`` takes (mode, parity) pairs whose post-burn-in
    sample paths are returned in ``tracked_samples`` (member-major order).
    """
    noise = config.noise
    if noise.N != f0.N:
        raise ValueError("noise truncation does not match initial datum")
    N = f0.N
    M = config.ensemble
    steps, burn_steps = config.steps, config.burn_steps
    times = config.dt * np.arange(steps + 1)
    table = mode_table(N)
    guard = 1e6 * max(float(np.linalg.norm(f0.coeffs)),
                      math.sqrt(0.5 * noise.total_intensity), 1e-12)

    tracked_idx = [table.coefficient_index(m, p) for m, p in track_coefficients]
    B = advection_matrix(config.flow, N)
    kept = _kept_blocks(B, noise, f0, tracked_idx)
    active = _union(kept)
    lam = table.lam.astype(float)[active, None]

    if config.scheme == "ExactGaussian":
        A = generator(B, config.nu, N, s=config.s).matrix
        # one normal per row of a forced block, in canonical order
        forced = _union(idx for idx in kept if noise.amps[idx].any())
        # per kept block: its rows of the state, E_b, and on a forced block
        # L_b and the rows of its normals in the draw
        blocks = []
        for idx in kept:
            Eb, Sb = _increment_block(_dense(A, idx), noise.amps[idx] ** 2, config.dt)
            blocks.append((np.searchsorted(active, idx), Eb,
                           _factor_psd(config.nu * Sb) if noise.amps[idx].any() else None,
                           np.searchsorted(forced, idx)))
        draws = forced.size
    else:
        Bmat = B.matrix[active][:, active]
        dd = dissipation_matrix(N, config.s).matrix.diagonal()[active]
        implicit_div = (1.0 / (1.0 - config.dt * config.nu * dd))[:, None]  # dd <= -1
        kick = (math.sqrt(config.nu * config.dt) * noise.amps[noise.support])[:, None]
        kick_rows = np.searchsorted(active, noise.support)
        draws = kick_rows.size

    tracked_rows = np.searchsorted(active, tracked_idx)
    rngs = [_member_rng(config.seed, m) for m in range(M)]
    F = np.repeat(f0.coeffs[active, None], M, axis=1)
    l2 = np.empty((M, steps + 1))
    h1 = np.empty((M, steps + 1))
    acc = CovarianceAccumulator(active.size)
    tracked = np.empty((len(tracked_idx), M, steps + 1 - burn_steps))
    span = _window_steps(config)
    window = np.empty((span * M, active.size))      # row t M + m: member m at step t
    filled = 0
    for j in range(steps + 1):
        if j:
            w = (j - 1) % _WINDOW
            if w == 0:
                k = min(_WINDOW, steps + 1 - j)
                xi = np.stack([rng.standard_normal((k, draws)) for rng in rngs], axis=-1)
            if config.scheme == "ExactGaussian":
                G = np.empty_like(F)
                for rows, Eb, Lb, q in blocks:
                    G[rows] = Eb @ F[rows] if Lb is None else Eb @ F[rows] + Lb @ xi[w][q]
                F = G
            else:
                rhs = F - config.dt * (Bmat @ F)
                rhs[kick_rows] += kick * xi[w]
                F = implicit_div * rhs
        sq = F * F
        l2[:, j] = sq.sum(axis=0)
        h1[:, j] = (lam * sq).sum(axis=0)
        over = l2[:, j] > guard * guard
        if over.any():
            m = int(np.argmax(over))
            raise SimulationUnstable(
                f"member {m} blew up at t={times[j]:g}: "
                f"||f|| = {math.sqrt(l2[m, j]):.3e} (guard {guard:.3e})"
            )
        if j >= burn_steps:
            tracked[:, :, j - burn_steps] = F[tracked_rows]
            window[filled * M : (filled + 1) * M] = F.T
            filled += 1
            if filled == span or j == steps:
                # the window is scratch: centred in place, not copied as by add
                X = window[: filled * M]
                mean = X.mean(axis=0)
                X -= mean
                acc._fold(len(X), mean, X.T @ X)
                filled = 0

    intensity = noise.total_intensity
    mean_l2 = l2.mean(axis=0)
    mean_h1 = h1.mean(axis=0)
    dissipated = 2.0 * config.nu * np.concatenate(
        ([0.0], np.cumsum(0.5 * config.dt * (mean_h1[1:] + mean_h1[:-1]))))
    residual_series = mean_l2 + dissipated - mean_l2[0] - config.nu * intensity * times
    return TrajectoryStats(
        config=config,
        active=active,
        times=times,
        mean_l2_sq=mean_l2,
        mean_h1_sq=mean_h1,
        residual_series=residual_series,
        accumulator=acc,
        member_l2_sq=l2,
        member_residuals=_balance_residual(times, l2, h1, config.nu, intensity,
                                           burn_steps, steps),
        member_h1_means=(np.trapezoid(h1[:, burn_steps:], dx=config.dt, axis=1)
                         / (config.dt * (steps - burn_steps))),
        tracked_samples={key: tracked[i].ravel()
                         for i, key in enumerate(track_coefficients)} or None,
    )


def _balance_residual(times, l2, h1, nu, intensity, i0, i1):
    """Left minus right of the energy balance over (times[i0], times[i1]),
    along the last axis of ``l2`` and ``h1``."""
    dissipated = 2.0 * nu * np.trapezoid(h1[..., i0 : i1 + 1], x=times[i0 : i1 + 1],
                                         axis=-1)
    injected = nu * intensity * (times[i1] - times[i0])
    return l2[..., i1] + dissipated - l2[..., i0] - injected


def empirical_covariance(stats: TrajectoryStats) -> CovarianceOperator:
    """Unbiased sample covariance of the post-burn-in states.

    One block on ``stats.active``, or none when no row was stepped.
    """
    if stats.accumulator.count < 2:
        raise ValueError("insufficient samples: need at least 2 post-burn-in states")
    noise, active = stats.config.noise, stats.active
    return CovarianceOperator(
        noise.N,
        BlockDiagonal(noise.amps.size,
                      [(active, stats.accumulator.covariance())] if active.size else []),
        provenance=f"empirical(samples={stats.accumulator.count})",
        meta={"samples": stats.accumulator.count, "seed": stats.config.seed,
              "scheme": stats.config.scheme},
    )


def energy_balance_residual(stats: TrajectoryStats, interval: tuple) -> float:
    """Energy balance defect over a (tau, t) window of recorded sample times:

        E||f(t)||^2 + 2 nu E int_tau^t ||f||_H1^2 ds
            - E||f(tau)||^2 - nu ||Psi||^2 (t - tau)

    with the time integral evaluated by the trapezoidal rule on the sample
    grid.  Both endpoints must be grid-aligned.
    """
    tau, t = interval
    if not tau < t:
        raise ValueError("need tau < t")
    dt = stats.config.dt
    i0 = int(round(tau / dt))
    i1 = int(round(t / dt))
    if (abs(i0 * dt - tau) > 1e-9 * max(1.0, t) or
            abs(i1 * dt - t) > 1e-9 * max(1.0, t) or
            not (0 <= i0 < i1 <= len(stats.times) - 1)):
        raise ValueError("interval endpoints must lie on the sample grid")
    return float(_balance_residual(stats.times, stats.mean_l2_sq, stats.mean_h1_sq,
                                   stats.config.nu, stats.config.noise.total_intensity,
                                   i0, i1))
