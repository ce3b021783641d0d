"""Monte Carlo integration of the stochastically forced scalar.

The truncated dynamics is the linear SDE

    df = A f dt + sqrt(nu) Psi dW,      A = -B + nu D,

driven by independent Brownian motions on the forced coefficients.  Two
schemes are provided:

``SemiImplicitEM``
    Implicit in the stiff diagonal dissipation, explicit in advection:
    (I - dt nu D) f^{n+1} = f^n - dt B f^n + sqrt(nu dt) Psi xi_n.

``ExactGaussian``
    Exact in law: f^{n+1} = exp(dt A) f^n + eta_n with eta_n drawn from the
    Gaussian increment N(0, Sigma_dt), Sigma_dt = nu int_0^dt exp(sA)
    Psi Psi^T exp(sA)^T ds, computed once by Gauss-Legendre quadrature with
    node doubling to a 1e-10 tolerance and factorized.

Randomness comes from counter-based Philox streams keyed by (seed, member),
so ensembles are reproducible bit for bit and members can run in parallel
without correlation.  Ensemble reductions merge per-member accumulators in
member order, which keeps results identical whatever the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .covariance import CovarianceOperator, NoiseSpec
from .fields import FourierField, _open_text, mode_table
from .flows import Flow
from .operators import DENSE_CAP, advection_matrix, dissipation_matrix, generator

__all__ = [
    "SimConfig",
    "TrajectoryStats",
    "CovarianceAccumulator",
    "SimulationUnstable",
    "simulate",
    "empirical_covariance",
    "energy_balance_residual",
    "gaussian_increment_covariance",
]

RNG_ALGORITHM = "philox4x64 (numpy Philox, key = (seed, member))"


class SimulationUnstable(RuntimeError):
    """Trajectory norm exceeded the blow-up guard."""


@dataclass(frozen=True)
class SimConfig:
    """Ensemble integration plan for one (flow, nu, noise) triple.

    ``burn_in = None`` resolves to five e-folds of the slowest heat rate,
    5 / (nu lambda_1), rounded up to the step grid (0 when nu = 0).
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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.ensemble < 1:
            raise ValueError("ensemble size must be >= 1")
        if self.scheme not in ("SemiImplicitEM", "ExactGaussian"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.nu < 0:
            raise ValueError("nu must be >= 0")
        if self.burn_in is None:
            auto = 5.0 / self.nu if self.nu > 0 else 0.0
            auto = math.ceil(auto / self.dt - 1e-9) * self.dt
            object.__setattr__(self, "burn_in", auto)
        if not self.horizon > self.burn_in >= 0:
            raise ValueError(
                f"need horizon > burn_in >= 0 (burn_in resolved to {self.burn_in:g})"
            )


class CovarianceAccumulator:
    """Streaming (count, mean, co-moment) triple with pairwise merging.

    ``merge`` is commutative and associative up to roundoff; the ensemble
    reduction applies it in fixed member order for reproducibility.
    """

    def __init__(self, dim: int):
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))

    def add(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, x - self.mean)

    def merge(self, other: "CovarianceAccumulator") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean.copy()
            self.m2 = other.m2.copy()
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + np.outer(delta, delta) * (self.count * other.count / total)
        self.mean += delta * (other.count / total)
        self.count = total

    def covariance(self) -> np.ndarray:
        if self.count < 2:
            raise ValueError("need at least 2 samples for an unbiased covariance")
        cov = self.m2 / (self.count - 1)
        return 0.5 * (cov + cov.T)


@dataclass
class TrajectoryStats:
    """Ensemble statistics of one simulation run."""

    config: SimConfig
    times: np.ndarray
    mean_l2_sq: np.ndarray               # E ||f(t)||_L2^2
    mean_h1_sq: np.ndarray               # E ||f(t)||_H1^2
    residual_series: np.ndarray          # energy balance over (t_0, t_i)
    accumulator: CovarianceAccumulator
    rng_algorithm: str = RNG_ALGORITHM
    member_residuals: np.ndarray = field(default=None, repr=False)
    member_h1_means: np.ndarray = field(default=None, repr=False)
    member_covariances: list = field(default=None, repr=False)
    member_l2_sq: np.ndarray = field(default=None, repr=False)      # (M, steps+1)
    tracked_samples: dict = field(default=None, repr=False)         # coeff -> samples

    @property
    def sample_count(self) -> int:
        return self.accumulator.count

    def write_csv(self, path_or_file) -> None:
        with _open_text(path_or_file, "w") as fh:
            fh.write("t,mean_l2_sq,mean_h1_sq,energy_residual\n")
            for row in zip(self.times, self.mean_l2_sq, self.mean_h1_sq,
                           self.residual_series):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def gaussian_increment_covariance(
    A: np.ndarray, noise: NoiseSpec, dt: float, tol: float = 1e-10
) -> np.ndarray:
    """Sigma_dt = nu_hidden-free integral int_0^dt exp(sA) Psi Psi^T exp(sA)^T ds.

    Gauss-Legendre quadrature, doubling the node count until the Frobenius
    change drops below ``tol`` (relative to the current iterate).  The nu
    factor is applied by the caller.
    """
    n = A.shape[0]
    support = noise.support
    P = np.zeros((n, max(len(support), 1)))
    P[support, np.arange(len(support))] = noise.amps[support]
    prev = None
    for q in (8, 16, 32, 64, 128):
        nodes, weights = np.polynomial.legendre.leggauss(q)
        s_nodes = 0.5 * dt * (nodes + 1.0)
        w = 0.5 * dt * weights
        sigma = np.zeros((n, n))
        for sq, wq in zip(s_nodes, w):
            F = sla.expm(sq * A) @ P
            sigma += wq * (F @ F.T)
        if prev is not None:
            err = np.linalg.norm(sigma - prev, "fro")
            if err <= tol * max(1.0, np.linalg.norm(sigma, "fro")):
                return 0.5 * (sigma + sigma.T)
        prev = sigma
    raise RuntimeError("Gaussian increment quadrature did not converge")


def _factor_psd(sigma: np.ndarray) -> np.ndarray:
    """L with L L^T = sigma (eigenfactorization, tiny negatives clipped)."""
    vals, vecs = sla.eigh(sigma)
    cutoff = max(vals[-1], 0.0) * 1e-14
    keep = vals > cutoff
    return vecs[:, keep] * np.sqrt(vals[keep])


def _member_rng(seed: int, member: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(member)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate(
    config: SimConfig,
    f0: FourierField,
    workers: int = 1,
    keep_member_covariances: bool = False,
    keep_member_norms: bool = False,
    track_coefficients: tuple = (),
) -> TrajectoryStats:
    """Integrate the ensemble and gather stationary statistics.

    Covariance samples are drawn at every step after ``burn_in``.  A
    trajectory aborts with :class:`SimulationUnstable` if its L2 norm
    exceeds 1e6 times max(||f0||, stationary scale sqrt(||Psi||^2 / 2)).
    ``track_coefficients`` takes (mode, parity) pairs whose post-burn-in
    sample paths are returned in ``tracked_samples`` (member order).
    """
    noise = config.noise
    if noise.N != f0.N:
        raise ValueError("noise truncation does not match initial datum")
    N = f0.N
    n = f0.coeffs.shape[0]
    lam = mode_table(N).lam.astype(float)
    steps = int(round(config.horizon / config.dt))
    if abs(steps * config.dt - config.horizon) > 1e-9 * max(1.0, config.horizon):
        raise ValueError("horizon must be an integer multiple of dt")
    times = config.dt * np.arange(steps + 1)
    burn_steps = int(round(config.burn_in / config.dt))
    if abs(burn_steps * config.dt - config.burn_in) > 1e-9 * max(1.0, config.horizon):
        raise ValueError("burn_in must be an integer multiple of dt")

    A_op = generator(config.flow, config.nu, N, s=config.s)
    support = noise.support
    amp_support = noise.amps[support]
    guard = 1e6 * max(float(np.linalg.norm(f0.coeffs)),
                      math.sqrt(0.5 * noise.total_intensity), 1e-12)

    if config.scheme == "ExactGaussian":
        if n > DENSE_CAP:
            raise ValueError("ExactGaussian requires a dense propagator (dimension cap)")
        A = A_op.dense()
        E = sla.expm(config.dt * A)
        sigma = config.nu * gaussian_increment_covariance(A, noise, config.dt)
        L = _factor_psd(sigma)
        r = L.shape[1]
    else:
        Bmat = advection_matrix(config.flow, N).matrix
        dd = dissipation_matrix(N, config.s).matrix.diagonal()
        implicit_div = 1.0 / (1.0 - config.dt * config.nu * dd)  # dd <= -1
        noise_scale = math.sqrt(config.nu * config.dt)

    table = mode_table(N)
    tracked_idx = [table.coefficient_index(m, p) for m, p in track_coefficients]

    def run_member(member: int):
        rng = _member_rng(config.seed, member)
        f = f0.coeffs.copy()
        l2 = np.empty(steps + 1)
        h1 = np.empty(steps + 1)
        acc = CovarianceAccumulator(n)
        tracked = [[] for _ in tracked_idx]
        l2[0] = f @ f
        h1[0] = np.sum(lam * f * f)
        if burn_steps == 0:
            acc.add(f)
            for slot, i in zip(tracked, tracked_idx):
                slot.append(f[i])
        for j in range(1, steps + 1):
            if config.scheme == "ExactGaussian":
                f = E @ f
                if r:
                    f = f + L @ rng.standard_normal(r)
            else:
                rhs = f - config.dt * (Bmat @ f)
                if support.size:
                    rhs[support] += noise_scale * amp_support * rng.standard_normal(support.size)
                f = implicit_div * rhs
            l2[j] = f @ f
            if l2[j] > guard * guard:
                raise SimulationUnstable(
                    f"member {member} blew up at t={times[j]:g}: "
                    f"||f|| = {math.sqrt(l2[j]):.3e} (guard {guard:.3e})"
                )
            h1[j] = np.sum(lam * f * f)
            if j >= burn_steps:
                acc.add(f)
                for slot, i in zip(tracked, tracked_idx):
                    slot.append(f[i])
        return l2, h1, acc, tracked

    members = range(config.ensemble)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_member, members))
    else:
        results = [run_member(m) for m in members]

    sum_l2 = np.zeros(steps + 1)
    sum_h1 = np.zeros(steps + 1)
    total = CovarianceAccumulator(n)
    member_res = np.empty(config.ensemble)
    member_h1m = np.empty(config.ensemble)
    member_covs = [] if keep_member_covariances else None
    member_norms = np.empty((config.ensemble, steps + 1)) if keep_member_norms else None
    tracked_all = [[] for _ in tracked_idx]
    intensity = noise.total_intensity
    for m, (l2, h1, acc, tracked) in enumerate(results):
        sum_l2 += l2
        sum_h1 += h1
        member_res[m] = _balance_residual(times, l2, h1, config.nu, intensity,
                                          burn_steps, steps)
        post = h1[burn_steps:]
        member_h1m[m] = float(np.trapezoid(post, dx=config.dt) /
                              (config.dt * (len(post) - 1))) if len(post) > 1 else post[0]
        if member_covs is not None:
            member_covs.append(acc.covariance() if acc.count >= 2 else None)
        if member_norms is not None:
            member_norms[m] = l2
        for slot, vals in zip(tracked_all, tracked):
            slot.extend(vals)
        total.merge(acc)
    tracked_samples = {
        key: np.asarray(vals)
        for key, vals in zip(track_coefficients, tracked_all)
    } or None
    mean_l2 = sum_l2 / config.ensemble
    mean_h1 = sum_h1 / config.ensemble
    residual_series = np.zeros(steps + 1)
    for j in range(1, steps + 1):
        residual_series[j] = _balance_residual(times, mean_l2, mean_h1, config.nu,
                                               intensity, 0, j)
    return TrajectoryStats(
        config=config,
        times=times,
        mean_l2_sq=mean_l2,
        mean_h1_sq=mean_h1,
        residual_series=residual_series,
        accumulator=total,
        member_residuals=member_res,
        member_h1_means=member_h1m,
        member_covariances=member_covs,
        member_l2_sq=member_norms,
        tracked_samples=tracked_samples,
    )


def _balance_residual(times, l2, h1, nu, intensity, i0, i1) -> float:
    """Left minus right of the energy balance over (times[i0], times[i1])."""
    dissipated = 2.0 * nu * np.trapezoid(h1[i0 : i1 + 1], x=times[i0 : i1 + 1])
    injected = nu * intensity * (times[i1] - times[i0])
    return float(l2[i1] + dissipated - l2[i0] - injected)


def empirical_covariance(stats: TrajectoryStats) -> CovarianceOperator:
    """Unbiased sample covariance of the post-burn-in states."""
    if stats.accumulator.count < 2:
        raise ValueError("insufficient samples: need at least 2 post-burn-in states")
    N = stats.config.noise.N
    return CovarianceOperator(
        N,
        stats.accumulator.covariance(),
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
    return _balance_residual(stats.times, stats.mean_l2_sq, stats.mean_h1_sq,
                             stats.config.nu, stats.config.noise.total_intensity,
                             i0, i1)
