"""Config-driven experiment runner.

Subcommands::

    torusmix validate --config exp.ini
    torusmix run --config exp.ini [--out DIR] [--seed S]

Configs are INI files (sections of key = value pairs); coefficient lists use
the same ``k1 k2 cos|sin amplitude`` records as the field serialization
format, one per line.  See the annotated examples under ``configs/`` and the
schema section of the README.

One table, ``EXPERIMENTS``, declares each experiment type once: the config
sections it needs, the keys of its own section (parser, and default or
required) and its runner.  ``parse_spec`` reads every key through it and
then runs the checks that span keys, so ``validate`` and ``run`` reject the
same inputs; ``run`` looks the runner up there.  Every number passes one
parser that rejects non-finite values.

A viscosity ladder (``covariance-ladder``, ``cellular-support``,
``dissipation-probe``) runs its per-nu body through ``_map_ladder``, which
solves the nu in this process and in workers forked from it, one per free
CPU, with one BLAS thread in each.

Every run writes its result CSVs (and covariance v3 ``.cov`` files) plus
``manifest.txt`` (the fully resolved config, seed, code version and RNG
algorithm -- enough to reproduce the run) and ``timestamps.txt``
(wall-clock bookkeeping, kept separate so result payloads are
byte-identical across reruns).  Failures exit nonzero and leave
a machine-readable ``error.json``.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla

from . import __version__
from .covariance import (NoiseSpec, block_operator_norm, covariance_distance, eigenvalue_summary,
                         h1_trace, lyapunov_covariance, shear_limit_covariance, write_covariance)
from .fields import (FourierField, _write_csv, format_record, make_field, mode_table,
                     parse_record)
from .flows import Flow, ShearProfile, make_cellular, make_shear
from .operators import (DENSE_CAP, _blas_pools, _one_blas_pool, _symmetry_sectors,
                        advection_matrix, generator, invariant_blocks, semigroup_norm)
from .simulate import (RNG_ALGORITHM, SimConfig, _kept_blocks, _window_steps,
                       empirical_covariance, simulate)
from .spectral import _growth_method, _streamline_projector, _time_grid, h1_growth_average, spectrum


class ConfigError(ValueError):
    """Invalid experiment configuration; ``problems`` lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ExperimentSpec:
    """Parsed and validated experiment plan."""

    experiment: str
    N: int
    flow: Flow | None
    noise: NoiseSpec | None
    params: dict
    out: Path
    sim_config: SimConfig | None = None  # the validated simulate plan
    warnings: list = dc_field(default_factory=list)

    @property
    def dimension(self) -> int:
        return (2 * self.N + 1) ** 2 - 1


_NO_DEFAULT = object()   # the default of a required key


class _Key(NamedTuple):
    """One config key: ``parse(text, N)`` gives its value or raises ValueError."""

    key: str
    parse: Callable
    default: object = _NO_DEFAULT   # a value, a function of N, or _NO_DEFAULT
    param: str | None = None        # its name in ``ExperimentSpec.params``; ``key`` if None


class _Experiment(NamedTuple):
    """One experiment type: the sections it needs, the keys of its own section, its runner."""

    sections: tuple
    keys: tuple
    run: Callable   # run(spec, outdir)


def _number(text: str, N=None, conv=float):
    """``conv(text)``, which must be a finite number: the one parser of config numbers."""
    try:
        value = conv(text)
    except ValueError:
        raise ValueError(f"bad value {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"bad value {text!r}: not a finite number")
    return value


def _integer(text: str, N) -> int:
    return _number(text, conv=int)


def _order(text: str, N) -> int:
    value = _integer(text, N)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _positive(text: str, N) -> float:
    value = _number(text)
    if value <= 0:
        raise ValueError(f"must be positive, got {value!r}")
    return value


def _positives(text: str, N) -> list:
    values = [_positive(v, N) for v in text.split()]
    if not values:
        raise ValueError("missing list of numbers")
    return values


def _viscosities(text: str, N) -> list:
    values = [_number(v) for v in text.split()]
    if not values or min(values) <= 0:
        raise ValueError(f"requires nu > 0, got {text!r} (at nu = 0 there is no stationary "
                         "covariance and no time tau/nu)")
    return values


_GROWTH_METHODS = ("auto", "shear-exact", "truncated-exponential")


def _method(text: str, N) -> str:
    if text not in _GROWTH_METHODS:
        raise ValueError(f"got {text!r}, want one of {', '.join(_GROWTH_METHODS)}")
    return text


def _parse_records(text: str):
    return [parse_record(line) for line in text.splitlines() if line.strip()]


def _field(text: str, N) -> FourierField:
    return make_field(N, _parse_records(text))


def _nonzero_field(text: str, N) -> FourierField:
    f0 = _field(text, N)
    if not np.any(f0.coeffs):
        raise ValueError("zero initial datum rejected")
    return f0


def _read(cfg, section: str, key: _Key, N, problems: list):
    """The parsed value of ``key`` in ``section``, or its default; None after a problem."""
    text = cfg.get(section, key.key, fallback=None)
    try:
        if text is not None:
            return key.parse(text, N)
        if key.default is _NO_DEFAULT:
            raise ValueError("missing")
        return key.default(N) if callable(key.default) else key.default
    except ValueError as exc:
        problems.append(f"{section}.{key.key}: {exc}")


# the keys of [flow] besides kind, per kind (configparser stores keys lowercased)
_FLOW_KEYS = {"shear": ("profile",), "cellular": ("streamfunction", "streamfunction_n")}


def _build_flow(cfg: configparser.ConfigParser, N: int, problems: list) -> Flow | None:
    if not cfg.has_section("flow"):
        problems.append("flow: section missing")
        return None
    kind = cfg.get("flow", "kind", fallback=None)
    if kind is None:
        problems.append("flow.kind: missing (shear | cellular | none)")
        return None
    if kind == "none":
        return None
    try:
        if kind == "shear":
            # same record format as field files; shear profiles live on the
            # (0, j) modes and amplitudes are plain cos(jy)/sin(jy) weights
            cos_amps, sin_amps = {}, {}
            for mode, parity, amp in _parse_records(cfg.get("flow", "profile", fallback="")):
                if mode.k1 != 0 or mode.k2 < 1:
                    raise ValueError(
                        f"shear profile record needs k1 = 0 and k2 >= 1, got {tuple(mode)}"
                    )
                (cos_amps if parity == "cos" else sin_amps)[mode.k2] = amp
            jmax = max(list(cos_amps) + list(sin_amps), default=0)
            profile = ShearProfile(
                cos_amps=tuple(cos_amps.get(j, 0.0) for j in range(1, jmax + 1)),
                sin_amps=tuple(sin_amps.get(j, 0.0) for j in range(1, jmax + 1)),
            )
            return make_shear(profile)
        if kind == "cellular":
            psi_N = _read(cfg, "flow", _Key("streamfunction_N", _order, N), N, problems)
            if psi_N is None:
                return None
            return make_cellular(_field(cfg.get("flow", "streamfunction", fallback=""), psi_N))
    except (ValueError, KeyError) as exc:
        problems.append(f"flow: {exc}")
        return None
    problems.append(f"flow.kind: unknown kind {kind!r}")
    return None


def parse_spec(path) -> ExperimentSpec:
    """Parse + validate a config file; raises ConfigError listing every violation.

    The keys of the experiment's own section are read through its entry in
    ``EXPERIMENTS``; the checks that span keys follow.
    """
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        read = cfg.read(path)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError([f"{exc.section}.{exc.option}: repeated key (line {exc.lineno})"])
    except configparser.Error as exc:
        raise ConfigError([f"config: {exc}"])
    problems, warnings = [], []
    if not read:
        raise ConfigError([f"config file {path!r} not found or unreadable"])
    if not cfg.has_section("experiment"):
        raise ConfigError(["experiment: section missing"])
    experiment = cfg.get("experiment", "type", fallback=None)
    if experiment not in EXPERIMENTS:
        problems.append(f"experiment.type: got {experiment!r}, "
                        f"want one of {', '.join(EXPERIMENTS)}")
    N = _read(cfg, "experiment", _Key("N", _order), None, problems)
    if N is None or experiment not in EXPERIMENTS:
        raise ConfigError(problems)
    entry = EXPERIMENTS[experiment]

    flow = _build_flow(cfg, N, problems)
    noise = None
    if cfg.has_section("noise"):
        try:
            noise = NoiseSpec.from_modes(N, _parse_records(cfg.get("noise", "modes", fallback="")))
        except ValueError as exc:
            problems.append(f"noise: {exc}")
    if "flow" in entry.sections and flow is None and not problems:
        problems.append("flow: this experiment requires a nonzero flow")
    if "noise" in entry.sections and not cfg.has_section("noise"):
        problems.append("noise: section with forcing modes required")
    if "noise" in entry.sections and noise is not None and noise.total_intensity == 0.0:
        warnings.append("noise: zero total intensity (degenerate experiment)")
    if "noise" not in entry.sections and cfg.has_section("noise"):
        warnings.append(f"noise: section not used by {experiment}, ignored")

    params = {key.param or key.key: _read(cfg, experiment, key, N, problems)
              for key in entry.keys}
    known = {"experiment": ("type", "n", "out"),
             experiment: {key.key.lower() for key in entry.keys},   # configparser stores T as t
             "flow": ("kind", *_FLOW_KEYS.get(cfg.get("flow", "kind", fallback=None), ())),
             "noise": ("modes",)}
    for section, keys in known.items():
        if cfg.has_section(section):
            warnings += [f"{section}.{key}: unknown key, ignored"
                         for key in cfg.options(section) if key not in keys]
    warnings += [f"{section}: unknown section, ignored" for section in cfg.sections()
                 if section not in known]

    grid, bins = params.get("grid"), params.get("bins")
    if grid is not None and grid < 4 * N:
        problems.append(f"{experiment}.grid: need grid >= 4 N = {4 * N}")
    if grid is not None and bins is not None and not 2 <= bins <= grid * grid:
        problems.append(f"{experiment}.bins: need 2 <= bins <= grid^2 = {grid * grid}")
    if experiment == "covariance-ladder" and flow is not None and flow.kind != "shear":
        warnings.append(f"covariance-ladder: dist_to_Q0 is the distance to the shear limit "
                        f"psi^2/(2 j^2), not to the limit of this {flow.kind} flow")
    if experiment == "cellular-support" and flow is not None and flow.streamfunction is None:
        problems.append("flow: cellular-support requires a cellular flow")
    psi = flow.streamfunction if flow is not None else None
    if grid is not None and psi is not None and grid < 2 * psi.N + 2:
        problems.append(f"{experiment}.grid: need grid >= 2 streamfunction_N + 2 = {2 * psi.N + 2}")
    if params.get("method") == "shear-exact" and flow is not None and flow.kind != "shear":
        problems.append(f"{experiment}.method: shear-exact requires a shear flow")
    if flow is not None and flow.max_wavenumber > 2 * N:
        problems.append(f"flow: velocity support {flow.max_wavenumber} exceeds 2 N = {2 * N}")
    sim_config = None
    if experiment == "simulate" and not problems:
        try:
            sim_config = SimConfig(flow=flow, noise=noise,
                                   **{k: v for k, v in params.items() if k != "f0"})
        except ValueError as exc:
            problems.append(f"{experiment}: {exc}")
    if problems:
        raise ConfigError(problems)
    out = Path(cfg.get("experiment", "out", fallback="torusmix-out"))
    return ExperimentSpec(experiment=experiment, N=N, flow=flow, noise=noise, params=params,
                          out=out, sim_config=sim_config, warnings=warnings)


# ---------------------------------------------------------------------------
# Reporting helpers
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return "auto"
    return str(v)


def _records(table, coeffs) -> str:
    """'; '-joined records of the nonzero coefficients."""
    return "; ".join(format_record(table, i, coeffs[i]) for i in np.flatnonzero(coeffs))


def _write_manifest(spec: ExperimentSpec, outdir: Path, seed_override) -> None:
    lines = [
        f"torusmix_version = {__version__}",
        f"experiment = {spec.experiment}",
        f"N = {spec.N}",
        f"dimension = {spec.dimension}",
        f"rng_algorithm = {RNG_ALGORITHM}",
        "mode_ordering = (|k|^2, |k1|, |k2|, k1, k2), cos before sin",
    ]
    if seed_override is not None:
        lines.append(f"seed_override = {seed_override}")
    if spec.flow is not None:
        lines.append(f"flow.kind = {spec.flow.kind}")
        lines.append(f"flow.max_wavenumber = {spec.flow.max_wavenumber}")
        lines.append(f"flow.lipschitz_bound = {_fmt(spec.flow.lipschitz_bound)}")
        if spec.flow.profile is not None:
            lines.append(f"flow.profile.cos = {' '.join(map(_fmt, spec.flow.profile.cos_amps))}")
            lines.append(f"flow.profile.sin = {' '.join(map(_fmt, spec.flow.profile.sin_amps))}")
        if spec.flow.streamfunction is not None:
            psi = spec.flow.streamfunction
            lines.append(f"flow.streamfunction.N = {psi.N}")
            lines.append(f"flow.streamfunction = {_records(psi.table, psi.coeffs)}")
    else:
        lines.append("flow.kind = none")
    if spec.noise is not None:
        lines.append(f"noise.modes = {_records(mode_table(spec.N), spec.noise.amps)}")
        lines.append(f"noise.intensity = {_fmt(spec.noise.total_intensity)}")
    for key, value in sorted(spec.params.items()):
        if isinstance(value, FourierField):
            lines.append(f"{spec.experiment}.{key} = {_records(value.table, value.coeffs)}")
        elif isinstance(value, list):
            lines.append(f"{spec.experiment}.{key} = {' '.join(map(_fmt, value))}")
        else:
            lines.append(f"{spec.experiment}.{key} = {_fmt(value)}")
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _write_eigs_csv(path: Path, Q) -> None:
    _write_csv(path, ["index", "eigenvalue"], enumerate(eigenvalue_summary(Q)))


# ---------------------------------------------------------------------------
# The viscosity ladder
# ---------------------------------------------------------------------------

# Rows n = (2 N + 1)^2 - 1 from which a ladder may solve its nu in parallel
# processes.  Forking a worker and shutting it down took 12-24 ms (2 cores,
# from a process of 66 MB).  Two-nu ladders of the three experiments on
# sin y and sin x sin y ran as fast or faster forked from n = 288 (N = 8) on,
# and a two-nu sin y ladder at n = 80 (N = 4) ran slower
_LADDER_FORK_ROWS = 288


def _parallel_ladder(spec: ExperimentSpec) -> bool:
    """Whether the viscosity ladder of ``spec`` may solve its nu in parallel processes.

    It has more than one nu and at least ``_LADDER_FORK_ROWS`` rows, and
    numpy and scipy each bundle an OpenBLAS whose thread count can be set
    (``operators._blas_pools``).
    """
    return (len(spec.params.get("nu_ladder", ())) > 1 and spec.dimension >= _LADDER_FORK_ROWS
            and _blas_pools() is not None)


def _available_bytes() -> int:
    """``MemAvailable`` of /proc/meminfo in bytes; 0 where there is none."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _ladder_processes(spec: ExperimentSpec, doubles=None) -> int:
    """k, the processes that solve the ladder of ``spec``: this one and k - 1 forked workers.

    1 unless the ladder is a ``_parallel_ladder``.  Else the least of the
    CPUs this process may run on, the nu of the ladder and the processes
    whose working set fits in ``MemAvailable``: ``doubles`` per process,
    as validate models it (``_memory_doubles``, computed here if None).
    Without a ``MemAvailable``, that is off Linux, 1.
    """
    if not _parallel_ladder(spec) or len(os.sched_getaffinity(0)) < 2:
        return 1
    if doubles is None:
        doubles = _memory_doubles(spec, _dense_block_sizes(spec, []))
    fits = _available_bytes() // max(8 * doubles, 1)
    return max(1, min(len(os.sched_getaffinity(0)), len(spec.params["nu_ladder"]), fits))


_LADDER_BODY = None   # in a forked ladder worker: the body(i, nu) of its ladder


def _ladder_worker(body: Callable) -> None:
    global _LADDER_BODY
    _LADDER_BODY = body


def _ladder_step(i: int, nu: float):
    return _LADDER_BODY(i, nu)


def _map_ladder(spec: ExperimentSpec, body: Callable) -> list:
    """[body(i, nu) for i, nu in enumerate(the viscosity ladder of ``spec``)].

    k = ``_ladder_processes(spec)`` processes solve it: this one takes nu
    number 0, k, 2k, ... and a pool of k - 1 workers forked from it takes
    the others.  A worker inherits ``body`` with the fork (its closure is
    never pickled), writes the files ``body`` writes and sends back only
    what ``body`` returns.  In a ``_parallel_ladder`` both OpenBLAS pools
    run one thread in every process, this one included, so the results do
    not depend on k.  A body that raises ends the map with its exception,
    the first in ladder order, as without workers; a worker that dies
    raises ``BrokenProcessPool``.  No worker outlives the call.
    """
    ladder = list(enumerate(spec.params["nu_ladder"]))
    with _one_blas_pool(scipy=True) if _parallel_ladder(spec) else nullcontext():
        k = _ladder_processes(spec)
        if k == 1:
            return [body(i, nu) for i, nu in ladder]
        # fork, not spawn: a spawned worker imports numpy, scipy and torusmix
        # again (about 0.45 s) and assembles B again, as much as forking
        # saves on the cellular-support ladders of the covariance benchmark
        # (0.4-0.7 s).  No Python thread runs at the fork (the pool starts
        # its own after forking), and both OpenBLAS builds register a fork
        # handler (openblas_fork_handler) that stops their threads
        pool = ProcessPoolExecutor(k - 1, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_ladder_worker, initargs=(body,))
        try:
            futures = {i: pool.submit(_ladder_step, i, nu) for i, nu in ladder if i % k}
            own, failure = {}, None
            for i, nu in ladder[::k]:
                try:
                    own[i] = body(i, nu)
                except Exception as exc:   # raised below, after the results of the nu before
                    failure = i, exc
                    break
            results = []
            for i, _ in ladder:
                if failure is not None and failure[0] == i:
                    raise failure[1]
                results.append(own[i] if i in own else futures[i].result())
            return results
        finally:
            pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------


def _run_covariance_ladder(spec: ExperimentSpec, outdir: Path) -> None:
    Q0 = shear_limit_covariance(spec.noise)
    B = advection_matrix(spec.flow, spec.N)

    def solve(i: int, nu: float) -> tuple:
        Q = lyapunov_covariance(generator(B, nu, spec.N), spec.noise)
        write_covariance(Q, outdir / f"covariance_{i:02d}.cov")
        _write_eigs_csv(outdir / f"eigenvalues_{i:02d}.csv", Q)
        return nu, h1_trace(Q), block_operator_norm(Q, "k1-nonzero"), covariance_distance(Q, Q0)

    _write_csv(outdir / "summary.csv",
               ["nu", "h1_trace", "offblock_norm", "dist_to_Q0"], _map_ladder(spec, solve))


def _run_simulate(spec: ExperimentSpec, outdir: Path) -> None:
    stats = simulate(spec.sim_config, spec.params["f0"])
    stats.write_csv(outdir / "stats.csv")
    Q = empirical_covariance(stats)
    write_covariance(Q, outdir / "empirical_covariance.cov")
    _write_eigs_csv(outdir / "eigenvalues.csv", Q)


def _run_spectrum(spec: ExperimentSpec, outdir: Path) -> None:
    B = advection_matrix(spec.flow, spec.N)
    report = spectrum(B)
    report.to_csv(outdir / "spectrum.csv")
    _write_csv(outdir / "summary.csv", ["kernel_dim", "dimension"],
               [(report.kernel_dim, spec.dimension)])


def _run_growth(spec: ExperimentSpec, outdir: Path) -> None:
    p = spec.params
    curve = h1_growth_average(spec.flow, p["f0"], p["T"], method=p["method"], h=p["h"])
    curve.to_csv(outdir / "growth.csv")


def _run_dissipation_probe(spec: ExperimentSpec, outdir: Path) -> None:
    tau = spec.params["tau"]
    B = advection_matrix(spec.flow, spec.N)

    def probe(i: int, nu: float) -> tuple:
        t = tau / nu
        return nu, t, semigroup_norm(generator(B, nu, spec.N), t), math.exp(-nu * t)

    _write_csv(outdir / "probe.csv", ["nu", "t", "norm", "heat_bound"], _map_ladder(spec, probe))


# Eigenvalues of Q within this relative distance of the largest one span the
# top eigenspace of ``cellular-support``: far above the round-off split of
# an exactly degenerate pair (2e-14 to 3e-13 in
# configs/cellular_support_default.ini) and far below its real gaps (3.7e-3).
_TOP_CLUSTER_RTOL = 1e-10


# Eigenpairs per stored block of the first partial eigh of ``_top_eigenspace``
_TOP_PAIRS = 4


def _top_pairs(block: np.ndarray, k: int) -> tuple:
    """The k largest eigenvalues of ``block``, ascending, and their eigenvectors.

    LAPACK's syevr on a copy of the block, with no eigenvector beyond the k.
    """
    b = len(block)
    return sla.eigh(block, subset_by_index=(b - k, b - 1), check_finite=False)


def _top_eigenspace(Q) -> tuple:
    """(top eigenvalue of Q, orthonormal basis of its top eigenspace as fields).

    The eigenvalues within ``_TOP_CLUSTER_RTOL`` of the largest, taken
    across the stored blocks of Q.  Each block gives its ``_TOP_PAIRS``
    largest eigenpairs, and twice as many again while they all lie in the
    cluster.
    """
    n = mode_table(Q.N).size
    pairs = [(idx, block, *_top_pairs(block, min(_TOP_PAIRS, len(idx))))
             for idx, block in Q.blocks.blocks]
    # without forcing Q = 0, and e_{n-1} stands for its top eigenspace
    pairs = pairs or [(np.array([n - 1]), None, np.zeros(1), np.ones((1, 1)))]
    top = max(vals[-1] for _, _, vals, _ in pairs)
    cut = top - _TOP_CLUSTER_RTOL * top
    basis = []
    for idx, block, vals, vecs in pairs:
        while vals[0] >= cut and len(vals) < len(idx):
            vals, vecs = _top_pairs(block, min(2 * len(vals), len(idx)))
        for j in np.flatnonzero(vals >= cut):
            coeffs = np.zeros(n)
            coeffs[idx] = vecs[:, j]
            basis.append(FourierField(Q.N, coeffs))
    return top, basis


def _streamline_deviations(project, basis: list) -> tuple:
    """||(I - P)V||_F / ||V||_F and ||PV - PPV||_F / ||PV||_F for the fields V.

    P is the streamline projection ``project`` (a
    ``spectral._streamline_projector``), applied per column.  For an
    orthonormal basis V of a subspace neither depends on which basis: V O
    for an orthogonal O gives the same Frobenius norms.
    """
    v_sq = dev_sq = pv_sq = idem_sq = 0.0
    for v in basis:
        pv = project(v)
        ppv = project(pv)
        v_sq += v.norm(0) ** 2
        dev_sq += (v - pv).norm(0) ** 2
        pv_sq += pv.norm(0) ** 2
        idem_sq += (pv - ppv).norm(0) ** 2
    return math.sqrt(dev_sq) / math.sqrt(v_sq), math.sqrt(idem_sq) / max(math.sqrt(pv_sq), 1e-300)


def _run_cellular_support(spec: ExperimentSpec, outdir: Path) -> None:
    """Streamline deviation of the top eigenspace of Q_nu, per nu.

    The top eigenspace is spanned by every eigenvector of Q, across its
    stored blocks, whose eigenvalue lies within ``_TOP_CLUSTER_RTOL``
    (relative) of the largest.  ``rel_deviation`` and
    ``idempotence_deviation`` are the Frobenius-norm deviations of
    :func:`_streamline_deviations` on an orthonormal basis of it, so they
    do not depend on which basis LAPACK returns.  That matters where the
    top eigenvalue is degenerate: for nu >= 0.025 in
    ``configs/cellular_support_default.ini`` it is a pair split only by
    round-off (2e-14 to 3e-13), one eigenvalue in each of two twin
    symmetry sectors, or at nu = 0.2 a pair within one sector that a
    lattice map turns into a complex space.  For a simple top eigenvalue
    the columns are the deviations of its unit eigenvector.
    """
    p = spec.params
    B = advection_matrix(spec.flow, spec.N)
    tops = _map_ladder(spec, lambda i, nu: _top_eigenspace(
        lyapunov_covariance(generator(B, nu, spec.N), spec.noise)))
    # psi is ranked once per run, after the solves: bins held through the
    # solves raised the peak RSS of the covariance benchmark by about 2 MB
    project = _streamline_projector(spec.flow, p["bins"], p["grid"])
    rows = [(nu, top, *_streamline_deviations(project, basis))
            for nu, (top, basis) in zip(p["nu_ladder"], tops)]
    _write_csv(outdir / "support.csv",
               ["nu", "top_eigenvalue", "rel_deviation", "idempotence_deviation"], rows)


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------

_NU_LADDER = _Key("nu", _viscosities, param="nu_ladder")

# Range and choice rules live here only where no library constructor checks
# them: SimConfig checks nu >= 0, dt, horizon, burn_in, ensemble, scheme and s.
EXPERIMENTS = {
    "covariance-ladder": _Experiment(("flow", "noise"), (_NU_LADDER,), _run_covariance_ladder),
    "simulate": _Experiment(("noise",), (
        _Key("nu", _number), _Key("dt", _number), _Key("horizon", _number),
        # omitted: five e-folds of the slowest heat rate, 5/(nu lambda_1)
        _Key("burn_in", _number, None),
        _Key("ensemble", _integer), _Key("seed", _integer), _Key("s", _number, 1.0),
        _Key("scheme", lambda text, N: text, "SemiImplicitEM"), _Key("f0", _field, make_field),
    ), _run_simulate),
    "spectrum": _Experiment(("flow",), (), _run_spectrum),
    "growth": _Experiment(("flow",), (
        _Key("T", _positives), _Key("method", _method, "auto"), _Key("h", _positive, None),
        _Key("f0", _nonzero_field),
    ), _run_growth),
    "dissipation-probe": _Experiment(("flow",), (_Key("tau", _positive), _NU_LADDER),
                                     _run_dissipation_probe),
    "cellular-support": _Experiment(("flow", "noise"), (
        _NU_LADDER, _Key("bins", _integer, 64), _Key("grid", _integer, lambda N: max(256, 4 * N)),
    ), _run_cellular_support),
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(spec: ExperimentSpec, seed_override=None) -> None:
    outdir = spec.out
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    _write_manifest(spec, outdir, seed_override)
    if seed_override is not None and spec.sim_config is not None:
        spec = dataclasses.replace(
            spec, sim_config=dataclasses.replace(spec.sim_config, seed=seed_override))
    with _one_blas_pool():
        EXPERIMENTS[spec.experiment].run(spec, outdir)
    finished = time.time()
    (outdir / "timestamps.txt").write_text(
        f"started_unix = {started:.3f}\nfinished_unix = {finished:.3f}\n"
        f"elapsed_seconds = {finished - started:.3f}\n"
    )


def _dense_block_sizes(spec: ExperimentSpec, stepped: list) -> list:
    """Rows of each dense block a run of ``spec`` builds, from the sparsity of B.

    The Lyapunov experiments solve the forced invariant blocks, and
    ExactGaussian steps the blocks of ``stepped`` rows (``_stepped_blocks``).
    ``spectrum``, ``growth`` and ``dissipation-probe`` decompose the
    distinct symmetry sectors (``operators._symmetry_sectors``): of every
    block for ``spectrum``; of the blocks f0 touches, up to ``DENSE_CAP``
    rows (``expm_multiply`` takes a larger block), for a
    truncated-exponential ``growth``; of more than one row and at most
    ``DENSE_CAP`` rows (Lanczos takes a larger one) for
    ``dissipation-probe``, an upper bound, as the heat bound of
    ``semigroup_norm`` may skip sectors.  A sector with a complex
    structure counts its real rows, though its dense work is at half of
    them.  The other experiments build no dense block.  No solve is run.
    """
    cap = math.inf      # a larger block is refused: reported, so that validate warns
    if spec.experiment in ("dissipation-probe", "spectrum"):
        used = np.ones(spec.dimension)
    elif (spec.experiment == "growth"
          and _growth_method(spec.flow, spec.params["method"]) == "truncated-exponential"):
        used, cap = spec.params["f0"].coeffs, DENSE_CAP
    elif spec.experiment == "simulate" and spec.params["scheme"] == "ExactGaussian":
        return stepped
    elif spec.experiment in ("covariance-ladder", "cellular-support"):
        return [len(idx) for idx in invariant_blocks(advection_matrix(spec.flow, spec.N))
                if spec.noise.amps[idx].any()]
    else:
        return []
    sizes = [V.shape[1] for idx, sectors in _symmetry_sectors(advection_matrix(spec.flow, spec.N))
             if used[idx].any() and len(idx) <= cap for V, _, _ in sectors]
    if spec.experiment == "dissipation-probe":
        sizes = [b for b in sizes if 1 < b <= DENSE_CAP]
    return sizes


def _stepped_blocks(spec: ExperimentSpec) -> list:
    """The invariant blocks that ``simulate`` steps (``simulate._kept_blocks``)."""
    return _kept_blocks(advection_matrix(spec.flow, spec.N), spec.noise, spec.params["f0"])


# Doubles per b^2 that a run holds at its peak, measured with tracemalloc:
# (per stored block, beside them for the working set of the largest block)
_MEMORY_PER_B2 = {
    "covariance-ladder": (1, 2),    # Q; the solve's two further b x b arrays
    "cellular-support": (1, 2),
    "simulate": (2, 7),             # E_b and L_b; the block and expm of tau a in its step
    "spectrum": (0, 5),             # one sector at a time: s, i s and eigvalsh's workspace
    "growth": (0, 7),               # one sector at a time: s, i s and its eigenvectors
    "dissipation-probe": (0, 11),   # one sector at a time: exp(tA), E^T E, Lanczos
}

# n_a x n_a arrays (n_a stepped rows) that ``simulate`` holds as a window
# folds in, measured with tracemalloc: the run's one co-moment, the
# window's co-moment and the outer product of the merge
_SIMULATE_COMOMENTS = 3


def _simulate_doubles(cfg: SimConfig, rows: int) -> int:
    """Doubles of ``simulate``'s statistics, either scheme: the co-moments and the sample window.

    ``_SIMULATE_COMOMENTS`` arrays of n_a x n_a, and the window of
    ``simulate._window_steps`` samples of n_a rows per member, centred in
    place, for M members on n_a stepped rows.
    """
    return _SIMULATE_COMOMENTS * rows * rows + cfg.ensemble * _window_steps(cfg) * rows


# Arrays of (time points) x (sector rows) that a truncated-exponential
# growth holds per sector: the phases w t, their cosines and sines, the
# states and their squares
_GROWTH_GRID_ARRAYS = 5


def _memory_doubles(spec: ExperimentSpec, sizes: list, stepped=()) -> int:
    """Doubles that one process of a run of ``spec`` holds at its peak.

    For dense blocks of ``sizes`` rows: the blocks a run stores and the
    working set of its largest one, in doubles per b^2 as measured
    (``_MEMORY_PER_B2``), with the statistics of ``simulate`` on the
    ``stepped`` rows (``_simulate_doubles``) and the time grid of
    ``growth``.
    """
    largest = max(sizes, default=0)
    stored, working = _MEMORY_PER_B2[spec.experiment]
    # simulate builds E_b and L_b from its finite-time step before it
    # allocates its statistics, so the peak is the larger of the two
    peak = max(working * largest * largest,
               _simulate_doubles(spec.sim_config, sum(stepped)) if stepped else 0)
    if spec.experiment == "growth" and sizes:
        points = len(_time_grid(max(spec.params["T"]), spec.params["h"], 1000))
        peak += _GROWTH_GRID_ARRAYS * points * largest
    return stored * sum(b * b for b in sizes) + peak


def validate_report(spec: ExperimentSpec) -> str:
    """What ``validate`` prints for a valid ``spec``.

    n, the largest dense block, a memory estimate (``_memory_doubles``) and
    a runtime class from the sum of b^3; for a viscosity ladder, the
    processes that solve it (``_ladder_processes``) and the memory of them
    all, each holding the stored blocks and the working set of its own nu;
    a warning if a dense array of the run passes ``DENSE_CAP``, then the
    warnings of ``spec``.
    """
    stepped = [len(idx) for idx in _stepped_blocks(spec)] if spec.experiment == "simulate" else []
    sizes = _dense_block_sizes(spec, stepped)
    largest, cubes = max(sizes, default=0), sum(b**3 for b in sizes)
    doubles = _memory_doubles(spec, sizes, stepped)
    lines = [
        "ok",
        f"experiment = {spec.experiment}",
        f"dimension = {spec.dimension}",
        f"largest_block = {largest}",
        f"memory_estimate_mb = {doubles * 8 / 1e6:.1f}",
        f"runtime_class = {'seconds' if cubes <= 1e9 else 'minutes' if cubes <= 1e11 else 'tens-of-minutes'}",
    ]
    if "nu_ladder" in spec.params:
        k = _ladder_processes(spec, doubles)
        lines += [f"processes = {k}", f"memory_all_processes_mb = {k * doubles * 8 / 1e6:.1f}"]
    if largest > DENSE_CAP:
        lines.append(f"warning: a dense block of {largest} rows exceeds the dimension cap "
                     f"{DENSE_CAP}; the run will be refused")
    lines += [f"warning: {w}" for w in spec.warnings]
    return "\n".join(lines)


def _error_record(exc: Exception) -> dict:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConfigError):
        record["fields"] = exc.problems
    return record


def _write_error(out: Path, record: dict) -> None:
    """Leave ``record`` as ``out/error.json``, if the directory can be written."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.json").write_text(json.dumps(record) + "\n")
    except OSError:
        pass


def _config_out(path) -> str | None:
    """The ``[experiment] out`` key of a rejected config, if it can still be read."""
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        cfg.read(path)
    except configparser.Error:
        return None
    return cfg.get("experiment", "out", fallback=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusmix", description="Passive-scalar invariant measure experiments."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        spec = parse_spec(args.config)
    except ConfigError as exc:
        if args.command == "validate":
            # the report carries the failures; nonzero exit for scripting
            print("invalid")
            for problem in exc.problems:
                print(f"error: {problem}")
            return 1
        record = _error_record(exc)
        print(json.dumps(record), file=sys.stderr)
        out = args.out if args.out is not None else _config_out(args.config)
        if out is not None:
            _write_error(Path(out), record)
        return 2
    if args.out is not None:
        spec.out = Path(args.out)

    if args.command == "validate":
        print(validate_report(spec))
        return 0

    try:
        run(spec, seed_override=args.seed)
    except Exception as exc:  # numerical failures carry their diagnostics
        record = _error_record(exc)
        print(json.dumps(record), file=sys.stderr)
        _write_error(spec.out, record)
        return 3
    for w in spec.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
