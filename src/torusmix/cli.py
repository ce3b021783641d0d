"""Config-driven experiment runner.

Subcommands::

    torusmix validate --config exp.ini
    torusmix run --config exp.ini [--out DIR] [--seed S]

Configs are INI files (sections of key = value pairs); coefficient lists use
the same ``k1 k2 cos|sin amplitude`` records as the field serialization
format, one per line.  See the annotated examples under ``configs/`` and the
schema section of the README.

Every run writes its result CSVs plus ``manifest.txt`` (the fully resolved
config, seed, code version and RNG algorithm -- enough to reproduce the run)
and ``timestamps.txt`` (wall-clock bookkeeping, kept separate so result
payloads are byte-identical across reruns).  Failures exit nonzero and leave
a machine-readable ``error.json``.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .covariance import (
    NoiseSpec,
    block_operator_norm,
    covariance_distance,
    eigenvalue_summary,
    h1_trace,
    lyapunov_covariance,
    shear_limit_covariance,
    write_covariance,
)
from .fields import FourierField, format_record, make_field, mode_table, parse_record
from .flows import Flow, ShearProfile, make_cellular, make_shear
from .operators import (DENSE_CAP, _one_blas_pool, _sector_bounds, advection_matrix, generator,
                        invariant_blocks, semigroup_norm)
from .simulate import RNG_ALGORITHM, SimConfig, empirical_covariance, simulate
from .spectral import _streamline_projector, h1_growth_average, spectrum

EXPERIMENTS = (
    "covariance-ladder",
    "simulate",
    "spectrum",
    "growth",
    "dissipation-probe",
    "cellular-support",
)


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


def _parse_records(text: str):
    return [parse_record(line) for line in text.splitlines() if line.strip()]


def _get_scalar(cfg, section: str, key: str, conv, problems: list,
                fallback=None, required: bool = False):
    """``conv`` of one config value; a missing or malformed value goes to ``problems``."""
    raw = cfg.get(section, key, fallback=None)
    if raw is None:
        if required:
            problems.append(f"{section}.{key}: missing")
        return fallback
    try:
        return conv(raw)
    except ValueError:
        problems.append(f"{section}.{key}: bad value {raw!r}")
        return fallback


def _parse_floats(text: str, name: str, problems: list) -> list:
    try:
        return [float(v) for v in text.split()]
    except ValueError:
        problems.append(f"{name}: expected whitespace-separated numbers, got {text!r}")
        return []


def _build_flow(cfg: configparser.ConfigParser, N: int, problems: list) -> Flow | None:
    if not cfg.has_section("flow"):
        problems.append("flow: section missing")
        return None
    kind = cfg.get("flow", "kind", fallback=None)
    if kind is None:
        problems.append("flow.kind: missing (shear | cellular | custom | none)")
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
        if kind in ("cellular", "custom"):   # 'custom' is the older name
            psi_N = _get_scalar(cfg, "flow", "streamfunction_N", int, problems, N)
            entries = _parse_records(cfg.get("flow", "streamfunction", fallback=""))
            return make_cellular(make_field(psi_N, entries))
    except (ValueError, KeyError) as exc:
        problems.append(f"flow: {exc}")
        return None
    problems.append(f"flow.kind: unknown kind {kind!r}")
    return None


def _build_noise(cfg, N: int, problems: list) -> NoiseSpec | None:
    if not cfg.has_section("noise"):
        return None
    try:
        entries = _parse_records(cfg.get("noise", "modes", fallback=""))
        return NoiseSpec.from_modes(N, entries)
    except ValueError as exc:
        problems.append(f"noise: {exc}")
        return None


_REQUIRED = {
    "covariance-ladder": ("flow", "noise", "nu_ladder"),
    "simulate": ("noise", "nu", "dt", "horizon", "ensemble", "seed"),
    "spectrum": ("flow",),
    "growth": ("flow", "f0", "T"),
    "dissipation-probe": ("flow", "tau", "nu_ladder"),
    "cellular-support": ("flow", "noise", "nu_ladder"),
}


def parse_spec(path) -> ExperimentSpec:
    """Parse + validate a config file; raises ConfigError listing every violation."""
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        read = cfg.read(path)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError([f"{exc.section}.{exc.option}: repeated key (line {exc.lineno})"])
    except configparser.Error as exc:
        raise ConfigError([f"config: {exc}"])
    problems: list = []
    warnings: list = []
    if not read:
        raise ConfigError([f"config file {path!r} not found or unreadable"])
    if not cfg.has_section("experiment"):
        raise ConfigError(["experiment: section missing"])
    experiment = cfg.get("experiment", "type", fallback=None)
    if experiment not in EXPERIMENTS:
        problems.append(
            f"experiment.type: got {experiment!r}, want one of {', '.join(EXPERIMENTS)}"
        )
    N = _get_scalar(cfg, "experiment", "N", int, problems, required=True)
    if N is not None and N < 1:
        problems.append(f"experiment.N: must be >= 1, got {N}")
        N = None
    if N is None or experiment not in EXPERIMENTS:
        raise ConfigError(problems)

    flow = _build_flow(cfg, N, problems)
    noise = _build_noise(cfg, N, problems)
    section = experiment
    params: dict = {}
    sim_config = None

    def need(key: str):
        return key in _REQUIRED[experiment]

    if need("flow") and flow is None and not problems:
        problems.append("flow: this experiment requires a nonzero flow")
    if need("noise") and noise is None:
        problems.append("noise: section with forcing modes required")
    if noise is not None and noise.total_intensity == 0.0 and need("noise"):
        warnings.append("noise: zero total intensity (degenerate experiment)")

    getf = lambda key, fb=None: cfg.get(section, key, fallback=fb)
    scalar = lambda key, conv, fb=None, required=False: _get_scalar(
        cfg, section, key, conv, problems, fb, required)

    if need("nu_ladder"):
        text = getf("nu", "")
        ladder = _parse_floats(text, f"{section}.nu", problems) if text else []
        if not text:
            problems.append(f"{section}.nu: missing viscosity ladder")
        if experiment in ("covariance-ladder", "cellular-support") and any(
            v <= 0 for v in ladder
        ):
            problems.append(f"{section}.nu: requires nu > 0 (no stationary covariance at nu = 0)")
        if experiment == "dissipation-probe" and any(v <= 0 for v in ladder):
            problems.append(f"{section}.nu: requires nu > 0")
        params["nu_ladder"] = ladder

    if experiment == "simulate":
        for key, conv in (("nu", float), ("dt", float), ("horizon", float),
                          ("ensemble", int), ("seed", int)):
            value = scalar(key, conv, required=True)
            if value is not None:
                params[key] = value
        # omitted: five e-folds of the slowest heat rate, 5/(nu lambda_1)
        params["burn_in"] = scalar("burn_in", float)
        params["s"] = scalar("s", float, 1.0)
        params["scheme"] = getf("scheme", "SemiImplicitEM")
        f0_text = getf("f0", "")
        try:
            params["f0"] = make_field(N, _parse_records(f0_text))
        except ValueError as exc:
            problems.append(f"{section}.f0: {exc}")
        if not problems:
            try:
                sim_config = SimConfig(
                    flow=flow, noise=noise,
                    **{key: params[key] for key in ("nu", "scheme", "dt", "horizon",
                                                    "burn_in", "ensemble", "seed", "s")},
                )
            except ValueError as exc:
                problems.append(f"{section}: {exc}")

    if experiment == "growth":
        text = getf("T", "")
        if not text:
            problems.append(f"{section}.T: missing list of horizons")
        params["T"] = _parse_floats(text, f"{section}.T", problems)
        if any(v <= 0 for v in params.get("T", [])):
            problems.append(f"{section}.T: horizons must be positive")
        params["method"] = getf("method", "auto")
        params["h"] = scalar("h", float)
        try:
            params["f0"] = make_field(N, _parse_records(getf("f0", "")))
            if not np.any(params["f0"].coeffs):
                problems.append(f"{section}.f0: zero initial datum rejected")
        except ValueError as exc:
            problems.append(f"{section}.f0: {exc}")

    if experiment == "dissipation-probe":
        tau = scalar("tau", float, required=True)
        if tau is not None:
            params["tau"] = tau
            if tau <= 0:
                problems.append(f"{section}.tau: must be positive")

    if experiment == "cellular-support":
        params["bins"] = scalar("bins", int, 64)
        params["grid"] = scalar("grid", int, max(256, 4 * N))
        if params["bins"] < 2:
            problems.append(f"{section}.bins: need at least 2")
        if params["grid"] < 4 * N:
            problems.append(f"{section}.grid: need grid >= 4 N = {4 * N}")
        if flow is not None and flow.streamfunction is None:
            problems.append("flow: cellular-support requires a cellular flow")

    if flow is not None and flow.max_wavenumber > 2 * N:
        problems.append(
            f"flow: velocity support {flow.max_wavenumber} exceeds 2 N = {2 * N}"
        )

    if problems:
        raise ConfigError(problems)

    out = Path(cfg.get("experiment", "out", fallback="torusmix-out"))
    return ExperimentSpec(
        experiment=experiment, N=N, flow=flow, noise=noise, params=params,
        out=out, sim_config=sim_config, warnings=warnings,
    )


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


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_eigs_csv(path: Path, Q) -> None:
    eigs = eigenvalue_summary(Q)
    _write_csv(path, ["index", "eigenvalue"], list(enumerate(eigs)))


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------


def _run_covariance_ladder(spec: ExperimentSpec, outdir: Path) -> None:
    Q0 = shear_limit_covariance(spec.noise)
    B = advection_matrix(spec.flow, spec.N)
    rows = []
    for i, nu in enumerate(spec.params["nu_ladder"]):
        A = generator(B, nu, spec.N)
        Q = lyapunov_covariance(A, spec.noise)
        write_covariance(Q, outdir / f"covariance_{i:02d}.txt")
        _write_eigs_csv(outdir / f"eigenvalues_{i:02d}.csv", Q)
        rows.append(
            (nu, h1_trace(Q), block_operator_norm(Q, "k1-nonzero"),
             covariance_distance(Q, Q0))
        )
    _write_csv(outdir / "summary.csv",
               ["nu", "h1_trace", "offblock_norm", "dist_to_Q0"], rows)


def _run_simulate(spec: ExperimentSpec, outdir: Path, seed_override) -> None:
    config = spec.sim_config
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    stats = simulate(config, spec.params["f0"])
    stats.write_csv(outdir / "stats.csv")
    Q = empirical_covariance(stats)
    write_covariance(Q, outdir / "empirical_covariance.txt")
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
    rows = []
    for nu in spec.params["nu_ladder"]:
        A = generator(B, nu, spec.N)
        t = tau / nu
        rows.append((nu, t, semigroup_norm(A, t), math.exp(-nu * t)))
    _write_csv(outdir / "probe.csv", ["nu", "t", "norm", "heat_bound"], rows)


# Eigenvalues of Q within this relative distance of the largest one span the
# top eigenspace of ``cellular-support``: far above the round-off split of
# an exactly degenerate pair (2e-14 to 3e-13 in
# configs/cellular_support_default.ini) and far below its real gaps (3.7e-3).
_TOP_CLUSTER_RTOL = 1e-10


def _top_eigenspace(Q) -> tuple:
    """(top eigenvalue of Q, orthonormal basis of its top eigenspace as fields).

    The eigenvalues within ``_TOP_CLUSTER_RTOL`` of the largest, taken
    across the stored blocks of Q.
    """
    n = mode_table(Q.N).size
    # without forcing Q = 0, and e_{n-1} stands for its top eigenspace
    pairs = Q.blocks.eigh() or [(np.array([n - 1]), np.zeros(1), np.ones((1, 1)))]
    top = max(vals[-1] for _, vals, _ in pairs)
    basis = []
    for idx, vals, vecs in pairs:
        for j in np.flatnonzero(vals >= top - _TOP_CLUSTER_RTOL * top):
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
    tops = [_top_eigenspace(lyapunov_covariance(generator(B, nu, spec.N), spec.noise))
            for nu in p["nu_ladder"]]
    # psi is ranked once per run, after the solves: bins held through the
    # solves raised the peak RSS of the covariance benchmark by about 2 MB
    project = _streamline_projector(spec.flow, p["bins"], p["grid"])
    rows = [(nu, top, *_streamline_deviations(project, basis))
            for nu, (top, basis) in zip(p["nu_ladder"], tops)]
    _write_csv(outdir / "support.csv",
               ["nu", "top_eigenvalue", "rel_deviation", "idempotence_deviation"], rows)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(spec: ExperimentSpec, seed_override=None) -> None:
    outdir = spec.out
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    _write_manifest(spec, outdir, seed_override)
    with _one_blas_pool():
        if spec.experiment == "covariance-ladder":
            _run_covariance_ladder(spec, outdir)
        elif spec.experiment == "simulate":
            _run_simulate(spec, outdir, seed_override)
        elif spec.experiment == "spectrum":
            _run_spectrum(spec, outdir)
        elif spec.experiment == "growth":
            _run_growth(spec, outdir)
        elif spec.experiment == "dissipation-probe":
            _run_dissipation_probe(spec, outdir)
        elif spec.experiment == "cellular-support":
            _run_cellular_support(spec, outdir)
        else:  # pragma: no cover - parse_spec guards this
            raise ConfigError([f"experiment.type: unknown {spec.experiment!r}"])
    finished = time.time()
    (outdir / "timestamps.txt").write_text(
        f"started_unix = {started:.3f}\nfinished_unix = {finished:.3f}\n"
        f"elapsed_seconds = {finished - started:.3f}\n"
    )


def _dense_block_sizes(spec: ExperimentSpec) -> list:
    """Rows of each dense block a run of ``spec`` builds, from the sparsity of B.

    The Lyapunov experiments solve the forced invariant blocks, ExactGaussian
    steps the blocks that the noise forces or f0 touches, and ``spectrum``
    takes every invariant block.  ``dissipation-probe`` takes the distinct
    symmetry sectors of more than one row and at most ``DENSE_CAP`` rows
    (Lanczos takes a larger one): an upper bound, as the heat bound of
    ``semigroup_norm`` may skip sectors.  The other experiments build no
    dense block.  No solve is run.
    """
    if spec.experiment == "dissipation-probe":
        sectors = _sector_bounds(advection_matrix(spec.flow, spec.N))
        return [V.shape[1] for _, _, V in sectors if 1 < V.shape[1] <= DENSE_CAP]
    if spec.experiment == "simulate" and spec.params["scheme"] == "ExactGaussian":
        used = np.abs(spec.noise.amps) + np.abs(spec.params["f0"].coeffs)
    elif spec.experiment in ("covariance-ladder", "cellular-support", "spectrum"):
        used = np.ones(spec.dimension) if spec.experiment == "spectrum" else spec.noise.amps
    else:
        return []
    return [len(idx) for idx in invariant_blocks(advection_matrix(spec.flow, spec.N))
            if used[idx].any()]


def validate_report(spec: ExperimentSpec) -> str:
    """What ``validate`` prints for a valid ``spec``.

    n, the largest dense block, the memory of the dense blocks (the sum of
    b^2 doubles) and a runtime class from the sum of b^3; a warning if the
    largest block passes ``DENSE_CAP``, then the warnings of ``spec``.
    """
    sizes = _dense_block_sizes(spec)
    largest, cubes = max(sizes, default=0), sum(b**3 for b in sizes)
    lines = [
        "ok",
        f"experiment = {spec.experiment}",
        f"dimension = {spec.dimension}",
        f"largest_block = {largest}",
        f"memory_estimate_mb = {sum(b * b for b in sizes) * 8 / 1e6:.1f}",
        f"runtime_class = {'seconds' if cubes <= 1e9 else 'minutes' if cubes <= 1e11 else 'tens-of-minutes'}",
    ]
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
        print(json.dumps(_error_record(exc)), file=sys.stderr)
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
        try:
            spec.out.mkdir(parents=True, exist_ok=True)
            (spec.out / "error.json").write_text(json.dumps(record) + "\n")
        except OSError:
            pass
        return 3
    for w in spec.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
