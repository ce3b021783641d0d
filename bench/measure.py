"""One benchmark process: set up a workload, run it for a time budget, report.

Run by ``run.py`` in a fresh interpreter, with the BLAS thread count already
fixed in the environment, so that set-up time and peak RSS include the
imports and the first-call cache fills a user pays for::

    python3 bench/measure.py --workload W --seed S --seconds T --trace 0|1 \
        --tmp DIR [--setup-only]

Set-up is: import ``torusmix``, write the seeded configs, ``parse_spec``
each one.  Then whole passes over the workload repeat until the next pass
would overrun ``--seconds`` (at least two, so that payload hashes can be
compared across repetitions).  With ``--trace 1`` passes alternate
between untraced and traced.  Between passes, ``SETUP_PROBES`` fresh
interpreters run with ``--setup-only``, spread evenly over the run, so the
set-up samples span the same stretch of time as the passes; the process
waits for each.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 6          # fresh set-up-only processes per run
PROBE_TIMEOUT_S = 60


def _import_torusmix():
    sys.path.insert(0, str(ROOT / "src"))
    import torusmix
    import torusmix.cli

    where = Path(torusmix.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"torusmix imported from {where}, not from {ROOT / 'src'}")
    return torusmix


class Runner:
    """The generated configs of one workload, parsed, plus their runner."""

    def __init__(self, torusmix, name: str, seed: int, tmp: Path):
        self.tm = torusmix
        self.tmp = tmp
        (tmp / "configs").mkdir(parents=True, exist_ok=True)
        configs, oracle, self.part_of = workloads.generate(name, seed)
        self.paths = {cname: self._write(cname, text) for cname, text in configs.items()}
        self.specs = {cname: torusmix.cli.parse_spec(str(p)) for cname, p in self.paths.items()}
        self.oracle = (torusmix.cli.parse_spec(str(self._write("oracle", oracle)))
                       if oracle else None)

    def _write(self, cname: str, text: str) -> Path:
        path = self.tmp / "configs" / f"{cname}.ini"
        path.write_text(text)
        return path

    def run_pass(self, index: int, tracer: Tracer | None) -> dict:
        """One pass over every config; only the calls into torusmix are timed."""
        cli = self.tm.cli
        wall = 0.0
        part_walls = dict.fromkeys(workloads.PARTS, 0.0)
        digests, problems = {}, []
        output_bytes = failed = 0
        if tracer is not None:
            tracer.reset()
            tracer.install(self.tm)
        try:
            for cname, path in self.paths.items():
                out = self.tmp / f"pass{index}" / cname
                t = time.perf_counter()
                code = cli.main(["run", "--config", str(path), "--out", str(out)])
                t = time.perf_counter() - t
                wall += t
                part_walls[self.part_of[cname]] += t
                found = checks.check_run(self.specs[cname], out, code)
                failed += bool(found)
                problems += [f"{cname}: {p}" for p in found]
                digests[cname], size = checks.payload_digest(out)
                output_bytes += size
                shutil.rmtree(out, ignore_errors=True)
            if self.oracle is not None:
                oracle_wall, found = self._run_oracle(digests)
                wall += oracle_wall
                part_walls[self.part_of["oracle"]] += oracle_wall
                failed += bool(found)
                problems += found
        finally:
            if tracer is not None:
                tracer.uninstall()
        layers = None
        if tracer is not None:
            layers = self._layer_metrics(tracer, wall, output_bytes)
        return {"wall_s": wall, "part_walls_s": part_walls, "digests": digests, "problems": problems,
                "failed": failed, "attempted": len(self.paths) + (self.oracle is not None),
                "layers": layers}

    def _run_oracle(self, digests: dict) -> tuple:
        tm, spec = self.tm, self.oracle
        nu = spec.params["nu_ladder"][0]
        t = time.perf_counter()
        A = tm.generator(spec.flow, nu, spec.N)
        Ql = tm.lyapunov_covariance(A, spec.noise)
        Qq = tm.covariance_by_quadrature(A, spec.noise, T=checks.ORACLE_T / nu,
                                         h=checks.ORACLE_H / nu)
        wall = time.perf_counter() - t
        found = checks.oracle_check(Ql, Qq)
        digests["oracle"] = hashlib.sha256(Ql.matrix.tobytes() + Qq.matrix.tobytes()).hexdigest()
        return wall, [f"oracle: {p}" for p in found]

    @staticmethod
    def _layer_metrics(tracer: Tracer, wall: float, output_bytes: int) -> dict:
        layers = {f"{k}_s": v for k, v in tracer.layer_self_times().items()}
        out = {name: layers.pop(name, 0.0) for name in NAMED_LAYER_TIMES}
        out["other_s"] = sum(layers.values())
        counts = dict(tracer.counts)
        counts.update(tracer.maxima)
        for name in NAMED_COUNTS:
            out[name] = counts.get(name, 0.0)
        # stepping-loop throughput: simulate's self time, without the
        # increment covariance and operator assembly it calls
        run_s = out["simulate.run_s"]
        out["simulate.member_steps_per_s"] = (
            out["simulate.member_steps"] / run_s if run_s > 0 else 0.0)
        out["cli.output_mb"] = output_bytes / 1e6
        out["trace.wall_s"] = wall
        out["trace.self_share"] = sum(tracer.self_times().values()) / wall
        return out


NAMED_LAYER_TIMES = (
    "operators.assembly_s", "operators.blocks_s", "operators.semigroup_norm_s",
    "covariance.lyapunov_s", "covariance.quadrature_s", "covariance.diagnostics_s",
    "covariance.export_s", "simulate.run_s", "simulate.increment_s",
    "simulate.empirical_s", "spectral.spectrum_s", "spectral.growth_s",
    "spectral.streamline_s", "fields.grid_s", "fields.other_s", "flows.build_s",
    "cli.parse_s", "cli.run_self_s", "cli.main_self_s",
)
PART_TIMES = tuple(f"part.{part}_s" for part in workloads.PARTS)
NAMED_COUNTS = (
    "operators.assembly_calls", "operators.dense_mb", "operators.block_count",
    "operators.block_max", "operators.block_cube_sum", "operators.semigroup_norm_calls",
    "covariance.lyapunov_calls", "covariance.residual_fro_max",
    "covariance.quadrature_steps", "covariance.export_mb", "simulate.member_steps",
    "simulate.samples", "fields.grid_calls",
)
# every metric a --trace 1 run reports, in BENCHMARK.json order
PER_LAYER = (
    NAMED_LAYER_TIMES + PART_TIMES + NAMED_COUNTS
    + ("simulate.member_steps_per_s", "cli.output_mb", "other_s", "trace.wall_s",
       "trace.untraced_wall_s", "trace.overhead_s", "trace.self_share")
)


def _openblas() -> list:
    """(library, config string, threads in use) for each OpenBLAS numpy/scipy load."""
    import ctypes
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    found = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib_path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(lib_path))
            entry = {"package": pkg.__name__, "library": lib_path.name}
            for suffix in ("64_", ""):
                for prefix in ("scipy_openblas", "openblas"):
                    cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if cfg is not None and threads is not None and "config" not in entry:
                        cfg.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                        entry["config"] = cfg().decode()
                        entry["threads"] = threads()
            found.append(entry)
    return found


def _commit() -> str | None:
    """Commit hash from .git in the checkout, if there is one (no git process)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
    }


def _median_layers(passes: list) -> dict:
    traced = [p["layers"] for p in passes if p["layers"] is not None]
    return {k: statistics.median(t[k] for t in traced) for k in traced[0]}


def _probe(args, index: int) -> float:
    """Set-up time of a fresh ``--setup-only`` interpreter; waits for it to end."""
    tmp = args.tmp.parent / f"{args.tmp.name}-probe{index}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--tmp", str(tmp), "--setup-only"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    torusmix = _import_torusmix()
    work = Runner(torusmix, args.workload, args.seed, args.tmp)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    passes, durations, setups = [], [], [setup_s]
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(work.run_pass(len(passes), tracer if traced else None))
        durations.append(time.perf_counter() - t)
        # the probes due by now, if SETUP_PROBES were spread over --seconds
        due = SETUP_PROBES * min(1.0, (time.perf_counter() - start) / args.seconds)
        while len(setups) - 1 < due:
            setups.append(_probe(args, len(setups)))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + statistics.median(durations) > args.seconds:
            break
    while len(setups) - 1 < SETUP_PROBES:
        setups.append(_probe(args, len(setups)))

    problems = [p for run in passes for p in run["problems"]]
    failed = sum(run["failed"] for run in passes)
    for cname in passes[0]["digests"]:
        digests = [run["digests"][cname] for run in passes]
        if checks.repeat_failures(digests):
            failed += checks.repeat_failures(digests)
            problems.append(f"{cname}: payload differs across repetitions")
    untraced = [run for run in passes if run["layers"] is None]
    result = {
        "setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "wall_s": statistics.median(run["wall_s"] for run in untraced),
        "pass_walls_s": [run["wall_s"] for run in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(run["attempted"] for run in passes),
        "failed": failed,
        "problems": problems[:20],
        "digests": passes[0]["digests"],
        "environment": environment(),
    }
    if tracer is not None:
        layers = _median_layers(passes)
        layers["trace.untraced_wall_s"] = result["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["wall_s"]
        for part in workloads.PARTS:
            layers[f"part.{part}_s"] = statistics.median(
                run["part_walls_s"][part] for run in untraced)
        result["layers"] = {name: layers[name] for name in PER_LAYER}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
