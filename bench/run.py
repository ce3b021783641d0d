"""torusmix benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Each run starts one fresh
interpreter with BLAS threads = nproc that sets up (imports ``torusmix``,
writes and parses the seeded configs) and runs the workload for
``--seconds``; between its passes it starts set-up-only interpreters
(see ``measure.py``).

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(median over every process's set-up), ``wall_s`` (median pass time over
all experiment runs) and ``peak_rss_mb`` of the workload process.  With
``--trace 1`` they are the per-layer self times and counts of the traced
passes, each part's time in the untraced passes, and the tracing
overhead.  Before the result, one line
``record {...}`` carries the environment, pass times, hashes and any
failed checks.  The last line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170          # every process started here ends before this

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _per_layer_unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_share", "ratio"), ("_fro_max", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def _child(args, tmp, env) -> dict:
    cmd = [sys.executable, str(BENCH / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    # own process group, so that a timeout also ends the set-up probe it may
    # be waiting for
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "torusmix" / "__init__.py").is_file():
        print(f"no torusmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        res = _child(args, tmp / "run", env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    if args.trace:
        metrics = {k: {"value": v, "unit": _per_layer_unit(k)}
                   for k, v in sorted(res.pop("layers").items())}
    else:
        values = {"setup_s": res["setup_s"], "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    record = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, blas_threads_set=nproc)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
