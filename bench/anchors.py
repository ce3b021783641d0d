"""Re-measure the ROADMAP's baseline figures with the benchmark's settings.

    python3 bench/anchors.py

Prints one JSON object: ``generator`` at N = 31 (stored dense) and N = 32
(stored sparse) for the reference cellular flow, one Lyapunov solve of the
reference flow at N = 16 with every |k|^2 <= 2 coefficient forced, and
``simulate`` throughput at n = 168 (sin y shear, N = 6, ensemble 16) for
both schemes, over the whole call and over the stepping loop alone (the
call's self time, without the increment covariance).  BLAS threads are
set to nproc as in ``run.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
_NPROC = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _NPROC
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import torusmix  # noqa: E402
from measure import environment  # noqa: E402
from tracer import Tracer  # noqa: E402


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main() -> int:
    tm = torusmix
    cell = tm.default_cellular_flow()
    out = {
        "generator_N31_ms": 1e3 * _median_s(lambda: tm.generator(cell, 0.1, 31), 5),
        "generator_N32_ms": 1e3 * _median_s(lambda: tm.generator(cell, 0.1, 32), 5),
    }
    noise = tm.NoiseSpec.from_modes(16, [(m, p, 1.0) for m in ((0, 1), (1, 0), (1, 1), (1, -1))
                                         for p in ("cos", "sin")])
    A = tm.generator(cell, 0.1, 16)
    out["lyapunov_N16_s"] = _median_s(lambda: tm.lyapunov_covariance(A, noise), 3)

    noise6 = tm.NoiseSpec.from_modes(6, [((0, 1), "cos", 1.0)])
    for scheme, dt in (("SemiImplicitEM", 0.05), ("ExactGaussian", 0.5)):
        config = tm.SimConfig(flow=tm.sin_shear(), nu=0.1, noise=noise6, scheme=scheme,
                              dt=dt, horizon=200 * dt, burn_in=20 * dt, ensemble=16, seed=1)
        member_steps = 16 * 200
        tracer = Tracer()
        tracer.install(tm)
        try:
            t = time.perf_counter()
            tm.simulate(config, tm.make_field(6, []))
            wall = time.perf_counter() - t
        finally:
            tracer.uninstall()
        out[f"simulate_n168_{scheme}_per_s"] = member_steps / wall
        out[f"simulate_n168_{scheme}_stepping_per_s"] = (
            member_steps / tracer.self_times()["simulate"])
    out["environment"] = environment()
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
