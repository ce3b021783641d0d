"""Output checks behind the benchmark's failure count.

A run fails when it exits nonzero, leaves an ``error.json``, breaks one of
the exact identities or bounds below, or its result payload (every file
except ``timestamps.txt``) hashes differently across repetitions of one
seed.  Only the hashes outlive a run; its outputs are deleted after checking.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# ||Q_lyap - Q_quad||_F <= ORACLE_TOL ||Q_lyap||_F.  The trapezoid error is
# (h w)^2 / 12 for a mode of rate w; with h = 0.0025 / nu and the forced
# low modes' rates below ~10 nu that is under 5e-5; 3e-6 to 7e-6 was
# measured over 30 seeds.  The tail beyond T = 10 / nu is below exp(-20)
# of the total.
ORACLE_TOL = 1e-4
ORACLE_T = 10.0           # in units of 1 / nu
ORACLE_H = 0.0025         # in units of 1 / nu


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _ladder(spec, out: Path) -> list:
    half = spec.noise.total_intensity / 2.0
    return [f"h1_trace {r['h1_trace']!r} != ||Psi||^2/2 = {half!r} at nu = {r['nu']!r}"
            for r in _rows(out / "summary.csv")
            if not abs(r["h1_trace"] - half) <= 1e-10 * half]


def _support(spec, out: Path) -> list:
    # lambda_1 = 1 on the torus, so ||Q||_op <= ||Psi||^2 / 2
    cap = spec.noise.total_intensity / 2.0
    problems = []
    for r in _rows(out / "support.csv"):
        if not 0.0 < r["top_eigenvalue"] <= cap:
            problems.append(f"top_eigenvalue {r['top_eigenvalue']!r} outside (0, {cap!r}]")
        if not 0.0 <= r["rel_deviation"] <= 1.0:
            problems.append(f"rel_deviation {r['rel_deviation']!r} outside [0, 1]")
    return problems


def _probe(spec, out: Path) -> list:
    return [f"norm {r['norm']!r} exceeds heat bound {r['heat_bound']!r}"
            for r in _rows(out / "probe.csv")
            if not r["norm"] <= r["heat_bound"] * (1.0 + 1e-8)]


def _spectrum(spec, out: Path) -> list:
    lam = [r["lambda"] for r in _rows(out / "spectrum.csv")]
    scale = max([1.0] + [abs(v) for v in lam])
    worst = max((abs(a + b) for a, b in zip(lam, reversed(lam))), default=0.0)
    return [] if worst <= 1e-10 * scale else [f"frequencies not paired: defect {worst!r}"]


def _finite(name: str):
    def check(spec, out: Path) -> list:
        rows = _rows(out / name)
        bad = [r for r in rows if not all(math.isfinite(v) for v in r.values())]
        return [f"{name}: non-finite values"] if bad or not rows else []
    return check


CHECKS = {
    "covariance-ladder": _ladder,
    "cellular-support": _support,
    "dissipation-probe": _probe,
    "spectrum": _spectrum,
    "simulate": _finite("stats.csv"),
    "growth": _finite("growth.csv"),
}


def check_run(spec, out: Path, exit_code: int) -> list:
    """Problems found in one experiment run's outputs (empty list: passed)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if (out / "error.json").exists():
        return ["error.json written"]
    try:
        return CHECKS[spec.experiment](spec, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def payload_digest(out: Path) -> tuple:
    """(sha256 over every result file except timestamps.txt, bytes hashed)."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel == "timestamps.txt":
            continue
        data = path.read_bytes()
        size += len(data)
        digest.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest(), size


def oracle_check(Ql, Qq) -> list:
    """Problems found comparing the Lyapunov and quadrature covariances."""
    import numpy as np

    dist = float(np.linalg.norm(Ql.matrix - Qq.matrix) / np.linalg.norm(Ql.matrix))
    return [] if dist <= ORACLE_TOL else [f"distance {dist:.3e} > {ORACLE_TOL:g}"]


def repeat_failures(digests: list) -> int:
    """Runs whose payload digest differs from the first repetition's."""
    return sum(d != digests[0] for d in digests[1:])
