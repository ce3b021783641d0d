"""Seeded experiment configs for the benchmark workloads.

A workload is two parts; each part is a set of experiments built for one
purpose (its builder's docstring says which).  Pairing a part dominated by
interpreted Python (export, the per-member step loop) with one dominated by
BLAS (Schur solves, matrix exponentials) keeps a workload's time steady on
a host whose speed drifts: the drift slows interpreted code much more than
BLAS.  Each pass runs every part, and the traced run reports each part's
time.

Every flow, shear profile and forcing is drawn from the seed with
``random.Random``, so one seed always gives byte-identical INI files.
Those files are the only input that reaches ``torusmix``.  The one
exception is the quadrature oracle of ``stationary``: it has no CLI
experiment, so its inputs are still a generated config, but the benchmark
parses it and calls the covariance layer directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Plain-trig amplitude a of cos(k.x) or sin(k.x) is the orthonormal-basis
# coefficient a * sqrt(2) * pi (basis functions have unit L2 norm on T^2).
_BASIS = math.sqrt(2.0) * math.pi

# psi = sin x sin y, the reference cellular flow of the paper
_REFERENCE_PSI = ("1 -1 cos 2.2214414690791831", "1 1 cos -2.2214414690791831")

# every representative mode with |k|_inf <= 2
_PSI_MODES = [(k1, k2) for k1 in range(3) for k2 in range(-2, 3) if k1 > 0 or k2 > 0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple           # keys of PARTS, run in this order in every pass


def _rec(k1: int, k2: int, parity: str, amp: float) -> str:
    return f"{k1} {k2} {parity} {amp!r}"


def _block(key: str, records) -> str:
    return f"{key} =\n" + "".join(f"    {r}\n" for r in records)


def _random_psi(rng: random.Random, amp: float = 0.5) -> list:
    """Streamfunction with every |k|_inf <= 2 term, plain amplitudes in [-amp, amp]."""
    return [_rec(k1, k2, p, round(rng.uniform(-amp, amp) * _BASIS, 12))
            for k1, k2 in _PSI_MODES for p in ("cos", "sin")]


# cos(jy), sin(jy) terms that are all even, or all odd, about y = pi/2
_MIRRORED = ({(1, "sin"), (2, "cos"), (3, "sin")}, {(1, "cos"), (2, "sin"), (3, "cos")})


def _random_profile(rng: random.Random) -> list:
    """Shear profile of 2 or 3 terms cos(jy)/sin(jy), j <= 3, |amp| in [0.5, 1].

    Profiles invariant under y -> -y (one parity only), under y -> pi - y
    (``_MIRRORED`` classes) or with no j = 1 term split the generator into
    more, smaller blocks.  They are redrawn, so every seed gives the same
    invariant-block structure (48 blocks of at most 66 rows at N = 16) and
    the work per run does not depend on the seed.
    """
    options = [(j, p) for j in (1, 2, 3) for p in ("cos", "sin")]
    while True:
        terms = set(rng.sample(options, rng.randint(2, 3)))
        if (len({p for _, p in terms}) == 2 and any(j == 1 for j, _ in terms)
                and not any(terms <= m for m in _MIRRORED)):
            break
    return [_rec(0, j, p, round(rng.choice((-1, 1)) * rng.uniform(0.5, 1.0), 12))
            for j, p in sorted(terms)]


def _forcing(rng: random.Random) -> list:
    """Every coefficient with |k|^2 <= 2, amplitudes in [0.5, 1.5]."""
    modes = [(0, 1), (1, 0), (1, 1), (1, -1)]
    return [_rec(k1, k2, p, round(rng.uniform(0.5, 1.5), 12))
            for k1, k2 in modes for p in ("cos", "sin")]


def _ladder(rng: random.Random, count: int, lo: float, hi: float) -> str:
    top = rng.uniform(lo, hi)
    return " ".join(repr(round(top / 2**i, 12)) for i in range(count))


def _config(experiment: str, N: int, flow: str, body: str, noise=None,
            threads: int = 1) -> str:
    text = (f"[experiment]\ntype = {experiment}\nN = {N}\nthreads = {threads}\n\n"
            f"[flow]\n{flow}\n")
    if noise is not None:
        text += "[noise]\n" + _block("modes", noise) + "\n"
    return text + f"[{experiment}]\n{body}"


def _cellular(psi) -> str:
    return "kind = cellular\nstreamfunction_N = 2\n" + _block("streamfunction", psi)


def _shear(profile) -> str:
    return "kind = shear\n" + _block("profile", profile)


def _stationary(rng: random.Random):
    """cellular-support ladders for two flows, plus one quadrature agreement.

    (a) sin x sin y at N = 16, 5 nu; (b) a random |k|_inf <= 2
    streamfunction at N = 12, 3 nu; (c) Lyapunov against
    ``covariance_by_quadrature`` at N = 8, a minority share.  Dense
    per-block Schur/Bartels-Stewart is most of the time and export is nil.
    The reference generator splits into 4 invariant blocks of ~n/4, the
    random one is a single block of n, so block or symmetry-sector
    splitting is exercised by (a) and bypassed by (b).
    """
    configs = {
        "support_reference_N16": _config(
            "cellular-support", 16, _cellular(_REFERENCE_PSI),
            f"nu = {_ladder(rng, 5, 0.1, 0.25)}\nbins = 64\ngrid = 256\n",
            noise=_forcing(rng)),
        "support_random_N12": _config(
            "cellular-support", 12, _cellular(_random_psi(rng)),
            f"nu = {_ladder(rng, 3, 0.1, 0.25)}\nbins = 64\ngrid = 256\n",
            noise=_forcing(rng)),
    }
    # Lyapunov vs quadrature at N = 8; nu = 1 keeps the trapezoid short
    oracle = _config("covariance-ladder", 8, _shear(_random_profile(rng)),
                     "nu = 1.0\n", noise=_forcing(rng))
    return configs, oracle


def _ladder_export(rng: random.Random):
    """covariance-ladder on a random shear profile at N = 16, 4 nu.

    The forcing touches x-dependent modes.  Per nu the Lyapunov solve is
    small (48 invariant blocks of at most 66 rows), while
    ``write_covariance`` of the dense 1088 x 1088 Q and the dense
    ``eigvalsh`` calls of the diagnostics take most of the time: a change
    to Q's storage or to export shows here, a change to the solve barely.
    """
    configs = {
        "ladder_shear_N16": _config(
            "covariance-ladder", 16, _shear(_random_profile(rng)),
            f"nu = {_ladder(rng, 4, 0.1, 0.25)}\n", noise=_forcing(rng)),
    }
    return configs, None


ENSEMBLE_SIZE = 16
ENSEMBLE_DT = 0.05
ENSEMBLE_STEPS = 160      # per member, burn-in included
ENSEMBLE_BURN = 40
# SemiImplicitEM is explicit in advection: at dt = 0.05 a faster cellular
# flow makes the step map expanding and the run hits the blow-up guard
ENSEMBLE_PSI_AMP = 0.1


def _ensemble(rng: random.Random):
    """simulate with both schemes on shear N = 6 (n = 168) and cellular N = 8.

    Cellular N = 8 is n = 288; ensemble 16, each run once with threads = 1
    and once with threads = 2, so the thread-pool path is measured at its
    best setting.  Covers the GIL-bound per-member loop and the per-step
    O(n^2) Welford outer product; Lyapunov never runs.
    """
    flows = {"shear_N6": (6, _shear(_random_profile(rng))),
             "cellular_N8": (8, _cellular(_random_psi(rng, ENSEMBLE_PSI_AMP)))}
    configs = {}
    for label, (N, flow) in flows.items():
        nu = round(rng.uniform(0.1, 0.2), 12)
        noise = _forcing(rng)
        sim_seed = rng.randrange(2**32)
        for scheme, tag in (("SemiImplicitEM", "em"), ("ExactGaussian", "exact")):
            for threads in (1, 2):
                body = (f"nu = {nu!r}\nscheme = {scheme}\ndt = {ENSEMBLE_DT!r}\n"
                        f"horizon = {ENSEMBLE_STEPS * ENSEMBLE_DT!r}\n"
                        f"burn_in = {ENSEMBLE_BURN * ENSEMBLE_DT!r}\n"
                        f"ensemble = {ENSEMBLE_SIZE}\nseed = {sim_seed}\n")
                configs[f"simulate_{label}_{tag}_t{threads}"] = _config(
                    "simulate", N, flow, body, noise=noise, threads=threads)
    return configs, None


def _mixing(rng: random.Random):
    """dissipation-probe for sin x sin y at N = 31 and N = 32, spectrum, growth.

    One nu each, t = 1/nu.  The two sizes straddle ``DENSE_CAP``: at N = 31
    the operators are stored dense (slow assembly, large RSS), at N = 32
    sparse.  ``spectrum`` of a random cellular flow at N = 12 and
    truncated-exponential ``growth`` of the reference flow cover the
    spectral layer, which no other workload reaches.
    """
    f0 = [_rec(k1, k2, p, round(rng.uniform(-1.0, 1.0), 12))
          for k1, k2 in ((1, 0), (0, 1), (1, 1), (2, 1)) for p in ("cos", "sin")]
    configs = {
        f"probe_reference_N{N}": _config(
            "dissipation-probe", N, _cellular(_REFERENCE_PSI), "tau = 1.0\nnu = 0.1\n")
        for N in (31, 32)  # dense storage at N = 31, sparse at N = 32 (DENSE_CAP)
    }
    configs["spectrum_random_N12"] = _config(
        "spectrum", 12, _cellular(_random_psi(rng)), "")
    configs["growth_reference_N12"] = _config(
        "growth", 12, _cellular(_REFERENCE_PSI),
        "T = 1.0 2.0 4.0\nmethod = truncated-exponential\nh = 0.01\n"
        + _block("f0", f0))
    return configs, None


# Each part keeps its own generator, seeded "<part>:<seed>", so a part's
# configs do not depend on which workload it sits in.
PARTS = {"stationary": _stationary, "ladder-export": _ladder_export,
         "ensemble": _ensemble, "mixing": _mixing}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "covariance",
            "stationary covariances: support ladders (1 to 4 blocks, Schur solve "
            "dominates) and a 48-block shear ladder (dense export dominates)",
            ("stationary", "ladder-export")),
        Workload(
            "dynamics",
            "time evolution: Monte Carlo simulate (per-member step loop, no "
            "Lyapunov) and dissipation probe, spectrum, growth (semigroup, spectral)",
            ("ensemble", "mixing")),
    )
}


def generate(workload: str, seed: int):
    """Return ({name: ini_text}, oracle_ini_text or None, {name: part}) for one seed.

    The oracle, if any, is named ``"oracle"`` in the part map.
    """
    configs, parts, oracle = {}, {}, None
    for part in WORKLOADS[workload].parts:
        found, part_oracle = PARTS[part](random.Random(f"{part}:{seed}"))
        configs.update(found)
        parts.update(dict.fromkeys(found, part))
        if part_oracle is not None:
            oracle = part_oracle
            parts["oracle"] = part
    return configs, oracle, parts
