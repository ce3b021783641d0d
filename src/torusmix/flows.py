"""Divergence-free Lipschitz velocity fields on T².

Two families are supported:

* shear flows  u(x, y) = (u(y), 0)  with u a trigonometric polynomial,
* cellular flows  u = grad^perp(psi) = (-d_y psi, d_x psi)  for any
  trigonometric-polynomial streamfunction psi (the workhorse instance is
  psi = sin(x) sin(y)); beyond incompressibility the caller asserts any
  hypotheses the diagnostics downstream may rely on.

Velocity components are stored as finite complex Fourier expansions in the
plain convention  u_j(x) = sum_m uhat_j[m] exp(i m.x),  which is what the
Galerkin assembly in :mod:`torusmix.operators` consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import FourierField, make_field

__all__ = [
    "ShearProfile",
    "Flow",
    "make_shear",
    "make_cellular",
    "velocity_coefficients",
    "sin_shear",
    "default_cellular_flow",
    "cellular_streamfunction",
]


@dataclass(frozen=True)
class ShearProfile:
    """Trigonometric shear profile u(y) = sum_j a_j cos(j y) + b_j sin(j y).

    ``cos_amps[j-1]`` is the amplitude of cos(j y) and ``sin_amps[j-1]`` of
    sin(j y), j = 1 .. max wavenumber.  A nonzero profile automatically has
    a derivative with finitely many zeros on [0, 2 pi).
    """

    cos_amps: tuple = ()
    sin_amps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_amps", tuple(float(a) for a in self.cos_amps))
        object.__setattr__(self, "sin_amps", tuple(float(b) for b in self.sin_amps))

    @property
    def max_wavenumber(self) -> int:
        m = 0
        for j, a in enumerate(self.cos_amps, start=1):
            if a != 0.0:
                m = j
        for j, b in enumerate(self.sin_amps, start=1):
            if b != 0.0:
                m = max(m, j)
        return m

    def is_zero(self) -> bool:
        return self.max_wavenumber == 0

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for j, a in enumerate(self.cos_amps, start=1):
            if a:
                out += a * np.cos(j * y)
        for j, b in enumerate(self.sin_amps, start=1):
            if b:
                out += b * np.sin(j * y)
        return out

    def derivative(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for j, a in enumerate(self.cos_amps, start=1):
            if a:
                out += -a * j * np.sin(j * y)
        for j, b in enumerate(self.sin_amps, start=1):
            if b:
                out += b * j * np.cos(j * y)
        return out

    def complex_coefficients(self) -> dict:
        """{(0, j): uhat} over j != 0, plain exp(i j y) convention."""
        coeffs = {}
        for j, a in enumerate(self.cos_amps, start=1):
            if a:
                coeffs[(0, j)] = coeffs.get((0, j), 0.0) + a / 2.0
                coeffs[(0, -j)] = coeffs.get((0, -j), 0.0) + a / 2.0
        for j, b in enumerate(self.sin_amps, start=1):
            if b:
                coeffs[(0, j)] = coeffs.get((0, j), 0.0) - 1j * b / 2.0
                coeffs[(0, -j)] = coeffs.get((0, -j), 0.0) + 1j * b / 2.0
        return coeffs


def _count_derivative_zeros(profile: ShearProfile, samples: int = 10_000) -> int:
    """Sign changes of u' on a dense grid; finite for nonzero trig polynomials."""
    y = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    du = profile.derivative(y)
    signs = np.sign(du)
    nonzero = signs[signs != 0]
    if nonzero.size == 0:
        return 0
    changes = int(np.count_nonzero(nonzero[1:] != nonzero[:-1]))
    # periodic wrap
    if nonzero[0] != nonzero[-1]:
        changes += 1
    return changes


@dataclass(frozen=True)
class Flow:
    """Immutable divergence-free velocity field.

    ``velocity`` maps a mode (m1, m2) to the complex pair (uhat_1, uhat_2)
    in the plain exponential convention.  ``lipschitz_bound`` is the triangle
    bound sum_m |m| |uhat_m| >= ||u||_Lip.
    """

    kind: str                                # 'shear' | 'cellular'
    velocity: dict = field(repr=False)
    max_wavenumber: int = 0
    lipschitz_bound: float = 0.0
    profile: ShearProfile | None = None      # shear only
    streamfunction: FourierField | None = None   # cellular only
    nondegenerate: bool = True
    profile_critical_points: int = 0         # zeros of u' found by sampling

    def velocity_on_grid(self, M: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample both velocity components on the uniform M x M grid."""
        x = 2.0 * math.pi * np.arange(M) / M
        X, Y = np.meshgrid(x, x, indexing="ij")
        u1 = np.zeros((M, M), dtype=complex)
        u2 = np.zeros((M, M), dtype=complex)
        for (m1, m2), (a1, a2) in self.velocity.items():
            phase = np.exp(1j * (m1 * X + m2 * Y))
            u1 += a1 * phase
            u2 += a2 * phase
        return u1.real, u2.real


def _finalize(kind: str, velocity: dict, **extra) -> Flow:
    velocity = {m: (complex(a1), complex(a2)) for m, (a1, a2) in velocity.items()
                if a1 != 0 or a2 != 0}
    max_wn = max((max(abs(m[0]), abs(m[1])) for m in velocity), default=0)
    lip = sum(
        math.hypot(m[0], m[1]) * math.hypot(abs(a1), abs(a2))
        for m, (a1, a2) in velocity.items()
    )
    return Flow(kind=kind, velocity=velocity, max_wavenumber=max_wn,
                lipschitz_bound=lip, **extra)


def make_shear(profile: ShearProfile) -> Flow:
    """Shear flow u(x, y) = (u(y), 0) from a nonzero profile."""
    if profile.is_zero():
        raise ValueError("zero shear profile rejected")
    velocity = {m: (c, 0.0) for m, c in profile.complex_coefficients().items()}
    zeros = _count_derivative_zeros(profile)
    return _finalize("shear", velocity, profile=profile,
                     nondegenerate=True, profile_critical_points=zeros)


def _perp_gradient_velocity(psi: FourierField) -> dict:
    """Velocity coefficients of u = grad^perp(psi), plain convention."""
    table = psi.table
    velocity: dict = {}
    cos_rows = np.flatnonzero(table.parity == 0)
    for i in cos_rows:
        k1, k2 = int(table.k1[i]), int(table.k2[i])
        a = psi.coeffs[i]
        b = psi.coeffs[i + 1]  # sine partner is adjacent in the ordering
        if a == 0.0 and b == 0.0:
            continue
        z = (a - 1j * b) / math.sqrt(2.0) / (2.0 * math.pi)  # psi-hat, plain convention
        for (m1, m2), zh in (((k1, k2), z), ((-k1, -k2), np.conj(z))):
            u1, u2 = velocity.get((m1, m2), (0.0, 0.0))
            velocity[(m1, m2)] = (u1 - 1j * m2 * zh, u2 + 1j * m1 * zh)
    return velocity


def make_cellular(psi: FourierField) -> Flow:
    """Cellular flow u = grad^perp(psi); divergence-free by construction."""
    if not np.any(psi.coeffs):
        raise ValueError("zero streamfunction rejected")
    velocity = _perp_gradient_velocity(psi)
    return _finalize("cellular", velocity, streamfunction=psi)


def velocity_coefficients(flow: Flow) -> list:
    """Finite Fourier expansion of the velocity: [(mode, (uhat1, uhat2)), ...]."""
    if flow is None:
        return []
    return sorted(flow.velocity.items(), key=lambda kv: (kv[0][0], kv[0][1]))


def sin_shear() -> Flow:
    """The reference shear flow u(y) = sin y."""
    return make_shear(ShearProfile(sin_amps=(1.0,)))


def cellular_streamfunction(N: int = 2) -> FourierField:
    """psi = sin(x) sin(y) = (cos(x - y) - cos(x + y)) / 2 as a FourierField."""
    amp = math.pi / math.sqrt(2.0)  # 1/2 * (2 pi / sqrt 2)
    return make_field(N, [((1, -1), "cos", amp), ((1, 1), "cos", -amp)])


def default_cellular_flow(N: int = 2) -> Flow:
    """The reference cellular flow u = grad^perp(sin x sin y)."""
    return make_cellular(cellular_streamfunction(N))
