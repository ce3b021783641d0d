"""Truncated real Fourier representation of mean-zero scalar fields on T².

The domain is the 2-torus [0, 2pi]^2.  Every field is real valued and
mean free, stored as coefficients on the L2-orthonormal trigonometric basis

    c_k(x, y) = (sqrt(2)/(2 pi)) cos(k1 x + k2 y)
    s_k(x, y) = (sqrt(2)/(2 pi)) sin(k1 x + k2 y)

with one (cos, sin) pair per half-lattice representative k = (k1, k2),
i.e. k1 > 0, or k1 == 0 and k2 > 0.  With this normalization Parseval is
an exact coefficient sum: ||f||_{L2}^2 = sum of squared amplitudes.

Canonical coefficient ordering
------------------------------
For truncation order N (|k1| <= N and |k2| <= N) the representatives are
sorted by the key

    (|k|^2, |k1|, |k2|, k1, k2)

(ascending Laplacian eigenvalue, ties broken lexicographically), and each
representative contributes its cosine coefficient followed by its sine
coefficient.  The flat coefficient vector has length (2N+1)^2 - 1.  All
matrix-valued operators in this package act on this ordering, and the
serialization format below documents it.

Serialization format (one field per file)::

    # torusmix field v1
    N <truncation>
    <k1> <k2> cos|sin <amplitude, %.17g>
    ...

Amplitudes are written with 17 significant digits, which round-trips IEEE
doubles exactly.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Mode",
    "ModeTable",
    "FourierField",
    "mode_table",
    "make_field",
    "sobolev_norm",
    "project_low",
    "project_low_eigencount",
    "laplacian_eigenvalues",
    "sample_grid",
    "field_from_grid",
    "write_field",
    "read_field",
]

PARITIES = ("cos", "sin")


class Mode(NamedTuple):
    """Integer wavenumber pair (k1, k2); (0, 0) is excluded (mean-zero)."""

    k1: int
    k2: int

    @property
    def lam(self) -> int:
        """Laplacian eigenvalue |k|^2 of the associated basis pair."""
        return self.k1 * self.k1 + self.k2 * self.k2

    def is_representative(self) -> bool:
        return self.k1 > 0 or (self.k1 == 0 and self.k2 > 0)

    def representative(self) -> "Mode":
        """The half-lattice representative of {k, -k}."""
        return self if self.is_representative() else Mode(-self.k1, -self.k2)


def _validate_mode(mode: Sequence[int], N: int) -> Mode:
    k1, k2 = int(mode[0]), int(mode[1])
    if (k1, k2) == (0, 0):
        raise ValueError("mode (0, 0) is excluded: fields are mean-zero")
    if abs(k1) > N or abs(k2) > N:
        raise ValueError(f"mode ({k1}, {k2}) outside truncation |k|_inf <= {N}")
    return Mode(k1, k2)


@dataclass(frozen=True)
class ModeTable:
    """Canonical ordering data for one truncation order N.

    Arrays are aligned with the flat coefficient vector: entry i describes
    the basis function of coefficient i.
    """

    N: int
    k1: np.ndarray          # int, shape (n,)
    k2: np.ndarray          # int, shape (n,)
    lam: np.ndarray         # |k|^2 per coefficient, shape (n,)
    parity: np.ndarray      # 0 = cos, 1 = sin, shape (n,)
    index: dict             # (k1, k2, parity_str) -> flat index

    @property
    def size(self) -> int:
        return self.k1.shape[0]

    def coefficient_index(self, mode: Sequence[int], parity: str) -> int:
        m = _validate_mode(mode, self.N)
        rep = m.representative()
        if parity not in PARITIES:
            raise ValueError(f"parity must be 'cos' or 'sin', got {parity!r}")
        # c_{-k} = c_k, s_{-k} = -s_k: callers who pass the non-representative
        # mode get the representative slot; the sign flip is their concern.
        return self.index[(rep.k1, rep.k2, parity)]


@lru_cache(maxsize=None)
def mode_table(N: int) -> ModeTable:
    """Build (and cache) the canonical mode table for truncation N."""
    if N < 1:
        raise ValueError("truncation order N must be >= 1")
    reps = [
        Mode(k1, k2)
        for k1 in range(0, N + 1)
        for k2 in range(-N, N + 1)
        if Mode(k1, k2).is_representative() and abs(k1) <= N and abs(k2) <= N
    ]
    reps.sort(key=lambda m: (m.lam, abs(m.k1), abs(m.k2), m.k1, m.k2))
    k1, k2, lam, parity = [], [], [], []
    index = {}
    for m in reps:
        for p, pname in enumerate(PARITIES):
            index[(m.k1, m.k2, pname)] = len(k1)
            k1.append(m.k1)
            k2.append(m.k2)
            lam.append(m.lam)
            parity.append(p)
    table = ModeTable(
        N=N,
        k1=np.asarray(k1, dtype=np.int64),
        k2=np.asarray(k2, dtype=np.int64),
        lam=np.asarray(lam, dtype=np.int64),
        parity=np.asarray(parity, dtype=np.int64),
        index=index,
    )
    expected = (2 * N + 1) ** 2 - 1
    assert table.size == expected, (table.size, expected)
    for arr in (table.k1, table.k2, table.lam, table.parity):
        arr.setflags(write=False)
    return table


def laplacian_eigenvalues(N: int) -> np.ndarray:
    """Laplacian eigenvalues per coefficient, in canonical (ascending) order."""
    return mode_table(N).lam


@dataclass(frozen=True)
class FourierField:
    """Immutable truncated mean-zero real scalar field on T².

    Attributes
    ----------
    N : truncation order (square lattice |k|_inf <= N).
    coeffs : flat real coefficient vector in the canonical ordering.
    """

    N: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        table = mode_table(self.N)
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (table.size,):
            raise ValueError(
                f"coefficient vector must have shape ({table.size},) for N={self.N}, "
                f"got {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def table(self) -> ModeTable:
        return mode_table(self.N)

    def coefficient(self, mode: Sequence[int], parity: str) -> float:
        """Amplitude on one basis function (sign-adjusted for -k aliases)."""
        m = _validate_mode(mode, self.N)
        idx = self.table.coefficient_index(m, parity)
        value = float(self.coeffs[idx])
        if not m.is_representative() and parity == "sin":
            value = -value
        return value

    def norm(self, s: float = 0.0) -> float:
        return sobolev_norm(self, s)

    def __add__(self, other: "FourierField") -> "FourierField":
        if self.N != other.N:
            raise ValueError("truncation mismatch")
        return FourierField(self.N, self.coeffs + other.coeffs)

    def __sub__(self, other: "FourierField") -> "FourierField":
        if self.N != other.N:
            raise ValueError("truncation mismatch")
        return FourierField(self.N, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "FourierField":
        return FourierField(self.N, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def embed(self, N_new: int) -> "FourierField":
        """Re-express the field at a larger (or equal) truncation order."""
        if N_new < self.N:
            raise ValueError("embed target must satisfy N_new >= N")
        if N_new == self.N:
            return self
        src, dst = self.table, mode_table(N_new)
        out = np.zeros(dst.size)
        for i in range(src.size):
            j = dst.index[(int(src.k1[i]), int(src.k2[i]), PARITIES[src.parity[i]])]
            out[j] = self.coeffs[i]
        return FourierField(N_new, out)


def make_field(N: int, entries: Iterable[tuple] = ()) -> FourierField:
    """Build a field from (mode, parity, amplitude) entries.

    Modes must be nonzero representatives (or their negatives, which alias
    onto the representative with the sine sign flipped), within |k|_inf <= N,
    with at most one entry per (mode, parity).
    """
    table = mode_table(N)
    coeffs = np.zeros(table.size)
    seen = set()
    for mode, parity, amplitude in entries:
        m = _validate_mode(mode, N)
        rep = m.representative()
        idx = table.coefficient_index(rep, parity)
        if idx in seen:
            raise ValueError(f"duplicate entry for mode {tuple(rep)} parity {parity}")
        seen.add(idx)
        value = float(amplitude)
        if not m.is_representative() and parity == "sin":
            value = -value
        coeffs[idx] = value
    return FourierField(N, coeffs)


def sobolev_norm(f: FourierField, s: float = 1.0) -> float:
    """Homogeneous Sobolev norm: sqrt(sum |k|^(2s) amplitude^2).

    s = 0 gives the L2 norm; s = 1 the H1 norm.  All stored modes have
    |k| >= 1, so the norm is finite for every real s.
    """
    lam = mode_table(f.N).lam.astype(float)
    if s == 0.0:
        weights = 1.0
    else:
        weights = lam ** float(s)
    return float(math.sqrt(np.sum(weights * f.coeffs**2)))


def project_low(f: FourierField, M: int) -> FourierField:
    """Wavenumber truncation: zero every coefficient with |k|_inf > M.

    This is the square-lattice projection used to move between truncation
    orders; it is idempotent and an L2 contraction.  Requires M <= f.N.
    """
    if M > f.N:
        raise ValueError("projection order M must satisfy M <= f.N")
    if M < 1:
        raise ValueError("projection order M must be >= 1")
    table = f.table
    keep = (np.abs(table.k1) <= M) & (np.abs(table.k2) <= M)
    return FourierField(f.N, np.where(keep, f.coeffs, 0.0))


def project_low_eigencount(f: FourierField, M: int) -> FourierField:
    """Projection onto the span of the first M eigenvalue-ordered basis elements.

    Zeroes every coefficient with |k|^2 > lam_M, where lam_M is the M-th
    Laplacian eigenvalue in the canonical enumeration (1-indexed).  Ties are
    kept in full, so the projection commutes with the Laplacian and is
    idempotent.
    """
    table = f.table
    if not 1 <= M <= table.size:
        raise ValueError(f"eigencount M must be in [1, {table.size}]")
    lam_M = table.lam[M - 1]
    return FourierField(f.N, np.where(table.lam <= lam_M, f.coeffs, 0.0))


# ---------------------------------------------------------------------------
# Complex lattice helpers (internal): the orthonormal complex basis is
# e_k = exp(i k.x) / (2 pi); a real field has z_k = (a_k - i b_k)/sqrt(2)
# on the representative and the conjugate on -k.
# ---------------------------------------------------------------------------


def complex_lattice(f: FourierField) -> np.ndarray:
    """Complex coefficients on the (2N+1)x(2N+1) lattice, index [k1+N, k2+N]."""
    table = f.table
    N = f.N
    Z = np.zeros((2 * N + 1, 2 * N + 1), dtype=complex)
    a = f.coeffs[table.parity == 0]
    b = f.coeffs[table.parity == 1]
    k1 = table.k1[table.parity == 0]
    k2 = table.k2[table.parity == 0]
    z = (a - 1j * b) / math.sqrt(2.0)
    Z[k1 + N, k2 + N] = z
    Z[-k1 + N, -k2 + N] = np.conj(z)
    return Z


def field_from_complex_lattice(Z: np.ndarray, N: int) -> FourierField:
    """Inverse of :func:`complex_lattice` (conjugate symmetry assumed)."""
    table = mode_table(N)
    cos_rows = table.parity == 0
    k1 = table.k1[cos_rows]
    k2 = table.k2[cos_rows]
    z = Z[k1 + N, k2 + N]
    coeffs = np.zeros(table.size)
    coeffs[cos_rows] = math.sqrt(2.0) * z.real
    coeffs[~cos_rows] = -math.sqrt(2.0) * z.imag
    return FourierField(N, coeffs)


def sample_grid(f: FourierField, M: int) -> np.ndarray:
    """Point values on the uniform M x M grid (2 pi i / M, 2 pi j / M).

    Requires M >= 2 N + 2 so no stored mode aliases.  The discrete Parseval
    identity (2 pi / M)^2 * sum(values^2) = ||f||_{L2}^2 then holds exactly
    (up to roundoff), because the quadrature is exact for trigonometric
    polynomials of degree < M.
    """
    if M < 2 * f.N + 2:
        raise ValueError(f"grid size M={M} too small for truncation N={f.N}: need M >= {2 * f.N + 2}")
    Z = complex_lattice(f)
    N = f.N
    big = np.zeros((M, M), dtype=complex)
    ks = np.arange(-N, N + 1)
    big[np.ix_(ks % M, ks % M)] = Z * (M * M / (2.0 * math.pi))
    values = np.fft.ifft2(big)
    return np.ascontiguousarray(values.real)


def field_from_grid(values: np.ndarray, N: int) -> FourierField:
    """Project grid samples onto the truncated basis (adjoint of sampling).

    The grid must be M x M with M >= 2 N + 2.  Frequencies beyond the
    truncation are discarded; for band-limited input this inverts
    :func:`sample_grid` exactly.
    """
    values = np.asarray(values, dtype=float)
    M = values.shape[0]
    if values.shape != (M, M):
        raise ValueError("grid must be square")
    if M < 2 * N + 2:
        raise ValueError(f"grid size M={M} too small for truncation N={N}")
    F = np.fft.fft2(values) * (2.0 * math.pi / (M * M))
    ks = np.arange(-N, N + 1)
    Z = F[np.ix_(ks % M, ks % M)]
    Z[N, N] = 0.0  # discard the mean
    return field_from_complex_lattice(Z, N)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_FIELD_HEADER = "# torusmix field v1"


def _open_text(path_or_file, mode: str = "r"):
    """Context manager over a path (opened, then closed) or an open handle (kept open)."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        return open(path_or_file, mode)
    return contextlib.nullcontext(path_or_file)


def _write_csv(path_or_file, header: list, rows) -> None:
    """A header line, then one line per row: floats as ``%.17g``, other values as ``str``."""
    with _open_text(path_or_file, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def parse_record(line: str) -> tuple[Mode, str, float]:
    """Parse one 'k1 k2 parity amplitude' record (shared with CLI configs)."""
    parts = line.split()
    if len(parts) != 4:
        raise ValueError(f"bad coefficient record {line!r}: want 'k1 k2 cos|sin amplitude'")
    k1, k2, parity, amp = parts
    if parity not in PARITIES:
        raise ValueError(f"bad parity {parity!r} in record {line!r}")
    value = float(amp)
    if not math.isfinite(value):
        raise ValueError(f"non-finite amplitude in record {line!r}")
    return Mode(int(k1), int(k2)), parity, value


def format_record(table: ModeTable, i: int, amplitude: float) -> str:
    """The 'k1 k2 parity amplitude' record of coefficient i (inverse of parse_record)."""
    return f"{table.k1[i]} {table.k2[i]} {PARITIES[table.parity[i]]} {amplitude:.17g}"


def write_field(f: FourierField, path_or_file) -> None:
    """Write every coefficient as 'k1 k2 parity amplitude' text records."""
    table = f.table
    with _open_text(path_or_file, "w") as fh:
        fh.write(_FIELD_HEADER + "\n")
        fh.write(f"N {f.N}\n")
        for i in range(table.size):
            fh.write(format_record(table, i, f.coeffs[i]) + "\n")


def read_field(path_or_file) -> FourierField:
    with _open_text(path_or_file) as fh:
        header = fh.readline().strip()
        if header != _FIELD_HEADER:
            raise ValueError(f"not a torusmix field file (header {header!r})")
        tag, N = fh.readline().split()
        if tag != "N":
            raise ValueError("missing truncation header line")
        entries = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            mode, parity, amp = parse_record(line)
            entries.append((mode, parity, amp))
    return make_field(int(N), entries)


def random_field(N: int, rng: np.random.Generator, scale: float = 1.0) -> FourierField:
    """Gaussian random field with iid N(0, scale^2) coefficients (test helper)."""
    n = mode_table(N).size
    return FourierField(N, scale * rng.standard_normal(n))
