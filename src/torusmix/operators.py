"""Galerkin matrices on the truncated basis and their semigroups.

The advection matrix is the exact Galerkin truncation of u . grad: entries
are computed by convolving the finite velocity series with the basis in the
complex exponential basis (no collocation, no aliasing) and then rotated to
the real trigonometric basis by the unitary change of basis.  Because the
Galerkin compression of a skew-adjoint operator is skew-adjoint, B + B^T = 0
to machine precision, which is the backbone of every energy identity in this
package.  The complex coefficient of e_k sits at position
(k1+N)(2N+1) + (k2+N) of the whole (2N+1)^2 lattice, the row-major layout
of ``fields.complex_lattice``; the row and column of k = 0 stay empty, so
the convolution by a velocity mode m is the shift of every position by
m1 (2N+1) + m2.

Dissipation is diagonal, -(|k|^2)^s per coefficient, and the generator of
the viscous dynamics  f' = -u.grad f + nu Delta^s f  is  A = -B + nu D.

Every operator is stored as a CSR sparse matrix, whatever N.  Dense algebra
happens only inside an invariant block or where the result itself is dense.
The invariant blocks of A are the connected components of its sparsity
pattern: shear generators decouple by x-wavenumber; the sin(x)sin(y)
cellular generator splits by the parity of k1 + k2 and by the cosine/sine
family into four blocks, plus the four corner modes (+-N, +-N), which
decouple (blocks of 70, 70, 72, 72 and 4 singletons at N = 8; 270, 270, 272,
272 and 4 at N = 16).

``semigroup_norm``, the Lyapunov solve of ``covariance`` and the
eigensolves of ``spectral`` reduce each block further by its symmetries
(``_symmetry_sectors``, the one iterator of all dense work: one detection
per operator, sectors grouped by block and built only for the blocks a
caller uses).  The maps f(x) -> f(Mx + tau), with M a reflection of the
square lattice (x, y, diagonal, antidiagonal) and tau in {0, pi}^2, are
signed permutations of the basis, and a block is reduced by every one
that maps it onto itself and commutes with A there (Fassler & Stiefel,
*Group Theoretical Methods and Their Applications*):

* commuting involutions split it into their joint eigenspaces (sectors),
  spanned by coordinates and by orbit vectors such as (e_i +- e_j) / sqrt 2;
* a map g that anti-commutes with one of them carries a sector V onto
  another, whose matrix in the basis g V is exactly that of V (g^T A g =
  A): a twin, whose matrix exponential and Schur form are not computed
  again;
* a map g that maps a sector onto itself and squares to -I there is a
  complex structure, not a split: the sector's basis then pairs its
  columns as x and g x, so the sector matrix s is the realification of
  the complex matrix C = s[0::2, 0::2] + i s[1::2, 0::2] of half its size,
  and every dense step works on C (``_real_columns`` maps complex vectors
  and the complex Schur form back).  The pairing stays inside the basis:
  the iterator says only whether a sector is complex.

``_sector_matrix`` forms every dense sector matrix, V^T a V or C, and
refuses one above ``DENSE_CAP`` rows.

For sin(x)sin(y), x -> -x halves every block and x <-> y composed with a
half-period translation acts on the halves: at N = 8 the 70-row blocks
become 15 + 16 + 19 + 20 and a twin pair 35 + 35, the 72-row blocks a twin
pair 36 + 36 and 32 + 40, where that map is a complex structure, so these
two are complex matrices of 16 and 20 rows
(1054 -> 255 + 256 + 271 + 272 and 527 + 527, 1056 -> 528 + 528 and
512 + 544 at N = 32, complex 256 + 272).  cos(x)cos(y) splits alike under
reflections through pi, and x -> -x, y -> y + pi splits the 17-row blocks
of the sin(y) shear at N = 8 (9 + 8).  Per distinct sector, the norm is
the square root of the top eigenvalue of E^H E (Lanczos to machine
precision) with E = exp(tA) dense up to ``DENSE_CAP`` rows, and a Lanczos
iteration on the action of exp(tA) above; the Lyapunov solve takes one
real Schur form per distinct sector, a twin repeating the Schur form of
its sector, and solves per pair of sectors; the eigenvectors of i B on a
block are those of its sectors, one Hermitian eigensolve per distinct
sector.  ``semigroup_apply`` uses ``expm_multiply``, and so does
``spectral`` on a block above ``DENSE_CAP`` (``_orbit``); below it
``spectral`` evolves in the eigenbasis of each sector.

``semigroup_norm`` computes only the sectors that can hold the maximum.
By the logarithmic norm, ||exp(t V^T A V)|| <= exp(t mu) for t >= 0 with
mu the top eigenvalue of the symmetric part of V^T A V.  B is skew with a
zero diagonal, so the symmetric part of A is its diagonal -nu |k|^2 up to
the round-off of B + B^T, and mu is at most the largest diagonal entry on
the rows of the sector plus half the largest off-diagonal absolute row sum
of a + a^T on its block, plus a round-off margin (``_sector_bounds``).
Sectors go in descending order of that heat bound, and one whose bound is
strictly below the largest norm found so far is not exponentiated: for
sin(x)sin(y) at nu t = 1 only the two sectors with a |k|^2 = 1 mode (bound
e^-1) are, of twelve distinct ones.  On a complex sector the norm is that
of exp(tC) at half the rows: the realification is an isometry.

Results that are dense inside each invariant block are stored per block, as
a :class:`BlockDiagonal` of (index array, dense block) pairs that is zero
off its blocks: the Lyapunov covariance (forced blocks only), the pair
(E, S) of the finite-time covariance shared by the quadrature oracle and the
exact Gaussian sampler, and the eigenvectors of ``spectral.spectrum``
(computed on first access).
``DENSE_CAP`` caps the block, not n: every dense block of an operator, and
the dense form of every block-diagonal result, comes from ``_dense``, which
refuses more than ``DENSE_CAP`` rows (``_refuse_above_cap``, which the
Lyapunov solve calls for the b x b arrays it assembles from its sectors;
``semigroup_norm`` takes a larger sector by Lanczos instead).  So an
operator of any size is solved as long as the blocks a computation makes
dense fit under the cap.
"""

from __future__ import annotations

import ctypes
import importlib
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, eigsh, expm_multiply

from .fields import FourierField, _open, mode_table
from .flows import Flow

__all__ = [
    "OperatorMatrix",
    "BlockDiagonal",
    "DENSE_CAP",
    "advection_matrix",
    "dissipation_matrix",
    "generator",
    "semigroup_apply",
    "semigroup_norm",
    "invariant_blocks",
    "write_operator_triplets",
]

# Most rows of a dense block: ``_dense`` refuses more, and semigroup_norm
# takes a sector above it by Lanczos instead.
DENSE_CAP = 4000


@dataclass(frozen=True)
class OperatorMatrix:
    """CSR matrix of a linear operator on the canonical coefficient ordering.

    ``matrix`` is converted to CSR on construction.  ``nu`` and ``s`` are
    populated for generators (and ``s`` for dissipation matrices).
    """

    N: int
    kind: str                       # 'advection' | 'dissipation' | 'generator'
    matrix: sp.csr_matrix = field(repr=False)
    nu: float | None = None
    s: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", sp.csr_matrix(self.matrix))

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def is_sparse(self) -> bool:
        """Always True: operators have a single, sparse representation."""
        return True

    def dense(self) -> np.ndarray:
        """The whole dense matrix, uncapped (a test and debugging aid)."""
        return self.matrix.toarray()


def _real_to_complex(N: int) -> sp.csc_matrix:
    """Unitary map V: real canonical coefficients -> complex lattice coefficients."""
    table = mode_table(N)
    n = table.size
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    # cosine: z_k = z_{-k} = a/sqrt2; sine: z_k = -i b/sqrt2, z_{-k} = +i b/sqrt2
    cos = table.parity == 0
    vals = np.stack([np.where(cos, inv_sqrt2, -1j * inv_sqrt2),
                     np.where(cos, inv_sqrt2, 1j * inv_sqrt2)], axis=1)
    L = (2 * N + 1) ** 2
    k = (table.k1 + N) * (2 * N + 1) + table.k2 + N
    rows = np.stack([k, L - 1 - k], axis=1)     # -k sits at the mirror position of k
    cols = np.repeat(np.arange(n), 2)
    return sp.csc_matrix(sp.coo_matrix((vals.ravel(), (rows.ravel(), cols)),
                                       shape=(L, n), dtype=complex))


def advection_matrix(flow: Flow | None, N: int) -> OperatorMatrix:
    """Exact Galerkin matrix B of u . grad on the truncated real basis.

    ``flow=None`` means u = 0 and yields the zero matrix.  Velocity support
    must satisfy max wavenumber <= 2 N; modes advected beyond the truncation
    are dropped (pure Galerkin projection), which preserves skew-symmetry.
    """
    table = mode_table(N)
    n = table.size
    if flow is None:
        return OperatorMatrix(N, "advection", sp.csr_matrix((n, n)))
    if flow.max_wavenumber > 2 * N:
        raise ValueError(
            f"velocity support {flow.max_wavenumber} exceeds 2N = {2 * N}"
        )
    L = (2 * N + 1) ** 2
    k1, k2 = np.indices((2 * N + 1, 2 * N + 1)).reshape(2, L) - N     # complex positions
    source = (k1 != 0) | (k2 != 0)
    rows, cols, vals = [], [], []
    for (m1, m2), (a1, a2) in flow.velocity.items():
        t1, t2 = k1 + m1, k2 + m2
        keep = np.flatnonzero(source & ((t1 != 0) | (t2 != 0))
                              & (np.abs(t1) <= N) & (np.abs(t2) <= N))
        # u . grad e_k = i (k . uhat_m) e_{k+m}
        vals.append(1j * (k1[keep] * a1 + k2[keep] * a2))
        rows.append(keep + m1 * (2 * N + 1) + m2)
        cols.append(keep)
    Bc = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(L, L), dtype=complex).tocsr()
    V = _real_to_complex(N)
    Br = (V.getH() @ (Bc @ V)).tocoo()
    imag_max = np.max(np.abs(Br.data.imag)) if Br.nnz else 0.0
    if imag_max > 1e-12:
        raise AssertionError(f"advection matrix not real: max imag {imag_max}")
    Br = sp.coo_matrix((Br.data.real, (Br.row, Br.col)), shape=(n, n))
    # exact zeros can survive as stored entries after the basis rotation
    Br.eliminate_zeros()
    return OperatorMatrix(N, "advection", Br)


def dissipation_matrix(N: int, s: float = 1.0) -> OperatorMatrix:
    """Diagonal dissipation: entry -(k1^2 + k2^2)^s per coefficient."""
    if s <= 0:
        raise ValueError("fractional order s must be positive")
    lam = mode_table(N).lam.astype(float)
    diag = -(lam**s)
    return OperatorMatrix(N, "dissipation", sp.diags(diag), s=float(s))


def generator(flow: Flow | OperatorMatrix | None, nu: float, N: int,
              s: float = 1.0) -> OperatorMatrix:
    """Generator A = -B + nu * D of f' = -u.grad f - nu (-Delta)^s f.

    ``flow`` may also be the advection matrix B of truncation N itself, so
    that a viscosity ladder assembles B once.
    """
    if nu < 0:
        raise ValueError("diffusivity nu must be >= 0")
    if isinstance(flow, OperatorMatrix):
        if flow.kind != "advection" or flow.N != N:
            raise ValueError(f"expected an advection matrix at N = {N}, got {flow.kind} "
                             f"at N = {flow.N}")
        B = flow
    else:
        B = advection_matrix(flow, N)
    D = dissipation_matrix(N, s)
    A = -B.matrix + float(nu) * D.matrix
    return OperatorMatrix(N, "generator", A, nu=float(nu), s=float(s))


def _refuse_above_cap(rows: int) -> None:
    """The one place that refuses on ``DENSE_CAP``: a dense array of more rows raises ValueError."""
    if rows > DENSE_CAP:
        raise ValueError(f"dense block of {rows} rows exceeds the dimension cap {DENSE_CAP}")


def _dense(matrix, idx=None) -> np.ndarray:
    """Dense copy of ``matrix``, or of its block on the indices ``idx`` (internal).

    ``matrix`` is sparse or a :class:`BlockDiagonal`; refused above
    ``DENSE_CAP`` rows (``_refuse_above_cap``).
    """
    _refuse_above_cap(matrix.shape[0] if idx is None else len(idx))
    return (matrix if idx is None else matrix[np.ix_(idx, idx)]).toarray()


def _openblas_threads(package: str):
    """(library path, get, set) of the thread count of the OpenBLAS that the
    ``package`` wheel bundles in ``<package>.libs``, or None (internal)."""
    root = Path(importlib.import_module(package).__file__).resolve().parent.parent
    for path in sorted((root / f"{package}.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return path, get, put
    return None


@lru_cache(maxsize=None)
def _blas_pools():
    """((get, set) of numpy's thread count, (get, set) of scipy's) when numpy
    and scipy each bundle an OpenBLAS, else None: one shared BLAS, or not an
    OpenBLAS found (internal)."""
    numpy_pool, scipy_pool = _openblas_threads("numpy"), _openblas_threads("scipy")
    if numpy_pool is None or scipy_pool is None or numpy_pool[0] == scipy_pool[0]:
        return None
    return numpy_pool[1:], scipy_pool[1:]


@contextmanager
def _one_blas_pool(scipy: bool = False):
    """Run numpy's bundled OpenBLAS on one thread for the scope, and scipy's
    too if ``scipy`` (internal).

    The numpy and scipy wheels each bundle an OpenBLAS with its own pool of
    busy-waiting threads, and the code here alternates between them (numpy
    ``@`` and ``eigh``, scipy ``schur``, ``dtrsyl`` and ``expm``), so two
    pools oversubscribe the cores.  At the block sizes solved here (hundreds
    of rows) a second numpy thread costs more in contention than it gains,
    so a run caps numpy's pool at one thread and scipy's keeps its count.
    A ladder solved in parallel processes (``cli._map_ladder``) caps both:
    there each core runs one process.  The counts are restored on exit,
    after an exception too; the libraries are looked up on first entry.
    The counts are process-wide, so scopes that overlap in two Python
    threads may restore them out of order.  Without two bundled OpenBLAS
    pools this does nothing.
    """
    pools = _blas_pools()
    if pools is None:
        yield
        return
    pools = pools if scipy else pools[:1]
    before = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, before):
            put(count)


# ---------------------------------------------------------------------------
# Block structure
# ---------------------------------------------------------------------------


def invariant_blocks(op: OperatorMatrix) -> list[np.ndarray]:
    """Index sets of the invariant coordinate subspaces of ``op``.

    Connected components of the symmetrized sparsity pattern.  The matrix is
    block-diagonal with respect to the returned index sets (each sorted
    ascending, in order of (length, first index)); isolated coordinates
    appear as singleton blocks.  One stable sort of the component labels
    groups every component's indices in ascending order.
    """
    A = op.matrix
    pattern = (abs(A) + abs(A.T)) > 0
    _, labels = connected_components(pattern, directed=False)
    blocks = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    blocks.sort(key=lambda b: (len(b), int(b[0])))
    return blocks


class BlockDiagonal:
    """n x n matrix held as dense diagonal blocks on disjoint index sets.

    ``blocks`` holds (index array, dense block) pairs: block b sits at the
    rows and columns ``idx_b``, and every row and column that no index array
    covers is zero.  Blocks are stored read-only, in the order given.
    """

    def __init__(self, n: int, blocks=()):
        self.n = int(n)
        self.shape = (self.n, self.n)
        stored = []
        for idx, block in blocks:
            idx, block = np.asarray(idx).view(), np.asarray(block).view()
            if block.shape != (idx.size, idx.size):
                raise ValueError(f"block of shape {block.shape} on {idx.size} indices")
            idx.setflags(write=False)
            block.setflags(write=False)
            stored.append((idx, block))
        self.blocks = tuple(stored)

    @classmethod
    def diag(cls, d: np.ndarray) -> "BlockDiagonal":
        """Diagonal matrix: one singleton block per nonzero entry of ``d``."""
        return cls(len(d), [(np.array([i]), np.array([[d[i]]])) for i in np.flatnonzero(d)])

    def toarray(self) -> np.ndarray:
        dtype = np.result_type(float, *{b.dtype for _, b in self.blocks})
        out = np.zeros((self.n, self.n), dtype=dtype)
        for idx, block in self.blocks:
            out[np.ix_(idx, idx)] = block
        return out

    def diagonal(self) -> np.ndarray:
        out = np.zeros(self.n)
        for idx, block in self.blocks:
            out[idx] = np.diagonal(block)
        return out

    def differences(self, other: "BlockDiagonal"):
        """Yield the blocks (idx, D) of ``self - other``, one at a time.

        The blocks of the difference live on the join of both partitions:
        the unions of overlapping blocks, in the order of their first index.
        """
        pairs = [(idx[0], i) for idx, _ in self.blocks + other.blocks for i in idx]
        rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
        graph = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(self.n, self.n))
        _, labels = connected_components(graph, directed=False)
        terms = {}
        for sign, operand in ((1.0, self), (-1.0, other)):
            for idx, block in operand.blocks:
                terms.setdefault(labels[idx[0]], []).append((sign, idx, block))
        parts = {label: np.flatnonzero(labels == label) for label in terms}
        for label in sorted(terms, key=lambda label: parts[label][0]):
            part = parts[label]
            D = np.zeros((part.size, part.size))
            for sign, idx, block in terms[label]:
                pos = np.searchsorted(part, idx)
                for i, row in zip(pos, block):     # no temporary of the block's size
                    D[i, pos] += sign * row
            yield part, D

    def eigvalsh(self) -> np.ndarray:
        """All n eigenvalues, ascending: those of each block plus a zero per uncovered index."""
        vals = [sla.eigvalsh(block) for _, block in self.blocks]
        covered = sum(len(idx) for idx, _ in self.blocks)
        return np.sort(np.concatenate(vals + [np.zeros(self.n - covered)]))


def _orbit(a: sp.csr_matrix, v: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(t a) v at each t of the equispaced ``times`` from 0, one row per t (internal).

    ``expm_multiply`` on the sparse ``a``: the semigroup action on a block
    above ``DENSE_CAP``, where no dense exponential or eigenbasis is made.
    """
    return expm_multiply(a, v, start=times[0], stop=times[-1], num=len(times), endpoint=True)


def _check_semigroup_time(op: OperatorMatrix, t: float) -> None:
    if op.kind == "generator" and (op.nu or 0.0) > 0.0 and t < 0:
        raise ValueError("negative time requires nu = 0 (dissipation is irreversible)")


def semigroup_apply(op: OperatorMatrix, t: float, f: FourierField) -> FourierField:
    """Evaluate exp(t A) f.

    Negative times are allowed only for time-reversible dynamics (advection
    matrices, or generators with nu = 0).
    """
    if f.N != op.N:
        raise ValueError("field truncation does not match operator truncation")
    _check_semigroup_time(op, t)
    if t == 0.0:
        return f
    return FourierField(f.N, expm_multiply(op.matrix * t, f.coeffs))


# The reflections of the square lattice: x, y, diagonal, antidiagonal.  Each
# is symmetric, so f(Mx + tau) maps the mode k to M k.
_REFLECTIONS = (((-1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((0, -1), (-1, 0)))


@lru_cache(maxsize=None)
def _lattice_maps(N: int) -> tuple:
    """Signed permutations (p, s) of the maps f(x) -> f(Mx + tau) (internal).

    M runs over ``_REFLECTIONS`` and tau over {0, pi}^2.  Basis function i
    goes to s[i] times basis function p[i]: cos(k.(Mx + tau)) is
    (-1)^(k.tau/pi) cos(Mk.x), and a sine whose image Mk is not a
    half-lattice representative changes sign.
    """
    table = mode_table(N)
    maps = []
    for M in _REFLECTIONS:
        m1, m2 = np.asarray(M) @ np.stack([table.k1, table.k2])
        rep = (m1 > 0) | ((m1 == 0) & (m2 > 0))
        p = table.slot[N + m1, N + m2] + table.parity
        flip = np.where(rep | (table.parity == 0), 1.0, -1.0)
        p.setflags(write=False)
        for t1 in (0, 1):
            for t2 in (0, 1):
                s = flip * np.where((t1 * table.k1 + t2 * table.k2) % 2, -1.0, 1.0)
                s.setflags(write=False)
                maps.append((p, s))
    return tuple(maps)


def _compose(g, h):
    """The signed permutation g h (internal): e_i -> s_h[i] s_g[p_h[i]] e_{p_g[p_h[i]]}."""
    return g[0][h[0]], h[1] * g[1][h[0]]


def _sign_of(d: np.ndarray):
    """+1 or -1 if the sign vector ``d`` is constant, else None (internal)."""
    return 1.0 if np.all(d == 1.0) else -1.0 if np.all(d == -1.0) else None


def _relation(g, h):
    """eps with g h = eps h g, +1 or -1, or None if there is none (internal)."""
    gh, hg = _compose(g, h), _compose(h, g)
    return _sign_of(gh[1] * hg[1]) if np.array_equal(gh[0], hg[0]) else None


def _sector_bases(idx: np.ndarray, maps: list):
    """Yield (V, twins, complex_form) per distinct symmetry sector of one block (internal).

    ``maps`` are the lattice maps (p, s) that map the block onto itself and
    commute with A there, as signed permutations g of its positions (p is
    an involution, so g^2 is diagonal).  Those that square to +I, commute
    with the ones taken before and are not +-1 times an element of the
    group H these generate are taken: each splits every sector of the
    previous ones in two.  A character chi of H (a sign per generator, +1
    first) has the sector of the v with h v = chi(h) v, spanned by the
    nonzero sum_h chi(h) h e_i over the orbits {h e_i} of H, each entry
    +-1/sqrt(orbit size); its columns go by orbit size, then by first
    position.  With one generator these are the fixed e_i of sign chi and
    the pairs (e_i + chi s_i e_p(i)) / sqrt 2.

    Every other map g has g h = eps_h h g for each generator h, or else
    is not used.  It carries the chi sector onto the chi eps sector, and as
    g^T a g = a, the basis g V gives that sector exactly the matrix V^T a V
    of the basis V of the chi sector: the two are twins.  Each class of
    twins is yielded once, as V and the twin bases (g V, ...).

    A map g that squares to -I on the rows of a sector and carries each of
    its columns to +-1 times another (as one that commutes with H does) is
    a complex structure there, and the first such map pairs the columns
    (``_column_pairing``): the sector is then ``complex_form``, and its
    columns go pair by pair, in the order of each pair's first column, as
    x and g x, so that G = V^T g V is the direct sum of [[0, -1], [1, 0]]
    (orthogonal, G^2 = -I, and G s = s G for the sector matrix
    s = V^T a V).  s is then the realification of the complex matrix
    C = s[0::2, 0::2] + i s[1::2, 0::2] of half its size
    (``_sector_matrix``).  The twins g V inherit the column order.
    """
    b = len(idx)
    # on one row every map is +-1: nothing to split or pair
    local = [(np.searchsorted(idx, p[idx]), s[idx]) for p, s in maps] if b > 1 else []
    gens, group = [], [(np.arange(b), np.ones(b))]
    for g in local:
        if (_sign_of(_compose(g, g)[1]) == 1.0
                and all(_relation(g, h) == 1.0 for h in gens)
                and not any(np.array_equal(g[0], e[0]) and _sign_of(g[1] * e[1])
                            for e in group)):
            gens.append(g)
            group += [_compose(g, e) for e in group]    # element j holds gens[t] iff bit t of j
    # the sign patterns eps of the maps, each with a map that has it
    shifts = {(1.0,) * len(gens): group[0]}
    for g in local:
        eps = tuple(_relation(g, h) for h in gens)
        if None not in eps:
            for e, G in list(shifts.items()):
                shifts.setdefault(tuple(np.multiply(e, eps)), _compose(g, G))
    # the maps that square to -I somewhere on the block, with the signs of
    # their squares (p is an involution: g^2 is diagonal)
    squares = [(g, _compose(g, g)[1]) for g in local]
    squares = [(g, d) for g, d in squares if np.any(d < 0)]
    first = np.min([e[0] for e in group], axis=0)
    reps = np.flatnonzero(first == np.arange(b))        # one position per orbit
    # the images h e_i of each orbit's first position, keyed (orbit, position)
    key, where = np.unique(np.arange(len(reps)) * b + np.stack([e[0][reps] for e in group]),
                           return_inverse=True)
    col, row = np.divmod(key, b)
    signs = np.stack([e[1][reps] for e in group])
    bits = (np.arange(len(group))[:, None] >> np.arange(len(gens))) & 1
    done = set()
    for chi in itertools.product((1.0, -1.0), repeat=len(gens)):
        if chi in done:
            continue
        done.update(tuple(np.multiply(chi, e)) for e in shifts)
        weight = np.prod(np.where(bits == 1, chi, 1.0), axis=1)       # chi(h)
        value = np.bincount(where.ravel(), (signs * weight[:, None]).ravel(), len(key))
        entries = np.flatnonzero(value)         # sorted as key: by orbit, then position
        rows = row[entries]
        size = np.bincount(col[entries], minlength=len(reps))
        if not size.any():
            continue
        data = np.sign(value[entries]) / np.sqrt(size[col[entries]])
        order = np.lexsort((reps, size))
        order = order[size[order] > 0]
        pairings = (_column_pairing(data, rows, size, g) for g, d in squares
                    if np.all(d[rows] == -1.0))
        pairing = next((found for found in pairings if found is not None), None)
        if pairing is not None:     # each pair's first orbit, then its partner times sigma
            partner, sign = pairing
            first = order[order < partner[order]]
            order = np.stack([first, partner[first]], axis=1).ravel()
            data = data * sign[col[entries]]
        rank = np.empty(len(reps), dtype=int)
        rank[order] = np.arange(order.size)
        by_rank = np.argsort(rank[col[entries]], kind="stable")
        indptr = np.concatenate([[0], np.cumsum(size[order])])
        V = sp.csc_matrix((data[by_rank], rows[by_rank], indptr), shape=(b, order.size))
        twins = []
        for p, s in list(shifts.values())[1:]:      # g V: row i of V moves to p(i), times s_i
            twin = sp.csc_matrix((s[V.indices] * V.data, p[V.indices], V.indptr), shape=V.shape)
            twin.sort_indices()
            twins.append(twin)
        yield V, tuple(twins), pairing is not None


def _column_pairing(data: np.ndarray, rows: np.ndarray, size: np.ndarray, g):
    """(partner, sign) per orbit of a sector if g pairs its columns, else None (internal).

    The sector's orthonormal orbit columns, one per orbit of H and empty
    where the orbit's sum vanishes, hold ``size`` entries each, ``data`` at
    ``rows``, orbit by orbit.  g is a signed permutation that squares to
    -I on those rows.  If g maps each nonempty column to +-1 times another
    (each lies on one orbit of H, and a map that commutes with H carries
    orbits to orbits), G = orbits^T g orbits is a signed permutation of them with
    G^2 = -I: the columns pair up, each pair (r, r') with r < r',
    G e_r = sigma e_r' and G e_r' = -sigma e_r.  ``partner`` maps r to r'
    and r' to r, and ``sign`` is sigma at r' and 1 at r: column r and
    sigma times column r' are x and g x.  Otherwise g is not a complex
    structure of the sector, and the result is None.
    """
    p, s = g
    indptr, shape = np.concatenate([[0], np.cumsum(size)]), (len(p), len(size))
    orbits = sp.csc_matrix((data, rows, indptr), shape=shape)
    G = (orbits.T @ sp.csc_matrix((s[rows] * data, p[rows], indptr), shape=shape)).tocoo()
    G.eliminate_zeros()
    if not (np.array_equal(np.sort(G.col), np.flatnonzero(size))
            and np.all(np.abs(np.abs(G.data) - 1.0) <= 1e-12)):
        return None
    partner, sign = np.zeros(len(size), dtype=int), np.ones(len(size))
    partner[G.col] = G.row
    sign[G.row] = np.where(G.col < G.row, np.sign(G.data), 1.0)
    return partner, sign


def _real_columns(Z: np.ndarray) -> np.ndarray:
    """Realification of the complex m x k matrix Z: 2m x 2k real (internal).

    Entry z becomes the 2 x 2 block [[Re z, -Im z], [Im z, Re z]], so
    columns 2j and 2j + 1 are the real coordinates of Z e_j and i Z e_j
    in a complex sector's basis, where z_r = x_2r + i x_2r+1
    (``_sector_bases``): unitary columns of the complex form's coordinates
    become orthonormal columns of the sector's.  A complex matrix M maps
    to the real matrix of the same linear map, and an upper triangular one
    to an upper quasi-triangular one with the 2 x 2 bumps of LAPACK's
    standard form.
    """
    out = np.empty((2 * Z.shape[0], 2 * Z.shape[1]))
    out[0::2, 0::2] = out[1::2, 1::2] = Z.real
    out[1::2, 0::2] = Z.imag
    out[0::2, 1::2] = -Z.imag
    return out


def _sector_matrix(a: sp.spmatrix, V: sp.csc_matrix, complex_form: bool) -> np.ndarray:
    """The dense working matrix of one sector: s = V^T a V, or C on a complex sector (internal).

    ``a`` is the sparse block matrix and V a sector basis of
    ``_symmetry_sectors``.  The one place that forms a sector matrix
    dense: s is the sparse product V^T a V written out Fortran-ordered, as
    LAPACK takes it, and refused above ``DENSE_CAP`` rows
    (``_refuse_above_cap``).
    With ``complex_form`` the basis pairs its columns as x and G x for a
    complex structure G that commutes with s, G acting as i on
    z = x_2r + i x_2r+1, so s is the realification of the complex b/2 x b/2
    matrix C = s[0::2, 0::2] + i s[1::2, 0::2], also Fortran-ordered, and
    its spectrum is that of C with its complex conjugate; ``_real_columns``
    maps complex vectors back.
    """
    _refuse_above_cap(V.shape[1])
    s = (V.T @ a @ V).toarray(order="F")
    return np.asfortranarray(s[0::2, 0::2] + 1j * s[1::2, 0::2]) if complex_form else s


def _symmetry_sectors(op: OperatorMatrix) -> list:
    """Invariant blocks of ``op`` with the symmetry sectors of each (internal).

    The one iterator of every dense computation on ``op``: the semigroup
    norm, the Schur forms of the Lyapunov solve, and the eigensolves of
    ``spectral``.  One (idx, sectors) per invariant block, in
    ``invariant_blocks`` order.
    ``sectors`` is an iterator over (V, twins, complex_form), built as it
    is consumed, so a caller that skips a block pays nothing for it: the
    columns of the sparse V (len(idx) x b) are an orthonormal basis of a
    subspace of the block's coordinates that reduces ``op``, its rows
    indexing positions in ``idx``, and ``twins`` holds the bases
    (len(idx) x b) of the sectors in which the block matrix a has exactly
    the matrix V^T a V.  The sectors
    and their twins together span the block, and V^T a V' = 0 across any
    two of them.  ``complex_form`` is True on a sector with a complex
    structure, whose basis pairs its columns (``_sector_bases``): then
    V^T a V is the realification of a complex b/2 x b/2 matrix, which
    ``_sector_matrix`` forms, and ``_real_columns`` maps complex vectors
    back.  ``_sector_matrix`` forms every dense sector matrix.  The block is
    reduced by every lattice map (p, s) of ``_lattice_maps`` that maps it
    onto itself and commutes with A on it to 1e-14 of max|A| (see
    ``_sector_bases``); a block with no such map is one sector, V = I,
    without twins, not complex.
    """
    A = op.matrix.tocoo()
    n = A.shape[0]
    tol = 1e-14 * np.abs(A.data).max(initial=0.0)
    keys = A.row.astype(np.int64) * n + A.col
    order = np.argsort(keys)
    keys, data = keys[order], A.data[order]
    blocks = invariant_blocks(op)
    label = np.empty(n, dtype=int)
    for b, idx in enumerate(blocks):
        label[idx] = b
    row_label = label[A.row]
    maps = _lattice_maps(op.N)
    usable = np.zeros((len(maps), len(blocks)), dtype=bool)
    reflection = None
    for m, (p, s) in enumerate(maps):
        # T e_i = s_i e_p(i) commutes with A on a block it maps onto itself
        # iff A[p(i), p(j)] = s_i s_j A[i, j] at every nonzero (i, j) of the
        # block; the four translations of a reflection share p, so the
        # blocks p maps onto themselves and A[p(i), p(j)] are found once
        # per reflection
        if p is not reflection:
            reflection = p
            onto = np.bincount(label, label[p] != label, len(blocks)) == 0
            if onto.any():
                image = p[A.row].astype(np.int64) * n + p[A.col]
                at = np.minimum(np.searchsorted(keys, image), len(keys) - 1)
                mapped = np.where(keys[at] == image, data[at], 0.0)
        if onto.any():
            broken = np.abs(mapped - s[A.row] * s[A.col] * A.data) > tol
            usable[m] = onto & (np.bincount(row_label, broken, len(blocks)) == 0)
    return [(idx, _sector_bases(idx, list(itertools.compress(maps, used))))
            for idx, used in zip(blocks, usable.T.tolist())]


def _dense_norm(A: np.ndarray, t: float) -> float:
    """Largest singular value of exp(tA): top eigenvalue of E^H E.  Overwrites A with tA.

    A is a real sector matrix, or the complex form C of a sector
    (``_sector_matrix``), whose realification has the same norm at twice
    the rows; it is scaled in place, so ``expm`` takes it without a
    scaled copy beside it.  The eigenvalue comes from Lanczos (ARPACK) on
    the dense E^H E, run to machine precision (tol = 0) from a fixed
    start, so reruns agree bit for bit; unlike a dense ``eigh`` it never
    tridiagonalises E^H E.  E is first scaled by the power of two that
    brings max|E| into [1/2, 1), so E^H E neither underflows (max|E| below
    about 1e-154 would make it zero) nor overflows; the scaling is exact
    and is undone on the result.
    """
    A *= t
    E = sla.expm(A)
    top = np.abs(E).max()
    if top == 0.0:
        return 0.0
    scale = math.frexp(top)[1]
    E *= math.ldexp(1.0, -scale)
    gram = E.conj().T @ E
    if np.iscomplexobj(gram) and len(gram) <= 2:
        lam = sla.eigvalsh(gram)[-1:]       # ARPACK's complex path needs more than k + 1 rows
    else:
        start = np.random.default_rng(0).standard_normal(E.shape[0])
        lam = eigsh(gram, k=1, which="LA", v0=start, tol=0, return_eigenvectors=False)
    return math.ldexp(math.sqrt(max(lam[0].real, 0.0)), scale)


def _krylov_norm(A: sp.csr_matrix, t: float, tol: float = 1e-8) -> float:
    """Largest singular value of exp(tA) via Lanczos on exp(tA) exp(tA)^T."""
    n = A.shape[0]
    At = (A * t).tocsr()
    AtT = At.T.tocsr()

    def matvec(v):
        w = expm_multiply(AtT, v)
        return expm_multiply(At, w)

    M = LinearOperator((n, n), matvec=matvec, dtype=float)
    lam = eigsh(M, k=1, which="LA", tol=tol * 1e-1, return_eigenvectors=False)
    return float(math.sqrt(max(lam[0], 0.0)))


# Round-off margin of a sector bound, relative to ||a||_inf.  Where the exact
# norm attains the bound (an eigenmode at the largest diagonal entry, such
# as the streamfunction of sin x sin y), the computed norm lies an ulp or
# so above exp(t mu); the margin keeps the bound above the computed norm,
# with room for the u ||t a|| error of a dense exponential.
_BOUND_ROUNDOFF = 2.0**-40


def _sector_bounds(op: OperatorMatrix) -> list:
    """(mu, a, V, complex_form) per distinct symmetry sector of ``op`` (internal).

    In ``_symmetry_sectors`` order: ``a`` is the block of A the sector
    lies in, ``V`` its basis and ``complex_form`` whether it has a complex
    structure.
    ||exp(t V^T a V)|| <= exp(t mu) for t >= 0, by the logarithmic norm:
    mu bounds the top eigenvalue of the symmetric part of V^T a V.  As B
    is skew with a zero diagonal, the symmetric part of a is its diagonal
    up to the round-off of B + B^T, so mu is the largest diagonal entry of
    a on the rows where V is nonzero, plus delta = half the largest
    off-diagonal absolute row sum of a + a^T (which bounds the norm of the
    rest), plus ``_BOUND_ROUNDOFF`` ||a||_inf.
    """
    A = op.matrix
    d = A.diagonal()
    bounds = []
    for idx, sectors in _symmetry_sectors(op):
        a = A[np.ix_(idx, idx)]
        delta = 0.5 * abs(a + a.T - sp.diags(2.0 * d[idx])).sum(axis=1).max()
        slack = delta + _BOUND_ROUNDOFF * abs(a).sum(axis=1).max()
        for V, _, complex_form in sectors:  # a twin has the same matrix, so the same norm
            bounds.append((d[idx][V.indices].max() + slack, a, V, complex_form))
    return bounds


def semigroup_norm(op: OperatorMatrix, t: float) -> float:
    """Operator norm ||exp(t A)||_{L2 -> L2} at relative accuracy ~1e-8.

    Splits A into symmetry sectors first (``_symmetry_sectors``: invariant
    blocks, reduced by the lattice reflections that commute with A).  Each
    distinct sector matrix V^T A V uses a dense exp and the top eigenvalue
    of E^H E when it fits under DENSE_CAP (``_sector_matrix``), of its
    complex form at half the rows on a sector with a complex structure,
    and a Lanczos iteration on
    exp(tA) exp(tA)^T otherwise; a twin sector has the same matrix, so the
    same norm, and is skipped.

    Sectors go in descending order of their heat bound exp(t mu)
    (``_sector_bounds``: the largest diagonal entry of A on the sector,
    plus the skew defect of B and a round-off margin), ties in block and
    sector order, and a sector whose bound is strictly below the largest
    norm found so far is not computed: it cannot hold the maximum.  The
    result is the same as with every sector computed.
    """
    if t < 0:
        raise ValueError("semigroup norm defined for t >= 0")
    if t == 0.0:
        return 1.0
    best = 0.0
    for mu, a, V, complex_form in sorted(_sector_bounds(op), key=lambda bound: -bound[0]):
        if math.exp(t * mu) < best:
            break       # the bounds descend: no later sector can beat best either
        if V.shape[1] > DENSE_CAP:
            best = max(best, _krylov_norm((V.T @ a @ V).tocsr(), t))
            continue
        s = _sector_matrix(a, V, complex_form)
        best = max(best, math.exp(t * s[0, 0]) if V.shape[1] == 1 else _dense_norm(s, t))
    return best


def write_operator_triplets(op: OperatorMatrix, path_or_file) -> None:
    """Plain 'i j value' triplet dump (debugging aid)."""
    coo = op.matrix.tocoo()
    with _open(path_or_file, "w") as fh:
        fh.write(f"# torusmix operator v1 kind={op.kind} N={op.N} shape={coo.shape[0]}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")
