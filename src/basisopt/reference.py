"""FD reference ground pairs, sampling measure and offline matrices.

All per-configuration quantities that do not depend on the coefficient
matrix R are precomputed here, for L2 and H1 alike from one FD solve: the
reference energy, the projections of the FD pair on the dimer basis and
the basis overlaps. The rank-2 FD density matrix is never materialized; it
enters only through the 2 x 2N factor G = Phi^T A B_a.

Offline data takes two forms. An OfflineRecord is what the cache stores
for one configuration, metric-free. An OfflineStack is what the criteria
read: the (K, 2N, 2N) matrices of one metric for the K configurations of a
measure, with their a, weight and e_ref vectors. stack_offline is the one
place that maps a metric to the matrices, and load_or_build_each the one
path through the cache, which holds the measure's records only: a curve
point builds its record from the FD solve it makes anyway
(build_offline_single with `pair`).

The grid, V and H_FD are mirror-symmetric bit for bit, so the FD layer
works in the even/odd basis of x -> -x: solve_ground_pair takes phi1
(even) and phi2 (odd) from two half-size tridiagonals, and
build_offline_single makes each record from Gram products of the even and
odd parts of B on the half grid x >= 0, without forming B. Every build goes
through an FDWorkspace, whose half-grid buffers hold those parts with the
FD pair, the Hermite recurrence rows, then the differences D of the parts.
A loop over configurations passes one workspace to every build, so no
configuration allocates a grid-size array; a build given none makes its
own. The records own their memory.

H_FD is never applied to B: H_FD = D^T D / (2 dx^2) + diag(V) exactly,
so m_e = B^T V B + s_lap / 2 reuses the D B of the H1 overlap and avoids
the cancellation of 1/dx^2-sized terms in H_FD B (5 to 20 times closer
to a long-double B^T H_FD B at 1999 to 8000 points).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, TridiagOperator, fd_gradient, fd_hamiltonian, potential
from .hermite import assemble_parity

METRICS = ("L2", "H1")


class NumericalFailure(RuntimeError):
    """Eigensolver failure, tagged with the offending configuration."""


@dataclass(frozen=True)
class GroundPair:
    """Two lowest FD eigenpairs; eigenvectors are unit-norm in the
    sqrt(dx)-scaled convention (equivalently dx * phi^T phi = 1 unscaled)."""

    lambda1: float
    lambda2: float
    phi1: np.ndarray = field(repr=False)
    phi2: np.ndarray = field(repr=False)

    @property
    def energy(self) -> float:
        return self.lambda1 + self.lambda2


@dataclass(frozen=True)
class Measure:
    """Finite weighted sum of Dirac masses on the configuration axis."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        # NaN fails every comparison below, so it must be caught here
        if not np.isfinite([*self.points, *self.weights]).all():
            raise ValueError("configurations and weights must be finite")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("configurations must be strictly increasing")
        if self.points[0] <= 0:
            raise ValueError("configurations must be positive")

    @property
    def a_max(self) -> float:
        return self.points[-1]


def default_measure() -> Measure:
    """Ten uniform points on [1.5, 5].

    Each point carries the interval spacing 3.5/9 as its weight, so the
    aggregated criteria reproduce the reference tables (a Riemann-sum
    quadrature of the interval rather than a normalized average; the two
    conventions differ by the constant factor 35/9).
    """
    return uniform_measure(1.5, 5.0, 10)


def uniform_measure(a_min: float, a_max: float, count: int) -> Measure:
    """Uniformly spaced configurations with spacing weights."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        return Measure(points=(float(a_min),), weights=(1.0,))
    points = tuple(
        a_min + n * (a_max - a_min) / (count - 1) for n in range(count)
    )
    w = (a_max - a_min) / (count - 1)
    return Measure(points=points, weights=(w,) * count)


_SQRT_HALF = np.sqrt(0.5)


def solve_ground_pair(H: TridiagOperator) -> GroundPair:
    """Two lowest eigenpairs of a mirror-symmetric tridiagonal FD
    Hamiltonian, one from each half-size parity block.

    H is a Jacobi matrix (negative off-diagonal), so its k-th eigenvector
    has k - 1 sign changes (Gantmacher-Krein oscillation theorem): the
    ground state is the lowest even eigenvector and the second state the
    lowest odd one. Each block gives its lowest eigenpair; the two are
    mirrored to full-grid vectors and checked against the full H.
    """
    import scipy.linalg  # only FD solves need scipy; keep it off start-up

    d, e, n = H.diag, H.offdiag, len(H.diag)
    m = n // 2
    if n % 2:  # the centre point is in the even block only
        even = d[m:], np.concatenate([[np.sqrt(2.0) * e[m]], e[m + 1 :]])
        odd = d[m + 1 :], e[m + 1 :]
    else:  # the centre coupling folds onto the first diagonal entry
        even, odd = (
            (np.concatenate([[d[m] + sign * e[m - 1]], d[m + 1 :]]), e[m:])
            for sign in (1.0, -1.0)
        )
    pair = []
    for sign, (diag, off) in zip((1.0, -1.0), (even, odd)):
        try:
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                diag, off, select="i", select_range=(0, 0)
            )
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
            raise NumericalFailure(f"tridiagonal eigensolver failed: {exc}") from exc
        pair.append((float(vals[0]), _mirror(vecs[:, 0], n, sign)))
    for i, (lam, phi) in enumerate(pair, start=1):
        res = np.linalg.norm(H.matvec(phi) - lam * phi)
        if res > 1e-8:
            raise NumericalFailure(
                f"eigenpair {i} residual {res:.3e} exceeds 1e-8"
            )
    (lambda1, phi1), (lambda2, phi2) = pair
    return GroundPair(lambda1=lambda1, lambda2=lambda2, phi1=phi1, phi2=phi2)


def _mirror(u: np.ndarray, n: int, sign: float) -> np.ndarray:
    """The unit full-grid vector, even (sign 1) or odd (-1), whose parity
    block coordinates are u: sqrt(2) times its values at the points x > 0,
    and its value at the centre point of an odd grid, which an even block
    holds first."""
    m = n // 2
    v = np.empty(n)
    np.multiply(u, _SQRT_HALF, out=v[n - len(u) :])
    if n % 2:
        v[m] = u[0] if len(u) > m else 0.0
    np.multiply(v[n - m :][::-1], sign, out=v[:m])
    return v


class FDWorkspace:
    """Half-grid buffers for FD offline builds on one grid with one n_funcs.

    A loop over configurations makes one and passes it to every build, so
    no configuration allocates a grid-size array. Records own their memory.
    """

    def __init__(self, grid: Grid, n_funcs: int):
        half = grid.n_points - grid.n_points // 2
        # one allocation for both buffers: as two, glibc's malloc reused
        # them worse, and building the L2 and H1 stacks of K = 200
        # configurations at 8000 points peaked up to 2.9 MB higher in
        # resident memory, from run to run
        buffer = np.empty((2 * half + 1, 2, n_funcs + 1))
        # rows x >= 0 of sqrt(2) E and sqrt(2) O, each with its FD state as
        # the last column; then times sqrt(V)
        self.parts = buffer[:half]
        # the Hermite recurrence rows until the parts are assembled, then D
        # applied to the parts
        self.grad = buffer[half:]


def solve_configuration(grid: Grid, a: float) -> GroundPair:
    """The FD ground pair at a, its failure tagged with a."""
    try:
        return solve_ground_pair(fd_hamiltonian(grid, a))
    except NumericalFailure as exc:
        raise NumericalFailure(f"reference solve failed at a={a}: {exc}") from exc


@dataclass(frozen=True)
class OfflineRecord:
    """What the cache stores for one configuration; with -Laplacian =
    D^T D / dx^2, H1 = I - Laplacian gives G_H1 = g + g_lap and
    S_H1 = s_b + s_lap."""

    a: float
    e_ref: float
    g: np.ndarray = field(repr=False)  # Phi^T B, 2 x 2N
    g_lap: np.ndarray = field(repr=False)  # Phi^T (-Laplacian) B
    s_b: np.ndarray = field(repr=False)  # B^T B
    m_e: np.ndarray = field(repr=False)  # B^T H_FD B = B^T V B + s_lap / 2
    s_lap: np.ndarray = field(repr=False)  # B^T (-Laplacian) B


_RECORD_ARRAYS = ("g", "g_lap", "s_b", "m_e", "s_lap")


@dataclass(frozen=True)
class OfflineStack:
    """The offline data of K configurations for one metric A, in measure
    order: (K,) vectors and (K, 2N, 2N) matrix stacks."""

    a: np.ndarray
    weight: np.ndarray
    e_ref: np.ndarray
    m_a: np.ndarray = field(repr=False)  # (A B)^T P_FD (A B) = G^T G
    s_a: np.ndarray = field(repr=False)  # B^T A B
    m_e: np.ndarray = field(repr=False)  # B^T H_FD B
    s_b: np.ndarray = field(repr=False)  # B^T B

    def __len__(self) -> int:
        return len(self.a)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def stack_offline(
    records: Sequence[OfflineRecord], weights: Sequence[float], metric: str
) -> OfflineStack:
    """Stack the records of a measure's configurations for one metric.

    Each stack is filled in place, with no per-record temporaries."""
    s_b = np.stack([r.s_b for r in records])
    if metric == "L2":
        gs, s_a = [r.g for r in records], s_b
    elif metric == "H1":
        gs = [r.g + r.g_lap for r in records]
        s_a = np.stack([r.s_lap for r in records])
        s_a += s_b
    else:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if len(weights) != len(records):
        raise ValueError(f"{len(records)} records but {len(weights)} weights")
    m_a = np.empty_like(s_b)
    for out, g in zip(m_a, gs):
        gtg = g.T @ g
        np.multiply(0.5, gtg + gtg.T, out=out)
    # three contiguous vectors: a strided one takes another BLAS path, and
    # its dot products then differ in the last bits from a copy's
    return OfflineStack(
        a=np.array([r.a for r in records]),
        weight=np.array(weights, dtype=float),
        e_ref=np.array([r.e_ref for r in records]),
        m_a=m_a,
        s_a=s_a,
        m_e=np.stack([r.m_e for r in records]),
        s_b=s_b,
    )


def _from_parity(even: np.ndarray, odd: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """T^T diag(even, odd) T with T = [[I, D], [I, -D]] / sqrt(2) and
    D = diag(sign): the 2N x 2N matrix of B = [E O] T from its symmetric
    even and odd N x N blocks."""
    n = len(sign)
    out = np.empty((2 * n, 2 * n))
    np.multiply(0.5, even + odd, out=out[:n, :n])
    np.multiply(out[:n, :n], np.outer(sign, sign), out=out[n:, n:])
    np.multiply(0.5 * sign[:, None], even - odd, out=out[n:, :n])
    out[:n, n:] = out[n:, :n].T
    return out


def build_offline_single(
    grid: Grid,
    a: float,
    n_funcs: int,
    pair: GroundPair | None = None,
    workspace: FDWorkspace | None = None,
) -> OfflineRecord:
    """The offline record of one configuration from one FD solve, or from
    `pair` when the caller has solved it.

    B is never formed. With E and O its even and odd parts (hermite.
    assemble_parity), B = [E O] T, and phi1 is even and phi2 odd, so every
    record matrix is T^T diag(even block, odd block) T and the blocks are
    Gram products on the half grid x >= 0. There, with sqrt(2)-scaled
    values, a point x > 0 stands for itself and its mirror image, and so
    does a cell of D right of the centre; the centre point of an odd grid
    and the centre cell of an even grid stand for themselves. The half-grid
    intermediates live in the buffers of the workspace, a new one when
    none is given."""
    if workspace is None:
        workspace = FDWorkspace(grid, n_funcs)
    if pair is None:
        pair = solve_configuration(grid, a)
    n, N = grid.n_points, n_funcs
    F, DF = workspace.parts, workspace.grad
    # the Hermite recurrence rows borrow the memory of D F until it is made
    rows = DF.reshape(-1)[: 2 * N * len(F)].reshape(N, 2, len(F))
    assemble_parity(grid, a, N, F[..., :N].transpose(1, 0, 2), rows)
    for p, phi in enumerate((pair.phi1, pair.phi2)):
        np.multiply(np.sqrt(2.0), phi[n // 2 :], out=F[:, p, N])
    fd_gradient(F, DF)
    # DF[0] is the cell left of the half grid. For the even part it mirrors
    # DF[1] (odd grid) or is the centre cell, where E is flat (even grid):
    # it is left out. For the odd part it is zero (odd grid) or the centre
    # cell, which stands for itself alone (even grid).
    DF[0, 1] *= np.sqrt(2.0)
    cells = (DF[1:, 0], DF[:, 1])
    if n % 2:
        F[0, 0] *= _SQRT_HALF  # the centre point stands for itself alone
    inv_dx2 = 1.0 / grid.dx**2
    grams = [(F[:, p].T @ F[:, p], (c.T @ c) * inv_dx2) for p, c in enumerate(cells)]
    F *= np.sqrt(potential(a, grid.points[n // 2 :]))[:, None, None]  # V >= 0
    blocks = []  # per part: phi^T B, phi^T (-Laplacian) B, s_b, m_e, s_lap
    for p, (gram, lap) in enumerate(grams):
        s_lap = _symmetrize(lap[:N, :N])
        m_e = _symmetrize(F[:, p, :N].T @ F[:, p, :N]) + 0.5 * s_lap
        blocks.append((gram[N, :N], lap[N, :N], _symmetrize(gram[:N, :N]), m_e, s_lap))
    (g1, g1_lap, *even), (g2, g2_lap, *odd) = blocks
    sign = (-1.0) ** np.arange(N)
    # Phi^T B = [[g1, 0], [0, g2]] T, and likewise with the Laplacian
    g, g_lap = (
        _SQRT_HALF * np.array([[*x, *(x * sign)], [*y, *(-y * sign)]])
        for x, y in ((g1, g2), (g1_lap, g2_lap))
    )
    s_b, m_e, s_lap = (_from_parity(x, y, sign) for x, y in zip(even, odd))
    return OfflineRecord(
        a=float(a), e_ref=pair.energy, g=g, g_lap=g_lap, s_b=s_b, m_e=m_e, s_lap=s_lap
    )


def build_offline(
    grid: Grid,
    measure: Measure,
    n_funcs: int,
    metric: str = "L2",
    cache_dir: str | None = None,
) -> OfflineStack:
    """The offline stack of the measure's configurations for one metric,
    through the cache when cache_dir is set."""
    records = load_or_build_each(grid, measure.points, n_funcs, cache_dir)
    return stack_offline([r for r, _ in records], measure.weights, metric)


# -- offline cache -----------------------------------------------------------

CACHE_SCHEMA = 4


def _entry_meta(grid: Grid, a: float, n_funcs: int) -> dict:
    meta = {
        "schema": CACHE_SCHEMA,
        "x_max": grid.x_max,
        "n_points": grid.n_points,
        "a": float(a),
        "n_funcs": int(n_funcs),
    }
    payload = json.dumps(meta, sort_keys=True).encode()
    return {**meta, "key": hashlib.sha256(payload).hexdigest()[:16]}


def cache_key(grid: Grid, a: float, n_funcs: int) -> str:
    """Content hash identifying one offline entry."""
    return _entry_meta(grid, a, n_funcs)["key"]


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"offline_{key}.npz")


def write_atomically(path: str, write, mode: str = "w") -> None:
    """The one way basisopt writes a file: write(fh) fills a new temporary
    file next to `path`, with the permissions open(path, mode) gives, that
    then replaces `path`. Interleaved writers leave one complete file, and
    a failed write leaves the previous file and no temporary file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    # opened before the try: a name another writer holds is not ours to remove
    fh = open(tmp, mode.replace("w", "x"))
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_offline_entry(cache_dir: str, grid: Grid, record: OfflineRecord) -> str:
    """Atomically persist one offline record; returns the file path."""
    meta = _entry_meta(grid, record.a, record.s_b.shape[0] // 2)
    path = _cache_path(cache_dir, meta["key"])

    def write(fh):
        np.savez(
            fh,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            e_ref=np.float64(record.e_ref),
            **{name: getattr(record, name) for name in _RECORD_ARRAYS},
        )

    write_atomically(path, write, "wb")
    return path


def load_cached(
    cache_dir: str, grid: Grid, a: float, n_funcs: int
) -> OfflineRecord | None:
    """Load a cached record, or None when it is absent, unreadable or
    foreign: its metadata names another schema, key, grid, a or n_funcs,
    or its arrays are not finite or not of the shapes n_funcs gives."""
    meta = _entry_meta(grid, a, n_funcs)
    path = _cache_path(cache_dir, meta["key"])
    if not os.path.exists(path):
        return None
    n = 2 * n_funcs
    shapes = {"e_ref": (), "g": (2, n), "g_lap": (2, n)}
    shapes.update({name: (n, n) for name in ("s_b", "m_e", "s_lap")})
    try:
        with np.load(path) as npz:
            if json.loads(bytes(npz["meta"]).decode()) != meta:
                return None
            arrays = {name: npz[name] for name in shapes}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    for name, x in arrays.items():
        if x.dtype != np.float64 or x.shape != shapes[name] or not np.isfinite(x).all():
            return None
    return OfflineRecord(meta["a"], float(arrays.pop("e_ref")), **arrays)


def load_or_build_each(
    grid: Grid, a_values, n_funcs: int, cache_dir: str | None = None
):
    """Yield the record of each configuration in turn with its status:
    "cached", "computed" (no entry) or "rebuilt" (an unreadable or foreign
    entry replaced). The misses build through one FDWorkspace."""
    workspace = FDWorkspace(grid, n_funcs)
    for a in a_values:
        status = "computed"
        if cache_dir is not None:
            record = load_cached(cache_dir, grid, a, n_funcs)
            if record is not None:
                yield record, "cached"
                continue
            if os.path.exists(_cache_path(cache_dir, cache_key(grid, a, n_funcs))):
                status = "rebuilt"
        record = build_offline_single(grid, a, n_funcs, workspace=workspace)
        if cache_dir is not None:
            save_offline_entry(cache_dir, grid, record)
        yield record, status
