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
(build_offline_single with `fd`).

A loop over configurations builds through one FDWorkspace, whose grid-size
buffers hold B, the Hermite recurrence rows then V B, and D B, so no
configuration allocates a grid-size array; the records own their memory
and are the same bit for bit with or without a workspace.

H_FD is never applied to B: H_FD = D^T D / (2 dx^2) + diag(V) exactly,
so m_e = B^T V B + s_lap / 2 reuses the D B of the H1 overlap and avoids
the cancellation of 1/dx^2-sized terms in H_FD B (5 to 20 times closer
to a long-double B^T H_FD B at 1999 to 8000 points).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, TridiagOperator, fd_gradient, fd_hamiltonian, potential
from .hermite import assemble_dimer

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


def solve_ground_pair(H: TridiagOperator, grid: Grid) -> GroundPair:
    """Two lowest eigenpairs of the symmetric tridiagonal FD Hamiltonian."""
    import scipy.linalg  # only FD solves need scipy; keep it off start-up

    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            H.diag, H.offdiag, select="i", select_range=(0, 1)
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    phi1, phi2 = vecs[:, 0], vecs[:, 1]
    for i, (lam, phi) in enumerate(zip(vals, (phi1, phi2)), start=1):
        res = np.linalg.norm(H.matvec(phi) - lam * phi)
        if res > 1e-8:
            raise NumericalFailure(
                f"eigenpair {i} residual {res:.3e} exceeds 1e-8"
            )
    return GroundPair(
        lambda1=float(vals[0]), lambda2=float(vals[1]), phi1=phi1, phi2=phi2
    )


class FDWorkspace:
    """Grid-size buffers for FD offline builds on one grid with one n_funcs.

    A loop over configurations makes one and passes it to every solve and
    build, so no configuration allocates a grid-size array. Records own
    their memory; a SolvedConfiguration made on a workspace views it.
    """

    def __init__(self, grid: Grid, n_funcs: int):
        n, m = grid.n_points, 2 * n_funcs
        self.basis = np.empty((n, m))  # B
        # the Hermite recurrence rows until B is assembled, then V B
        self.scratch = np.empty((n, m))
        self.grad = np.empty((n + 1, m))  # D B


@dataclass(frozen=True)
class SolvedConfiguration:
    """The FD ground pair and the dimer basis B at one a.

    Made on an FDWorkspace, B is the workspace's buffer: it is valid until
    the next solve on that workspace.
    """

    pair: GroundPair = field(repr=False)
    basis: np.ndarray = field(repr=False)


def solve_configuration(
    grid: Grid, a: float, n_funcs: int, workspace: FDWorkspace | None = None
) -> SolvedConfiguration:
    H = fd_hamiltonian(grid, a)
    try:
        pair = solve_ground_pair(H, grid)
    except NumericalFailure as exc:
        raise NumericalFailure(f"reference solve failed at a={a}: {exc}") from exc
    if workspace is None:
        basis = assemble_dimer(grid, a, n_funcs)
    else:
        rows = workspace.scratch.reshape(n_funcs, 2, grid.n_points)
        basis = assemble_dimer(grid, a, n_funcs, workspace.basis, rows)
    return SolvedConfiguration(pair, basis)


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
    """Stack the records of a measure's configurations for one metric."""
    s_b = np.stack([r.s_b for r in records])
    if metric == "L2":
        gs, s_a = [r.g for r in records], s_b
    elif metric == "H1":
        gs = [r.g + r.g_lap for r in records]
        s_a = np.stack([r.s_b + r.s_lap for r in records])
    else:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    weight, a, e_ref = np.array(
        [(float(w), r.a, r.e_ref) for r, w in zip(records, weights)]
    ).T
    return OfflineStack(
        a=a,
        weight=weight,
        e_ref=e_ref,
        m_a=np.stack([_symmetrize(g.T @ g) for g in gs]),
        s_a=s_a,
        m_e=np.stack([r.m_e for r in records]),
        s_b=s_b,
    )


def build_offline_single(
    grid: Grid,
    a: float,
    n_funcs: int,
    fd: SolvedConfiguration | None = None,
    workspace: FDWorkspace | None = None,
) -> OfflineRecord:
    """The offline record of one configuration from one FD solve, or from
    `fd` when the caller has solved it. With a workspace, the grid-size
    intermediates live in its buffers."""
    if fd is None:
        fd = solve_configuration(grid, a, n_funcs, workspace)
    B = fd.basis
    V = potential(a, grid.points)[:, None]
    VB = np.multiply(V, B, out=None if workspace is None else workspace.scratch)
    DB = fd_gradient(B, None if workspace is None else workspace.grad)
    phis = np.column_stack([fd.pair.phi1, fd.pair.phi2])
    inv_dx2 = 1.0 / grid.dx**2
    s_lap = _symmetrize(DB.T @ DB) * inv_dx2
    return OfflineRecord(
        a=float(a),
        e_ref=fd.pair.energy,
        g=phis.T @ B,
        g_lap=(fd_gradient(phis).T @ DB) * inv_dx2,
        s_b=_symmetrize(B.T @ B),
        m_e=_symmetrize(B.T @ VB) + 0.5 * s_lap,
        s_lap=s_lap,
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

CACHE_SCHEMA = 3


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


def save_offline_entry(cache_dir: str, grid: Grid, record: OfflineRecord) -> str:
    """Atomically persist one offline record; returns the file path."""
    os.makedirs(cache_dir, exist_ok=True)
    meta = _entry_meta(grid, record.a, record.s_b.shape[0] // 2)
    path = _cache_path(cache_dir, meta["key"])
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                e_ref=np.float64(record.e_ref),
                **{name: getattr(record, name) for name in _RECORD_ARRAYS},
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_cached(
    cache_dir: str, grid: Grid, a: float, n_funcs: int
) -> OfflineRecord | None:
    """Load a cached record, or None when it is absent, unreadable or
    foreign (its metadata names another schema, key, grid, a or n_funcs)."""
    meta = _entry_meta(grid, a, n_funcs)
    path = _cache_path(cache_dir, meta["key"])
    if not os.path.exists(path):
        return None
    try:
        with np.load(path) as npz:
            if json.loads(bytes(npz["meta"]).decode()) != meta:
                return None
            arrays = [npz[name] for name in _RECORD_ARRAYS]
            return OfflineRecord(meta["a"], float(npz["e_ref"]), *arrays)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None


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
