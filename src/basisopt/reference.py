"""FD reference ground pairs, sampling measure and offline matrices.

All per-configuration quantities that do not depend on the coefficient
matrix R are precomputed here: the reference energy, the compressed
density-matrix factor (M_A^offline), the compressed Hamiltonian
(M_E^offline) and the Hermite-block overlaps, for L2 and H1 alike from
one FD solve. The rank-2 FD density matrix is never materialized; it enters
only through the 2 x 2N factor G = Phi^T A B_a.

A loop over configurations builds through one FDWorkspace, whose grid-size
buffers hold B, the Hermite recurrence rows then H B, and D B, so no
configuration allocates a grid-size array; the records own their memory
and are the same bit for bit with or without a workspace.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, TridiagOperator, fd_gradient, fd_hamiltonian
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
    build, so no configuration allocates a grid-size array. Records and
    OfflineConfigData own their memory; a SolvedConfiguration made on a
    workspace views it.
    """

    def __init__(self, grid: Grid, n_funcs: int):
        n, m = grid.n_points, 2 * n_funcs
        self.basis = np.empty((n, m))  # B
        # the Hermite recurrence rows until B is assembled, then H B
        self.scratch = np.empty((n, m))
        self.grad = np.empty((n + 1, m))  # D B


@dataclass(frozen=True)
class SolvedConfiguration:
    """FD Hamiltonian, its ground pair and the dimer basis B at one a.

    Made on an FDWorkspace, B is the workspace's buffer: it is valid until
    the next solve on that workspace.
    """

    hamiltonian: TridiagOperator = field(repr=False)
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
    return SolvedConfiguration(H, pair, basis.columns)


@dataclass(frozen=True)
class OfflineConfigData:
    """R-independent compressed matrices for one configuration."""

    a: float
    weight: float
    e_ref: float
    m_a_offline: np.ndarray = field(repr=False)  # (A B)^T P_FD (A B), 2N x 2N
    s_a_b: np.ndarray = field(repr=False)  # B^T A B
    m_e_offline: np.ndarray = field(repr=False)  # B^T H_FD B
    s_b: np.ndarray = field(repr=False)  # B^T B

    @property
    def n_funcs(self) -> int:
        return self.s_b.shape[0] // 2


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
    m_e: np.ndarray = field(repr=False)  # B^T H_FD B
    s_lap: np.ndarray = field(repr=False)  # B^T (-Laplacian) B

    def offline(self, metric: str, weight: float) -> OfflineConfigData:
        if metric == "L2":
            g, s_a_b = self.g, self.s_b
        elif metric == "H1":
            g, s_a_b = self.g + self.g_lap, self.s_b + self.s_lap
        else:
            raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
        m_a = _symmetrize(g.T @ g)
        return OfflineConfigData(
            self.a, weight, self.e_ref, m_a, s_a_b, self.m_e, self.s_b
        )


_RECORD_ARRAYS = ("g", "g_lap", "s_b", "m_e", "s_lap")


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def build_offline_single(
    grid: Grid,
    a: float,
    weight: float,
    n_funcs: int,
    metric: str | None = "L2",
    fd: SolvedConfiguration | None = None,
    workspace: FDWorkspace | None = None,
) -> OfflineConfigData | OfflineRecord:
    """Offline matrices for one configuration from one FD solve, or from
    `fd` when the caller has solved it; metric=None gives the record.
    With a workspace, the grid-size intermediates live in its buffers."""
    if fd is None:
        fd = solve_configuration(grid, a, n_funcs, workspace)
    B = fd.basis
    HB = fd.hamiltonian.matvec(B, None if workspace is None else workspace.scratch)
    DB = fd_gradient(B, None if workspace is None else workspace.grad)
    phis = np.column_stack([fd.pair.phi1, fd.pair.phi2])
    inv_dx2 = 1.0 / grid.dx**2
    record = OfflineRecord(
        a=float(a),
        e_ref=fd.pair.energy,
        g=phis.T @ B,
        g_lap=(fd_gradient(phis).T @ DB) * inv_dx2,
        s_b=_symmetrize(B.T @ B),
        m_e=_symmetrize(B.T @ HB),
        s_lap=_symmetrize(DB.T @ DB) * inv_dx2,
    )
    return record if metric is None else record.offline(metric, float(weight))


def build_offline(
    grid: Grid,
    measure: Measure,
    n_funcs: int,
    metric: str = "L2",
    cache_dir: str | None = None,
) -> list[OfflineConfigData]:
    """Offline matrices for every support point of the measure, through
    the cache when cache_dir is set."""
    records = load_or_build_each(grid, measure.points, n_funcs, cache_dir)
    return [
        record.offline(metric, float(w))
        for (record, _), w in zip(records, measure.weights)
    ]


# -- offline cache -----------------------------------------------------------

CACHE_SCHEMA = 2


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


def load_or_build(
    grid: Grid,
    a: float,
    n_funcs: int,
    cache_dir: str | None = None,
    fd: SolvedConfiguration | None = None,
    workspace: FDWorkspace | None = None,
) -> tuple[OfflineRecord, str]:
    """The record of one configuration and its status: "cached", "computed"
    (no entry) or "rebuilt" (an unreadable or foreign entry replaced); a miss
    builds from `fd` when the caller has solved the configuration already,
    and through `workspace` when given."""
    status = "computed"
    if cache_dir is not None:
        record = load_cached(cache_dir, grid, a, n_funcs)
        if record is not None:
            return record, "cached"
        if os.path.exists(_cache_path(cache_dir, cache_key(grid, a, n_funcs))):
            status = "rebuilt"
    record = build_offline_single(grid, a, 1.0, n_funcs, None, fd, workspace)
    if cache_dir is not None:
        save_offline_entry(cache_dir, grid, record)
    return record, status


def load_or_build_each(
    grid: Grid, a_values, n_funcs: int, cache_dir: str | None = None
):
    """Yield load_or_build's (record, status) for each a in turn; the
    misses share one FDWorkspace."""
    workspace = FDWorkspace(grid, n_funcs)
    for a in a_values:
        yield load_or_build(grid, a, n_funcs, cache_dir, workspace=workspace)
