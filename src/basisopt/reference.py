"""FD reference ground pairs, sampling measure and offline matrices.

All per-configuration quantities that do not depend on the coefficient
matrix R are precomputed here, for L2 and H1 alike from one FD solve: the
reference energy, the projections of the FD pair on the dimer basis and
the basis overlaps. The rank-2 FD density matrix is never materialized; it
enters only through the 2 x 2N factor G = Phi^T A B_a.

Offline data takes two forms. An OfflineRecord is what the cache stores
for one configuration, metric-free. An OfflineStack is what the criteria
read: the (K, 2, 2N) and (K, 2N, 2N) arrays of one metric for the K
configurations of a measure, with their a, weight and e_ref vectors.
stack_offline, one pass for both metrics, is the one place that maps a
metric to the arrays, and load_or_build_each the one path through the
cache, which holds the measure's records only: a curve point builds its
record from the FD solve it makes anyway (build_offline_single with `pair`).

The grid, V and H_FD are mirror-symmetric bit for bit, so the FD layer
works in the even/odd basis of x -> -x: solve_ground_pair takes phi1
(even) and phi2 (odd) from two half-size tridiagonals, each by inverse
iteration with shifts that a factorization proves to lie below its
spectrum, and build_offline_single makes each record from Gram products
of the even and odd parts of B on the half grid x >= 0, without forming
B. Each build makes one half-grid buffer, which holds those parts with
the FD pair, the full-grid Hermite rows, then the differences D of the
parts. The buffer is laid out points last, one row per parity and
function, so the parity sums, the differences and the sqrt(V) scaling
run along contiguous rows, and each Gram product is X X^T of a row
block. The records own their memory.

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

from ._lapack import flapack
from .galerkin import _sym
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
        if not self.points:
            raise ValueError("a measure needs at least one configuration")
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
    """The reference measure: uniform_measure() at its defaults.

    Each point carries the interval spacing as its weight, so the
    aggregated criteria reproduce the reference tables (a Riemann-sum
    quadrature of the interval rather than a normalized average; the two
    conventions differ by the constant factor count x spacing).
    """
    return uniform_measure()


def uniform_measure(
    a_min: float = 1.5, a_max: float = 5.0, count: int = 10
) -> Measure:
    """Uniformly spaced configurations with spacing weights. The defaults
    give the reference measure: ten points on [1.5, 5], each of weight
    3.5/9."""
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
_EPS = np.finfo(float).eps
_MAX_STEPS = 50


def _lapack_pt():
    """LAPACK's dpttrf and dpttrs, the routines scipy.linalg.lapack
    re-exports, taken from its extension module as `_lapack.flapack` loads
    it, so a solve leaves the scipy.linalg package unimported."""
    routines = flapack()
    return routines.dpttrf, routines.dpttrs


def solve_ground_pair(H: TridiagOperator) -> GroundPair:
    """Two lowest eigenpairs of a mirror-symmetric tridiagonal FD
    Hamiltonian, one from each half-size parity block.

    H is a Jacobi matrix (negative off-diagonal), so its k-th eigenvector
    has k - 1 sign changes (Gantmacher-Krein oscillation theorem): the
    ground state is the lowest even eigenvector and the second state the
    lowest odd one. Each block gives its lowest eigenpair by certified
    inverse iteration (_lowest_eigenpair); the two are mirrored to
    full-grid vectors and checked against the full H. A non-finite H, or
    a residual that is not at most 1e-8 (NaN included), fails closed.
    """
    d, e, n = H.diag, H.offdiag, len(H.diag)
    # a NaN in the half the parity split discards would never reach a block
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise NumericalFailure("the Hamiltonian is not finite")
    m = n // 2
    if n % 2:  # the centre point is in the even block only
        even = d[m:], np.concatenate([[np.sqrt(2.0) * e[m]], e[m + 1 :]])
        odd = d[m + 1 :], e[m + 1 :]
    else:  # the centre coupling folds onto the first diagonal entry
        even, odd = (
            (np.concatenate([[d[m] + sign * e[m - 1]], d[m + 1 :]]), e[m:])
            for sign in (1.0, -1.0)
        )
    # H's Gershgorin bound (radii at most 2 max|e|) bounds each block's too
    floor = d.min() - 2.0 * np.abs(e).max()
    pair = []
    for sign, (diag, off) in zip((1.0, -1.0), (even, odd)):
        lam, u = _lowest_eigenpair(diag, off, floor)
        pair.append((lam, _mirror(u, n, sign)))
    for i, (lam, phi) in enumerate(pair, start=1):
        res = np.linalg.norm(H.matvec(phi) - lam * phi)
        if not res <= 1e-8:
            raise NumericalFailure(
                f"eigenpair {i} residual {res:.3e} exceeds 1e-8"
            )
    (lambda1, phi1), (lambda2, phi2) = pair
    return GroundPair(lambda1=lambda1, lambda2=lambda2, phi1=phi1, phi2=phi2)


def _lowest_eigenpair(
    d: np.ndarray, e: np.ndarray, floor: float = -np.inf
) -> tuple[float, np.ndarray]:
    """The lowest eigenpair of the Jacobi matrix T with diagonal d and
    off-diagonal e, by inverse iteration whose every shift is proved to
    lie below the spectrum (Parlett, The Symmetric Eigenvalue Problem,
    ch. 4).

    x starts as the all-ones vector, which the positive lowest eigenvector
    of a Jacobi matrix overlaps, and the first shift is the Gershgorin
    lower bound, or `floor`, a known bound on the spectrum, if higher. With
    rho the Rayleigh quotient of x and eta = |T x - rho x|, some eigenvalue
    lies within eta of rho (Krylov-Weinstein); each step tries the shift
    rho - eta. An LDL^T factorization of T - sigma I (dpttrf) that succeeds
    proves sigma below lambda_min; one that fails keeps the last shift that
    passed. So the iteration can only converge to the lowest eigenpair. It
    stops one solve after eta <= 8 eps |T|: the extra solve takes the
    vector from up to 2e-12 to a few 1e-15 of the exact one. x stays
    positive, and its norm is 1. The two LAPACK routines come from
    _lapack_pt, so a solve leaves the scipy.linalg package unimported.
    """
    dpttrf, dpttrs = _lapack_pt()
    n = len(d)
    if n == 1:  # dpttrf takes no empty off-diagonal
        return float(d[0]), np.ones(1)
    radius = np.zeros(n)
    radius[:-1] = np.abs(e)
    radius[1:] += np.abs(e)
    tol = 8.0 * _EPS * (np.abs(d) + radius).max()
    # tol below the bound: at the bound T - sigma I may be singular
    sigma, factors = max((d - radius).min(), floor) - tol, None
    x = np.full(n, 1.0 / np.sqrt(n))
    last = False
    for _ in range(_MAX_STEPS):
        # T x by hand: TridiagOperator.matvec is a span the benchmark counts
        tx = d * x
        tx[:-1] += e * x[1:]
        tx[1:] += e * x[:-1]
        rho = x @ tx
        tx -= rho * x
        eta = np.sqrt(tx @ tx)
        if not np.isfinite(eta):
            raise NumericalFailure("inverse iteration left the finite numbers")
        if last:
            return float(rho), x
        last = eta <= tol
        shift = rho - eta
        if shift > sigma:
            *trial, info = dpttrf(d - shift, e)
            if info == 0:
                sigma, factors = shift, trial
        if factors is None:
            *factors, info = dpttrf(d - sigma, e)
            if info:
                raise NumericalFailure("no shift below the Gershgorin bound factors")
        x, _ = dpttrs(*factors, x)
        x /= np.sqrt(x @ x)
    raise NumericalFailure(
        f"inverse iteration did not reach residual {tol:.1e} in {_MAX_STEPS} steps"
    )


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
    order: (K,) vectors, (K, 2, 2N) factors and (K, 2N, 2N) matrices."""

    a: np.ndarray
    weight: np.ndarray
    e_ref: np.ndarray
    g_a: np.ndarray = field(repr=False)  # Phi^T A B; G^T G = (A B)^T P_FD A B
    s_a: np.ndarray = field(repr=False)  # B^T A B
    m_e: np.ndarray = field(repr=False)  # B^T H_FD B
    s_b: np.ndarray = field(repr=False)  # B^T B

    def __len__(self) -> int:
        return len(self.a)


def stack_offline(
    records: Sequence[OfflineRecord], weights: Sequence[float]
) -> dict[str, OfflineStack]:
    """The "L2" and "H1" stacks of a measure's records, from one pass; they
    share a, weight, e_ref, m_e and s_b, and the L2 s_a is s_b itself.

    Each stack is filled in place, with no per-record temporaries."""
    if len(weights) != len(records):
        raise ValueError(f"{len(records)} records but {len(weights)} weights")
    g, s_b = np.stack([r.g for r in records]), np.stack([r.s_b for r in records])
    g_h1 = np.stack([r.g_lap for r in records])
    g_h1 += g
    s_h1 = np.stack([r.s_lap for r in records])
    s_h1 += s_b
    # three contiguous vectors: a strided one takes another BLAS path, and
    # its dot products then differ in the last bits from a copy's
    shared = dict(
        a=np.array([r.a for r in records]),
        weight=np.array(weights, dtype=float),
        e_ref=np.array([r.e_ref for r in records]),
        m_e=np.stack([r.m_e for r in records]),
        s_b=s_b,
    )
    return {
        "L2": OfflineStack(g_a=g, s_a=s_b, **shared),
        "H1": OfflineStack(g_a=g_h1, s_a=s_h1, **shared),
    }


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
    intermediates live in one buffer that the build allocates and frees,
    points last: F of shape (2, N + 1, n_half) and D F of shape
    (2, N + 1, n_half + 1)."""
    if pair is None:
        pair = solve_configuration(grid, a)
    n, N = grid.n_points, n_funcs
    half = n - n // 2
    # one allocation: with F, D F and the rows apart, glibc's malloc reused
    # them worse, and the first L2 and H1 pass of K = 200 configurations at
    # 8000 points took 136k-180k minor page faults instead of 12k
    buffer = np.empty(2 * (N + 1) * (2 * half + 1))
    # points last, so every half-grid pass runs along contiguous rows.
    # F[p]: the rows of sqrt(2) E (p = 0) and sqrt(2) O (p = 1) on x >= 0,
    # with their FD state as the last row; then times sqrt(V). D F[p]: the
    # cells of D applied to each row of F[p].
    F = buffer[: 2 * (N + 1) * half].reshape(2, N + 1, half)
    DF = buffer[2 * (N + 1) * half :].reshape(2, N + 1, half + 1)
    # the Hermite recurrence rows borrow the memory of D F until it is made
    rows = DF.reshape(-1)[: N * n].reshape(N, n)
    assemble_parity(grid, a, N, F[:, :N].transpose(0, 2, 1), rows)
    for p, phi in enumerate((pair.phi1, pair.phi2)):
        np.multiply(np.sqrt(2.0), phi[n // 2 :], out=F[p, N])
    fd_gradient(F.transpose(2, 0, 1), DF.transpose(2, 0, 1))
    # DF[:, :, 0] is the cell left of the half grid. For the even part it
    # mirrors DF[0, :, 1] (odd grid) or is the centre cell, where E is flat
    # (even grid): it is left out. For the odd part it is zero (odd grid) or
    # the centre cell, which stands for itself alone (even grid).
    DF[1, :, 0] *= np.sqrt(2.0)
    cells = (DF[0, :, 1:], DF[1])
    if n % 2:
        F[0, :, 0] *= _SQRT_HALF  # the centre point stands for itself alone
    inv_dx2 = 1.0 / grid.dx**2
    grams = [(F[p] @ F[p].T, (c @ c.T) * inv_dx2) for p, c in enumerate(cells)]
    F *= np.sqrt(potential(a, grid.points[n // 2 :]))  # V >= 0
    blocks = []  # per part: phi^T B, phi^T (-Laplacian) B, s_b, m_e, s_lap
    for p, (gram, lap) in enumerate(grams):
        s_lap = _sym(lap[:N, :N])
        m_e = _sym(F[p, :N] @ F[p, :N].T) + 0.5 * s_lap
        blocks.append((gram[N, :N], lap[N, :N], _sym(gram[:N, :N]), m_e, s_lap))
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
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    records = load_or_build_each(grid, measure.points, n_funcs, cache_dir)
    return stack_offline([r for r, _ in records], measure.weights)[metric]


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
        with open(path, "rb") as fh, np.load(fh) as npz:
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
    entry replaced)."""
    for a in a_values:
        status = "computed"
        if cache_dir is not None:
            record = load_cached(cache_dir, grid, a, n_funcs)
            if record is not None:
                yield record, "cached"
                continue
            if os.path.exists(_cache_path(cache_dir, cache_key(grid, a, n_funcs))):
                status = "rebuilt"
        record = build_offline_single(grid, a, n_funcs)
        if cache_dir is not None:
            save_offline_entry(cache_dir, grid, record)
        yield record, status
