"""Banded operators on a finite metric space.

An operator acts on vectors indexed by (point, slot) with ``m`` slots per
point, stored as a dense complex matrix in point-major order together with a
boolean point-level support mask.  The mask is structural: entries outside it
are exactly zero, entries inside it may happen to vanish.  Propagation (the
largest distance carrying a numerically nonzero entry) is always measured
from the data, never from the mask, so cancellations are reported honestly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DataError,
    FormatError,
    InvalidParams,
    UnknownPoint,
)
from .space import FiniteMetricSpace, check_point, space_from_json, space_to_json

# Dense spectral norms are cheap up to this matrix side; beyond it the
# default method switches to power iteration.
DENSE_NORM_LIMIT = 512


def same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> bool:
    return a is b or (
        a.labels == b.labels and a.dist.shape == b.dist.shape
        and bool(np.array_equal(a.dist, b.dist))
    )


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Dense matrix plus structural support over a finite metric space.

    ``data`` has shape ``(n*m, n*m)``; the block coupling points ``y`` and
    ``z`` is ``data[y*m:(y+1)*m, z*m:(z+1)*m]``.  ``support`` has shape
    ``(n, n)``; the constructor verifies that every block outside it is
    exactly zero.  Pass ``support=None`` to derive the mask from the nonzero
    pattern of the data.
    """

    space: FiniteMetricSpace
    m: int
    data: np.ndarray
    support: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.space.n
        m = int(self.m)
        if m < 1:
            raise InvalidParams(f"slot count must be >= 1, got {m}")
        data = np.array(self.data, dtype=np.complex128)
        if data.shape != (n * m, n * m):
            raise FormatError(
                f"data shape {data.shape} does not match n*m = {n * m}"
            )
        blocks_nonzero = (
            (data != 0).reshape(n, m, n, m).any(axis=(1, 3))
        )
        if self.support is None:
            support = blocks_nonzero
        else:
            support = np.array(self.support, dtype=bool)
            if support.shape != (n, n):
                raise FormatError(
                    f"support shape {support.shape} does not match n = {n}"
                )
            if (blocks_nonzero & ~support).any():
                raise DataError("nonzero entry outside the declared support")
        data.setflags(write=False)
        support.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "support", support)

    @property
    def n(self) -> int:
        return self.space.n

    def block(self, y: int, z: int) -> np.ndarray:
        """The (m, m) block coupling points y and z (read-only view)."""
        y = check_point(self.space, y)
        z = check_point(self.space, z)
        m = self.m
        return self.data[y * m : (y + 1) * m, z * m : (z + 1) * m]

    def entry(self, y: int, z: int) -> complex:
        """Scalar entry for single-slot operators."""
        if self.m != 1:
            raise InvalidParams("entry() requires m = 1; use block()")
        return complex(self.block(y, z)[0, 0])

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (self.n * self.m,):
            raise FormatError(
                f"vector shape {vec.shape} does not match n*m = {self.n * self.m}"
            )
        return self.data @ vec

    def to_dense(self) -> np.ndarray:
        return self.data.copy()

    def adjoint(self) -> "BandedOperator":
        return BandedOperator(
            self.space, self.m, self.data.conj().T, self.support.T
        )

    def _binary(self, other: "BandedOperator", op) -> "BandedOperator":
        if not isinstance(other, BandedOperator):
            return NotImplemented
        if not same_space(self.space, other.space) or self.m != other.m:
            raise DataError("operators live on different spaces")
        return BandedOperator(
            self.space,
            self.m,
            op(self.data, other.data),
            self.support | other.support,
        )

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return BandedOperator(self.space, self.m, -self.data, self.support)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return BandedOperator(
            self.space, self.m, self.data * complex(scalar), self.support
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, BandedOperator):
            return NotImplemented
        if not same_space(self.space, other.space) or self.m != other.m:
            raise DataError("operators live on different spaces")
        # Boolean matrix product: (y, z) may be hit iff some w links them.
        support = (
            self.support.astype(np.int64) @ other.support.astype(np.int64)
        ) > 0
        return BandedOperator(self.space, self.m, self.data @ other.data, support)

    def __repr__(self) -> str:
        return (
            f"BandedOperator(space={self.space.name!r}, n={self.n}, m={self.m})"
        )


def identity(space: FiniteMetricSpace, m: int = 1) -> BandedOperator:
    n = space.n
    return BandedOperator(space, m, np.eye(n * m), np.eye(n, dtype=bool))


def matrix_unit(space: FiniteMetricSpace, y: int, z: int) -> BandedOperator:
    """The rank-one operator sending the basis vector at z to the one at y."""
    y = check_point(space, y)
    z = check_point(space, z)
    data = np.zeros((space.n, space.n), dtype=np.complex128)
    data[y, z] = 1.0
    support = np.zeros((space.n, space.n), dtype=bool)
    support[y, z] = True
    return BandedOperator(space, 1, data, support)


def adjacency(space: FiniteMetricSpace) -> BandedOperator:
    """0/1 operator with a one wherever two points are at distance one."""
    mask = space.dist == 1
    return BandedOperator(space, 1, mask.astype(np.complex128), mask)


def random_banded(
    space: FiniteMetricSpace,
    radius: float,
    seed: int,
    m: int = 1,
    field: str = "complex",
) -> BandedOperator:
    """Seeded Gaussian operator supported on the band of the given radius.

    Entries are drawn in row-major order over the band positions, real parts
    first, so a fixed seed fully determines the operator.
    """
    if radius < 0:
        raise InvalidParams(f"band radius must be nonnegative, got {radius}")
    if field not in ("complex", "real"):
        raise InvalidParams(f"field must be 'complex' or 'real', got {field!r}")
    n = space.n
    mask = space.dist <= radius
    positions = np.argwhere(mask)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((len(positions), m, m))
    if field == "complex":
        vals = vals + 1j * rng.standard_normal((len(positions), m, m))
    data = np.zeros((n * m, n * m), dtype=np.complex128)
    for (y, z), block in zip(positions, vals):
        data[y * m : (y + 1) * m, z * m : (z + 1) * m] = block
    return BandedOperator(space, m, data, mask)


def truncate_to_band(a: BandedOperator, radius: float) -> BandedOperator:
    """Zero out every block at distance beyond the radius."""
    if radius < 0:
        raise InvalidParams(f"band radius must be nonnegative, got {radius}")
    keep = a.space.dist <= radius
    m = a.m
    expanded = np.kron(keep, np.ones((m, m), dtype=bool))
    data = np.where(expanded, a.data, 0.0)
    return BandedOperator(a.space, m, data, a.support & keep)


def propagation(a: BandedOperator):
    """Largest distance carrying a numerically nonzero block (0 if none)."""
    n, m = a.n, a.m
    nonzero = (a.data != 0).reshape(n, m, n, m).any(axis=(1, 3))
    if not nonzero.any():
        return 0
    val = a.space.dist[nonzero].max()
    return float(val) if a.space.dist.dtype.kind == "f" else int(val)


def max_abs_entry(a: BandedOperator) -> float:
    return float(np.abs(a.data).max())


def operator_norm(
    a: BandedOperator,
    method: str = "auto",
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> float:
    """Operator (spectral) norm.

    ``dense`` computes the largest singular value directly.  ``power`` runs
    block power iteration on the normal matrix (a fixed seeded block of 4,
    reorthonormalized each step); the top Ritz value converges at a rate
    set by the fifth singular value, so nearly degenerate leading pairs,
    which stall the single-vector iteration beyond any reasonable cap, are
    harmless.  Iteration stops when the geometric extrapolation of the
    remaining Ritz gain drops below ``tol`` relative (the raw successive
    difference systematically under-reports the error), or when the
    sequence wiggles at rounding level.  Raises
    :class:`ConvergenceFailure` past ``max_iter`` steps.  ``auto`` picks
    ``dense`` up to side ``DENSE_NORM_LIMIT``.
    """
    if method == "auto":
        method = "dense" if a.data.shape[0] <= DENSE_NORM_LIMIT else "power"
    if method == "dense":
        if a.data.shape[0] == 0:
            return 0.0
        return float(np.linalg.svd(a.data, compute_uv=False)[0])
    if method != "power":
        raise InvalidParams(f"unknown norm method {method!r}")
    mat = a.data
    size = mat.shape[0]
    if size == 0 or not mat.any():
        return 0.0
    rng = np.random.default_rng(0)
    block = min(4, size)
    x = rng.standard_normal((size, block)) + 1j * rng.standard_normal(
        (size, block)
    )
    x, _ = np.linalg.qr(x)
    adj = mat.conj().T
    lam_prev = None
    diff_prev = None
    floor_hits = 0
    noise = 8.0 * np.finfo(np.float64).eps
    for _ in range(max_iter):
        w = mat @ x
        # Top Ritz value of the normal matrix on the current block.
        lam = float(np.linalg.svd(w, compute_uv=False)[0] ** 2)
        if lam == 0.0:
            return 0.0
        if lam_prev is not None:
            diff = abs(lam - lam_prev)
            if diff == 0.0:
                return float(np.sqrt(lam))
            # Rounding-level wiggle for several steps means the sequence is
            # converged to machine precision, far below any useful tol.
            floor_hits = floor_hits + 1 if diff <= noise * lam else 0
            if floor_hits >= 3:
                return float(np.sqrt(lam))
            if diff_prev is not None and diff < diff_prev:
                # Ritz gains decay geometrically; summing the tail bounds
                # what is left.
                rate = diff / diff_prev
                remaining = diff * rate / (1.0 - rate)
                if remaining <= tol * lam:
                    return float(np.sqrt(lam))
            diff_prev = diff
        lam_prev = lam
        x, _ = np.linalg.qr(adj @ w)
    raise ConvergenceFailure(
        f"power iteration did not stabilize in {max_iter} steps"
    )


def operator_to_json(a: BandedOperator, include_space: bool = True) -> dict:
    """Serializable dict; numerically nonzero entries in row-major order.

    Single-slot entries are ``[y, z, re, im]``.  For ``m > 1`` each record is
    ``[y, z, block]`` where ``block`` is an m-by-m row-major list of
    ``[re, im]`` pairs.
    """
    n, m = a.n, a.m
    entries = []
    if m == 1:
        for y, z in np.argwhere(a.data != 0):
            v = a.data[y, z]
            entries.append([int(y), int(z), float(v.real), float(v.imag)])
    else:
        nonzero = (a.data != 0).reshape(n, m, n, m).any(axis=(1, 3))
        for y, z in np.argwhere(nonzero):
            block = a.block(int(y), int(z))
            entries.append(
                [
                    int(y),
                    int(z),
                    [
                        [[float(v.real), float(v.imag)] for v in row]
                        for row in block
                    ],
                ]
            )
    out: dict = {"m": m, "entries": entries}
    if include_space:
        out["space"] = space_to_json(a.space)
    return out


def operator_from_json(
    obj: dict, space: FiniteMetricSpace | None = None
) -> BandedOperator:
    """Read an operator document, rejecting entries outside its space."""
    if not isinstance(obj, dict):
        raise FormatError("operator document must be a JSON object")
    if space is None:
        if "space" not in obj:
            raise FormatError("operator document needs an embedded 'space'")
        space = space_from_json(obj["space"])
    m = int(obj.get("m", 1))
    if m < 1:
        raise FormatError(f"slot count must be >= 1, got {m}")
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise FormatError("'entries' must be a list")
    n = space.n
    data = np.zeros((n * m, n * m), dtype=np.complex128)
    for rec in entries:
        if m == 1:
            if len(rec) != 4:
                raise FormatError(f"entry {rec!r} is not [y, z, re, im]")
            y, z, re, im = rec
            if not (0 <= int(y) < n and 0 <= int(z) < n):
                raise UnknownPoint(
                    f"entry at ({y}, {z}) outside space of size {n}"
                )
            data[int(y), int(z)] = float(re) + 1j * float(im)
        else:
            if len(rec) != 3:
                raise FormatError(f"entry {rec!r} is not [y, z, block]")
            y, z, block = rec
            if not (0 <= int(y) < n and 0 <= int(z) < n):
                raise UnknownPoint(
                    f"entry at ({y}, {z}) outside space of size {n}"
                )
            arr = np.array(
                [[complex(v[0], v[1]) for v in row] for row in block]
            )
            if arr.shape != (m, m):
                raise FormatError(
                    f"block at ({y}, {z}) has shape {arr.shape}, wanted ({m}, {m})"
                )
            y, z = int(y), int(z)
            data[y * m : (y + 1) * m, z * m : (z + 1) * m] = arr
    return BandedOperator(space, m, data)
