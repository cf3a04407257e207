"""Banded operators on a finite metric space.

An operator acts on vectors indexed by (point, slot) with ``m`` slots per
point, stored as a dense complex matrix in point-major order.  Its support
(which point pairs carry a nonzero block) and its propagation (the largest
distance carrying one) are read from that matrix, so an entry that cancels
leaves both.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceFailure,
    DataError,
    FormatError,
    InvalidParams,
)
from .space import (
    FiniteMetricSpace,
    _check_entries,
    _integer,
    largest_distance,
)

# Dense spectral norms are cheap up to this matrix side; beyond it the
# default method switches to power iteration.
DENSE_NORM_LIMIT = 512
# Power iteration stops at this relative tolerance on the extrapolated
# remaining Ritz gain, and raises past this many steps.
POWER_TOL = 1e-10
POWER_STEP_CAP = 10_000
# Arrays between these sizes are kept for reuse (:func:`_scratch`).
_SCRATCH_BYTES = (64 << 10, 4 << 20)


def same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> bool:
    return a is b or (
        a.labels == b.labels and a.dist.shape == b.dist.shape
        and bool(np.array_equal(a.dist, b.dist))
    )


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Dense matrix over a finite metric space.

    ``data`` has shape ``(n*m, n*m)``; the block coupling points ``y`` and
    ``z`` is ``data[y*m:(y+1)*m, z*m:(z+1)*m]``.  A non-integer ``m``
    raises :class:`FormatError` and a NaN or infinite entry raises
    :class:`DataError`.
    """

    space: FiniteMetricSpace
    m: int
    data: np.ndarray

    def __post_init__(self) -> None:
        n = self.space.n
        m = _integer(self.m, "the slot count")
        if m < 1:
            raise InvalidParams(f"slot count must be >= 1, got {m}")
        data = np.array(self.data, dtype=np.complex128)
        if data.shape != (n * m, n * m):
            raise FormatError(
                f"data shape {data.shape} does not match n*m = {n * m}"
            )
        if not np.isfinite(data).all():
            raise DataError("operator data has NaN or infinite entries")
        data.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "data", data)

    @cached_property
    def support(self) -> np.ndarray:
        """Read-only (n, n) table of the point pairs with a nonzero block."""
        n, m = self.n, self.m
        support = (self.data != 0).reshape(n, m, n, m).any(axis=(1, 3))
        support.setflags(write=False)
        return support

    @cached_property
    def _norm(self) -> float:
        """The ``auto`` route of :func:`operator_norm`, computed once: the
        data is read-only, so the value cannot go stale."""
        dense = self.data.shape[0] <= DENSE_NORM_LIMIT
        return _norm_by(self.data, "dense" if dense else "power")

    @property
    def n(self) -> int:
        return self.space.n

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (self.n * self.m,):
            raise FormatError(
                f"vector shape {vec.shape} does not match n*m = {self.n * self.m}"
            )
        return self.data @ vec

    def adjoint(self) -> "BandedOperator":
        return BandedOperator(self.space, self.m, self.data.conj().T)

    def _binary(self, other: "BandedOperator", op) -> "BandedOperator":
        if not isinstance(other, BandedOperator):
            return NotImplemented
        if not same_space(self.space, other.space) or self.m != other.m:
            raise DataError("operators live on different spaces")
        return BandedOperator(self.space, self.m, op(self.data, other.data))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return BandedOperator(self.space, self.m, -self.data)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return BandedOperator(self.space, self.m, self.data * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, BandedOperator):
            return NotImplemented
        if not same_space(self.space, other.space) or self.m != other.m:
            raise DataError("operators live on different spaces")
        return BandedOperator(self.space, self.m, self.data @ other.data)

    def __repr__(self) -> str:
        return (
            f"BandedOperator(space={self.space.name!r}, n={self.n}, m={self.m})"
        )


def adjacency(space: FiniteMetricSpace) -> BandedOperator:
    """0/1 operator with a one wherever two points are at distance one."""
    return BandedOperator(space, 1, (space.dist == 1).astype(np.complex128))


def random_banded(
    space: FiniteMetricSpace,
    radius: float,
    seed: int,
    m: int = 1,
) -> BandedOperator:
    """Seeded Gaussian operator supported on the band of the given radius.

    Entries are drawn in row-major order over the band positions, real parts
    first, so a fixed seed fully determines the operator.  An operator of
    more than ``MAX_TABLE_ENTRIES`` entries raises :class:`DataError`
    before anything is allocated.
    """
    if not radius >= 0:
        raise InvalidParams(f"band radius must be nonnegative, got {radius}")
    n = space.n
    _check_entries((n * m) ** 2, "operator entries")
    ys, zs = np.nonzero(space.dist <= radius)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((ys.size, m, m))
    vals = vals + 1j * rng.standard_normal((ys.size, m, m))
    data = np.zeros((n * m, n * m), dtype=np.complex128)
    # Axes (y, slot, z, slot): each band position's block in one assignment.
    data.reshape(n, m, n, m)[ys, :, zs, :] = vals
    return BandedOperator(space, m, data)


def propagation(a: BandedOperator):
    """Largest distance carrying a nonzero block (0 if none)."""
    return largest_distance(a.space, a.support)


def _parts(stack: np.ndarray) -> np.ndarray:
    """Each matrix of a ``(k, p, q)`` stack as one row of its entries, real
    and imaginary parts side by side."""
    parts = np.ascontiguousarray(stack).reshape(len(stack), -1)
    return parts.view(parts.real.dtype) if parts.dtype.kind == "c" else parts


_scratch_buffers = threading.local()


def _scratch(slot: str, shape: tuple, dtype) -> np.ndarray | None:
    """An uninitialized array of ``shape`` over a buffer this thread keeps,
    or None (allocate afresh) outside the sizes of ``_SCRATCH_BYTES``.

    The stacks of a report are a few hundred KB each.  Fresh arrays of
    that size make the allocator return memory to the kernel and fault
    it back in for the next stack: about 2,400 page faults and 4.5 ms of
    system time per equiv-cycle op.  Kept buffers make no faults.  Small
    arrays come from the allocator's free lists, where a kept buffer
    saves nothing and costs a lookup.  The array is valid until this
    thread asks for ``slot`` again.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    low, high = _SCRATCH_BYTES
    if not low <= size * dtype.itemsize <= high:
        return None
    buffers = vars(_scratch_buffers)
    buffer = buffers.get((slot, dtype))
    if buffer is None or buffer.size < size:
        buffer = buffers[slot, dtype] = np.empty(size, dtype)
    return buffer[:size].reshape(shape)


def _scale_by_powers_of_two(
    stack: np.ndarray, parts: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(scaled nonempty ``(k, p, q)`` stack, exponents), as in
    :func:`top_singular_values`; ``parts`` is :func:`_parts` of it.  The
    scaled stack is written to ``out`` when given."""
    peak = np.maximum(parts.max(axis=-1), -parts.min(axis=-1))
    if not np.isfinite(peak).all():
        raise DataError("matrix has NaN or infinite entries")
    # A subnormal peak is lifted only as far as 2^1020 allows, which still
    # keeps its Gram clear of underflow.
    exponent = np.maximum(np.frexp(peak)[1], -1020)
    factors = np.ldexp(1.0, -exponent)[:, None, None]
    return np.multiply(stack, factors, out=out), exponent


def top_singular_values(stack) -> np.ndarray:
    """Largest singular value of each matrix in a ``(..., p, q)`` stack.

    Each matrix is first scaled by the exact power of two that brings its
    largest real or imaginary part into [1/2, 1), so its Gram can neither
    overflow nor underflow to zero; the value is the square root of the top
    eigenvalue of the smaller Gram (``M^H M`` or ``M M^H``), scaled back.
    A matrix that the stack repeats bit for bit is factorized once
    (:func:`_repeats`); each value is the one a lone factorization gives.
    A large stack is scaled and multiplied in arrays each thread keeps
    (:func:`_scratch`).  Raises :class:`DataError` on a NaN or infinite
    entry.
    """
    stack = np.asarray(stack)
    if stack.ndim < 2:
        raise InvalidParams(f"need a stack of matrices, got shape {stack.shape}")
    *batch, p, q = stack.shape
    if stack.size == 0:
        return np.zeros(batch)
    return _top_values(stack, rows=p < q)


def _top_values(stack: np.ndarray, rows: bool) -> np.ndarray:
    """:func:`top_singular_values` of a nonempty stack, with the Gram
    ``M M^H`` when ``rows`` is set and ``M^H M`` otherwise."""
    *batch, p, q = stack.shape
    flat = stack.reshape(-1, p, q)
    parts = _parts(flat)
    repeats = _repeats(parts)
    if repeats is not None:
        flat, parts = flat[repeats[0]], parts[repeats[0]]
    k = len(flat)
    dtype = np.promote_types(flat.dtype, np.float64)
    scaled, exponent = _scale_by_powers_of_two(
        flat, parts, out=_scratch("scaled", (k, p, q), dtype)
    )
    # The conjugate of a real array is the array itself, and numpy's matmul
    # then takes the symmetric product; a copy would change its bits.
    conj = scaled
    if dtype.kind == "c":
        conj = np.conjugate(scaled, out=_scratch("conj", (k, p, q), dtype))
    adjoint = np.swapaxes(conj, -1, -2)
    side = p if rows else q
    out = _scratch("gram", (k, side, side), dtype)
    if rows:
        gram = np.matmul(scaled, adjoint, out=out)
    else:
        gram = np.matmul(adjoint, scaled, out=out)
    values = np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[:, -1]), exponent)
    if repeats is not None:
        values = values[repeats[1]]
    return values.reshape(batch)


_weights = np.zeros(0)


def _fingerprint_weights(size: int) -> np.ndarray:
    """The first ``size`` of one fixed sequence of weights in [1, 2).

    The sequence is drawn once and redrawn longer when a longer prefix is
    asked for; a longer draw starts with the shorter one, so the weights
    never depend on earlier calls.
    """
    global _weights
    if _weights.size < size:
        _weights = np.random.default_rng(0).uniform(1.0, 2.0, 2 * size)
        _weights.setflags(write=False)
    return _weights[:size]


def _repeats(parts: np.ndarray) -> tuple | None:
    """(first index of each distinct matrix, index of each matrix's
    representative among those) when a stack repeats a matrix bit for bit,
    else None.  ``parts`` is :func:`_parts` of the stack.

    One fingerprint per matrix, the dot product of its parts with a fixed
    vector, finds candidate repeats cheaply: two equal fingerprints make
    a repeat, and NaN equals nothing.  ``einsum`` sums every row
    the same way, so equal matrices get equal fingerprints; a BLAS product
    sums rows differently by their position in the stack.  Candidates
    count only when every matrix equals its representative as unsigned
    integers of the parts' width, so -0.0 and 0.0 differ.  A fingerprint
    collision gives None.
    """
    if len(parts) < 2:
        return None
    prints = np.einsum("ij,j->i", parts, _fingerprint_weights(parts.shape[1]))
    if len(set(prints.tolist())) == len(prints):
        return None
    _, first, inverse = np.unique(prints, return_index=True, return_inverse=True)
    bits = parts.view(f"u{parts.itemsize}")
    if not np.array_equal(bits, bits[first[inverse]]):
        return None
    return first, inverse


def top_singular_pair(mat) -> tuple[float, np.ndarray]:
    """Largest singular value of one matrix and a unit right vector attaining it.

    Scaled as in :func:`top_singular_values`.  Up to ``DENSE_NORM_LIMIT``
    on the smaller side the pair is the top ``eigh`` pair of the smaller
    Gram (``M^H u``, normalized, when that is ``M M^H``); beyond it, block
    power iteration (:func:`_block_power`).  A zero matrix gives 0 and the
    first basis vector.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise InvalidParams(f"need one matrix, got shape {mat.shape}")
    return _top_pair(mat, iterate=min(mat.shape) > DENSE_NORM_LIMIT)


def _top_pair(mat: np.ndarray, iterate: bool) -> tuple[float, np.ndarray]:
    q = mat.shape[1]
    if not mat.any():
        return 0.0, np.eye(q, 1, dtype=np.complex128).ravel()
    scaled, exponent = _scale_by_powers_of_two(mat[None], _parts(mat[None]))
    scaled, exponent = scaled[0], exponent[0]
    adjoint = scaled.conj().T
    if iterate:
        top, right = _block_power(scaled, adjoint)
    elif mat.shape[0] >= q:
        values, vectors = np.linalg.eigh(adjoint @ scaled)
        top, right = values[-1], vectors[:, -1]
    else:
        values, vectors = np.linalg.eigh(scaled @ adjoint)
        top, right = values[-1], adjoint @ vectors[:, -1]
        right /= np.linalg.norm(right)
    return float(np.ldexp(np.sqrt(top), exponent)), right


def _block_power(mat: np.ndarray, adj: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenpair of ``M^H M`` by block power iteration (``adj = M^H``).

    A fixed seeded block of 4 is reorthonormalized each step; the top Ritz
    value converges at a rate set by the fifth singular value, so nearly
    degenerate leading pairs, which stall the single-vector iteration
    beyond any reasonable cap, are harmless.  The Ritz pair comes from
    ``eigh`` of the block image's Gram.  Iteration stops when the geometric
    extrapolation of the remaining Ritz gain drops below ``POWER_TOL``
    relative (the raw successive difference systematically under-reports
    the error), or when the sequence wiggles at rounding level.  Raises
    :class:`ConvergenceFailure` past ``POWER_STEP_CAP`` steps.
    """
    q = mat.shape[1]
    rng = np.random.default_rng(0)
    block = min(4, q)
    x = rng.standard_normal((q, block)) + 1j * rng.standard_normal((q, block))
    x, _ = np.linalg.qr(x)
    lam_prev = None
    diff_prev = None
    floor_hits = 0
    noise = 8.0 * np.finfo(np.float64).eps
    for _ in range(POWER_STEP_CAP):
        w = mat @ x
        values, vectors = np.linalg.eigh(w.conj().T @ w)
        lam = float(values[-1])
        done = False
        if lam_prev is not None:
            diff = abs(lam - lam_prev)
            # Rounding-level wiggle for several steps means the sequence is
            # converged to machine precision, far below any useful tol.
            floor_hits = floor_hits + 1 if diff <= noise * lam else 0
            done = diff == 0.0 or floor_hits >= 3
            if not done and diff_prev is not None and diff < diff_prev:
                # Ritz gains decay geometrically; summing the tail bounds
                # what is left.
                rate = diff / diff_prev
                done = diff * rate / (1.0 - rate) <= POWER_TOL * lam
            diff_prev = diff
        if done:
            return lam, x @ vectors[:, -1]
        lam_prev = lam
        x, _ = np.linalg.qr(adj @ w)
    raise ConvergenceFailure(
        f"power iteration did not stabilize in {POWER_STEP_CAP} steps"
    )


def operator_norm(a: BandedOperator, method: str = "auto") -> float:
    """Operator (spectral) norm.

    ``dense`` takes :func:`top_singular_values`; ``power`` takes the value
    of the block power iteration behind :func:`top_singular_pair`.
    ``auto`` picks ``dense`` up to side ``DENSE_NORM_LIMIT``, and the
    operator keeps that value, so each operator computes it once.
    """
    if method == "auto":
        return a._norm
    return _norm_by(a.data, method)


def _norm_by(data: np.ndarray, method: str) -> float:
    if method == "dense":
        return float(top_singular_values(data))
    if method != "power":
        raise InvalidParams(f"unknown norm method {method!r}")
    return _top_pair(data, iterate=True)[0]

