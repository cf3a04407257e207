"""Localization certificates in subset, vector and kernel form.

A certificate at radius S assigns data to every point x that is supported in
the closed ball of radius S around x.  The three forms, in increasing
generality: finite subsets of ball-times-slots, unit vectors supported in
the ball, and positive-definite kernels of finite propagation.  Subset
certificates convert to vector ones (normalized indicators), vector ones to
kernels (their Gram matrix).

When every subset has the same size the Gram matrix consists of rationals
``|overlap| / size`` and is kept exactly, as the integer overlap counts and
the common size, alongside the float view; downstream bounds that the
experiments pin to exact rational values are computed from those counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DataError,
    EmptySubset,
    FormatError,
    InvalidParams,
    InvalidRadii,
    NotATree,
    NotHermitian,
    UnknownPoint,
    VerificationError,
)
from .space import (
    FiniteMetricSpace,
    _integer,
    _number,
    _records,
    ball_index,
    check_point,
    space_from_json,
    space_to_json,
)

# A claimed unit vector may miss 1 by at most this much in squared norm.
UNIT_NORM_TOL = 1e-12
# Hermiticity slack accepted before a kernel is rejected outright.
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SubsetCertificate:
    """Per point x, a finite nonempty set A_x of (point, slot) pairs.

    Slots run from 1 to ``m``.  Every member (v, i) of A_x must satisfy
    d(x, v) <= radius.
    """

    space: FiniteMetricSpace
    radius: float
    m: int
    subsets: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        n = self.space.n
        if self.radius < 0:
            raise InvalidParams(f"radius must be nonnegative, got {self.radius}")
        if _integer(self.m, "the slot count") < 1:
            raise InvalidParams(f"slot count must be >= 1, got {self.m}")
        subsets = tuple(frozenset(a) for a in self.subsets)
        if len(subsets) != n:
            raise FormatError(f"{len(subsets)} subsets for {n} points")
        for x, a in enumerate(subsets):
            if not a:
                raise EmptySubset(f"subset at point {x} is empty")
            for item in a:
                v, slot = (_integer(p, "a subset member") for p in item)
                if not 0 <= v < n:
                    raise UnknownPoint(f"subset at {x} uses point {v}")
                if not 1 <= slot <= self.m:
                    raise DataError(
                        f"subset at {x} uses slot {slot}, only 1..{self.m} exist"
                    )
                if self.space.dist[x, v] > self.radius:
                    raise DataError(
                        f"subset at {x} reaches {v} at distance "
                        f"{self.space.dist[x, v]} > radius {self.radius}"
                    )
        object.__setattr__(self, "subsets", subsets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.subsets)


@dataclass(frozen=True, eq=False)
class VectorCertificate:
    """Per point x, a unit vector supported in the radius-S ball around x.

    ``vectors[x, v, i]`` is the coefficient of point v, slot i.  Entries
    outside the ball must be exactly zero; norms must equal 1 up to
    ``UNIT_NORM_TOL``.  ``exact_gram`` optionally carries the Gram matrix
    exactly, as a pair ``(counts, size)`` of an integer (n, n) table and one
    positive denominator (available when the certificate came from
    equal-size subsets); it must match the vectors' own Gram matrix to 1e-9.
    """

    space: FiniteMetricSpace
    radius: float
    m: int
    vectors: np.ndarray
    exact_gram: tuple | None = None

    def __post_init__(self) -> None:
        n = self.space.n
        if self.radius < 0:
            raise InvalidParams(f"radius must be nonnegative, got {self.radius}")
        if _integer(self.m, "the slot count") < 1:
            raise InvalidParams(f"slot count must be >= 1, got {self.m}")
        vec = np.array(self.vectors, dtype=np.complex128)
        if vec.shape != (n, n, self.m):
            raise FormatError(
                f"vector table shape {vec.shape}, wanted {(n, n, self.m)}"
            )
        if not np.isfinite(vec).all():
            raise DataError("vector table has a NaN or infinite entry")
        outside = self.space.dist > self.radius
        if vec[outside].any():
            raise DataError("vector entry outside the radius ball")
        sq = (np.abs(vec.reshape(n, -1)) ** 2).sum(axis=1)
        worst = int(np.argmax(np.abs(sq - 1.0)))
        if abs(sq[worst] - 1.0) > UNIT_NORM_TOL:
            raise DataError(
                f"vector at point {worst} has squared norm {sq[worst]!r}"
            )
        if self.exact_gram is not None:
            counts, size = self.exact_gram
            counts = np.array(counts)
            size = _integer(size, "the exact Gram denominator")
            if counts.shape != (n, n) or counts.dtype.kind not in "iu" or (
                size < 1
            ):
                raise FormatError(
                    "exact Gram must be (n, n) integer counts and a size >= 1"
                )
            flat = vec.reshape(n, -1)
            if np.abs(flat @ flat.conj().T - counts / size).max() > 1e-9:
                raise DataError("exact Gram table does not match the vectors")
            counts = counts.astype(np.int64)
            counts.setflags(write=False)
            object.__setattr__(self, "exact_gram", (counts, size))
        vec.setflags(write=False)
        object.__setattr__(self, "vectors", vec)

    def gram(self) -> np.ndarray:
        """Gram matrix of the vectors, with an exactly-unit diagonal.

        Uses the exact rational table when present.  Otherwise the float
        product is symmetrized (to drop last-bit asymmetry of the matrix
        product) and the diagonal, already 1 up to ``UNIT_NORM_TOL``, is
        pinned to exactly 1.  Computed on the first call; every call
        returns the same read-only array.
        """
        return self._gram

    @cached_property
    def _gram(self) -> np.ndarray:
        if self.exact_gram is not None:
            counts, size = self.exact_gram
            g = counts / size
        else:
            flat = self.vectors.reshape(self.space.n, -1)
            g = flat @ flat.conj().T
            g = (g + g.conj().T) / 2
            drift = np.abs(np.diagonal(g) - 1.0).max()
            if drift > 1e-9:
                raise VerificationError(f"gram diagonal off by {drift}")
            np.fill_diagonal(g, 1.0)
        g.setflags(write=False)
        return g


@dataclass(frozen=True, eq=False)
class KernelCertificate:
    """A kernel k(y, z) that vanishes beyond the stated propagation radius.

    The constructor enforces shape and the structural zero pattern exactly;
    unit diagonal, Hermiticity and positivity are measured by
    :func:`kernel_checks` so imperfect kernels can still be inspected.
    """

    space: FiniteMetricSpace
    radius: float
    table: np.ndarray
    note: str = ""

    def __post_init__(self) -> None:
        n = self.space.n
        if self.radius < 0:
            raise InvalidParams(f"radius must be nonnegative, got {self.radius}")
        table = np.array(self.table, dtype=np.complex128)
        if table.shape != (n, n):
            raise FormatError(f"kernel shape {table.shape}, wanted {(n, n)}")
        if not np.isfinite(table).all():
            raise DataError("kernel table has a NaN or infinite entry")
        beyond = self.space.dist > self.radius
        if table[beyond].any():
            raise DataError(
                f"kernel entry beyond claimed propagation {self.radius}"
            )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def ball_certificate(space: FiniteMetricSpace, radius: float) -> SubsetCertificate:
    """Subset certificate whose set at x is the full ball around x."""
    subsets = tuple(
        frozenset((int(v), 1) for v in points)
        for points in ball_index(space, radius).balls
    )
    return SubsetCertificate(space=space, radius=radius, m=1, subsets=subsets)


def tree_ray_certificate(
    space: FiniteMetricSpace, length: int, root: int = 0
) -> SubsetCertificate:
    """Subset certificate on a tree: the geodesic ray of given length.

    The set at x collects the first ``length`` vertices of the path from x
    toward the root; when the path ends early the remaining members are
    copies of the root in fresh slots, so all sets have size exactly
    ``length`` and adjacent sets overlap in exactly ``length - 1`` members.
    Requires the distance-one graph to be a tree (checked).
    """
    root = check_point(space, root)
    length = _integer(length, "the ray length")
    if length < 1:
        raise InvalidParams(f"ray length must be >= 1, got {length}")
    n = space.n
    d = space.dist
    if d.dtype.kind != "i":
        raise NotATree("ray certificates need an integer graph metric")
    edge_count = int((d == 1).sum()) // 2
    if edge_count != n - 1:
        raise NotATree(
            f"distance-one graph has {edge_count} edges, a tree on {n} "
            f"vertices has {n - 1}"
        )
    depth = d[root]
    parent = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if v == root:
            continue
        up = np.flatnonzero((d[v] == 1) & (depth == depth[v] - 1))
        if up.size != 1:
            raise NotATree(
                f"vertex {v} has {up.size} neighbors one step closer to root"
            )
        parent[v] = up[0]
    subsets = []
    for x in range(n):
        ray = [x]
        while len(ray) < length and ray[-1] != root:
            ray.append(int(parent[ray[-1]]))
        items = {(v, 1) for v in ray}
        pad_slot = 2
        while len(items) < length:
            items.add((root, pad_slot))
            pad_slot += 1
        subsets.append(frozenset(items))
    return SubsetCertificate(
        space=space, radius=length, m=length, subsets=tuple(subsets)
    )


def subset_to_vector(cert: SubsetCertificate) -> VectorCertificate:
    """Normalized indicator vectors of the subsets.

    When all subsets share one size s, Gram entries are the rationals
    |A_y intersect A_z| / s and are kept exactly.
    """
    n, m = cert.space.n, cert.m
    # 0/1 membership table: row x, column (point, slot).
    member = np.zeros((n, n * m))
    for x, a in enumerate(cert.subsets):
        member[x, [v * m + slot - 1 for v, slot in a]] = 1.0
    amp = 1.0 / np.sqrt(member.sum(axis=1))
    vec = (member * amp[:, None]).reshape(n, n, m).astype(np.complex128)
    exact = None
    if len(set(cert.sizes)) == 1:
        # Intersection counts; a float product counts exactly at these sizes.
        exact = ((member @ member.T).astype(np.int64), cert.sizes[0])
    return VectorCertificate(
        space=cert.space, radius=cert.radius, m=m, vectors=vec, exact_gram=exact
    )


# Certificate constructions that can be named instead of read from a file.
CERTIFICATE_SOURCES = ("ball", "tree_ray")


def named_certificate(
    space: FiniteMetricSpace, source: str, loc_radius: float
) -> VectorCertificate:
    """Vector certificate from ``"ball"`` (normalized ball indicators) or
    ``"tree_ray"`` (root-directed rays as long as the radius, which must be
    an integer >= 1, else :class:`InvalidRadii`); other names raise
    :class:`InvalidParams`.
    """
    if source == "ball":
        return subset_to_vector(ball_certificate(space, loc_radius))
    if source == "tree_ray":
        if int(loc_radius) != loc_radius or loc_radius < 1:
            raise InvalidRadii(
                "tree_ray needs an integer localization radius >= 1"
            )
        return subset_to_vector(tree_ray_certificate(space, int(loc_radius)))
    raise InvalidParams(f"unknown certificate source {source!r}")


def vector_to_kernel(cert: VectorCertificate) -> KernelCertificate:
    """Gram kernel of a vector certificate; propagation at most 2 * radius."""
    return KernelCertificate(
        space=cert.space,
        radius=2 * cert.radius,
        table=cert.gram(),
        note="gram of vector certificate",
    )


def kernel_deviation(cert: KernelCertificate, radius: float) -> float:
    """max |1 - k(y, z)| over pairs at distance <= radius."""
    band = cert.space.dist <= radius
    return float(np.abs(1.0 - cert.table[band]).max())


def check_positive_definite(
    table: np.ndarray, tol: float | None = None, herm_tol: float = HERMITIAN_TOL
) -> tuple[bool, float]:
    """(is positive semidefinite up to tol, smallest eigenvalue).

    Rejects tables that are not Hermitian within ``herm_tol``.  The default
    tolerance scales with size and magnitude: 1e-8 * n * max|k|.
    """
    table = np.asarray(table, dtype=np.complex128)
    herm_err = float(np.abs(table - table.conj().T).max())
    if herm_err > herm_tol:
        raise NotHermitian(f"kernel deviates from Hermitian by {herm_err}")
    eigs = np.linalg.eigvalsh(table)
    low = float(eigs.min())
    if tol is None:
        scale = float(np.abs(table).max()) if table.size else 0.0
        tol = 1e-8 * table.shape[0] * scale
    return low >= -tol, low


def kernel_checks(cert: KernelCertificate, psd_tol: float | None = None) -> dict:
    """Measured properties of a kernel certificate, as a plain dict.

    Keys: ``diagonal_error``, ``hermitian_error``, ``min_eigenvalue``,
    ``psd_ok``, ``measured_propagation``, ``claimed_propagation``.  The
    minimum eigenvalue is computed on the Hermitized table when the raw one
    is slightly asymmetric, and reported as None when it is not Hermitian
    even approximately.
    """
    k = cert.table
    diag_err = float(np.abs(np.diagonal(k) - 1.0).max())
    herm_err = float(np.abs(k - k.conj().T).max())
    nonzero = k != 0
    np.fill_diagonal(nonzero, False)
    measured = float(cert.space.dist[nonzero].max()) if nonzero.any() else 0.0
    if cert.space.dist.dtype.kind == "i":
        measured = int(measured)
    result: dict = {
        "diagonal_error": diag_err,
        "hermitian_error": herm_err,
        "claimed_propagation": cert.radius,
        "measured_propagation": measured,
    }
    if herm_err > 1e-6:
        result["min_eigenvalue"] = None
        result["psd_ok"] = False
        return result
    sym = (k + k.conj().T) / 2
    ok, low = check_positive_definite(sym, tol=psd_tol, herm_tol=np.inf)
    result["min_eigenvalue"] = low
    result["psd_ok"] = bool(ok)
    return result


def certificate_to_json(cert, include_space: bool = True) -> dict:
    """Serialize any certificate form; sparse, row-major, deterministic."""
    if isinstance(cert, SubsetCertificate):
        out = {
            "form": "subset",
            "radius": cert.radius,
            "m": cert.m,
            "subsets": [
                [[int(v), int(i)] for v, i in sorted(a)] for a in cert.subsets
            ],
        }
    elif isinstance(cert, VectorCertificate):
        entries = []
        for x, v, i in np.argwhere(cert.vectors != 0):
            val = cert.vectors[x, v, i]
            entries.append(
                [int(x), int(v), int(i) + 1, float(val.real), float(val.imag)]
            )
        out = {
            "form": "vector",
            "radius": cert.radius,
            "m": cert.m,
            "entries": entries,
        }
    elif isinstance(cert, KernelCertificate):
        entries = []
        for y, z in np.argwhere(cert.table != 0):
            val = cert.table[y, z]
            entries.append([int(y), int(z), float(val.real), float(val.imag)])
        out = {
            "form": "kernel",
            "radius": cert.radius,
            "note": cert.note,
            "entries": entries,
        }
    else:
        raise FormatError(f"not a certificate: {type(cert).__name__}")
    if include_space:
        out["space"] = space_to_json(cert.space)
    return out


def certificate_from_json(obj: dict, space: FiniteMetricSpace | None = None):
    """Read a certificate document of any form.

    Exact Gram tables are not serialized; reload a subset-form document and
    convert with :func:`subset_to_vector` to regain exactness.
    """
    if not isinstance(obj, dict) or "form" not in obj:
        raise FormatError("certificate document needs a 'form' field")
    if space is None:
        if "space" not in obj:
            raise FormatError("certificate document needs an embedded 'space'")
        space = space_from_json(obj["space"])
    form = obj["form"]
    radius = obj.get("radius")
    if type(radius) not in (int, float) or not np.isfinite(radius):
        raise FormatError(f"'radius' must be a finite number, got {radius!r}")
    if form in ("subset", "vector"):
        m = _integer(obj.get("m", 1), "'m'")
        if m < 1:
            raise FormatError(f"slot count must be >= 1, got {m}")
    if form == "subset":
        raw = obj.get("subsets")
        if not isinstance(raw, list):
            raise FormatError("'subsets' must be a list")
        try:
            subsets = tuple(
                frozenset(
                    (_integer(v, "a point"), _integer(i, "a slot"))
                    for v, i in a
                )
                for a in raw
            )
        except (TypeError, ValueError, FormatError):
            raise FormatError(
                "subsets must be lists of integer [point, slot] pairs"
            ) from None
        return SubsetCertificate(space=space, radius=radius, m=m, subsets=subsets)
    if form == "vector":
        vec = np.zeros((space.n, space.n, m), dtype=np.complex128)
        for rec in _records(obj, 5, "[x, v, slot, re, im]"):
            x, v, slot = (_integer(f, "a vector index") for f in rec[:3])
            if not (0 <= x < space.n and 0 <= v < space.n):
                raise UnknownPoint(f"vector entry at ({x}, {v}) outside space")
            if not 1 <= slot <= m:
                raise FormatError(f"slot {slot} outside 1..{m}")
            re, im = (_number(f, "a coefficient") for f in rec[3:])
            vec[x, v, slot - 1] = re + 1j * im
        return VectorCertificate(space=space, radius=radius, m=m, vectors=vec)
    if form == "kernel":
        table = np.zeros((space.n, space.n), dtype=np.complex128)
        for rec in _records(obj, 4, "[y, z, re, im]"):
            y, z = (_integer(f, "a kernel index") for f in rec[:2])
            if not (0 <= y < space.n and 0 <= z < space.n):
                raise UnknownPoint(f"kernel entry at ({y}, {z}) outside space")
            re, im = (_number(f, "a coefficient") for f in rec[2:])
            table[y, z] = re + 1j * im
        return KernelCertificate(
            space=space,
            radius=radius,
            table=table,
            note=str(obj.get("note", "")),
        )
    raise FormatError(f"unknown certificate form {form!r}")
