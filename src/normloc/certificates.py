"""Localization certificates in subset, vector and kernel form.

A certificate at radius S assigns data to every point x that is supported in
the closed ball of radius S around x.  The three forms, in increasing
generality: finite subsets of ball-times-slots, unit vectors supported in
the ball, and positive-definite kernels of finite propagation.  Subset
certificates convert to vector ones (normalized indicators), vector ones to
kernels (their Gram matrix).

When the vectors are normalized indicators of sets of one size, as for
equal-size subsets, the Gram matrix consists of rationals
``|overlap| / size``; the certificate derives it exactly, as the integer
overlap counts and the common size, and the bounds that the experiments
pin to exact rational values are computed from those counts.
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
    UnknownPoint,
    VerificationError,
)
from .space import (
    FiniteMetricSpace,
    _check_entries,
    _integer,
    _number,
    _records,
    check_point,
    largest_distance,
    space_from_json,
    space_to_json,
)

# A claimed unit vector may miss 1 by at most this much in squared norm.
UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SubsetCertificate:
    """Per point x, a finite nonempty set A_x of (point, slot) pairs.

    Held as one read-only boolean table of shape (n, n, m):
    ``member[x, v, i - 1]`` says that (v, i) lies in A_x, so slots run from
    1 to ``m``.  Every member (v, i) of A_x must satisfy d(x, v) <= radius.
    """

    space: FiniteMetricSpace
    radius: float
    member: np.ndarray

    def __post_init__(self) -> None:
        n = self.space.n
        if not self.radius >= 0:
            raise InvalidParams(f"radius must be nonnegative, got {self.radius}")
        member = np.array(self.member)
        if member.dtype != np.bool_ or member.ndim != 3 or (
            member.shape[:2] != (n, n) or member.shape[2] < 1
        ):
            raise FormatError(
                f"membership table is {member.dtype} of shape {member.shape}, "
                f"wanted bool of shape ({n}, {n}, m >= 1)"
            )
        empty = np.flatnonzero(~member.any(axis=(1, 2)))
        if empty.size:
            raise EmptySubset(f"subset at point {empty[0]} is empty")
        beyond = member.any(axis=2) & (self.space.dist > self.radius)
        if beyond.any():
            x, v = np.argwhere(beyond)[0]
            raise DataError(
                f"subset at {x} reaches {v} at distance "
                f"{self.space.dist[x, v]} > radius {self.radius}"
            )
        member.setflags(write=False)
        object.__setattr__(self, "member", member)

    @property
    def m(self) -> int:
        return self.member.shape[2]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.member.sum(axis=(1, 2)).tolist())


@dataclass(frozen=True, eq=False)
class VectorCertificate:
    """Per point x, a unit vector supported in the radius-S ball around x.

    ``vectors[x, v, i]`` is the coefficient of point v, slot i, in a table
    of shape (n, n, m) with ``m >= 1``.  Entries outside the ball must be
    exactly zero; norms must equal 1 up to ``UNIT_NORM_TOL``.
    """

    space: FiniteMetricSpace
    radius: float
    vectors: np.ndarray

    def __post_init__(self) -> None:
        n = self.space.n
        if not self.radius >= 0:
            raise InvalidParams(f"radius must be nonnegative, got {self.radius}")
        vec = np.array(self.vectors, dtype=np.complex128)
        if vec.ndim != 3 or vec.shape[:2] != (n, n) or vec.shape[2] < 1:
            raise FormatError(
                f"vector table shape {vec.shape}, wanted ({n}, {n}, m >= 1)"
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
        vec.setflags(write=False)
        object.__setattr__(self, "vectors", vec)

    @property
    def m(self) -> int:
        return self.vectors.shape[2]

    @cached_property
    def exact_gram(self) -> tuple | None:
        """The Gram matrix exactly, as ``(counts, size)``, or None.

        Defined when every vector has ``size`` nonzero entries, each exactly
        the real number ``1 / sqrt(size)``: then the Gram entry at (y, z) is
        ``counts[y, z] / size``, with ``counts`` the read-only int64 table
        of support overlaps.
        """
        flat = self.vectors.reshape(self.space.n, -1)
        support = flat != 0
        sizes = support.sum(axis=1)
        size = int(sizes[0])
        if (sizes != size).any() or (flat[support] != 1 / np.sqrt(size)).any():
            return None
        # A float product runs through BLAS and counts exactly at these sizes.
        table = support.astype(np.float64)
        counts = (table @ table.T).astype(np.int64)
        counts.setflags(write=False)
        return counts, size

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram matrix of the vectors, with an exactly-unit diagonal.

        Read from :attr:`exact_gram` when that is defined.  Otherwise the
        float product is symmetrized (to drop last-bit asymmetry of the
        matrix product) and the diagonal, already 1 up to
        ``UNIT_NORM_TOL``, is pinned to exactly 1.  Read-only.
        """
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
        if not self.radius >= 0:
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
    member = (space.dist <= radius)[:, :, None]
    return SubsetCertificate(space=space, radius=radius, member=member)


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
    # up[v, u]: u is a neighbor of v one step closer to the root.
    up = (d == 1) & (depth[None, :] == depth[:, None] - 1)
    ups = up.sum(axis=1)
    bad = np.flatnonzero((ups != 1) & (np.arange(n) != root))
    if bad.size:
        raise NotATree(
            f"vertex {bad[0]} has {ups[bad[0]]} neighbors one step closer "
            "to root"
        )
    parent = up.argmax(axis=1)
    parent[root] = root
    member = np.zeros((n, n, length), dtype=bool)
    # Slot 1 holds the ray; a walk that reaches the root stays there.
    points, at = np.arange(n), np.arange(n)
    for _ in range(length):
        member[points, at, 0] = True
        at = parent[at]
    # A ray cut short by the root is padded with root copies in slots 2...
    padding = length - 1 - depth
    member[:, root, 1:] = np.arange(1, length)[None, :] <= padding[:, None]
    return SubsetCertificate(space=space, radius=length, member=member)


def subset_to_vector(cert: SubsetCertificate) -> VectorCertificate:
    """Normalized indicator vectors of the subsets.

    When all subsets share one size s, the certificate's exact Gram entries
    are the rationals |A_y intersect A_z| / s.
    """
    n, m = cert.space.n, cert.m
    member = cert.member.reshape(n, -1).astype(np.float64)
    sizes = member.sum(axis=1)
    vec = (member / np.sqrt(sizes)[:, None]).reshape(n, n, m)
    return VectorCertificate(space=cert.space, radius=cert.radius, vectors=vec)


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
        table=cert.gram,
        note="gram of vector certificate",
    )


def kernel_deviation(cert: KernelCertificate, radius: float) -> float:
    """max |1 - k(y, z)| over pairs at distance <= radius."""
    band = cert.space.dist <= radius
    return float(np.abs(1.0 - cert.table[band]).max())


def kernel_checks(cert: KernelCertificate) -> dict:
    """Measured properties of a kernel certificate, as a plain dict.

    Keys: ``diagonal_error``, ``hermitian_error``, ``min_eigenvalue``,
    ``psd_ok``, ``measured_propagation``, ``claimed_propagation``.  The
    minimum eigenvalue is computed on the Hermitized table when the raw one
    is slightly asymmetric, and reported as None when it is not Hermitian
    even approximately.  ``psd_ok`` allows a size-scaled tolerance: the
    minimum eigenvalue must be at least -1e-8 * n * max|k|.
    """
    k = cert.table
    diag_err = float(np.abs(np.diagonal(k) - 1.0).max())
    herm_err = float(np.abs(k - k.conj().T).max())
    nonzero = k != 0
    np.fill_diagonal(nonzero, False)
    result: dict = {
        "diagonal_error": diag_err,
        "hermitian_error": herm_err,
        "claimed_propagation": cert.radius,
        "measured_propagation": largest_distance(cert.space, nonzero),
    }
    if herm_err > 1e-6:
        result["min_eigenvalue"] = None
        result["psd_ok"] = False
        return result
    sym = (k + k.conj().T) / 2
    low = float(np.linalg.eigvalsh(sym).min())
    result["min_eigenvalue"] = low
    result["psd_ok"] = low >= -1e-8 * k.shape[0] * float(np.abs(sym).max())
    return result


def certificate_to_json(cert) -> dict:
    """Serialize any certificate form; sparse, row-major, deterministic."""
    if isinstance(cert, SubsetCertificate):
        out = {
            "form": "subset",
            "radius": cert.radius,
            "m": cert.m,
            "subsets": [
                (np.argwhere(row) + [0, 1]).tolist() for row in cert.member
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
    out["space"] = space_to_json(cert.space)
    return out


def certificate_from_json(obj: dict):
    """Read a certificate document of any form.

    Exact Gram tables are not serialized: a vector certificate derives its
    own from its vectors (see :attr:`VectorCertificate.exact_gram`).
    """
    if not isinstance(obj, dict) or "form" not in obj:
        raise FormatError("certificate document needs a 'form' field")
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
        _check_entries(space.n**2 * m, "entries")
    if form == "subset":
        raw = obj.get("subsets")
        if not isinstance(raw, list):
            raise FormatError("'subsets' must be a list")
        try:
            subsets = [
                [(_integer(v, "a point"), _integer(i, "a slot")) for v, i in a]
                for a in raw
            ]
        except (TypeError, ValueError, FormatError):
            raise FormatError(
                "subsets must be lists of integer [point, slot] pairs"
            ) from None
        if len(subsets) != space.n:
            raise FormatError(f"{len(subsets)} subsets for {space.n} points")
        member = np.zeros((space.n, space.n, m), dtype=bool)
        for x, pairs in enumerate(subsets):
            for v, i in pairs:
                if not 0 <= v < space.n:
                    raise UnknownPoint(f"subset at {x} uses point {v}")
                if not 1 <= i <= m:
                    raise DataError(
                        f"subset at {x} uses slot {i}, only 1..{m} exist"
                    )
                member[x, v, i - 1] = True
        return SubsetCertificate(space=space, radius=radius, member=member)
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
        return VectorCertificate(space=space, radius=radius, vectors=vec)
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
