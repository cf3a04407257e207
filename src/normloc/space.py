"""Finite metric spaces with integer graph metrics.

The whole package works over a finite metric space given by an explicit
distance table.  Graph families (cycles, paths, grids, trees, random regular
graphs) are built as explicit edge lists and turned into metric spaces by
one breadth-first search from all sources at once, so their distances are
exact integers.  Random regular graphs come from the Steger-Wormald pairing
model driven by ``random.Random(seed)``; the draw order is fixed, so a seed
names the same graph in every release.  Closed balls, geometry profiles and
metric-axiom validation live here as well.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import (
    DataError,
    DisconnectedGraph,
    FormatError,
    InvalidParams,
    UnknownPoint,
)

# Above this size the exact triangle-inequality sweep is replaced by seeded
# sampling of triples; every space used by the bundled experiments is smaller.
EXACT_VALIDATION_LIMIT = 512
# Triples drawn by that sampling.
VALIDATION_SAMPLE_TRIPLES = 200_000
# Violations reported before the rest are suppressed.
VALIDATION_MAX_MESSAGES = 20
# Most entries a document reader may allocate for one table; a larger
# declared size raises DataError before any allocation.
MAX_TABLE_ENTRIES = 2**26


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite metric space: labelled points and a distance table.

    The constructor enforces shape consistency, finite distances and
    integer distances below 2**62 in size (:class:`FormatError`), so
    syntactically valid but metrically broken tables can be built and then
    fed to :func:`validate_metric`.  The distance table is copied and
    frozen.  The space keeps the ball indexes
    built on it, one per radius (see :func:`ball_index`), and its ball
    covers, one per radius pair (see :func:`ball_cover`).
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    name: str = "space"

    def __post_init__(self) -> None:
        table = np.array(self.dist)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise FormatError("distance table must be a square matrix")
        if len(self.labels) != table.shape[0]:
            raise FormatError(
                f"{len(self.labels)} labels for {table.shape[0]} points"
            )
        if table.dtype.kind not in "iuf":
            raise FormatError("distances must be numeric")
        # Integer tables stay integers so graph metrics compare exactly.
        if table.dtype.kind in "iu":
            # Then the sum of two distances fits in int64.
            low, high = (table.min(), table.max()) if table.size else (0, 0)
            if not -(2**62) < low <= high < 2**62:
                raise FormatError("integer distances must be below 2**62")
            table = table.astype(np.int64)
        else:
            table = table.astype(np.float64)
            if not np.isfinite(table).all():
                raise FormatError("distances must be finite")
        table.setflags(write=False)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "dist", table)
        object.__setattr__(self, "_ball_indexes", {})
        object.__setattr__(self, "_ball_covers", {})

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({self.name!r}, n={self.n})"


@dataclass(frozen=True)
class GeometryProfile:
    """Ball statistics of a space at one radius."""

    max_ball: int
    diameter: float


def largest_distance(space: FiniteMetricSpace, pairs) -> int | float:
    """Largest of the distances ``space.dist[pairs]``, 0 if there are none.

    An int on integer tables and a float on float tables.
    """
    chosen = space.dist[pairs]
    return chosen.max().item() if chosen.size else 0


def check_point(space: FiniteMetricSpace, x: int) -> int:
    """Return ``x`` as a plain int after type and bounds checking."""
    x = _integer(x, "a point index")
    if not 0 <= x < space.n:
        raise UnknownPoint(f"point {x} outside space of size {space.n}")
    return x


def ball(space: FiniteMetricSpace, x: int, radius: float) -> np.ndarray:
    """Indices of the closed ball around ``x``, in increasing order."""
    x = check_point(space, x)
    if not radius >= 0:
        raise InvalidParams(f"ball radius must be nonnegative, got {radius}")
    return np.flatnonzero(space.dist[x] <= radius)


@dataclass(frozen=True, eq=False)
class BallIndex:
    """The closed balls of one radius around every point of a space.

    ``balls[x]`` holds the indices of the ball around ``x`` in increasing
    order and ``sizes[x]`` its size.  ``maximal`` lists, in increasing
    order, the centers of the inclusion-maximal balls, with equal balls
    collapsed to their smallest center, and ``member[i, p]`` is set when
    the ball around ``maximal[i]`` holds point p.  Every ball lies inside
    some maximal ball, so a supremum of norms of restrictions (two-sided
    or to columns) is attained on them.
    """

    radius: float
    balls: tuple
    sizes: np.ndarray
    maximal: np.ndarray
    member: np.ndarray


def ball_index(space: FiniteMetricSpace, radius: float) -> BallIndex:
    """The closed balls of the given radius and the maximal ones.

    The space keeps the index, so each radius of a space is indexed once
    and every later call returns the same object.  Ball x lies inside ball
    y exactly when their overlap count equals the size of ball x; all
    overlap counts come from one matrix product.  A negative or NaN radius
    raises :class:`InvalidParams`.
    """
    if not radius >= 0:
        raise InvalidParams(f"ball radius must be nonnegative, got {radius}")
    index = space._ball_indexes.get(radius)
    if index is not None:
        return index
    inside = space.dist <= radius
    balls = tuple(np.flatnonzero(row) for row in inside)
    sizes = inside.sum(axis=1)
    # A float product runs through BLAS and counts exactly at these sizes.
    within = inside.astype(np.float64)
    contained = (within @ within.T) == sizes[:, None]
    # x is dropped when its ball lies in a strictly larger ball, or equals
    # the ball of a smaller center.
    larger = sizes[None, :] > sizes[:, None]
    earlier = np.tri(space.n, k=-1, dtype=bool)
    dropped = (contained & (larger | earlier)).any(axis=1)
    maximal = np.flatnonzero(~dropped)
    member = inside[maximal]
    # Every caller shares the kept index, so its arrays are read-only.
    for arr in (*balls, sizes, maximal, member):
        arr.setflags(write=False)
    index = BallIndex(radius, balls, sizes, maximal, member)
    space._ball_indexes[radius] = index
    return index


def _holders(need: np.ndarray, wide: BallIndex) -> np.ndarray:
    """(rows of ``need``, ``wide.maximal``) table: whether each maximal
    ball of ``wide`` holds every point of each row of the boolean table
    ``need``.

    Only set inclusion is read, so a distance table that breaks the
    triangle inequality cannot make an entry wrong.
    """
    # Counts below 2^24, so exact in float32.
    inside = need.astype(np.float32) @ wide.member.T.astype(np.float32)
    return inside == need.sum(axis=1)[:, None]


@dataclass(frozen=True, eq=False)
class BallCover:
    """How the maximal balls of ``wide`` hold those of a smaller radius,
    and a cover of the smaller ones where it pays.

    ``holds[i, j]`` is set when the j-th maximal ball of ``wide`` holds
    the i-th maximal ball of the smaller radius (:func:`_holders`).
    ``chosen``, as ``wide.maximal``, marks the balls of the cover; none is
    marked where the cover would not pay.
    """

    wide: BallIndex
    holds: np.ndarray
    chosen: np.ndarray


def ball_cover(
    space: FiniteMetricSpace, radius: float, wide_radius: float
) -> BallCover:
    """The inclusion table of the maximal balls of ``radius`` in those of
    ``wide_radius``, and a cover of the first by the second.

    The cover is greedy: it takes the maximal wide ball that holds the
    most maximal balls not yet held, ties to the smallest center, until
    every one is held.  A block of side p costs about p^3 to factorize, so
    the cover is chosen only when the sum of its balls' sizes cubed is
    below that of the maximal balls of ``radius``; a slot count multiplies
    both sums alike.  A wide radius below ``radius`` can leave a ball
    unheld, and then nothing is chosen either.  The space keeps the
    result, so each radius pair is covered once.
    """
    key = radius, wide_radius
    if key in space._ball_covers:
        return space._ball_covers[key]
    index = ball_index(space, radius)
    wide = ball_index(space, wide_radius)
    holds = _holders(index.member, wide)
    # Bit i of held[j]: wide ball j holds ball i.  A wide ball's count of
    # balls not yet held only falls, so a popped count that is still
    # current is the largest, and on ties the heap pops the smallest
    # center first.
    sets = np.packbits(holds.T, axis=1, bitorder="little")
    width, raw = sets.shape[1], sets.tobytes()
    held = [
        int.from_bytes(raw[j * width : (j + 1) * width], "little")
        for j in range(len(sets))
    ]
    heap = [(-bits.bit_count(), j) for j, bits in enumerate(held)]
    heapq.heapify(heap)
    left = (1 << len(holds)) - 1
    chosen = np.zeros(wide.maximal.shape, dtype=bool)
    while left and heap:
        count, j = heapq.heappop(heap)
        now = (held[j] & left).bit_count()
        if now == -count:
            chosen[j] = True
            left &= ~held[j]
        elif now:
            heapq.heappush(heap, (-now, j))
    cost = (wide.sizes[wide.maximal[chosen]] ** 3).sum()
    if left or cost >= (index.sizes[index.maximal] ** 3).sum():
        chosen[:] = False
    # Every caller shares the kept cover, so its arrays are read-only.
    for arr in (holds, chosen):
        arr.setflags(write=False)
    cover = BallCover(wide, holds, chosen)
    space._ball_covers[key] = cover
    return cover


def geometry_profile(space: FiniteMetricSpace, radius: float) -> GeometryProfile:
    """The largest ball and the diameter at the given radius."""
    if not radius >= 0:
        raise InvalidParams(f"radius must be nonnegative, got {radius}")
    sizes = (space.dist <= radius).sum(axis=1)
    return GeometryProfile(
        max_ball=int(sizes.max()) if space.n else 0,
        diameter=largest_distance(space, ...),
    )


def _hop_distances(n: int, pairs: np.ndarray, sources) -> np.ndarray:
    """Hop counts from each source to every vertex, -1 where unreachable.

    ``pairs`` is an ``(m, 2)`` array of undirected edges.  One
    level-synchronous breadth-first search runs from all sources at once
    over CSR neighbour arrays: the frontier holds the flat indices
    ``row * n + v`` of the (source row, vertex) pairs first reached at the
    current level.  The total work is the number of sources times the
    number of edges.
    """
    sources = np.asarray(sources, dtype=np.int64)
    # Both orientations, sorted by tail (CSR order), repeats dropped to save
    # work.  A sort and a neighbour test: a plain np.unique imports numpy.ma.
    tail, head = pairs.T
    keys = np.sort(np.concatenate([tail * n + head, head * n + tail]))
    keys = keys[np.diff(keys, prepend=-1) > 0]
    neighbours = keys % n
    degree = np.bincount(keys // n, minlength=n)
    start = np.cumsum(degree) - degree
    dist = np.full(sources.size * n, -1, dtype=np.int64)
    frontier = np.arange(sources.size) * n + sources
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        v = frontier % n
        count = degree[v]
        # Position of each frontier vertex's k-th neighbour in the CSR
        # array, for every frontier pair and every k < its degree.
        offset = np.repeat(start[v] - (np.cumsum(count) - count), count)
        reached = neighbours[offset + np.arange(offset.size)]
        cand = np.repeat(frontier - v, count) + reached
        cand = cand[dist[cand] < 0]
        # Several frontier pairs can reach one new pair: tag each candidate
        # with its own stamp; exactly one stamp per pair survives.
        stamp = np.arange(cand.size)
        dist[cand] = stamp
        frontier = cand[dist[cand] == stamp]
        dist[frontier] = level
    return dist.reshape(sources.size, n)


def _check_entries(count: int, what: str) -> None:
    """Refuse ``count`` table entries past ``MAX_TABLE_ENTRIES``.

    A count too long to print is given by its power of two.
    """
    if count > MAX_TABLE_ENTRIES:
        bits = count.bit_length()
        shown = count if bits <= 64 else f"at least 2**{bits - 1}"
        raise DataError(f"{shown} {what} exceed {MAX_TABLE_ENTRIES}")


def _check_table_size(n: int) -> None:
    """Refuse a space of ``n`` points whose n * n table is too large."""
    _check_entries(n * n, "distances")


def from_graph(
    n: int,
    edges,
    name: str = "graph",
) -> FiniteMetricSpace:
    """Shortest-path metric of a connected undirected graph.

    Edges are pairs of integer vertex indices in ``range(n)``.  Self loops
    are rejected, duplicate edges are merged.  Raises
    :class:`DisconnectedGraph` when some pair of vertices is unreachable
    and :class:`DataError` when n * n exceeds ``MAX_TABLE_ENTRIES``.
    """
    n = _integer(n, "the vertex count")
    if n < 1:
        raise InvalidParams(f"graph needs at least one vertex, got n={n}")
    _check_table_size(n)
    pairs = []
    for e in edges:
        u, v = (_integer(p, "an edge endpoint") for p in e)
        if not (0 <= u < n and 0 <= v < n):
            raise UnknownPoint(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise InvalidParams(f"self loop at vertex {u}")
        pairs.append((u, v))
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    dist = _hop_distances(n, pairs, np.arange(n))
    if (dist < 0).any():
        raise DisconnectedGraph(f"graph {name!r} is not connected")
    labels = tuple(str(i) for i in range(n))
    return FiniteMetricSpace(labels=labels, dist=dist, name=name)


def _require_params(kind: str, params: dict, keys: tuple[str, ...]) -> tuple:
    got = set(params)
    want = set(keys)
    if got != want:
        raise InvalidParams(
            f"family {kind!r} takes parameters {sorted(want)}, got {sorted(got)}"
        )
    return tuple(_integer(params[k], f"parameter {k!r}") for k in keys)


def _regular_edges(n: int, d: int, rng: random.Random) -> set:
    """Edge set of a random d-regular graph (Steger and Wormald's pairing).

    Stubs are shuffled and paired; a pair that is a loop or repeats an edge
    returns its stubs to the pool for the next round.  When no pool pair
    could ever be joined the attempt fails and a fresh one starts.  The
    order of draws from ``rng`` is fixed, so graphs per seed never change.
    """

    def suitable(edges, potential_edges):
        # Is some pair of pool vertices still joinable?  The swap rebinds s1
        # for the rest of the inner loop, which changes the pairs checked and
        # so when an attempt is abandoned: graphs per seed depend on it.
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_creation():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            potential_edges = defaultdict(int)
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and ((s1, s2) not in edges):
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = try_creation()
    while edges is None:
        edges = try_creation()
    return edges


def generate_family(
    kind: str, params: dict, seed: int | None = None
) -> FiniteMetricSpace:
    """Build a named graph family as a metric space.

    Supported kinds and parameters:

    - ``cycle``: ``{"n": k}`` with k >= 3
    - ``path``: ``{"n": k}`` with k >= 1
    - ``grid``: ``{"rows": r, "cols": c}`` with r, c >= 1
    - ``binary_tree``: ``{"depth": d}`` with d >= 0; node ``i`` has children
      ``2i + 1`` and ``2i + 2``
    - ``random_regular``: ``{"n": k, "d": d}``; requires an integer seed,
      resamples (deterministically) until the graph is connected

    Seeds are ignored by the deterministic families.  A family whose n * n
    table exceeds ``MAX_TABLE_ENTRIES`` raises :class:`DataError` first.
    """
    if kind == "cycle":
        (n,) = _require_params(kind, params, ("n",))
        if n < 3:
            raise InvalidParams(f"cycle needs n >= 3, got {n}")
        _check_table_size(n)
        edges = [(i, (i + 1) % n) for i in range(n)]
        return from_graph(n, edges, name=f"cycle_{n}")
    if kind == "path":
        (n,) = _require_params(kind, params, ("n",))
        if n < 1:
            raise InvalidParams(f"path needs n >= 1, got {n}")
        _check_table_size(n)
        edges = [(i, i + 1) for i in range(n - 1)]
        return from_graph(n, edges, name=f"path_{n}")
    if kind == "grid":
        rows, cols = _require_params(kind, params, ("rows", "cols"))
        if rows < 1 or cols < 1:
            raise InvalidParams(f"grid needs rows, cols >= 1, got {rows}x{cols}")
        # Vertex (r, c) is r * cols + c.
        n = rows * cols
        _check_table_size(n)
        edges = [(v, v + 1) for v in range(n) if (v + 1) % cols]
        edges += [(v, v + cols) for v in range(n - cols)]
        return from_graph(n, edges, name=f"grid_{rows}x{cols}")
    if kind == "binary_tree":
        (depth,) = _require_params(kind, params, ("depth",))
        if depth < 0:
            raise InvalidParams(f"binary_tree needs depth >= 0, got {depth}")
        # Past this depth the point count alone is over the cap, so the
        # count, which has about depth / 3 digits, is never formed.
        if depth >= MAX_TABLE_ENTRIES.bit_length():
            raise DataError(
                f"at least 2**{2 * depth} distances exceed {MAX_TABLE_ENTRIES}"
            )
        # Breadth-first labels: the children of i are 2i + 1 and 2i + 2,
        # which is the layout the rest of the code assumes.
        n = 2 ** (depth + 1) - 1
        _check_table_size(n)
        edges = [((c - 1) // 2, c) for c in range(1, n)]
        return from_graph(n, edges, name=f"binary_tree_{depth}")
    if kind == "random_regular":
        n, d = _require_params(kind, params, ("n", "d"))
        if seed is None:
            raise InvalidParams("random_regular requires a seed")
        if n <= d or d < 1 or (n * d) % 2 != 0:
            raise InvalidParams(
                f"random_regular needs 1 <= d < n and n*d even, got n={n}, d={d}"
            )
        _check_table_size(n)
        seed = _integer(seed, "the seed")
        rng = random.Random(seed)
        # The model can produce disconnected graphs; resample with the same
        # generator so the whole procedure stays a pure function of the seed.
        for _ in range(200):
            edges = list(_regular_edges(n, d, rng))
            if (_hop_distances(n, np.array(edges), [0]) >= 0).all():
                return from_graph(
                    n, edges, name=f"random_regular_{n}_{d}_{seed}"
                )
        raise InvalidParams(
            f"no connected {d}-regular graph on {n} vertices in 200 draws"
        )
    raise InvalidParams(f"unknown family kind {kind!r}")


@np.errstate(over="ignore")
def validate_metric(space: FiniteMetricSpace, seed: int = 0) -> list[str]:
    """Check the metric axioms; return a list of human-readable violations.

    An empty list means the table passed.  Diagonal, positivity and symmetry
    are always checked exactly.  The triangle inequality is checked exactly
    up to ``EXACT_VALIDATION_LIMIT`` points and by seeded sampling of triples
    beyond that (``VALIDATION_SAMPLE_TRIPLES`` triples).  A sum of two
    distances that overflows is infinite, which no distance exceeds.  At
    most ``VALIDATION_MAX_MESSAGES`` violations are listed.  Message
    prefixes (``diagonal:``, ``positivity:``, ``symmetry:``, ``triangle:``)
    are stable.
    """
    d = space.dist
    n = space.n
    problems: list[str] = []

    def report(msg: str) -> bool:
        # Returns False once the message budget is exhausted.
        if len(problems) < VALIDATION_MAX_MESSAGES:
            problems.append(msg)
            return True
        if len(problems) == VALIDATION_MAX_MESSAGES:
            problems.append("... further violations suppressed")
        return False

    for x in np.flatnonzero(np.diagonal(d) != 0):
        if not report(f"diagonal: d({x}, {x}) = {d[x, x]} != 0"):
            break

    off = ~np.eye(n, dtype=bool)
    for y, z in np.argwhere((d <= 0) & off):
        if not report(f"positivity: d({y}, {z}) = {d[y, z]} <= 0"):
            break

    for y, z in np.argwhere(d != d.T):
        if y < z and not report(
            f"symmetry: d({y}, {z}) = {d[y, z]} but d({z}, {y}) = {d[z, y]}"
        ):
            break

    if n <= EXACT_VALIDATION_LIMIT:
        for k in range(n):
            # d(y, z) <= d(y, k) + d(k, z) for all y, z, one mediator at a time.
            viol = d > d[:, k : k + 1] + d[k : k + 1, :]
            if viol.any():
                for y, z in np.argwhere(viol):
                    if not report(
                        f"triangle: d({y}, {z}) = {d[y, z]} > "
                        f"d({y}, {k}) + d({k}, {z}) = {d[y, k] + d[k, z]}"
                    ):
                        return problems
        return problems

    rng = np.random.default_rng(seed)
    triples = rng.integers(0, n, size=(VALIDATION_SAMPLE_TRIPLES, 3))
    y, k, z = triples[:, 0], triples[:, 1], triples[:, 2]
    bad = np.flatnonzero(d[y, z] > d[y, k] + d[k, z])
    for i in bad:
        if not report(
            f"triangle: d({y[i]}, {z[i]}) = {d[y[i], z[i]]} > "
            f"d({y[i]}, {k[i]}) + d({k[i]}, {z[i]}) = {d[y[i], k[i]] + d[k[i], z[i]]}"
        ):
            break
    return problems


def space_to_json(space: FiniteMetricSpace) -> dict:
    """Serializable dict with name, labels and the full distance table."""
    return {
        "name": space.name,
        "labels": list(space.labels),
        "dist": space.dist.tolist(),
    }


def _fields_json(report, *skip: str) -> dict:
    """A report dataclass's fields by name, as a JSON object.

    ``space_name`` is written under ``space``, a tuple as a list and a
    ``Fraction`` as its ``p/q`` text; the fields named in ``skip`` are left
    out.
    """
    doc = {}
    for f in fields(report):
        if f.name in skip:
            continue
        value = getattr(report, f.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Fraction):
            value = str(value)
        doc["space" if f.name == "space_name" else f.name] = value
    return doc


def _integer(value, what: str) -> int:
    """An integer (Python or numpy), refusing floats, booleans and strings."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    """A JSON number field, refusing booleans and strings."""
    if type(value) not in (int, float):
        raise FormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _records(obj: dict, width: int, layout: str) -> list:
    """The 'entries' list, each entry a list of ``width`` fields."""
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise FormatError("'entries' must be a list")
    for rec in entries:
        if not isinstance(rec, list) or len(rec) != width:
            raise FormatError(f"entry {rec!r} is not {layout}")
    return entries


def space_from_json(obj: dict) -> FiniteMetricSpace:
    """Read a space from either a distance table dict or a graph dict.

    Accepted layouts::

        {"labels": [...], "dist": [[...]], "name": optional}
        {"n": int, "edges": [[u, v], ...], "name": optional}

    ``labels`` is optional and, when given, a list of one string per
    point.  Graph input goes through :func:`from_graph` and therefore must
    describe a connected graph on vertices ``0..n-1``; ``n`` and every
    endpoint must be a JSON integer.
    """
    if not isinstance(obj, dict):
        raise FormatError("space document must be a JSON object")
    if "dist" in obj:
        dist = obj["dist"]
        if not isinstance(dist, list) or not dist:
            raise FormatError("'dist' must be a nonempty list of rows")
        n = len(dist)
        if any(not isinstance(row, list) or len(row) != n for row in dist):
            raise FormatError("'dist' must be a square matrix")
        labels = obj.get("labels", [str(i) for i in range(n)])
        if not isinstance(labels, list) or any(
            not isinstance(s, str) for s in labels
        ):
            raise FormatError("'labels' must be a list of strings")
        if len(labels) != n:
            raise FormatError(f"{len(labels)} labels for {n} points")
        try:
            table = np.array(dist)
        except ValueError as exc:
            raise FormatError(f"bad distance table: {exc}") from None
        return FiniteMetricSpace(
            labels=tuple(labels),
            dist=table,
            name=str(obj.get("name", "space")),
        )
    if "edges" in obj:
        if "n" not in obj:
            raise FormatError("graph document needs 'n'")
        n = _integer(obj["n"], "'n'")
        edges = obj["edges"]
        if not isinstance(edges, list) or any(
            not isinstance(e, list) or len(e) != 2 for e in edges
        ):
            raise FormatError("'edges' must be a list of [u, v] pairs")
        return from_graph(n, edges, name=str(obj.get("name", "graph")))
    raise FormatError("space document needs either 'dist' or 'n'+'edges'")


def _read_json(path: str):
    """The JSON document in the file at ``path``; text that is not UTF-8
    or not JSON raises :class:`FormatError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def load_space(path: str) -> FiniteMetricSpace:
    return space_from_json(_read_json(path))
