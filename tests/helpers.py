"""Independent oracles used across the test suite.

Reference values are computed by algorithms different from the library's
(Floyd-Warshall against breadth-first search, dense eigendecompositions
against iterative or blockwise norms) so agreement is meaningful.
"""

import argparse
import math

import numpy as np
from hypothesis import strategies as st

import normloc as nl

# Large finite stand-in for "unreachable" that survives one addition.
_FAR = np.iinfo(np.int64).max // 4


def floyd_warshall(n: int, edges) -> np.ndarray:
    """All-pairs shortest paths by relaxation over intermediate vertices."""
    dist = np.full((n, n), _FAR, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, v in edges:
        dist[u, v] = 1
        dist[v, u] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def edges_of(space) -> list:
    """Distance-one pairs of a space, each once."""
    pairs = np.argwhere(space.dist == 1)
    return [(int(u), int(v)) for u, v in pairs if u < v]


def dense_norm(matrix: np.ndarray) -> float:
    """Spectral norm via a dense full SVD (the reference route)."""
    if matrix.size == 0:
        return 0.0
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def ball_block(a, x: int, radius: float) -> np.ndarray:
    """The two-sided restriction of an operator to the closed ball of the
    given radius around x, read from its matrix one point at a time."""
    m = a.m
    points = np.flatnonzero(a.space.dist[x] <= radius)
    idx = np.concatenate([np.arange(p * m, (p + 1) * m) for p in points])
    return a.data[np.ix_(idx, idx)]


def naive_compression_norm(a, radius: float) -> float:
    """Sup-block norm computed entry by entry, no batching or reuse."""
    return max(dense_norm(ball_block(a, x, radius)) for x in range(a.n))


def naive_column_norm(a, radius: float) -> float:
    """Largest norm of a restricted to the columns of one ball, every ball."""
    best = 0.0
    n, m = a.n, a.m
    for x in range(n):
        points = np.flatnonzero(a.space.dist[x] <= radius)
        idx = np.concatenate([np.arange(p * m, (p + 1) * m) for p in points])
        best = max(best, dense_norm(a.data[:, idx]))
    return best


def literal_column_search(a, radius: float) -> tuple:
    """(center, norm) of the column search over full rows, one ball at a
    time.

    Each maximal ball's columns are read as rows of the transpose, over
    every row of the operator, and go through ``top_singular_values``
    alone.  The largest norm wins, the smallest center on ties.
    """
    index = nl.ball_index(a.space, radius)
    best = (None, -1.0)
    for x in index.maximal:
        cols = nl.localization.expand_indices(index.balls[x], a.m)
        norm = float(nl.top_singular_values(a.data.T[cols]))
        if norm > best[1]:
            best = (int(x), norm)
    return best


def maximal_ball_centers(space, radius: float) -> list:
    """Smallest center of each inclusion-maximal ball, by set comparison."""
    balls = [
        frozenset(np.flatnonzero(space.dist[x] <= radius).tolist())
        for x in range(space.n)
    ]
    return [
        x for x, b in enumerate(balls)
        if not any(b < c for c in balls) and balls.index(b) == x
    ]


def literal_ball_cover(space, radius: float, wide_radius: float) -> list:
    """Greedy cover by set comparison: the maximal ball of ``wide_radius``
    that holds the most maximal balls of ``radius`` not yet held, ties to
    the smallest center, until every one is held.  Returns the chosen
    centers in increasing order."""

    def ball_set(x, r):
        return frozenset(np.flatnonzero(space.dist[x] <= r).tolist())

    left = [ball_set(x, radius) for x in maximal_ball_centers(space, radius)]
    hosts = {
        c: ball_set(c, wide_radius)
        for c in maximal_ball_centers(space, wide_radius)
    }
    chosen = []
    while left:
        best = max(hosts, key=lambda c: (sum(b <= hosts[c] for b in left), -c))
        chosen.append(best)
        left = [b for b in left if not b <= hosts[best]]
    return sorted(chosen)


def identity(space):
    """The single-slot identity operator."""
    return nl.BandedOperator(space, 1, np.eye(space.n))


def matrix_unit(space, y: int, z: int):
    """The rank-one operator sending the basis vector at z to the one at y."""
    data = np.zeros((space.n, space.n), dtype=np.complex128)
    data[nl.space.check_point(space, y), nl.space.check_point(space, z)] = 1.0
    return nl.BandedOperator(space, 1, data)


def literal_random_banded(space, radius, seed, m=1):
    """The seeded band operator, one block written per band position."""
    n = space.n
    mask = space.dist <= radius
    positions = np.argwhere(mask)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((len(positions), m, m))
    vals = vals + 1j * rng.standard_normal((len(positions), m, m))
    data = np.zeros((n * m, n * m), dtype=np.complex128)
    for (y, z), block in zip(positions, vals):
        data[y * m : (y + 1) * m, z * m : (z + 1) * m] = block
    return data


def literal_kernel_from_cp_map(certificate) -> np.ndarray:
    """Kernel table of a certificate's multiplier, one matrix unit at a
    time (O(n^4)).

    Runs every e_yz through compression at the certificate radius and
    through the multiplier, and reads the (y, z) entry of the image back.
    """
    space = certificate.space
    n = space.n
    table = np.zeros((n, n), dtype=np.complex128)
    for y in range(n):
        for z in range(n):
            unit = matrix_unit(space, y, z)
            compressed = nl.compress(unit, certificate.radius)
            table[y, z] = nl.phi_apply(certificate, compressed).data[y, z]
    return table


def ball_overlap(space, radius: float) -> np.ndarray:
    """(n, n) table of the pairs whose closed balls share a point, by set
    intersection."""
    balls = [
        set(np.flatnonzero(space.dist[x] <= radius).tolist())
        for x in range(space.n)
    ]
    return np.array([[bool(b & c) for c in balls] for b in balls])


def block_support(a) -> np.ndarray:
    """(n, n) table of the point pairs whose block holds a nonzero entry,
    one block at a time."""
    m = a.m
    return np.array([
        [
            bool(a.data[y * m : (y + 1) * m, z * m : (z + 1) * m].any())
            for z in range(a.n)
        ]
        for y in range(a.n)
    ])


def literal_schur_multiply(a, table):
    """Entrywise product of an operator with a point-level table.

    Each (m, m) block of ``a`` is scaled by its table entry, one block at a
    time.
    """
    table = np.asarray(table, dtype=np.complex128)
    m = a.m
    data = np.zeros_like(a.data)
    for y in range(a.n):
        for z in range(a.n):
            rows, cols = slice(y * m, (y + 1) * m), slice(z * m, (z + 1) * m)
            data[rows, cols] = table[y, z] * a.data[rows, cols]
    return nl.BandedOperator(a.space, m, data)


def literal_refine_ratio(
    space, loc_radius, band_radius, start, start_ratio, budget, rng
):
    """The greedy refinement, every block of every trial factorized.

    Returns ``(best ratio, accepted moves, step halvings)``.  Same moves,
    same rng draws and same acceptance test as the library's refinement,
    but each trial factorizes the block of every maximal ball.
    """
    positions = np.argwhere(space.dist <= band_radius)
    data = start.data.copy()

    def ratio_of(d):
        op = nl.BandedOperator(space, 1, d)
        norm_a = nl.operator_norm(op)
        if norm_a == 0.0:
            return np.inf
        # Every maximal block, so the oracle shares no pruning with norm().
        norms = nl.compress(op, loc_radius).maximal_norms()
        return float(max(norms, default=0.0)) / norm_a

    best = start_ratio
    accepted = halvings = 0
    scale = float(np.abs(data).max()) or 1.0
    step = 0.25 * scale
    evals = 0
    while evals < budget and step > 1e-7 * scale:
        improved = False
        order = rng.permutation(len(positions))
        for p in order:
            if evals >= budget:
                break
            y, z = positions[p]
            for delta in (step, -step, 1j * step, -1j * step):
                trial = data.copy()
                trial[y, z] += delta
                cand = ratio_of(trial)
                evals += 1
                if cand < best - 1e-14:
                    best, data = cand, trial
                    accepted += 1
                    improved = True
                    break
                if evals >= budget:
                    break
        if not improved:
            step /= 2
            halvings += 1
    return best, accepted, halvings


def literal_tree_ray_subsets(space, length: int) -> tuple:
    """Tree-ray subsets as sets of (point, slot) pairs, one walk per point.

    Each vertex's parent is looked up on its own; the ray from x follows
    parents until it holds ``length`` vertices or reaches the root (point
    0), and is then padded with root copies in slots 2, 3, ... up to
    ``length`` members.
    """
    root = 0
    d = space.dist
    depth = d[root]
    parent = {}
    for v in range(space.n):
        if v != root:
            (parent[v],) = np.flatnonzero((d[v] == 1) & (depth == depth[v] - 1))
    subsets = []
    for x in range(space.n):
        ray = [x]
        while len(ray) < length and ray[-1] != root:
            ray.append(int(parent[ray[-1]]))
        items = {(v, 1) for v in ray}
        pad_slot = 2
        while len(items) < length:
            items.add((root, pad_slot))
            pad_slot += 1
        subsets.append(frozenset(items))
    return tuple(subsets)


def literal_ball_subsets(space, radius: float) -> tuple:
    """The ball around each point as a set of (point, slot 1) pairs."""
    return tuple(
        frozenset((int(v), 1) for v in np.flatnonzero(space.dist[x] <= radius))
        for x in range(space.n)
    )


def pairs_to_table(subsets, n: int, m: int) -> np.ndarray:
    """Boolean (n, n, m) membership table of (point, slot) pair sets."""
    table = np.zeros((n, n, m), dtype=bool)
    for x, pairs in enumerate(subsets):
        for v, slot in pairs:
            table[x, v, slot - 1] = True
    return table


def literal_subset_vectors(subsets, n: int, m: int):
    """Normalized indicator vectors and exact Gram, built pair by pair.

    Returns ``(vectors, exact)`` where ``exact`` is ``(counts, size)`` from
    set intersections when every subset has one size, else None.
    """
    vectors = np.zeros((n, n, m), dtype=np.complex128)
    for x, pairs in enumerate(subsets):
        for v, slot in pairs:
            vectors[x, v, slot - 1] = 1.0 / np.sqrt(float(len(pairs)))
    sizes = {len(pairs) for pairs in subsets}
    if len(sizes) != 1:
        return vectors, None
    counts = np.array(
        [[len(a & b) for b in subsets] for a in subsets], dtype=np.int64
    )
    return vectors, (counts, sizes.pop())


def count_factorizations(monkeypatch) -> dict:
    """Patch ``np.linalg.eigvalsh`` and ``eigh`` to count the matrices they
    factorize; returns the live ``{"eigvalsh": n, "eigh": n}`` counts."""
    counts = {"eigvalsh": 0, "eigh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            counts[name] += math.prod(np.shape(a)[:-2])
            return original(a, *args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return counts


def leaf_parsers(parser, words: str = "") -> dict:
    """The parser of every runnable command, keyed by its words, such as
    ``"cert build"``."""
    subs = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    if not subs:
        return {words: parser}
    found = {}
    for name, sub in subs[0].choices.items():
        found.update(leaf_parsers(sub, f"{words} {name}".lstrip()))
    return found


# Documents are mostly well formed, with any field possibly replaced by a
# JSON value of another kind, so that the fuzz reaches every check of the
# readers and of the commands that read them.  Counts are small or far
# beyond MAX_TABLE_ENTRIES, which the readers must refuse before they
# allocate.
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=2)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=1), inner, max_size=2),
    max_leaves=4,
)


def _mostly(valid, other=_JUNK):
    """``valid`` four times in five, otherwise ``other``."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else other)


_INDEX = _mostly(st.integers(-1, 3))
_NUMBER = _mostly(
    st.integers(0, 2) | st.floats(allow_nan=True, allow_infinity=True)
)


def _rows(*fields):
    return _mostly(st.lists(_mostly(st.tuples(*fields).map(list)), max_size=6))


_DIST_DOCS = st.fixed_dictionaries(
    {"dist": _mostly(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_NUMBER, min_size=n, max_size=n),
                           min_size=n, max_size=n)))},
    optional={"labels": _mostly(st.lists(st.text(max_size=2), max_size=4)),
              "name": _JUNK},
)
_HUGE = st.sampled_from([2**40, 10**15])
_GRAPH_DOCS = st.fixed_dictionaries(
    {"n": _mostly(st.integers(-1, 4) | _HUGE), "edges": _rows(_INDEX, _INDEX)},
    optional={"name": _JUNK},
)
SPACE_DOCS = _mostly(_DIST_DOCS | _GRAPH_DOCS)
CERT_DOCS = st.fixed_dictionaries(
    {
        "form": _mostly(st.sampled_from(["subset", "vector", "kernel"])),
        "space": _mostly(
            st.sampled_from([
                {"dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
                {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
            ]),
            SPACE_DOCS,
        ),
        "radius": _NUMBER,
        "subsets": _mostly(st.lists(_rows(_INDEX, _INDEX), min_size=3,
                                    max_size=4)),
        "entries": _rows(_INDEX, _INDEX, _INDEX, _NUMBER, _NUMBER)
        | _rows(_INDEX, _INDEX, _NUMBER, _NUMBER),
    },
    optional={"m": _mostly(st.integers(-1, 2) | _HUGE), "note": _JUNK},
)
