"""Independent oracles used across the test suite.

Reference values are computed by algorithms different from the library's
(Floyd-Warshall against breadth-first search, dense eigendecompositions
against iterative or blockwise norms) so agreement is meaningful.
"""

import numpy as np

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


def naive_compression_norm(a, radius: float) -> float:
    """Sup-block norm computed entry by entry, no batching or reuse."""
    best = 0.0
    n, m = a.n, a.m
    for x in range(n):
        points = np.flatnonzero(a.space.dist[x] <= radius)
        idx = np.concatenate([np.arange(p * m, (p + 1) * m) for p in points])
        best = max(best, dense_norm(a.data[np.ix_(idx, idx)]))
    return best


def naive_column_norm(a, radius: float) -> float:
    """Largest norm of a restricted to the columns of one ball, every ball."""
    best = 0.0
    n, m = a.n, a.m
    for x in range(n):
        points = np.flatnonzero(a.space.dist[x] <= radius)
        idx = np.concatenate([np.arange(p * m, (p + 1) * m) for p in points])
        best = max(best, dense_norm(a.data[:, idx]))
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


def matrix_unit(space, y: int, z: int):
    """The rank-one operator sending the basis vector at z to the one at y."""
    data = np.zeros((space.n, space.n), dtype=np.complex128)
    data[nl.space.check_point(space, y), nl.space.check_point(space, z)] = 1.0
    return nl.BandedOperator(space, 1, data)


def literal_random_banded(space, radius, seed, m=1, field="complex"):
    """The seeded band operator, one block written per band position."""
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
    return data


def literal_kernel_from_cp_map(cp) -> np.ndarray:
    """Kernel table of a multiplier, one matrix unit at a time (O(n^4)).

    Runs every e_yz through compression at the map's radius and through
    the multiplier, and reads the (y, z) entry of the image back.
    """
    space = cp.space
    n = space.n
    index = nl.ball_index(space, cp.radius)
    table = np.zeros((n, n), dtype=np.complex128)
    for y in range(n):
        for z in range(n):
            unit = matrix_unit(space, y, z)
            image = nl.phi_apply(cp, nl.compress(unit, cp.radius, index))
            table[y, z] = image.entry(y, z)
    return table


def literal_refine_ratio(index, band_radius, start, start_ratio, budget, rng):
    """The greedy refinement, every block of every trial factorized.

    Returns ``(best ratio, accepted moves, step halvings)``.  Same moves,
    same rng draws and same acceptance test as the library's refinement,
    but each trial recomputes the compression norm over every maximal ball.
    """
    space, loc_radius = index.space, index.radius
    positions = np.argwhere(space.dist <= band_radius)
    data = start.data.copy()
    mask = space.dist <= band_radius

    def ratio_of(d):
        op = nl.BandedOperator(space, 1, d, mask)
        norm_a = nl.operator_norm(op)
        if norm_a == 0.0:
            return np.inf
        return nl.compress(op, loc_radius, index).norm() / norm_a

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
