"""Ball compression and operator norm localization searches.

The compression map at radius S cuts an operator into the family of its
restrictions to closed S-balls, one per point.  Its sup-block norm is
compared against the operator norm through three quantities, all normalized
by the operator norm:

- ``sigma_sq``: largest norm of a two-sided ball restriction,
- ``sigma_col``: largest norm of a one-sided (column) ball restriction,
- ``sigma_sq`` at the widened radius S + R, where R is the propagation.

For any operator of propagation R these obey
``sigma_sq(S) <= sigma_col(S) <= sigma_sq(S + R)``, which the report
records.  The power trick upgrades a localized vector for a power of a* a
into a localized vector for a itself with a guaranteed norm ratio, and the
fiberwise compression of an amplified operator to one slot rounds out the
toolbox.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import band_epsilon
from .errors import (
    DataError,
    DegenerateWitness,
    InvalidParams,
    InvalidRadii,
    ZeroOperator,
)
from .operators import (
    DENSE_NORM_LIMIT,
    BandedOperator,
    operator_norm,
    propagation,
    _scratch,
    _top_values,
    random_banded,
    same_space,
    top_singular_pair,
)
from .space import (
    BallIndex,
    FiniteMetricSpace,
    _fields_json,
    _holders,
    _integer,
    ball_cover,
    ball_index,
    largest_distance,
)

# Slack allowed when verifying chain inequalities that hold exactly in
# arithmetic but pass through floating-point norms.
CHAIN_TOL = 1e-10
# BLAS sums the inner dimension of a Gram product in blocks (128 complex
# entries in OpenBLAS 0.3.31's SkylakeX zgemm), so dropping zero rows
# regroups the sum of a Gram longer than one block.  The column search
# reads only the rows its columns reach up to this operator side.
_GRAM_BLOCK = 128
# A restriction whose norm bound falls below the largest norm found by
# more than this relative gap is not factorized.  The gap is far above
# the relative error of the eigvalsh norms compared (about 1e-15 at these
# sizes), so a pruned center is strictly below the winner.
_PRUNE_SLACK = 1e-12


def expand_indices(points: np.ndarray, m: int) -> np.ndarray:
    """Point indices -> flat (point, slot) indices, slots contiguous."""
    points = np.asarray(points, dtype=np.int64)
    return (points[:, None] * m + np.arange(m)).ravel()


def vector_point_support(vec: np.ndarray, m: int) -> np.ndarray:
    """Points whose slot block of the vector is not exactly zero."""
    vec = np.asarray(vec)
    return np.flatnonzero((vec.reshape(-1, m) != 0).any(axis=1))


def support_diameter(space: FiniteMetricSpace, points) -> float | int:
    points = np.asarray(points, dtype=np.int64)
    return largest_distance(space, np.ix_(points, points))


def _ball_table(index: BallIndex, centers: np.ndarray, m: int) -> np.ndarray:
    """(centers, ball size * m) flat indices of equal-size balls."""
    points = np.concatenate([index.balls[x] for x in centers.tolist()])
    k = len(centers)
    return (points.reshape(k, -1, 1) * m + np.arange(m)).reshape(k, -1)


def _gather(source: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``source[rows, cols]`` for broadcastable 3-d index arrays, gathered
    into scratch arrays (:func:`~normloc.operators._scratch`)."""
    shape = tuple(map(max, rows.shape, cols.shape))
    flat = np.add(
        rows * source.shape[1], cols, out=_scratch("index", shape, np.intp)
    )
    # Every index is in range; "wrap" skips the checked, buffered take.
    out = _scratch("stack", shape, source.dtype)
    return np.take(source, flat, out=out, mode="wrap")


def _padded_rows(reached: np.ndarray, m: int) -> np.ndarray:
    """(rows of ``reached``, widest row * m) flat indices of the points each
    boolean row holds, in increasing order.

    Each row is padded past its points with point ``n``, whose flat
    indices run just past the last point's; an empty row gets one pad.
    """
    k, n = reached.shape
    sizes = reached.sum(axis=1)
    points = np.full((k, max(sizes.max(), 1)), n, dtype=np.int64)
    points[np.arange(points.shape[1]) < sizes[:, None]] = np.nonzero(reached)[1]
    return (points[:, :, None] * m + np.arange(m)).reshape(k, -1)


def _group_norms(index: BallIndex, which: np.ndarray, values_of) -> np.ndarray:
    """Norms of the maximal-ball restrictions that the boolean ``which``
    picks, as ``index.maximal[which]``; an empty ball's is 0.
    ``values_of(centers)`` takes those of one ball size in one kernel pass,
    smallest size first."""
    centers = index.maximal[which]
    sizes = index.sizes[centers]
    norms = np.zeros(centers.shape)
    # The sizes past 0 that occur, smallest first; a count rather than a
    # plain np.unique, which imports numpy.ma.
    for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        same = sizes == size
        norms[same] = values_of(centers[same])
    return norms


@dataclass(frozen=True, eq=False)
class BlockCompression:
    """The family of two-sided ball restrictions of one operator.

    Every block is a literal subread of the source matrix, so identities
    that compare blocks with source entries hold exactly.
    """

    source: BandedOperator
    radius: float
    index: BallIndex

    def maximal_norms(self) -> np.ndarray:
        """Spectral norm of each maximal ball's block, as ``index.maximal``."""
        return self._norms_of(np.ones(self.index.maximal.shape, dtype=bool))

    def _norms_of(self, which: np.ndarray) -> np.ndarray:
        """Norms of the maximal-ball blocks that the boolean ``which``
        picks, as ``index.maximal[which]``; an empty ball's is 0."""
        data, m = self.source.data, self.source.m

        def values_of(xs):
            idx = _ball_table(self.index, xs, m)
            return _top_values(
                _gather(data, idx[:, :, None], idx[:, None, :]), rows=False
            )

        return _group_norms(self.index, which, values_of)

    def norm(self) -> float:
        """Sup over points of the spectral norm of the ball restriction.

        A block of a sub-ball is a submatrix of the block of the larger
        ball, so only the inclusion-maximal balls are factorized, and of
        those only the ones that can be the largest (:func:`_largest`).
        The blocks of the :func:`ball_cover` at S + R, R the propagation,
        are factorized, and each maximal block is bounded by the cover
        blocks whose balls hold its ball (:func:`_inclusion_bounds`); a
        wide ball outside the cover bounds nothing.  The value is the
        largest maximal block norm, bit for bit.
        """
        a = self.source
        cover = ball_cover(a.space, self.radius, self.radius + propagation(a))
        wide = np.full(cover.chosen.shape, np.inf)
        covering = compress(a, cover.wide.radius)
        wide[cover.chosen] = covering._norms_of(cover.chosen)
        bounds = _inclusion_bounds(cover.holds, wide)
        exact = np.zeros(bounds.shape, dtype=bool)
        return _largest(self._norms_of, bounds, exact)


def compress(a: BandedOperator, radius: float) -> BlockCompression:
    """Restrict an operator to every closed ball of the given radius.

    The balls come from :func:`ball_index`, which the space keeps, so
    repeated compressions over one space index each radius once.
    """
    return BlockCompression(
        source=a, radius=radius, index=ball_index(a.space, radius)
    )


def _reached_rows(a: BandedOperator, index: BallIndex) -> np.ndarray:
    """(maximal balls, n) table of the rows that the operator's support
    links to the columns of each maximal ball of ``index``."""
    # Counts below 2^24, so exact in float32.
    return index.member.astype(np.float32) @ a.support.T.astype(np.float32) > 0


def _column_search(
    a: BandedOperator, index: BallIndex, reached: np.ndarray, bounds: np.ndarray
) -> tuple[int, float]:
    """(center, norm) of the maximal ball whose columns carry the most norm.

    The columns of a ball are nonzero only in the ``reached`` rows
    (:func:`_reached_rows`) that the operator's support links to the ball;
    under propagation R these lie in the ball of radius S + R.  Each
    column restriction is gathered over those rows only, padded with zero
    rows to the widest of its stack, one stack per ball size.  Zero rows
    add nothing to the ball-side Gram ``M M^H``, which is kept whenever the
    ball is not the whole space, so the norms are those of the full
    columns, bit for bit.  Full rows are read where that would not hold:
    for one-column balls, whose Gram is a dot product summed in SIMD lanes
    by position, for a ball that is the whole space, whose Gram ``M^H M``
    is on the row side, and past ``_GRAM_BLOCK`` rows.  ``bounds`` (as
    ``index.maximal``) bounds each column norm from above, inf where
    nothing does, and :func:`_largest` factorizes only the columns that can
    win.  Every column whose norm ties the largest has a bound at least as
    large, so it is factorized, and ties go to the smallest center.
    Raises :class:`ZeroOperator` when the operator kills every ball.
    """
    n, m = a.n, a.m
    side = n * m
    source = a.data
    if side <= _GRAM_BLOCK:
        source = np.concatenate([source, np.zeros((m, side))])

    def values_of(xs):
        cols = _ball_table(index, xs, m)
        if side > _GRAM_BLOCK or cols.shape[1] in (1, side):
            rows = np.arange(side)[None, :]
        else:
            rows = _padded_rows(reached[np.searchsorted(index.maximal, xs)], m)
        stack = _gather(source, rows[:, None, :], cols[:, :, None])
        return _top_values(stack, rows=cols.shape[1] < side)

    norms, exact = bounds.copy(), np.zeros(bounds.shape, dtype=bool)
    col = _largest(lambda w: _group_norms(index, w, values_of), norms, exact)
    if col == 0.0:
        raise ZeroOperator("operator vanishes on every ball")
    return int(index.maximal[exact & (norms == col)][0]), col


def _inclusion_bounds(holds: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """An upper bound on the norm of each restriction that reads only the
    points of one row of a boolean table, given which blocks hold them.

    ``holds`` is the :func:`~normloc.space._holders` table of those rows
    against some balls, and ``norms`` the norms of those balls' blocks.  A
    restriction is a submatrix of the block of any ball that holds its
    points, so its norm is at most that block's norm.  The bound is the
    smallest such block norm, or inf where no ball holds them.  Only set
    inclusion is used, so a distance table that breaks the triangle
    inequality cannot make the bound wrong.  A two-sided block reads its
    ball; a column restriction reads its ball and the
    :func:`_reached_rows`.
    """
    return np.where(holds, norms, np.inf).min(axis=1)


def _largest(
    norms_of, norms: np.ndarray, exact: np.ndarray,
    scale: float = 1.0, bar: float = np.inf,
) -> float | None:
    """The largest of the norms that ``norms_of(which)`` takes, or None
    once the largest norm found over ``scale`` reaches ``bar``.

    ``norms_of`` factorizes the restrictions that a boolean mask over
    ``norms`` picks, such as :meth:`BlockCompression._norms_of`.  ``norms``
    holds norms where ``exact`` is set and upper bounds on them elsewhere;
    an inf bound opens its restriction.  Bounded ones are factorized
    largest bound first: those with the largest bound, then those whose
    bound reaches the largest norm so far times ``1 - _PRUNE_SLACK``.  One
    whose bound falls short of that is below it, so it is left bounded.
    ``norms`` and ``exact`` are updated in place.
    """
    while True:
        known = norms[exact].max(initial=0.0)
        if known / scale >= bar:
            return None
        open_ = ~exact & (norms >= known * (1 - _PRUNE_SLACK))
        if not open_.any():
            return float(known)
        if not exact.any():
            open_ &= norms == norms[open_].max()
        norms[open_] = norms_of(open_)
        exact |= open_


@dataclass(frozen=True, eq=False)
class ColumnWitness:
    """A unit vector supported in one ball, with its amplification norm."""

    center: int
    vector: np.ndarray
    column_norm: float


def best_localized_vector(a: BandedOperator, radius: float) -> ColumnWitness:
    """Unit vector supported in a single ball maximizing ||a v||.

    Restricting a to the columns of a sub-ball gives a submatrix of its
    restriction to the larger ball, so only the inclusion-maximal balls are
    scanned, one :func:`top_singular_values` pass per ball size, each over
    the rows that the ball's columns reach (:func:`_column_search`).  The
    winner (smallest center among maximal balls on ties; equal balls count
    under their smallest center) takes its vector from
    :func:`top_singular_pair` over full rows; :func:`localization_report`
    reads only the center and norm, and never computes the vector.  A ball
    inside another never wins a tie: identity on a path at radius 1 picks
    center 1, not the end point 0.  Raises :class:`ZeroOperator` when the
    operator kills every ball, which happens exactly when it is zero.
    """
    index = ball_index(a.space, radius)
    unbounded = np.full(index.maximal.shape, np.inf)
    center, norm = _column_search(a, index, _reached_rows(a, index), unbounded)
    cols = expand_indices(index.balls[center], a.m)
    vec = np.zeros(a.n * a.m, dtype=np.complex128)
    vec[cols] = top_singular_pair(a.data[:, cols])[1]
    return ColumnWitness(center=center, vector=vec, column_norm=norm)


CSV_HEADER = ("space", "n", "R", "S", "sigma_sq", "sigma_col", "sigma_sq_wide")


@dataclass(frozen=True, eq=False)
class LocalizationReport:
    """Normalized localization profile of one operator at one radius."""

    space_name: str
    n: int
    m: int
    propagation: float
    loc_radius: float
    operator_norm: float
    compressed_norm: float
    column_norm: float
    wide_norm: float
    sigma_sq: float
    sigma_col: float
    sigma_sq_wide: float
    witness_center: int
    chain_ok: bool
    chain_slack: float

    def to_json(self) -> dict:
        return _fields_json(self)

    def csv_row(self) -> tuple:
        return (
            self.space_name,
            self.n,
            self.propagation,
            self.loc_radius,
            self.sigma_sq,
            self.sigma_col,
            self.sigma_sq_wide,
        )


def localization_report(a: BandedOperator, radius: float) -> LocalizationReport:
    """Compare ball compressions of an operator against its norm.

    The widened radius is the localization radius plus the measured
    propagation of the operator.  The chain inequalities are verified with
    ``CHAIN_TOL`` slack and the worst violation is recorded, not raised.
    The column norm and witness center come from the column search behind
    :func:`best_localized_vector`, without the winner's vector, and that
    search factorizes only the columns that can win: see
    :func:`_report_and_norms`.  When a ball at the widened radius is the
    whole space and the operator norm took the dense route, that norm is
    the wide norm: the one block is the same matrix.
    """
    return _report_and_norms(a, radius)[0]


def _chain(sigma_sq: float, sigma_col: float, sigma_wide: float) -> tuple:
    """(``chain_ok``, ``chain_slack``) of the chain
    ``sigma_sq <= sigma_col <= sigma_wide``: whether both links hold up to
    ``CHAIN_TOL``, and the worst violation, 0.0 when there is none."""
    ok = (
        sigma_sq <= sigma_col + CHAIN_TOL
        and sigma_col <= sigma_wide + CHAIN_TOL
    )
    slack = max(sigma_sq - sigma_col, sigma_col - sigma_wide, 0.0)
    return bool(ok), float(slack)


def _report_and_norms(
    a: BandedOperator, radius: float
) -> tuple[LocalizationReport, np.ndarray, np.ndarray]:
    """The report, and its maximal-ball block norms at ``radius`` as far
    as it took them.

    Returns ``(report, norms, exact)``, both arrays as ``index.maximal``:
    ``norms`` holds the block norm where ``exact`` is set and an upper
    bound on it elsewhere.  The report takes every maximal block norm at
    S + R first (the operator norm, where that ball is the whole space).
    Each block at S is a submatrix of the block of any (S + R)-ball that
    holds its ball, which bounds its norm (:func:`_inclusion_bounds`, over
    the inclusion table the space keeps with its :func:`ball_cover`), so
    only the blocks that can be the largest, ``sq``, are factorized
    (:func:`_largest`).  The column search comes last, each column norm
    bounded by the (S + R)-blocks that hold its ball and the rows it
    reaches.  The largest is at least ``sq``, so every column whose bound
    reaches ``sq * (1 - _PRUNE_SLACK)`` opens in its first stack.
    """
    norm_a = operator_norm(a)
    if norm_a == 0.0:
        raise ZeroOperator("cannot profile the zero operator")
    prop = propagation(a)
    index = ball_index(a.space, radius)
    reached = _reached_rows(a, index)
    cover = ball_cover(a.space, radius, radius + prop)
    if cover.wide.member.all() and a.data.shape[0] <= DENSE_NORM_LIMIT:
        # The one maximal ball is the whole space, and its block is the
        # matrix that operator_norm factorized.
        wide_norms = np.array([norm_a])
    else:
        wide_norms = compress(a, radius + prop).maximal_norms()
    wide = float(max(wide_norms, default=0.0))
    norms = _inclusion_bounds(cover.holds, wide_norms)
    exact = np.zeros(norms.shape, dtype=bool)
    sq = _largest(compress(a, radius)._norms_of, norms, exact)
    holds = _holders(index.member | reached, cover.wide)
    bounds = _inclusion_bounds(holds, wide_norms)
    bounds[bounds >= sq * (1 - _PRUNE_SLACK)] = np.inf
    center, col = _column_search(a, index, reached, bounds)
    sigma_sq = sq / norm_a
    sigma_col = col / norm_a
    sigma_wide = wide / norm_a
    chain_ok, chain_slack = _chain(sigma_sq, sigma_col, sigma_wide)
    report = LocalizationReport(
        space_name=a.space.name,
        n=a.n,
        m=a.m,
        propagation=prop,
        loc_radius=radius,
        operator_norm=norm_a,
        compressed_norm=sq,
        column_norm=col,
        wide_norm=wide,
        sigma_sq=sigma_sq,
        sigma_col=sigma_col,
        sigma_sq_wide=sigma_wide,
        witness_center=center,
        chain_ok=chain_ok,
        chain_slack=chain_slack,
    )
    return report, norms, exact


@dataclass(frozen=True, eq=False)
class PowerWitness:
    """A localized vector extracted from a power of a* a.

    With ``b = a* a / ||a||^2`` and ``z`` the best ball-localized unit vector
    for ``b^power``, ``vector`` is the normalized stage ``b^stage z``, or,
    when ``shell_split`` is set, a vector built from the last two stages
    and cut to one side of a two-way split of its outer shell (see
    :func:`power_trick_witness`).  ``measured_ratio`` is
    ``||a vector|| / ||a||``, guaranteed to reach ``threshold``, the
    power-th root of ``contraction = c = ||b^power z||``.  ``ratios`` are the
    stage ratios ``||b^(j+1) z|| / ||b^j z||``; they multiply to
    ``contraction``.  The support provably sits in the ball of radius
    ``support_radius_bound = S + 2 stage R`` around ``center``;
    ``diameter_bound_proved`` is ``2 S + 4 stage R``, or the target figure
    when ``shell_split`` is set.  ``diameter_bound`` is the target figure
    ``(2 power - 1) R + 2 S`` whose status is recorded in
    ``within_diameter_bound`` but never enforced here.
    """

    power: int
    stage: int
    center: int
    loc_radius: float
    propagation: float
    contraction: float
    threshold: float
    ratios: tuple
    measured_ratio: float
    vector: np.ndarray
    support_points: tuple
    support_diameter: float
    support_radius_bound: float
    diameter_bound: float
    diameter_bound_proved: float
    within_diameter_bound: bool
    within_proved_bound: bool
    shell_split: bool

    def to_json(self) -> dict:
        return _fields_json(self, "vector")


def _shell_split(
    space: FiniteMetricSpace,
    coupled: np.ndarray,
    center: int,
    inner_radius: float,
    outer_radius: float,
    max_diameter: float,
) -> tuple | None:
    """Split the shell ``B(center, outer) \\ B(center, inner)`` in two.

    Returns the point arrays ``B(center, inner) + K_i`` for sides K_1, K_2
    of the shell such that no pair across the sides is ``coupled`` and each
    array has diameter at most ``max_diameter``, or None when no such split
    exists.  Coupled shell points must share a side and points farther
    apart than ``max_diameter`` must not, so a two-colouring of those
    constraints finds a split whenever one exists.
    """
    row = space.dist[center]
    inner = np.flatnonzero(row <= inner_radius)
    shell = np.flatnonzero((row > inner_radius) & (row <= outer_radius))
    if (space.dist[np.ix_(shell, inner)] > max_diameter).any():
        return None
    far = space.dist[np.ix_(shell, shell)] > max_diameter
    linked = far | coupled[np.ix_(shell, shell)]
    side = np.full(shell.size, -1)
    for root in range(shell.size):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(linked[i]):
                want = side[i] ^ int(far[i, j])
                if side[j] < 0:
                    side[j] = want
                    stack.append(j)
                elif side[j] != want:
                    return None
    return tuple(np.concatenate([inner, shell[side == k]]) for k in (0, 1))


def power_trick_witness(
    a: BandedOperator, radius: float, power: int
) -> PowerWitness:
    """Localized vector with norm ratio at least the power-th root.

    Normalize a to norm 1, form b = a* a, and take the best ball-localized
    unit vector z for b^power, with contraction c.  The stage ratios
    ``||b^(j+1) z|| / ||b^j z||`` multiply to c, so some stage j < power
    reaches c^(1/power).  Since ``||a*|| <= 1``, ``||a u|| >= ||a* a u||`` for
    every u, so that stage's vector ``b^j z`` has a-ratio
    ``||a b^j z|| / ||b^j z||`` at least c^(1/power) too.  The witness is the
    first stage whose own a-ratio reaches the threshold; it lies in the
    ball of radius S + 2 j R around the seed center.

    That stage is at most ``power // 2``: the squared a-ratio of stage j is
    ``mu_(2j+1) / mu_(2j)`` for the moments ``mu_k = <b^k z, z>``, which are
    log-convex in k.  So the ratios ``sqrt(mu_k / mu_(k-1))`` of the
    alternating ``a``/``a*`` steps never decrease; each is at most 1 and the
    first 2 power of them multiply to c.  The a-ratio at ``j = power // 2``
    is step 2j + 1 >= power, hence at least the geometric mean of the first
    power steps, hence at least c^(1/power).  For odd power the support
    diameter is therefore within the target ``(2 power - 1) R + 2 S``; for
    even power the stage alone proves ``2 S + 2 power R``, one R over it.

    At even power 2h the last stage h is cut down to the target when the
    outer shell ``B(center, S + 2hR) \\ B(center, S + (2h-1)R)`` splits into
    sides K_1, K_2 that ``b`` does not couple and with each
    ``B(center, S + (2h-1)R) + K_i`` of diameter at most the target.  With
    ``t = c^(2/power)`` and ``w`` the unit stage ``h - 1``, the witness is
    ``y = (b + t - ||a w||^2) w`` restricted to the side with the larger
    a-ratio.  With ``Q(u) = <b u, u> - t ||u||^2`` the two cuts satisfy
    ``Q(y_1) + Q(y_2) = Q(y) + Q(y_0)``, y_0 the inner part, and this sum
    is nonnegative by a moment inequality for the spectral measure of b at
    w, so one cut reaches the threshold (the proof is in the README).
    Where no split exists, as on trees whose shell has three or more
    mutually far branches, the target can be out of reach for every
    vector, and stage h is kept.
    """
    power = _integer(power, "the power")
    if power < 1:
        raise InvalidParams(f"power must be >= 1, got {power}")
    norm_a = operator_norm(a)
    if norm_a == 0.0:
        raise ZeroOperator("power trick needs a nonzero operator")
    unit = a * (1.0 / norm_a)
    unit_adj = unit.adjoint()
    b = unit_adj @ unit
    bn = b
    for _ in range(power - 1):
        bn = bn @ b
    seed_witness = best_localized_vector(bn, radius)
    contraction = seed_witness.column_norm
    if contraction == 0.0:
        raise DegenerateWitness("every localized vector dies under the power")
    threshold = contraction ** (1.0 / power)
    stages = [seed_witness.vector]
    ratios = []
    a_ratios = []
    for _ in range(power):
        denom = float(np.linalg.norm(stages[-1]))
        if denom == 0.0:
            raise DegenerateWitness("intermediate power stage vanished")
        image = unit.apply(stages[-1])
        nxt = unit_adj.apply(image)
        a_ratios.append(float(np.linalg.norm(image)) / denom)
        ratios.append(float(np.linalg.norm(nxt)) / denom)
        stages.append(nxt)
    stage = next(
        (j for j, r in enumerate(a_ratios) if r >= threshold - 1e-12),
        int(np.argmax(a_ratios)),
    )
    raw = stages[stage]
    prop = propagation(a)
    bound = (2 * power - 1) * prop + 2 * radius
    half = power // 2
    sides = None
    if power % 2 == 0 and stage == half:
        sides = _shell_split(
            a.space, b.support, seed_witness.center,
            radius + (power - 1) * prop, radius + power * prop, bound,
        )
    if sides is not None:
        # y = (b + threshold^2 - s^2) b^(half - 1) z, s the a-ratio of that
        # stage
        shift = threshold**2 - a_ratios[half - 1] ** 2
        y = stages[half] + shift * stages[half - 1]
        cuts = []
        for side in sides:
            cut = np.zeros_like(y)
            keep = expand_indices(side, a.m)
            cut[keep] = y[keep]
            cuts.append(cut)
        raw = max(
            cuts,
            key=lambda v: np.linalg.norm(unit.apply(v)) / np.linalg.norm(v),
        )
    witness = raw / float(np.linalg.norm(raw))
    measured = float(np.linalg.norm(unit.apply(witness)))
    points = vector_point_support(witness, a.m)
    diam = support_diameter(a.space, points)
    radius_bound = radius + 2 * stage * prop
    proved = bound if sides is not None else 2 * radius_bound
    return PowerWitness(
        power=power,
        stage=stage,
        center=seed_witness.center,
        loc_radius=radius,
        propagation=prop,
        contraction=contraction,
        threshold=threshold,
        ratios=tuple(ratios),
        measured_ratio=measured,
        vector=witness,
        support_points=tuple(int(p) for p in points),
        support_diameter=diam,
        support_radius_bound=radius_bound,
        diameter_bound=bound,
        diameter_bound_proved=proved,
        within_diameter_bound=bool(diam <= bound),
        within_proved_bound=bool(diam <= proved),
        shell_split=sides is not None,
    )


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Fiberwise compression of a multi-slot operator to a single slot.

    ``v_fibers``/``w_fibers`` hold one unit slot-vector per point; the
    compressed operator is their two-sided contraction of the source and
    satisfies ``||compressed|| <= ||source||`` while capturing the top
    singular pair, so ``achieved_fraction`` is 1 up to rounding.
    """

    v_fibers: np.ndarray
    w_fibers: np.ndarray
    compressed: BandedOperator
    input_norm: float
    compressed_norm: float
    achieved_fraction: float


def _unit_fibers(flat: np.ndarray, n: int, m: int) -> np.ndarray:
    # A zero fiber becomes the first slot's basis vector.
    fibers = flat.reshape(n, m)
    norms = np.linalg.norm(fibers, axis=1, keepdims=True)
    nonzero = norms > 0
    return np.where(nonzero, fibers / np.where(nonzero, norms, 1.0), np.eye(1, m))


def vector_amplification_reduction(a: BandedOperator) -> ReductionResult:
    """Compress an amplified operator to one slot without losing its norm.

    Splits the top right singular vector into per-point fibers, normalizes
    them into an isometric slot assignment V (and W from the image vector),
    and forms the scalar operator with entries w(y)* A[y, z] v(z).  Both
    ball restrictions and the global norm can only shrink under this
    compression, while the top singular pair survives by construction.
    """
    n, m = a.n, a.m
    sigma, right = top_singular_pair(a.data)
    if sigma == 0.0:
        raise ZeroOperator("cannot reduce the zero operator")
    # Divided by sigma, so the fiber norms neither underflow nor overflow.
    image = (a.data @ right) / sigma
    v_fibers = _unit_fibers(right, n, m)
    w_fibers = _unit_fibers(image, n, m)
    blocks = a.data.reshape(n, m, n, m)
    data = np.einsum(
        "yi,yizj,zj->yz", w_fibers.conj(), blocks, v_fibers, optimize=True
    )
    compressed = BandedOperator(a.space, 1, data)
    compressed_norm = operator_norm(compressed)
    return ReductionResult(
        v_fibers=v_fibers,
        w_fibers=w_fibers,
        compressed=compressed,
        input_norm=sigma,
        compressed_norm=compressed_norm,
        achieved_fraction=compressed_norm / sigma,
    )


@dataclass(frozen=True, eq=False)
class OnlProfile:
    """Empirical localization constant of a space at one radius pair.

    ``worst_ratio`` is the smallest ``sigma_sq`` found over seeded samples,
    probes and a greedy adversarial refinement; when a certificate is
    supplied, ``certified_lower_bound`` is its guaranteed floor and
    ``consistent`` records that the search never undercut it (up to slack).
    """

    space_name: str
    n: int
    band_radius: float
    loc_radius: float
    samples: int
    seed: int
    search_budget: int
    sample_reports: tuple
    sample_seeds: tuple
    probe_reports: tuple
    worst_sample_ratio: float
    adversarial_ratio: float
    worst_ratio: float
    epsilon: float | None
    certified_lower_bound: float | None
    vacuous: bool | None
    consistent: bool | None

    def to_json(self) -> dict:
        return {
            **_fields_json(self, "sample_reports", "probe_reports"),
            "sample_sigma_sq": [r.sigma_sq for r in self.sample_reports],
            "probes": [
                {"name": name, **rep.to_json()}
                for name, rep in self.probe_reports
            ],
        }


def _refine_ratio(
    loc_radius: float,
    band_radius: float,
    start: BandedOperator,
    start_norms: tuple,
    budget: int,
    rng: np.random.Generator,
) -> float:
    """Greedy coordinate descent pushing sigma_sq down from a start point.

    ``start_norms`` is the start's ``(norms, exact)`` maximal-ball block
    norms at ``loc_radius``, each exact or bounded, as
    :func:`_report_and_norms` returns them; the start's ``sigma_sq`` is
    their largest exact norm over its operator norm, the report's own
    division.  A trial moves one entry (y, z) by delta, which changes only
    the blocks of the maximal balls holding both y and z, each by a matrix
    of norm |delta|, so each of their norms moves by at most |delta|.  The
    trial bounds those blocks by their norm or bound plus |delta|, keeps
    every other norm and bound, and hands them to :func:`_largest`, which
    rejects the trial once a factorized norm fails the acceptance test.
    Each bound keeps a relative gap of ``_PRUNE_SLACK``, which absorbs the
    rounding of a sum as it absorbs that of a factorization, so every
    comparison and the result are the full recomputation's, bit for bit.
    """
    space = start.space
    index = ball_index(space, loc_radius)
    positions = np.argwhere(space.dist <= band_radius)
    data = start.data.copy()
    norms, exact = start_norms

    def ratio_of(d: np.ndarray, hit: np.ndarray, delta, bar: float) -> tuple:
        """(ratio, (norms, exact)) of a trial that moved the ``hit`` blocks
        by ``delta``, or (inf, None) when its ratio cannot fall below
        ``bar``."""
        op = BandedOperator(space, 1, d)
        norm_a = operator_norm(op)
        if norm_a == 0.0:
            return np.inf, None
        out, out_exact = norms.copy(), exact.copy()
        out[hit] += abs(delta)
        out_exact[hit] = False
        comp = compress(op, loc_radius)
        largest = _largest(comp._norms_of, out, out_exact, norm_a, bar)
        if largest is None:
            return np.inf, None
        return largest / norm_a, (out, out_exact)

    best = float(norms[exact].max(initial=0.0)) / operator_norm(start)
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
            hit = index.member[:, y] & index.member[:, z]
            for delta in (step, -step, 1j * step, -1j * step):
                trial = data.copy()
                trial[y, z] += delta
                cand, cand_norms = ratio_of(trial, hit, delta, best - 1e-14)
                evals += 1
                if cand < best - 1e-14:
                    best, data, (norms, exact) = cand, trial, cand_norms
                    improved = True
                    break
                if evals >= budget:
                    break
        if not improved:
            step /= 2
    return best


def _check_certificate(certificate, space, loc_radius: float) -> None:
    """Refuse a certificate built on another space (:class:`DataError`)
    or at another radius than ``loc_radius`` (:class:`InvalidParams`)."""
    if not same_space(certificate.space, space):
        raise DataError(
            f"the certificate is on {certificate.space.name!r}, another "
            f"space than {space.name!r}"
        )
    if certificate.radius != loc_radius:
        raise InvalidParams(
            f"certificate radius {certificate.radius} does not match "
            f"localization radius {loc_radius}"
        )


def onl_profile(
    space: FiniteMetricSpace,
    band_radius: float,
    loc_radius: float,
    samples: int = 50,
    seed: int = 0,
    search_budget: int = 200,
    certificate=None,
    probes: tuple = (),
    *,
    _measured: tuple = (),
) -> OnlProfile:
    """Search for the worst localization ratio of band-limited operators.

    Draws seeded Gaussian operators in the band, profiles each, then runs a
    greedy adversarial refinement from the worst few starts.  ``probes``
    are (name, operator) pairs profiled alongside.  A vector certificate
    adds the guaranteed lower bound 1 - epsilon from its Schur-multiplier
    argument (:func:`~normloc.certificates.band_epsilon`).  Requires 0 <
    band radius <= localization radius.

    The first samples are taken from ``_measured``, as (operator,
    report, norms, exact) of :func:`_report_and_norms` at ``loc_radius``
    (:func:`~normloc.duality.equivalence_experiment`).
    """
    if not 0 < band_radius <= loc_radius:
        raise InvalidRadii(
            f"need 0 < band radius <= localization radius, got "
            f"{band_radius} and {loc_radius}"
        )
    if certificate is not None:
        _check_certificate(certificate, space, loc_radius)
    if samples < 1:
        raise InvalidParams("need at least one sample")
    if search_budget < 0:
        raise InvalidParams(f"search budget must be >= 0, got {search_budget}")
    rng = np.random.default_rng(seed)
    sample_seeds = rng.integers(0, 2**63 - 1, size=samples)
    measured = list(_measured)
    for s in sample_seeds[len(measured):]:
        op = random_banded(space, band_radius, int(s))
        measured.append((op, *_report_and_norms(op, loc_radius)))
    ops, reports, norms, exact = zip(*measured)
    ratios = np.array([r.sigma_sq for r in reports])
    worst_sample = float(ratios.min())
    adversarial = worst_sample
    if search_budget > 0:
        starts = np.argsort(ratios)[: min(3, samples)]
        share = max(1, search_budget // len(starts))
        for i in starts:
            adversarial = min(
                adversarial,
                _refine_ratio(
                    loc_radius, band_radius, ops[i], (norms[i], exact[i]),
                    share, rng,
                ),
            )
    probe_reports = tuple(
        (name, localization_report(op, loc_radius))
        for name, op in probes
    )
    worst = min(
        [adversarial] + [rep.sigma_sq for _, rep in probe_reports]
    )
    epsilon = lower = vacuous = consistent = None
    if certificate is not None:
        terms = band_epsilon(certificate, band_radius)
        epsilon, vacuous = terms["epsilon"], terms["vacuous"]
        # np.maximum keeps a NaN epsilon's NaN, which fails the comparison.
        lower = float(np.maximum(0.0, 1.0 - epsilon))
        consistent = bool(lower <= worst + 1e-9)
    return OnlProfile(
        space_name=space.name,
        n=space.n,
        band_radius=band_radius,
        loc_radius=loc_radius,
        samples=samples,
        seed=seed,
        search_budget=search_budget,
        sample_reports=reports,
        sample_seeds=tuple(int(s) for s in sample_seeds),
        probe_reports=probe_reports,
        worst_sample_ratio=worst_sample,
        adversarial_ratio=adversarial,
        worst_ratio=worst,
        epsilon=epsilon,
        certified_lower_bound=lower,
        vacuous=vacuous,
        consistent=consistent,
    )
