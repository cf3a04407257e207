import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normloc as nl
from helpers import (
    ball_block,
    count_factorizations,
    dense_norm,
    identity,
    literal_ball_cover,
    literal_column_search,
    literal_refine_ratio,
    maximal_ball_centers,
    naive_column_norm,
    naive_compression_norm,
)


def test_compression_blocks_are_subreads(c6):
    # the blocks the compression factorizes are the literal ball subreads
    a = nl.random_banded(c6, 1, seed=1)
    comp = nl.compress(a, 1)
    blocks = np.stack([ball_block(a, x, 1) for x in comp.index.maximal])
    assert np.array_equal(comp.maximal_norms(), nl.top_singular_values(blocks))


def test_compression_norm_matches_naive_oracle(c60):
    for seed in range(5):
        a = nl.random_banded(c60, 1, seed=seed)
        for radius in (1, 3):
            assert (
                abs(nl.compress(a, radius).norm() - naive_compression_norm(a, radius))
                < 1e-12
            )


@pytest.mark.parametrize("space", ["btree6", "grid8"])
def test_pruned_norms_match_naive_oracles(space, request):
    # most balls here lie inside another ball, so the pruning is exercised
    sp = request.getfixturevalue(space)
    for seed in range(2):
        a = nl.random_banded(sp, 1, seed=seed)
        for radius in range(1, 7):
            comp = nl.compress(a, radius)
            assert abs(comp.norm() - naive_compression_norm(a, radius)) < 1e-12
            assert comp.norm() == max(
                float(nl.top_singular_values(ball_block(a, x, radius)))
                for x in range(sp.n)
            )
            column = nl.best_localized_vector(a, radius).column_norm
            assert abs(column - naive_column_norm(a, radius)) < 1e-12


def test_space_keeps_its_ball_indexes():
    space = nl.generate_family("cycle", {"n": 6})
    a = nl.random_banded(space, 1, seed=2)
    assert nl.compress(a, 2).index is nl.ball_index(space, 2)
    assert nl.ball_index(space, 2.0) is nl.ball_index(space, 2)
    # The kept indexes do not point back at the space, so dropping the
    # last reference frees it without the cycle collector.
    ref = weakref.ref(space)
    gc.disable()
    try:
        del a, space
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("radius", [-1, math.nan])
def test_compress_rejects_negative_or_nan_radius(c6, radius):
    a = nl.random_banded(c6, 1, seed=2)
    kept = dict(c6._ball_indexes)
    with pytest.raises(nl.InvalidParams):
        nl.compress(a, radius)
    with pytest.raises(nl.InvalidParams):
        nl.ball_index(c6, radius)
    assert c6._ball_indexes == kept


def test_compression_known_values(c6):
    adj = nl.adjacency(c6)
    # window of radius 1 sees a path on 3 vertices, radius 2 a path on 5
    assert abs(nl.compress(adj, 1).norm() - math.sqrt(2)) < 1e-12
    assert abs(nl.compress(adj, 2).norm() - 2 * math.cos(math.pi / 6)) < 1e-12


def test_compression_multislot(c6):
    a = nl.random_banded(c6, 1, seed=8, m=2)
    assert abs(nl.compress(a, 1).norm() - naive_compression_norm(a, 1)) < 1e-12


def test_compress_zero_operator(c6):
    z = nl.BandedOperator(c6, 1, np.zeros((6, 6)))
    comp = nl.compress(z, 1)
    assert comp.norm() == 0.0
    assert not comp.maximal_norms().any()
    with pytest.raises(nl.InvalidParams):
        nl.compress(nl.adjacency(c6), -1)


def test_best_localized_vector_properties(c60):
    a = nl.random_banded(c60, 1, seed=3)
    witness = nl.best_localized_vector(a, 2)
    inside = np.zeros(60, dtype=bool)
    inside[nl.ball_index(c60, 2).balls[witness.center]] = True
    support = nl.vector_point_support(witness.vector, 1)
    assert support.size and inside[support].all()
    assert abs(np.linalg.norm(witness.vector) - 1) < 1e-12
    achieved = np.linalg.norm(a.apply(witness.vector))
    assert abs(achieved - witness.column_norm) < 1e-10
    assert witness.column_norm <= nl.operator_norm(a) + 1e-10


def test_best_localized_vector_tie_breaks_to_smallest_center(c6):
    one = identity(c6)
    witness = nl.best_localized_vector(one, 1)
    assert witness.center == 0


def test_best_localized_vector_ties_skip_balls_inside_others():
    # on a path the end ball {0, 1} lies inside the ball {0, 1, 2} around 1,
    # so the identity's tie goes to center 1, the smallest maximal center
    path = nl.generate_family("path", {"n": 5})
    one = identity(path)
    assert nl.best_localized_vector(one, 1).center == 1
    assert nl.localization_report(one, 1).witness_center == 1


def test_column_search_ties_across_rounds_go_to_the_smallest_center(
    monkeypatch,
):
    """Hand-made bounds open the largest maximal center first; the two
    smaller centers tie its norm, so they open in a second round, and the
    tie still goes to the smallest center."""
    stacks = []
    stack_values = nl.localization._top_values

    def recorded(stack, rows):
        stacks.append(len(stack))
        return stack_values(stack, rows)

    monkeypatch.setattr(nl.localization, "_top_values", recorded)
    path = nl.generate_family("path", {"n": 5})
    one = identity(path)
    index = nl.ball_index(path, 1)
    assert index.maximal.tolist() == [1, 2, 3]
    reached = nl.localization._reached_rows(one, index)
    # The bound of center 1 is its norm exactly.
    bounds = np.array([1.0, 2.0, 3.0])
    search = nl.localization._column_search
    assert search(one, index, reached, bounds) == (1, 1.0)
    assert stacks == [1, 2]
    assert bounds.tolist() == [1.0, 2.0, 3.0]


def test_best_localized_vector_zero_operator(c6):
    z = nl.BandedOperator(c6, 1, np.zeros((6, 6)))
    with pytest.raises(nl.ZeroOperator):
        nl.best_localized_vector(z, 1)


def test_localization_report_chain_and_csv(c60):
    a = nl.random_banded(c60, 1, seed=12)
    rep = nl.localization_report(a, 2)
    assert rep.propagation == 1
    assert rep.chain_ok
    assert rep.sigma_sq <= rep.sigma_col + 1e-10
    assert rep.sigma_col <= rep.sigma_sq_wide + 1e-10
    row = rep.csv_row()
    assert row[0] == "cycle_60"
    assert row[2] == 1 and row[3] == 2
    assert len(row) == len(nl.localization.CSV_HEADER)
    with pytest.raises(nl.ZeroOperator):
        nl.localization_report(
            nl.BandedOperator(c60, 1, np.zeros((60, 60))), 1
        )


def test_localization_report_json_fields(c6):
    rep = nl.localization_report(nl.adjacency(c6), 1)
    doc = rep.to_json()
    assert doc["space"] == "cycle_6"
    assert abs(doc["sigma_sq"] - math.sqrt(2) / 2) < 1e-12
    assert abs(doc["sigma_col"] - math.sqrt(3) / 2) < 1e-12


@pytest.mark.parametrize("space", ["c60", "grid8", "btree6", "broken16"])
@pytest.mark.parametrize("radius", [0, 1, 2, 5])
def test_column_search_matches_full_row_oracle(request, space, radius):
    """The column search reads only the rows its columns reach, padded
    with zero rows, and the report's search skips the columns its bounds
    rule out; every report field and witness is the full-row route's over
    every maximal ball, bit for bit.  ``broken16`` breaks the triangle
    inequality."""
    sp = request.getfixturevalue(space)
    operators = [
        nl.random_banded(sp, 1, seed=7),
        nl.random_banded(sp, 2, seed=8),
        nl.random_banded(sp, 1, seed=9, m=2),
        nl.random_banded(sp, 2, seed=10, m=2),
        # point-diagonal, so each ball's columns reach only its own rows
        nl.random_banded(sp, 0, seed=4, m=2),
        nl.adjacency(sp),
        identity(sp),
    ]
    for a in operators:
        center, norm = literal_column_search(a, radius)
        witness = nl.best_localized_vector(a, radius)
        assert (witness.center, witness.column_norm) == (center, norm)
        rep = nl.localization_report(a, radius)
        norm_a = nl.operator_norm(a)
        sq = nl.compress(a, radius).norm()
        wide = nl.compress(a, radius + nl.propagation(a)).norm()
        assert rep.operator_norm == norm_a
        assert (rep.witness_center, rep.column_norm) == (center, norm)
        assert (rep.compressed_norm, rep.wide_norm) == (sq, wide)
        assert rep.sigma_sq == sq / norm_a
        assert rep.sigma_col == norm / norm_a
        assert rep.sigma_sq_wide == wide / norm_a


def test_column_search_reads_every_row_the_support_reaches():
    # d(0, 2) = 5 breaks the triangle inequality.  Column 1 lies in the
    # maximal ball N(0, 1) = {0, 1, 3} and reaches row 2, which is outside
    # N(0, S + R) = N(0, 2): the rows come from the support, not from that
    # ball, so center 0 ties center 1 and wins.
    dist = np.array([[0, 1, 5, 1], [1, 0, 1, 5], [5, 1, 0, 5], [1, 5, 5, 0]])
    broken = nl.FiniteMetricSpace(("0", "1", "2", "3"), dist)
    assert nl.validate_metric(broken)
    data = np.zeros((4, 4))
    data[2, 1] = 3.0
    a = nl.BandedOperator(broken, 1, data)
    assert nl.propagation(a) == 1
    assert nl.ball_index(broken, 1).maximal.tolist() == [0, 1]
    assert literal_column_search(a, 1) == (0, 3.0)
    witness = nl.best_localized_vector(a, 1)
    assert (witness.center, witness.column_norm) == (0, 3.0)
    rep = nl.localization_report(a, 1)
    assert (rep.witness_center, rep.column_norm) == (0, 3.0)


def test_whole_space_ball_with_a_zero_row_matches_oracle():
    # The one ball at radius 8 is the whole 9-path, whose Gram M^H M is on
    # the row side, so dropping the zero row would regroup its sums.
    p9 = nl.generate_family("path", {"n": 9})
    for seed in range(9):
        data = nl.random_banded(p9, 2, seed=seed).data.copy()
        data[seed] = 0
        a = nl.BandedOperator(p9, 1, data)
        witness = nl.best_localized_vector(a, 8)
        assert (witness.center, witness.column_norm) == literal_column_search(a, 8)


def test_column_search_reads_reached_rows_up_to_the_gram_block(monkeypatch):
    """At operator side ``_GRAM_BLOCK`` = 128 the column search still
    gathers only the rows each ball's columns reach, padded to 7, and
    its result is the full-row route's; one side past it reads full
    rows."""
    stacks = []
    stack_values = nl.localization._top_values

    def recorded(stack, rows):
        stacks.append(stack.shape)
        return stack_values(stack, rows)

    monkeypatch.setattr(nl.localization, "_top_values", recorded)
    for n, rows in ((128, 7), (129, 129)):
        path = nl.generate_family("path", {"n": n})
        a = nl.random_banded(path, 1, seed=3)
        stacks.clear()
        witness = nl.best_localized_vector(a, 2)
        assert stacks == [(n - 4, 5, rows)]
        assert (witness.center, witness.column_norm) == literal_column_search(
            a, 2
        )


def test_column_bounds_hold_without_the_triangle_inequality():
    # The space of test_column_search_reads_every_row_the_support_reaches.
    # Column 1 of ball N(0, 1) = {0, 1, 3}
    # reaches row 2, which no maximal 2-ball holds together with that
    # ball, so center 0 gets no bound.  A bound read from the 2-ball
    # around 0, {0, 1, 3}, would be 0 and would prune the winner.
    dist = np.array([[0, 1, 5, 1], [1, 0, 1, 5], [5, 1, 0, 5], [1, 5, 5, 0]])
    broken = nl.FiniteMetricSpace(("0", "1", "2", "3"), dist)
    data = np.zeros((4, 4))
    data[2, 1] = 3.0
    a = nl.BandedOperator(broken, 1, data)
    index, wide = nl.ball_index(broken, 1), nl.ball_index(broken, 2)
    assert wide.maximal.tolist() == [0, 1]
    wide_norms = nl.compress(a, 2).maximal_norms()
    assert wide_norms.tolist() == [0.0, 3.0]
    reached = nl.localization._reached_rows(a, index)
    columns = (broken.dist[index.maximal] <= 1) | reached
    holds = nl.space._holders(columns, wide)
    bounds = nl.localization._inclusion_bounds(holds, wide_norms)
    assert bounds.tolist() == [np.inf, 3.0]


def test_report_factorizes_only_the_columns_that_can_win(c60, monkeypatch):
    """Of the 60 column restrictions of a seeded operator on the 60-cycle
    at S = 10, only those whose bound reaches the largest block norm at S
    are factorized, in one stack, after the blocks at S + 1 and the one
    block at S that can be the largest."""
    stacks = []
    stack_values = nl.localization._top_values

    def recorded(stack, rows):
        stacks.append(stack.shape)
        return stack_values(stack, rows)

    monkeypatch.setattr(nl.localization, "_top_values", recorded)
    a = nl.random_banded(c60, 1, seed=2)
    rep = nl.localization_report(a, 10)
    # blocks at S + 1, the block at S with the largest bound, the 3 column
    # restrictions left
    assert stacks == [(60, 23, 23), (1, 21, 21), (3, 21, 23)]
    assert (rep.witness_center, rep.column_norm) == literal_column_search(a, 10)
    assert rep.compressed_norm == nl.compress(a, 10).norm()


def test_report_opens_a_column_bound_at_the_slack_edge_in_the_first_stack(
    monkeypatch,
):
    """A diagonal operator on a 3-path at S = 0: each column is bounded by
    its own entry and ``sq`` = 1.  A bound equal to ``sq`` times
    1 - _PRUNE_SLACK reaches it, so its column is factorized in one stack
    with the largest; one an ulp below it is left bounded."""
    stacks = []
    stack_values = nl.localization._top_values

    def recorded(stack, rows):
        stacks.append(stack.shape)
        return stack_values(stack, rows)

    monkeypatch.setattr(nl.localization, "_top_values", recorded)
    path = nl.generate_family("path", {"n": 3})
    edge = 1.0 * (1 - nl.localization._PRUNE_SLACK)
    for bound, columns in ((edge, 2), (np.nextafter(edge, 0), 1)):
        stacks.clear()
        a = nl.BandedOperator(path, 1, np.diag([0.5, 1.0, bound]))
        rep = nl.localization_report(a, 0)
        assert (rep.witness_center, rep.column_norm) == (1, 1.0)
        assert stacks[-1] == (columns, 1, 3)


def test_whole_space_wide_ball_reuses_the_operator_norm(btree6):
    # At S + R = 6 the ball around the root is the whole depth-6 tree.
    for a in (nl.adjacency(btree6), nl.random_banded(btree6, 1, seed=2)):
        rep = nl.localization_report(a, 5)
        assert rep.wide_norm == rep.operator_norm
        assert rep.sigma_sq_wide == 1.0


def test_whole_space_wide_ball_past_dense_limit_keeps_compression():
    # Side 520 takes the power route for the operator norm, whose value
    # differs from the dense one, so the wide norm is the compression's.
    c260 = nl.generate_family("cycle", {"n": 260})
    a = nl.random_banded(c260, 1, seed=0, m=2)
    assert a.data.shape[0] > nl.operators.DENSE_NORM_LIMIT
    rep = nl.localization_report(a, 130)
    assert rep.wide_norm == nl.compress(a, 131).norm()
    assert abs(rep.wide_norm - rep.operator_norm) <= 1e-8 * rep.operator_norm


def test_report_factorization_counts(c60, btree6, monkeypatch):
    """A report factorizes each distinct block once, no singular vector,
    and only the blocks at S whose bound can reach the largest.

    On the 60-cycle at S = 10 the adjacency blocks repeat: 23 blocks at
    S + 1, the block at S with the largest bound, then the 59 others,
    whose bounds tie it and which hold 20 more distinct blocks, 23 column
    restrictions, and the norm.  Each column restriction reads the 23
    rows its 21 columns reach.  Every column bound ties, so none is
    pruned.  A seeded random operator there factorizes 65 matrices, 116
    fewer than with every block and column: 1 block at S and 3 column
    restrictions survive.  On the depth-6 tree at S = 5 the wide ball is
    the whole space.
    """
    stacks = []
    stack_values = nl.localization._top_values

    def recorded(stack, rows):
        stacks.append(stack.shape)
        return stack_values(stack, rows)

    monkeypatch.setattr(nl.localization, "_top_values", recorded)
    counts = count_factorizations(monkeypatch)
    nl.localization_report(nl.adjacency(c60), 10)
    assert counts == {"eigvalsh": 68, "eigh": 0}
    # blocks at S + 1, blocks at S in two rounds, column restrictions
    assert stacks == [(60, 23, 23), (1, 21, 21), (59, 21, 21), (60, 21, 23)]
    counts.update(eigvalsh=0, eigh=0)
    nl.localization_report(nl.random_banded(c60, 1, seed=2), 10)
    assert counts == {"eigvalsh": 65, "eigh": 0}
    counts.update(eigvalsh=0, eigh=0)
    nl.localization_report(nl.adjacency(btree6), 5)
    assert counts == {"eigvalsh": 7, "eigh": 0}


def test_tree_report_factorizes_no_wide_block(btree6, monkeypatch):
    """On the depth-6 tree at S = 5 the one ball at S + R is the whole
    space, so the operator norm is its block norm: the report factorizes
    the maximal blocks at S, largest bound first, then the columns.  So
    does a 4-path with 128 slots at S = 1, whose side 512 is the largest
    that takes the dense route to the operator norm."""
    stacks = []
    stack_values = nl.localization._top_values

    def recorded(stack, rows):
        stacks.append(stack.shape)
        return stack_values(stack, rows)

    monkeypatch.setattr(nl.localization, "_top_values", recorded)
    for a in (nl.adjacency(btree6), nl.random_banded(btree6, 1, seed=2)):
        stacks.clear()
        nl.localization_report(a, 5)
        assert stacks == [(1, 63, 63), (2, 79, 79), (1, 63, 127), (2, 79, 95)]
    path = nl.generate_family("path", {"n": 4})
    stacks.clear()
    nl.localization_report(nl.random_banded(path, 1, seed=0, m=128), 1)
    assert stacks == [(2, 384, 384), (2, 384, 512)]


class _Blocks:
    """Stands in for a compression in :func:`_largest`: its blocks have
    the norms ``true``, and each factorization asked for is recorded."""

    def __init__(self, true):
        self.true = np.array(true)
        self.asked = []

    def _norms_of(self, which):
        self.asked.append(which.tolist())
        return self.true[which]


def test_largest_stops_when_a_norm_reaches_the_bar():
    largest = nl.localization._largest
    # 3 / 2 is 1.5 exactly: reaching the bar returns None, and so does a
    # block that reaches it only once factorized.
    cases = [([3.0, 1.0], [True, False], []), ([np.inf], [False], [[True]])]
    for norms, exact, asked in cases:
        blocks = _Blocks([3.0, 1.0][: len(norms)])
        got = largest(
            blocks._norms_of, np.array(norms), np.array(exact), 2.0, 1.5
        )
        assert got is None and blocks.asked == asked
    # One ulp above the quotient, the norm comes back and the block
    # bounded by 1 stays closed.
    blocks = _Blocks([3.0, 0.5])
    bar = np.nextafter(1.5, np.inf)
    norms, exact = np.array([3.0, 1.0]), np.array([True, False])
    assert largest(blocks._norms_of, norms, exact, 2.0, bar) == 3.0
    assert blocks.asked == [] and exact.tolist() == [True, False]


def test_largest_opens_a_bound_that_reaches_the_slack_edge():
    # A bound equal to the largest norm times 1 - _PRUNE_SLACK reaches it,
    # so its block is factorized; one an ulp below it is left bounded.
    edge = 2.0 * (1 - nl.localization._PRUNE_SLACK)
    for bound, asked in ((edge, [[False, True]]), (np.nextafter(edge, 0), [])):
        blocks = _Blocks([2.0, 0.5])
        norms, exact = np.array([2.0, bound]), np.array([True, False])
        assert nl.localization._largest(blocks._norms_of, norms, exact) == 2.0
        assert blocks.asked == asked


def test_largest_opens_every_inf_bound_in_one_call():
    blocks = _Blocks([1.0, 3.0, 2.0])
    norms, exact = np.full(3, np.inf), np.zeros(3, dtype=bool)
    assert nl.localization._largest(blocks._norms_of, norms, exact) == 3.0
    assert blocks.asked == [[True, True, True]]
    assert norms.tolist() == [1.0, 3.0, 2.0] and exact.all()


def _planar_points(n: int, seed: int) -> nl.FiniteMetricSpace:
    """n seeded points in the unit square under Euclidean distance: a
    float distance table."""
    points = np.random.default_rng(seed).random((n, 2))
    dist = np.linalg.norm(points[:, None] - points[None], axis=-1)
    return nl.FiniteMetricSpace(tuple(map(str, range(n))), dist, "planar")


@pytest.mark.parametrize("space", ["broken16", "planar"])
def test_block_bounds_hold_on_broken_and_float_tables(request, space):
    """The report's bounds on the blocks at S are upper bounds, and its
    largest block norm is the full compression's, bit for bit, on a table
    that breaks the triangle inequality and on a float table."""
    if space == "planar":
        sp, band, radii = _planar_points(24, 3), 0.25, (0.2, 0.35, 0.5)
    else:
        sp, band, radii = request.getfixturevalue(space), 1, (1, 2)
    pruned = 0
    for seed in range(6):
        a = nl.random_banded(sp, band, seed=seed)
        for radius in radii:
            rep, norms, exact = nl.localization._report_and_norms(a, radius)
            full = nl.compress(a, radius).maximal_norms()
            assert rep.compressed_norm == full.max()
            assert np.array_equal(norms[exact], full[exact])
            slack = 1 - nl.localization._PRUNE_SLACK
            assert (norms[~exact] * slack < rep.compressed_norm).all()
            assert (full[~exact] <= norms[~exact] * (1 + 1e-13)).all()
            pruned += int((~exact).sum())
    assert pruned > 0


@pytest.mark.parametrize(
    "space, band, radius, m",
    [("c60", 1, radius, m) for m in (1, 2) for radius in (3, 5, 10)]
    + [
        ("grid8", 1, 2, 1),
        ("grid8", 1, 5, 1),
        ("btree6", 1, 5, 1),
        ("broken16", 1, 2, 1),
        ("broken16", 1, 3, 1),
        ("broken16", 2, 2, 1),
        ("planar", 0.25, 0.35, 1),
        ("planar", 0.1, 0.5, 1),
    ],
)
def test_norm_is_the_largest_maximal_block_norm(request, space, band, radius, m):
    """norm() factorizes a cover's blocks and only the blocks that can be
    the largest, yet returns the largest maximal block norm bit for bit."""
    if space == "planar":
        sp = _planar_points(24, 3)
    else:
        sp = request.getfixturevalue(space)
    for seed in range(3):
        comp = nl.compress(nl.random_banded(sp, band, seed, m=m), radius)
        assert comp.norm() == max(comp.maximal_norms())


def _cover_centers(cover) -> list:
    """The centers of the balls a cover chooses."""
    return cover.wide.maximal[cover.chosen].tolist()


def test_norm_of_operators_with_zero_blocks(c60):
    """A zero and a diagonal operator have propagation 0, so their cover
    chooses no ball; an operator that couples only points 25 apart
    vanishes on every 10-ball but not on its cover's one ball, the whole
    space."""
    zero = nl.BandedOperator(c60, 1, np.zeros((60, 60)))
    diagonal = nl.BandedOperator(c60, 1, np.diag(np.arange(1.0, 61.0)))
    far = nl.BandedOperator(c60, 1, np.roll(np.eye(60), 25, axis=1))
    assert nl.propagation(zero) == nl.propagation(diagonal) == 0
    assert not nl.space.ball_cover(c60, 10, 10).chosen.any()
    assert _cover_centers(nl.space.ball_cover(c60, 10, 35)) == [0]
    for a in (zero, diagonal, far):
        for radius in (3, 10):
            comp = nl.compress(a, radius)
            assert comp.norm() == max(comp.maximal_norms())
    assert nl.compress(far, 10).norm() == 0.0
    assert abs(nl.compress(diagonal, 3).norm() - 60.0) < 1e-12


@pytest.mark.parametrize(
    "space, radius, wide",
    [
        ("c60", 10, 11),
        ("c60", 3, 5),
        ("c60", 3, 6),
        ("grid8", 2, 3),
        ("grid8", 4, 5),
        ("grid8", 5, 6),
        ("btree6", 2, 3),
        ("btree6", 5, 6),
        ("broken16", 1, 2),
        ("broken16", 2, 4),
        ("broken16", 3, 4),
    ],
)
def test_ball_cover_holds_every_maximal_ball(request, space, radius, wide):
    """The space keeps one cover per radius pair.  Its table is the literal
    inclusion table, and it chooses the literal greedy cover, which holds
    every maximal ball, only where its sizes cubed sum below the maximal
    balls'; elsewhere it chooses no ball."""
    sp = request.getfixturevalue(space)
    centers = literal_ball_cover(sp, radius, wide)
    inside = sp.dist[maximal_ball_centers(sp, radius)] <= radius
    hosts = sp.dist[maximal_ball_centers(sp, wide)] <= wide
    holds = (inside[:, None, :] <= hosts[None, :, :]).all(axis=2)
    picked = np.isin(maximal_ball_centers(sp, wide), centers)
    assert holds[:, picked].any(axis=1).all()
    cost = sum(int((sp.dist[c] <= wide).sum()) ** 3 for c in centers)
    plain = sum(int(inside_row.sum()) ** 3 for inside_row in inside)
    cover = nl.space.ball_cover(sp, radius, wide)
    assert nl.space.ball_cover(sp, radius, wide) is cover
    assert np.array_equal(cover.holds, holds)
    assert _cover_centers(cover) == (centers if cost < plain else [])
    assert not cover.holds.flags.writeable
    assert not cover.chosen.flags.writeable


def test_ball_cover_ties_go_to_the_smallest_center(c60, grid8, btree6):
    # Every 11-ball of the 60-cycle holds three 10-balls, so the greedy
    # cover takes every third center from 0.
    cover = nl.space.ball_cover(c60, 10, 11)
    assert _cover_centers(cover) == list(range(0, 60, 3))
    # The grid's 3-balls cost more than its 2-balls; the tree's one 6-ball
    # is the whole space.
    assert not nl.space.ball_cover(grid8, 2, 3).chosen.any()
    assert not nl.space.ball_cover(btree6, 5, 6).chosen.any()


def test_norm_factorizes_the_cover_and_the_blocks_that_can_win(
    c60, monkeypatch
):
    """On the 60-cycle at S = 10 a seeded operator's norm factorizes the
    20 cover blocks at S + 1, then the 3 blocks at S whose bound is the
    largest: 23 matrices where every maximal block is 60."""
    counts = count_factorizations(monkeypatch)
    stacks = []
    stack_values = nl.localization._top_values

    def recorded(stack, rows):
        stacks.append(stack.shape)
        return stack_values(stack, rows)

    monkeypatch.setattr(nl.localization, "_top_values", recorded)
    comp = nl.compress(nl.random_banded(c60, 1, seed=2), 10)
    norm = comp.norm()
    assert stacks == [(20, 23, 23), (3, 21, 21)]
    assert counts == {"eigvalsh": 23, "eigh": 0}
    assert norm == max(comp.maximal_norms())


@pytest.mark.parametrize("dist", [[[1]], [[1, 2], [2, 1]]])
def test_balls_that_are_all_empty_have_norm_zero(dist):
    # A table with a nonzero diagonal can leave every 0-ball empty; the one
    # maximal ball is then empty and its block has norm 0, whether the
    # ball at S + R is the whole space (one point) or not (two points).
    sp = nl.FiniteMetricSpace(tuple(map(str, range(len(dist)))), dist)
    a = nl.BandedOperator(sp, 1, np.eye(len(dist)))
    assert nl.ball_index(sp, 0).sizes.tolist() == [0] * len(dist)
    assert nl.compress(a, 0).maximal_norms().tolist() == [0.0]
    assert nl.compress(a, 0).norm() == 0.0
    with pytest.raises(nl.ZeroOperator):
        nl.localization_report(a, 0)


def test_repeated_reports_make_no_page_faults(c60):
    """Stacks live in scratch arrays each thread keeps, so after a first
    report a report of the same sizes allocates no large array.  Fresh
    arrays made about 950 minor page faults per report here."""
    resource = pytest.importorskip("resource")
    nl.localization_report(nl.random_banded(c60, 1, seed=3), 10)
    a = nl.random_banded(c60, 1, seed=4)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    nl.localization_report(a, 10)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


@pytest.mark.parametrize(
    "sigmas, ok, slack",
    [
        ((0.5, 0.75, 1.0), True, 0.0),
        # within CHAIN_TOL: holds, and the violation is still recorded
        ((0.75 + 2**-40, 0.75, 1.0), True, 2**-40),
        # one broken link each: sigma_sq above sigma_col, then sigma_col
        # above sigma_wide
        ((0.875, 0.75, 1.0), False, 0.125),
        ((0.5, 1.0, 0.75), False, 0.25),
        # both broken: the worse violation is the slack
        ((1.0, 0.75, 0.625), False, 0.25),
    ],
)
def test_chain_verdict_on_hand_made_chains(sigmas, ok, slack):
    assert nl.localization._chain(*sigmas) == (ok, slack)


def test_gather_fills_the_kept_stack():
    # 60 blocks of 23 x 23 complex entries (496 KiB) are taken into the
    # kept stack buffer, where the value kernel then scales them in place.
    rng = np.random.default_rng(14)
    parts = rng.standard_normal((2, 120, 120))
    source = parts[0] + 1j * parts[1]
    idx = rng.integers(0, 120, size=(60, 23))
    rows, cols = idx[:, :, None], idx[:, None, :]
    stack = nl.localization._gather(source, rows, cols)
    assert np.array_equal(stack, source[rows, cols])
    kept = vars(nl.operators._scratch_buffers)
    assert np.shares_memory(stack, kept["stack"])


@pytest.mark.parametrize(
    "lower, ok",
    [
        (0.25, True),
        # inside the 1e-9 slack, and at its edge
        (0.5 + 5e-10, True),
        (0.5 + 1e-9, True),
        # past it
        (0.5 + 5e-9, False),
        (float("nan"), False),
    ],
)
def test_consistent_verdict_on_hand_made_floors(lower, ok):
    assert nl.localization._consistent(lower, 0.5) is ok


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 2, 5]),
)
def test_chain_inequalities_hold_on_random_operators(seed, radius):
    c20 = nl.generate_family("cycle", {"n": 20})
    a = nl.random_banded(c20, 1, seed=seed)
    rep = nl.localization_report(a, radius)
    assert rep.chain_ok, rep.chain_slack


def test_power_witness_guarantees(c60):
    for seed in (0, 5, 17):
        a = nl.random_banded(c60, 1, seed=seed)
        for power in (1, 2, 3):
            w = nl.power_trick_witness(a, 5, power)
            assert w.measured_ratio >= w.threshold - 1e-10
            assert abs(np.linalg.norm(w.vector) - 1) < 1e-12
            # ratios telescope to the localized contraction of the power
            assert abs(np.prod(w.ratios) - w.contraction) < 1e-9
            assert 0 <= w.stage < power
            assert w.within_proved_bound
            assert w.stage <= power // 2
            if power == 1:
                # the seed is its own witness, so it stays in its seed ball
                dist_to_center = c60.dist[w.center, list(w.support_points)]
                assert (dist_to_center <= 5).all()
                assert w.within_diameter_bound


def test_power_witness_support_inclusion(c60):
    # the witness support provably sits in a ball around the seed center
    a = nl.random_banded(c60, 1, seed=23)
    w = nl.power_trick_witness(a, 5, 4)
    dist_to_center = c60.dist[w.center, list(w.support_points)]
    assert (dist_to_center <= w.support_radius_bound).all()
    assert w.support_diameter <= w.diameter_bound_proved


def test_power_witness_json_keys(c60):
    # every field by name but the vector; nothing that JSON cannot hold
    a = nl.random_banded(c60, 1, seed=5)
    doc = nl.power_trick_witness(a, 5, 2).to_json()
    assert sorted(doc) == [
        "center", "contraction", "diameter_bound", "diameter_bound_proved",
        "loc_radius", "measured_ratio", "power", "propagation", "ratios",
        "shell_split", "stage", "support_diameter", "support_points",
        "support_radius_bound", "threshold", "within_diameter_bound",
        "within_proved_bound",
    ]
    assert json.loads(json.dumps(doc)) == doc


def test_power_two_witness_is_cut_to_one_side_of_the_shell(c60):
    stages = []
    for seed in (0, 5, 17):
        a = nl.random_banded(c60, 1, seed=seed)
        w = nl.power_trick_witness(a, 5, 2)
        stages.append(w.stage)
        assert w.shell_split == (w.stage == 1)
        assert w.measured_ratio >= w.threshold - 1e-10
        assert w.support_diameter <= 3 * 1 + 2 * 5
        assert w.within_diameter_bound and w.within_proved_bound
        if w.stage == 0:
            continue
        # dense oracle: y = (b + c - ||u z||^2) z cut to B(x, 6) plus one
        # end of the shell, keeping the end with the larger u-ratio
        u = a.data / dense_norm(a.data)
        b = u.conj().T @ u
        seed_ball = nl.ball(c60, w.center, 5)
        z = np.zeros(60, dtype=complex)
        z[seed_ball] = np.linalg.svd((b @ b)[:, seed_ball])[2][0].conj()
        y = b @ z + (w.contraction - np.linalg.norm(u @ z) ** 2) * z
        cuts = []
        for end in (w.center - 7, w.center + 7):
            keep = list(nl.ball(c60, w.center, 6)) + [end % 60]
            cut = np.zeros(60, dtype=complex)
            cut[keep] = y[keep]
            cuts.append(cut / np.linalg.norm(cut))
        best = max(cuts, key=lambda v: np.linalg.norm(u @ v))
        assert abs(abs(np.vdot(best, w.vector)) - 1) < 1e-9
    assert 1 in stages


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["path", "grid"]),
    st.sampled_from([0, 1, 2]),
    st.sampled_from([1, 2]),
)
def test_power_two_shell_cut_reaches_threshold(seed, kind, radius, band):
    params = {"n": 16} if kind == "path" else {"rows": 4, "cols": 5}
    space = nl.generate_family(kind, params)
    a = nl.random_banded(space, band, seed=seed, m=1 + seed % 2)
    w = nl.power_trick_witness(a, radius, 2)
    assert w.measured_ratio >= w.threshold - 1e-10
    if w.shell_split:
        assert w.within_diameter_bound


def test_power_four_cut_from_a_hand_made_seed(monkeypatch):
    # The cut's proof never uses that the seed is the best one, and best
    # seeds rarely need stage power // 2 at power >= 4, so a hand-made seed
    # stands in: slot 0 carries (S + S*)/2 on the 40-cycle, slot 1 carries
    # 0.1 I, and the seed at point 20 puts weight 1e-6 on slot 0.
    cycle = nl.generate_family("cycle", {"n": 40})
    shift = np.roll(np.eye(40), 1, axis=0)
    data = np.kron((shift + shift.T) / 2, np.diag([1.0, 0.0]))
    data += np.kron(0.1 * np.eye(40), np.diag([0.0, 1.0]))
    a = nl.BandedOperator(cycle, 2, data)
    z = np.zeros(80, dtype=complex)
    z[40], z[41] = 1e-3, math.sqrt(1 - 1e-6)

    def seed(bn, radius):
        return nl.localization.ColumnWitness(
            center=20, vector=z,
            column_norm=float(np.linalg.norm(bn.apply(z))),
        )

    monkeypatch.setattr(nl.localization, "best_localized_vector", seed)
    w = nl.power_trick_witness(a, 0, 4)
    assert (w.stage, w.shell_split) == (2, True)
    assert w.measured_ratio >= w.threshold - 1e-10
    assert w.diameter_bound_proved == w.diameter_bound == 7
    assert w.within_diameter_bound
    # dense oracle: y = (b + threshold^2 - ||a v||^2) v for the unit stage
    # v = b z, cut to B(20, 3) plus one end of the shell at distance 4
    b = data.T @ data
    v = b @ z / np.linalg.norm(b @ z)
    y = b @ v + (w.threshold**2 - np.linalg.norm(data @ v) ** 2) * v
    cuts = []
    for end in (16, 24):
        keep = nl.localization.expand_indices(
            np.append(nl.ball(cycle, 20, 3), end), 2
        )
        cut = np.zeros(80, dtype=complex)
        cut[keep] = y[keep]
        cuts.append(cut / np.linalg.norm(cut))
    best = max(cuts, key=lambda u: np.linalg.norm(data @ u))
    assert abs(abs(np.vdot(best, w.vector)) - 1) < 1e-9


def test_power_two_target_out_of_reach_on_four_branch_tree():
    # Root 0, children 1..4, grandchildren 4i+1..4i+4 of child i.  a sends
    # the root to every child with weight 1 and each grandchild to its
    # parent with weight 1/2, so a a* = I + J on the children, ||a||^2 = 5,
    # and b^2 e_0 = b e_0 gives c = 2/sqrt(5) at the root.
    edges = [(p, 4 * p + k) for p in range(5) for k in range(1, 5)]
    space = nl.from_graph(21, edges)
    data = np.zeros((21, 21))
    data[1:5, 0] = 1.0
    for g in range(5, 21):
        data[(g - 1) // 4, g] = 0.5
    a = nl.BandedOperator(space, 1, data)
    w = nl.power_trick_witness(a, 0, 2)
    assert (w.center, w.stage, w.shell_split) == (0, 1, False)
    assert abs(w.contraction - 2 / math.sqrt(5)) < 1e-12
    assert w.measured_ratio >= w.threshold - 1e-10
    assert w.support_diameter == 4 and not w.within_diameter_bound
    # Grandchildren of different children are 4 apart, so every set of
    # diameter <= 3 lies in {root, children, grandchildren of child i}.
    assert space.dist[5, 9] == 4
    norm_a = dense_norm(data)
    for i in range(1, 5):
        cols = list(range(5)) + list(range(4 * i + 1, 4 * i + 5))
        best = dense_norm(data[:, cols]) / norm_a
        assert abs(best**2 - (5 + math.sqrt(13)) / 10) < 1e-12
        assert best < w.threshold - 0.01


def test_power_witness_errors(c6):
    z = nl.BandedOperator(c6, 1, np.zeros((6, 6)))
    with pytest.raises(nl.ZeroOperator):
        nl.power_trick_witness(z, 1, 1)
    with pytest.raises(nl.InvalidParams):
        nl.power_trick_witness(nl.adjacency(c6), 1, 0)


def test_amplification_reduction_preserves_top_pair(c6):
    a = nl.random_banded(c6, 1, seed=6, m=3)
    red = nl.vector_amplification_reduction(a)
    assert red.compressed.m == 1
    assert abs(red.input_norm - dense_norm(a.data)) < 1e-12
    assert red.achieved_fraction >= 1 - 1e-10
    assert red.compressed_norm <= red.input_norm + 1e-10
    # fibers are unit vectors
    assert np.abs(np.linalg.norm(red.v_fibers, axis=1) - 1).max() < 1e-12
    assert np.abs(np.linalg.norm(red.w_fibers, axis=1) - 1).max() < 1e-12


def test_amplification_reduction_shrinks_compressions(c6):
    a = nl.random_banded(c6, 1, seed=15, m=2)
    red = nl.vector_amplification_reduction(a)
    for radius in (1, 2):
        assert (
            nl.compress(red.compressed, radius).norm()
            <= nl.compress(a, radius).norm() + 1e-10
        )


def test_amplification_reduction_scalar_input(c6):
    a = nl.random_banded(c6, 1, seed=2)
    red = nl.vector_amplification_reduction(a)
    assert abs(red.compressed_norm - red.input_norm) < 1e-10
    with pytest.raises(nl.ZeroOperator):
        nl.vector_amplification_reduction(
            nl.BandedOperator(c6, 1, np.zeros((6, 6)))
        )


def test_onl_profile_deterministic(c6):
    kwargs = dict(samples=6, seed=42, search_budget=30)
    p1 = nl.onl_profile(c6, 1, 2, **kwargs)
    p2 = nl.onl_profile(c6, 1, 2, **kwargs)
    assert p1.to_json() == p2.to_json()
    assert p1.worst_ratio <= min(r.sigma_sq for r in p1.sample_reports)


_SMALL_SPACES = {
    "regular12": ("random_regular", {"n": 12, "d": 3}, 1),
    "c20": ("cycle", {"n": 20}, 0),
    "grid5": ("grid", {"rows": 5, "cols": 5}, 0),
}


@pytest.mark.parametrize(
    "space, loc_radius, seed, budget, halves",
    [
        ("c60", 10, 0, 150, False),
        ("btree6", 5, 1, 150, False),
        ("grid8", 5, 2, 150, False),
        ("regular12", 1, 0, 900, True),
        # trials that factorize bounded blocks the move did not change
        ("c20", 5, 2, 120, False),
        ("c60", 10, 1, 120, False),
        ("grid5", 1, 1, 120, False),
    ],
)
def test_refinement_matches_literal_route(
    request, space, loc_radius, seed, budget, halves
):
    """Refining from maximal-ball norms, exact or bounded, reproduces full
    recomputation.

    Same start, same rng state: the refined ratio and the rng state
    afterwards agree bit for bit, after accepted moves and, on the small
    graph, a step halving.
    """
    if space in _SMALL_SPACES:
        kind, params, graph_seed = _SMALL_SPACES[space]
        sp = nl.generate_family(kind, params, seed=graph_seed)
    else:
        sp = request.getfixturevalue(space)
    start = nl.random_banded(sp, 1, seed)
    report, norms, exact = nl.localization._report_and_norms(start, loc_radius)
    assert report.sigma_sq == nl.localization_report(start, loc_radius).sigma_sq
    full = nl.compress(start, loc_radius).maximal_norms()
    assert np.array_equal(norms[exact], full[exact])
    # The start is partly bounded except where the wide ball is the whole
    # space (the tree at S = 5).
    assert exact.all() == (space == "btree6")
    rng_lib = np.random.default_rng(seed + 100)
    rng_lit = np.random.default_rng(seed + 100)
    got = nl.localization._refine_ratio(
        loc_radius, 1, start, (norms, exact), budget, rng_lib
    )
    want, accepted, halvings = literal_refine_ratio(
        sp, loc_radius, 1, start, report.sigma_sq, budget, rng_lit
    )
    assert got == want
    assert rng_lib.bit_generator.state == rng_lit.bit_generator.state
    assert accepted > 0 and got < report.sigma_sq
    if halves:
        assert halvings > 0


def test_refinement_bounds_a_moved_block_by_its_move():
    """A trial moves one entry by delta, so the blocks that hold it move
    by at most |delta|.  Two points at distance 1, balls and band of
    radius 0: the blocks are the diagonal entries 1 and 0.9, both exact.
    Moving the second by +0.25 lifts its block from below the kept
    maximum 1 to 1.15, above it.  Its bound 0.9 + 0.25 reaches 1, so the
    search factorizes it and the ratio stays 1.  Bounded by 0.9 or by
    0.9 - 0.25, the block would stay shut, and the trial would be accepted
    at 1 / 1.15."""
    sp = nl.FiniteMetricSpace(("0", "1"), [[0, 1], [1, 0]])
    start = nl.BandedOperator(sp, 1, np.diag([1.0, 0.9]))
    norms, exact = np.array([1.0, 0.9]), np.ones(2, dtype=bool)
    # 8 trials: four moves of each diagonal entry, in either order
    got = nl.localization._refine_ratio(
        0, 0, start, (norms, exact), 8, np.random.default_rng(0)
    )
    want, accepted, _ = literal_refine_ratio(
        sp, 0, 0, start, 1.0, 8, np.random.default_rng(0)
    )
    assert got == want == 1.0
    assert accepted == 0


def test_refinement_factorizes_a_pinned_count(grid8, monkeypatch):
    """From the grid's seed-2 start at S = 5, with budget 120, the
    refinement's trials factorize 1,774 matrices, each trial's operator
    norm included."""
    start = nl.random_banded(grid8, 1, 2)
    _, norms, exact = nl.localization._report_and_norms(start, 5)
    counts = count_factorizations(monkeypatch)
    nl.localization._refine_ratio(
        5, 1, start, (norms, exact), 120, np.random.default_rng(102)
    )
    assert counts == {"eigvalsh": 1774, "eigh": 0}


def test_onl_profile_radii_validation(c6):
    with pytest.raises(nl.InvalidRadii):
        nl.onl_profile(c6, 2, 1, samples=2, seed=0)
    with pytest.raises(nl.InvalidRadii):
        nl.onl_profile(c6, 0, 1, samples=2, seed=0)


def test_onl_profile_with_certificate_floor(c6):
    cert = nl.subset_to_vector(nl.ball_certificate(c6, 2))
    prof = nl.onl_profile(
        c6, 1, 2, samples=5, seed=3, search_budget=20, certificate=cert
    )
    assert prof.certified_lower_bound is not None
    assert prof.consistent
    assert prof.worst_ratio + 1e-9 >= prof.certified_lower_bound
    wrong = nl.subset_to_vector(nl.ball_certificate(c6, 1))
    with pytest.raises(nl.InvalidParams):
        nl.onl_profile(c6, 1, 2, samples=2, seed=0, certificate=wrong)


@pytest.mark.parametrize(
    "space, radius, vacuous", [("c6", 1, True), ("c60", 10, False)]
)
def test_onl_profile_states_whether_its_floor_is_vacuous(
    request, space, radius, vacuous
):
    # kappa = 3 on both bands: epsilon = 3 * 1/3 on the 6-cycle at S = 1,
    # and 3 * 1/21 on the 60-cycle at S = 10.
    sp = request.getfixturevalue(space)
    cert = nl.subset_to_vector(nl.ball_certificate(sp, radius))
    prof = nl.onl_profile(
        sp, 1, radius, samples=1, seed=0, search_budget=0, certificate=cert
    )
    assert prof.vacuous is vacuous
    assert prof.epsilon == (1.0 if vacuous else 1 / 7)


@pytest.mark.parametrize("samples", [1, 2])
def test_onl_profile_splits_its_budget_over_its_starts(btree6, samples):
    """Each of the (at most three) worst samples is refined with an equal
    share of the budget, drawing from the profile's rng in turn; one sample
    takes the whole budget, as on the tree-search workload."""
    budget, seed = 6, 11
    prof = nl.onl_profile(
        btree6, 1, 5, samples=samples, seed=seed, search_budget=budget
    )
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**63 - 1, size=samples)
    ratios = [r.sigma_sq for r in prof.sample_reports]
    want = min(ratios)
    for i in np.argsort(ratios):
        start = nl.random_banded(btree6, 1, prof.sample_seeds[i])
        refined, _, _ = literal_refine_ratio(
            btree6, 5, 1, start, ratios[i], budget // samples, rng
        )
        want = min(want, refined)
    assert prof.adversarial_ratio == want < min(ratios)


def test_onl_profile_refuses_a_wrong_certificate_radius_first(
    c6, monkeypatch
):
    # the radius check comes before any sample is drawn or refined
    def no_draw(*args, **kwargs):
        raise AssertionError("random_banded was called")

    monkeypatch.setattr(nl.localization, "random_banded", no_draw)
    wrong = nl.subset_to_vector(nl.ball_certificate(c6, 1))
    with pytest.raises(nl.InvalidParams, match="certificate radius 1"):
        nl.onl_profile(c6, 1, 2, samples=2, seed=0, certificate=wrong)


def test_onl_profile_refuses_a_certificate_from_another_space(
    c6, c60, monkeypatch
):
    # The 6-cycle's certificate has the profile's radius but not its
    # space; one built on an equal copy of the 60-cycle is accepted.
    copy = nl.generate_family("cycle", {"n": 60})
    same = nl.subset_to_vector(nl.ball_certificate(copy, 10))
    prof = nl.onl_profile(
        c60, 1, 10, samples=1, seed=0, search_budget=0, certificate=same
    )
    assert prof.consistent

    def no_draw(*args, **kwargs):
        raise AssertionError("random_banded was called")

    monkeypatch.setattr(nl.localization, "random_banded", no_draw)
    other = nl.subset_to_vector(nl.ball_certificate(c6, 10))
    with pytest.raises(nl.DataError, match="another space than 'cycle_60'"):
        nl.onl_profile(c60, 1, 10, samples=2, seed=0, certificate=other)


def test_onl_profile_probes(c6):
    prof = nl.onl_profile(
        c6,
        1,
        2,
        samples=3,
        seed=1,
        search_budget=0,
        probes=(("adjacency", nl.adjacency(c6)),),
    )
    assert prof.probe_reports[0][0] == "adjacency"
    assert abs(prof.probe_reports[0][1].sigma_sq - math.sqrt(3) / 2) < 1e-12
