import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normloc as nl
from helpers import (
    count_factorizations,
    dense_norm,
    literal_column_search,
    literal_refine_ratio,
    naive_column_norm,
    naive_compression_norm,
)


def test_compression_blocks_are_subreads(c6):
    a = nl.random_banded(c6, 1, seed=1)
    comp = nl.compress(a, 1)
    block = comp.block(0)
    points = nl.ball(c6, 0, 1)
    assert np.array_equal(block, a.to_dense()[np.ix_(points, points)])


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
            assert comp.norm() == comp.block_norms().max()
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
    comp = nl.compress(a, 1)
    assert comp.block(2).shape == (6, 6)
    assert abs(comp.norm() - naive_compression_norm(a, 1)) < 1e-12


def test_compress_zero_and_is_zero(c6):
    z = nl.BandedOperator(c6, 1, np.zeros((6, 6)))
    comp = nl.compress(z, 1)
    assert comp.norm() == 0.0
    assert comp.is_zero()
    with pytest.raises(nl.InvalidParams):
        nl.compress(nl.adjacency(c6), -1)


def test_best_localized_vector_properties(c60):
    a = nl.random_banded(c60, 1, seed=3)
    witness = nl.best_localized_vector(a, 2)
    inside = np.zeros(60, dtype=bool)
    inside[witness.points] = True
    support = nl.vector_point_support(witness.vector, 1)
    assert inside[support].all()
    assert abs(np.linalg.norm(witness.vector) - 1) < 1e-12
    achieved = np.linalg.norm(a.apply(witness.vector))
    assert abs(achieved - witness.column_norm) < 1e-10
    assert witness.column_norm <= nl.operator_norm(a) + 1e-10


def test_best_localized_vector_tie_breaks_to_smallest_center(c6):
    one = nl.identity(c6)
    witness = nl.best_localized_vector(one, 1)
    assert witness.center == 0


def test_best_localized_vector_ties_skip_balls_inside_others():
    # on a path the end ball {0, 1} lies inside the ball {0, 1, 2} around 1,
    # so the identity's tie goes to center 1, the smallest maximal center
    path = nl.generate_family("path", {"n": 5})
    one = nl.identity(path)
    assert nl.best_localized_vector(one, 1).center == 1
    assert nl.localization_report(one, 1).witness_center == 1


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


@pytest.mark.parametrize("space", ["c60", "grid8", "btree6"])
@pytest.mark.parametrize("radius", [0, 1, 2, 5])
def test_column_search_matches_full_row_oracle(request, space, radius):
    """The column search reads only the rows its columns reach, padded
    with zero rows; every report field and witness is the full-row
    route's, bit for bit."""
    sp = request.getfixturevalue(space)
    operators = [
        nl.random_banded(sp, 1, seed=7),
        nl.random_banded(sp, 2, seed=8),
        nl.random_banded(sp, 1, seed=9, m=2),
        # point-diagonal, so each ball's columns reach only its own rows
        nl.random_banded(sp, 0, seed=4, m=2),
        nl.adjacency(sp),
        nl.identity(sp),
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
    """A report factorizes each distinct block once and no singular vector.

    On the 60-cycle at S = 10 the adjacency blocks repeat: 21 distinct
    blocks at S, 23 column restrictions and 23 blocks at S + 1, and the
    norm.  Each column restriction reads the 23 rows its 21 columns reach.
    On the depth-6 tree at S = 5 the wide ball is the whole space.
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
    # blocks at S, column restrictions, blocks at S + 1
    assert stacks == [(60, 21, 21), (60, 21, 23), (60, 23, 23)]
    counts.update(eigvalsh=0, eigh=0)
    nl.localization_report(nl.adjacency(btree6), 5)
    assert counts == {"eigvalsh": 7, "eigh": 0}


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
        u = a.to_dense() / dense_norm(a.to_dense())
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
            center=20, points=np.array([20]), vector=z,
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
    assert abs(red.input_norm - dense_norm(a.to_dense())) < 1e-12
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


@pytest.mark.parametrize(
    "space, loc_radius, seed, budget, halves",
    [
        ("c60", 10, 0, 150, False),
        ("btree6", 5, 1, 150, False),
        ("grid8", 5, 2, 150, False),
        ("regular12", 1, 0, 900, True),
    ],
)
def test_refinement_matches_literal_route(
    request, space, loc_radius, seed, budget, halves
):
    """Refining from maximal-ball norms reproduces full recomputation.

    Same start, same rng state: the refined ratio and the rng state
    afterwards agree bit for bit, after accepted moves and, on the small
    graph, a step halving.
    """
    if space == "regular12":
        sp = nl.generate_family("random_regular", {"n": 12, "d": 3}, seed=1)
    else:
        sp = request.getfixturevalue(space)
    start = nl.random_banded(sp, 1, seed)
    report, norms = nl.localization._report_and_norms(start, loc_radius)
    assert report.sigma_sq == nl.localization_report(start, loc_radius).sigma_sq
    assert np.array_equal(norms, nl.compress(start, loc_radius).maximal_norms())
    rng_lib = np.random.default_rng(seed + 100)
    rng_lit = np.random.default_rng(seed + 100)
    got = nl.localization._refine_ratio(
        sp, loc_radius, 1, start, report.sigma_sq, norms, budget, rng_lib
    )
    want, accepted, halvings = literal_refine_ratio(
        sp, loc_radius, 1, start, report.sigma_sq, budget, rng_lit
    )
    assert got == want
    assert rng_lib.bit_generator.state == rng_lit.bit_generator.state
    assert accepted > 0 and got < report.sigma_sq
    if halves:
        assert halvings > 0


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
