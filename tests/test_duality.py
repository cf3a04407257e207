import math
from fractions import Fraction

import numpy as np
import pytest

import normloc as nl
from helpers import (
    ball_block,
    ball_overlap,
    count_factorizations,
    dense_norm,
    identity,
    literal_ball_subsets,
    literal_kernel_from_cp_map,
    literal_schur_multiply,
)


def _ball_cert(space, radius):
    return nl.subset_to_vector(nl.ball_certificate(space, radius))


def test_phi_agrees_with_schur_multiplication(c60):
    # two independent routes to the same operator: blockwise weighting of
    # the compression vs a direct entrywise product with the Gram table
    cert = _ball_cert(c60, 5)
    a = nl.random_banded(c60, 1, seed=4)
    comp = nl.compress(a, 5)
    routed = nl.phi_apply(cert, comp)
    direct = literal_schur_multiply(a, cert.gram)
    assert np.array_equal(routed.data, direct.data)
    # and compressing the output recovers the Gram-weighted blocks
    for x in range(0, 60, 7):
        points = nl.ball(c60, x, 5)
        weighted = cert.gram[np.ix_(points, points)] * ball_block(a, x, 5)
        assert np.array_equal(ball_block(routed, x, 5), weighted)


def test_phi_fixes_identity_exactly(c60):
    cert = _ball_cert(c60, 5)
    one = nl.compress(identity(c60), 5)
    out = nl.phi_apply(cert, one)
    assert np.array_equal(out.data, np.eye(60))


def test_phi_radius_mismatch(c60):
    cert = _ball_cert(c60, 5)
    comp = nl.compress(nl.adjacency(c60), 4)
    with pytest.raises(nl.RadiusMismatch):
        nl.phi_apply(cert, comp)


def test_phi_multislot(c6):
    cert = _ball_cert(c6, 2)
    a = nl.random_banded(c6, 1, seed=11, m=2)
    routed = nl.phi_apply(cert, nl.compress(a, 2))
    direct = literal_schur_multiply(a, cert.gram)
    assert routed.m == 2
    assert np.array_equal(routed.data, direct.data)


def test_schur_test_kappa_values(c60, grid8):
    assert nl.schur_test_kappa(c60, 1) == 3
    assert nl.schur_test_kappa(c60, 2) == 5
    assert nl.schur_test_kappa(grid8, 1) == 5
    assert nl.schur_test_kappa(grid8, 0) == 1


def test_onl_bound_vacuous_on_small_cycle(c6):
    cert = nl.subset_to_vector(nl.ball_certificate(c6, 1))
    bound = nl.a_implies_onl_bound(cert, 1)
    assert bound.kappa == 3
    assert bound.epsilon_exact == Fraction(1, 1)
    assert bound.vacuous


def test_onl_bound_nan_epsilon_is_vacuous(c60, monkeypatch):
    # A NaN epsilon certifies nothing, so bound and profile must read it
    # as vacuous, and the profile's NaN floor must fail its verdict rather
    # than pass as 0.
    monkeypatch.setattr(nl.certificates, "schur_test_kappa", lambda *_: math.nan)
    cert = _ball_cert(c60, 10)
    bound = nl.a_implies_onl_bound(cert, 1)
    assert math.isnan(bound.epsilon)
    assert bound.vacuous is True
    profile = nl.onl_profile(
        c60, 1, 10, samples=1, seed=0, search_budget=0, certificate=cert
    )
    assert math.isnan(profile.epsilon)
    assert profile.vacuous is True
    assert math.isnan(profile.certified_lower_bound)
    assert profile.consistent is False


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda sp: nl.a_implies_onl_bound(_ball_cert(sp, 1), math.nan),
         nl.InvalidRadii),
        (lambda sp: nl.random_banded(sp, math.nan, seed=0), nl.InvalidParams),
        (lambda sp: nl.ball(sp, 0, math.nan), nl.InvalidParams),
        (lambda sp: nl.geometry_profile(sp, math.nan), nl.InvalidParams),
        (lambda sp: nl.equivalence_experiment(
            sp, 1, math.nan, certificate="tree_ray"), nl.InvalidRadii),
    ],
    ids=["bound", "random-banded", "ball", "geometry-profile", "tree-ray"],
)
def test_nan_radius_is_refused(c6, call, error):
    with pytest.raises(error, match="nan"):
        call(c6)


def test_onl_bound_exact_epsilon(c60):
    cert = nl.subset_to_vector(nl.ball_certificate(c60, 10))
    bound = nl.a_implies_onl_bound(cert, 1, samples=25, seed=0)
    assert bound.kappa == 3
    assert bound.gram_deficit_exact == Fraction(1, 21)
    assert bound.epsilon_exact == Fraction(1, 7)
    assert bound.epsilon == float(Fraction(1, 7))
    assert not bound.vacuous
    assert bound.all_verified
    assert len(bound.sample_checks) == 25
    for check in bound.sample_checks:
        assert check["multiplier_ok"] and check["lower_bound_ok"]
    doc = bound.to_json()
    assert doc["epsilon_exact"] == "1/7"
    assert doc["gram_deficit_exact"] == "1/21"


def test_onl_bound_inequalities_by_hand(c60):
    # spell out both certified conclusions on fresh operators
    cert = _ball_cert(c60, 10)
    bound = nl.a_implies_onl_bound(cert, 1)
    eps = bound.epsilon
    for seed in (101, 202):
        a = nl.random_banded(c60, 1, seed=seed)
        norm_a = nl.operator_norm(a)
        moved = nl.phi_apply(cert, nl.compress(a, 10))
        moved_norm = nl.operator_norm(moved)
        diff = dense_norm(moved.data - a.data)
        assert diff <= eps * norm_a + 1e-9
        assert moved_norm >= (1 - eps) * norm_a - 1e-9
        # the multiplier factors through compression, which cannot gain norm
        assert nl.compress(a, 10).norm() >= moved_norm - 1e-9


@pytest.mark.parametrize(
    "moved, loc, multiplier_ok, lower_bound_ok",
    [
        # epsilon * norm_a = 1 and (1 - epsilon) * norm_a = 6, up to rounding
        (1.0, 6.0, True, True),
        (1 + 0.5e-9, 6 - 0.5e-9, True, True),
        (1 + 2e-9, 6.0, False, True),
        (1.0, 6 - 2e-9, True, False),
        (1 + 2e-9, 6 - 2e-9, False, False),
    ],
)
def test_bound_checks_at_their_boundary(moved, loc, multiplier_ok, lower_bound_ok):
    # epsilon = 1/7 and ||a|| = 7, the slack BOUND_CHECK_SLACK = 1e-9
    assert nl.duality.BOUND_CHECK_SLACK == 1e-9
    verdicts = nl.duality._bound_checks(7.0, moved, loc, 1 / 7)
    assert verdicts == (multiplier_ok, lower_bound_ok)


def test_onl_bound_spot_constant(c60):
    # the compression of the cycle adjacency at radius 10 is a path on 21
    # vertices, so its norm 2 cos(pi/22) must clear the certified floor 12/7
    comp = nl.compress(nl.adjacency(c60), 10)
    assert abs(comp.norm() - 2 * math.cos(math.pi / 22)) < 1e-12
    assert comp.norm() >= 12 / 7


def test_kernel_extraction_matches_gram(c60):
    cert = _ball_cert(c60, 10)
    kernel = nl.kernel_from_cp_map(cert)
    gram = cert.gram
    overlap = ball_overlap(c60, 10)
    assert np.array_equal(kernel.table[overlap], gram[overlap])
    assert not kernel.table[~overlap].any()
    assert kernel.radius == 20
    report = nl.kernel_checks(kernel)
    assert report["diagonal_error"] == 0.0
    assert report["hermitian_error"] == 0.0
    assert report["psd_ok"]
    assert report["measured_propagation"] <= 20


def _float_certificate(space, radius, seed, m=2):
    # seeded Gaussian unit vectors on each ball: a float Gram, no Fractions
    rng = np.random.default_rng(seed)
    n = space.n
    vec = rng.standard_normal((n, n, m)) + 1j * rng.standard_normal((n, n, m))
    vec[space.dist > radius] = 0
    vec /= np.linalg.norm(vec.reshape(n, -1), axis=1)[:, None, None]
    return nl.VectorCertificate(space=space, radius=radius, vectors=vec)


def _assert_kernel_matches_literal_route(cert):
    kernel = nl.kernel_from_cp_map(cert)
    oracle = literal_kernel_from_cp_map(cert)
    # byte equality also pins the sign of every zero
    assert kernel.table.tobytes() == oracle.tobytes()


def test_kernel_closed_form_matches_literal_route(c60, btree6):
    _assert_kernel_matches_literal_route(
        nl.subset_to_vector(nl.ball_certificate(c60, 10))
    )
    _assert_kernel_matches_literal_route(
        nl.subset_to_vector(nl.tree_ray_certificate(btree6, 8))
    )


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize(
    "kind, params",
    [
        ("cycle", {"n": 12}),
        ("binary_tree", {"depth": 3}),
        ("grid", {"rows": 4, "cols": 4}),
    ],
)
def test_kernel_closed_form_matches_literal_route_float_gram(kind, params, radius):
    space = nl.generate_family(kind, params)
    cert = _float_certificate(space, radius, seed=radius)
    assert cert.exact_gram is None
    _assert_kernel_matches_literal_route(cert)


def test_kernel_deviation_matches_bound_deficit(c60):
    cert = _ball_cert(c60, 10)
    bound = nl.a_implies_onl_bound(cert, 1)
    kernel = nl.kernel_from_cp_map(cert)
    # same float pipeline on both sides, so equality is exact
    assert nl.kernel_deviation(kernel, 1) == bound.gram_deficit


def test_cb_norm_check_consistent(c6):
    rep = nl.sampled_cb_norm_check(c6, 1, 2, amplification=2, samples=20, seed=0)
    assert rep.consistent
    assert rep.amplified_ratio <= rep.scalar_ratio_estimate + rep.tolerance
    assert rep.min_reduction_fraction >= 0.95
    assert len(rep.amplified_ratios) == 20
    assert len(rep.reduction_ratios) == 20
    rerun = nl.sampled_cb_norm_check(c6, 1, 2, amplification=2, samples=20, seed=0)
    assert rep.to_json() == rerun.to_json()


def test_cb_norm_check_takes_the_worst_of_differing_samples(c60):
    """Each ratio is the operator norm over the largest maximal block norm
    at S = 3, where norm() takes its cover; the report keeps the largest
    ratios and the smallest reduction fraction of samples that differ."""
    rep = nl.sampled_cb_norm_check(c60, 1, 3, amplification=2, samples=3, seed=0)
    seeds = np.random.default_rng(0).integers(0, 2**63 - 1, size=(3, 2))

    def literal_ratio(a):
        return nl.operator_norm(a) / max(nl.compress(a, 3).maximal_norms())

    for (s_scalar, s_amp), scalar, amplified in zip(
        seeds, rep.scalar_ratios, rep.amplified_ratios
    ):
        assert scalar == literal_ratio(nl.random_banded(c60, 1, int(s_scalar)))
        amp = nl.random_banded(c60, 1, int(s_amp), m=2)
        assert amplified == literal_ratio(amp)
    for worst, values, pick in (
        (rep.scalar_ratio_raw, rep.scalar_ratios, max),
        (rep.amplified_ratio, rep.amplified_ratios, max),
        (rep.min_reduction_fraction, rep.reduction_fractions, min),
    ):
        assert min(values) < max(values)
        assert worst == pick(values)


def test_onl_bound_epsilon_without_an_exact_gram(grid8):
    """Ball sizes differ across the 8x8 grid, so its ball certificate has
    no exact Gram and epsilon is the float product kappa * deficit, each
    factor counted from the balls by hand."""
    cert = _ball_cert(grid8, 3)
    assert cert.exact_gram is None
    bound = nl.a_implies_onl_bound(cert, 1)
    balls = literal_ball_subsets(grid8, 3)
    kappa = max(int((grid8.dist[x] <= 1).sum()) for x in range(grid8.n))
    deficit = max(
        1 - len(balls[y] & balls[z]) / math.sqrt(len(balls[y]) * len(balls[z]))
        for y, z in np.argwhere(grid8.dist <= 1)
    )
    assert bound.kappa == kappa == 5
    assert 0 < deficit < 1
    assert bound.gram_deficit == pytest.approx(deficit, rel=1e-12)
    assert bound.epsilon == bound.kappa * bound.gram_deficit
    assert bound.epsilon == pytest.approx(kappa * deficit, rel=1e-12)
    assert bound.epsilon_exact is None


def test_cb_norm_check_radii_validation(c6):
    with pytest.raises(nl.InvalidRadii):
        nl.sampled_cb_norm_check(c6, 3, 2, amplification=2, samples=2)
    with pytest.raises(nl.InvalidRadii):
        nl.sampled_cb_norm_check(c6, 0, 2, amplification=2, samples=2)
    with pytest.raises(nl.InvalidParams):
        nl.sampled_cb_norm_check(c6, 1, 2, amplification=0, samples=2)


def test_equivalence_experiment_ball(c60):
    rep = nl.equivalence_experiment(
        c60, 1, 10, certificate="ball", samples=10, seed=0,
        profile_samples=5, search_budget=20,
    )
    assert rep.bound.epsilon_exact == Fraction(1, 7)
    assert rep.bound.all_verified
    assert rep.kernel_report["psd_ok"]
    assert rep.profile is not None and rep.profile.consistent
    assert rep.warnings == ()
    doc = rep.to_json()
    for key in (
        "space", "parameters", "certificate", "epsilon",
        "certified_bound_checks", "kernel_checks", "onl_profile",
        "warnings",
    ):
        assert key in doc
    assert doc["epsilon"]["epsilon_exact"] == "1/7"
    row = rep.csv_row()
    assert len(row) == len(nl.duality.EQUIV_CSV_HEADER)
    assert row[0] == "cycle_60" and row[4] == 3


def test_equivalence_experiment_measures_the_first_sample_once(
    c60, monkeypatch
):
    # The bound's first operator is the search's first one: seed 7 gives
    # both the child seed 5765488047046174020.  Run apart, bound, search
    # and the kernel check factorize more matrices than the experiment by
    # what the unshared bound spends on that operator alone: its norm and
    # its compressed norm at S = 10, counted here on a fresh copy.
    cert = _ball_cert(c60, 10)
    probes = (("adjacency", nl.adjacency(c60)),)
    counts = count_factorizations(monkeypatch)
    rep = nl.equivalence_experiment(
        c60, 1, 10, samples=2, seed=7, profile_samples=1, search_budget=4
    )
    together = counts["eigvalsh"]
    counts.update(eigvalsh=0)
    first = nl.random_banded(c60, 1, seed=5765488047046174020)
    nl.operator_norm(first)
    nl.compress(first, 10).norm()
    once = counts["eigvalsh"]
    assert 1 < once < 61
    counts.update(eigvalsh=0)
    bound = nl.a_implies_onl_bound(cert, 1, samples=2, seed=7)
    profile = nl.onl_profile(
        c60, 1, 10, samples=1, seed=7, search_budget=4, certificate=cert,
        probes=probes,
    )
    nl.kernel_checks(nl.kernel_from_cp_map(cert))
    assert counts["eigvalsh"] - together == once
    assert counts["eigh"] == 0
    assert bound.sample_checks[0]["seed"] == profile.sample_seeds[0]
    assert profile.sample_seeds == (5765488047046174020,)
    assert rep.profile.to_json() == profile.to_json()
    assert rep.bound.to_json() == bound.to_json()


def _draws_together_and_apart(c60, monkeypatch, samples, profile_samples):
    """Operators drawn by one experiment on the 60-cycle (R = 1, S = 10,
    seed 2), and by its bound and its search run apart, whose JSON must
    equal the experiment's."""
    cert = _ball_cert(c60, 10)
    drawn = []
    draw = nl.operators.random_banded

    def counted(*args, **kwargs):
        drawn.append(args)
        return draw(*args, **kwargs)

    for module in (nl.duality, nl.localization):
        monkeypatch.setattr(module, "random_banded", counted)
    rep = nl.equivalence_experiment(
        c60, 1, 10, samples=samples, seed=2,
        profile_samples=profile_samples, search_budget=8,
    )
    together = len(drawn)
    bound = nl.a_implies_onl_bound(cert, 1, samples=samples, seed=2)
    profile = nl.onl_profile(
        c60, 1, 10, samples=profile_samples, seed=2, search_budget=8,
        certificate=cert, probes=(("adjacency", nl.adjacency(c60)),),
    )
    shared = min(samples, profile_samples)
    assert profile.sample_seeds[:shared] == tuple(
        c["seed"] for c in bound.sample_checks[:shared]
    )
    assert rep.bound.to_json() == bound.to_json()
    assert rep.profile.to_json() == profile.to_json()
    return together, len(drawn) - together


def test_equivalence_experiment_draws_each_shared_sample_once(
    c60, monkeypatch
):
    # The search's 3 seeds are the first 3 of the bound's 4, so the
    # experiment draws 4 operators where bound and search apart draw 7.
    assert _draws_together_and_apart(c60, monkeypatch, 4, 3) == (4, 7)


def test_equivalence_experiment_draws_more_search_samples_than_bound_ones(
    c60, monkeypatch
):
    # The bound's 1 seed is the first of the search's 3, so the experiment
    # draws 3 operators where bound and search apart draw 4.
    assert _draws_together_and_apart(c60, monkeypatch, 1, 3) == (3, 4)


def test_equivalence_experiment_without_a_search_gives_no_warning(c60):
    # Radii that leave room for a search, but no search asked for: nothing
    # to warn about.
    rep = nl.equivalence_experiment(
        c60, 1, 10, samples=1, seed=0, profile_samples=0, search_budget=4
    )
    assert rep.profile is None
    assert rep.warnings == ()


@pytest.mark.parametrize(
    "space, certificate, arithmetic",
    [("c60", "ball", "exact"), ("grid8", "custom", "float")],
)
def test_equivalence_experiment_states_its_gram_arithmetic(
    space, certificate, arithmetic, request
):
    # The 60-cycle's balls are all of one size, so its ball certificate's
    # Gram is rational; the 8x8 grid's are not (see
    # test_onl_bound_epsilon_without_an_exact_gram).
    sp = request.getfixturevalue(space)
    if certificate == "custom":
        certificate = _ball_cert(sp, 3)
    rep = nl.equivalence_experiment(
        sp, 1, 3, certificate=certificate, samples=0, profile_samples=0
    )
    assert rep.certificate_summary["gram_arithmetic"] == arithmetic


def test_equivalence_experiment_without_bound_samples(c60):
    # No bound sample is no evidence: all_verified stays None, and the
    # search draws its own sample, the first of the seed's stream.
    rep = nl.equivalence_experiment(
        c60, 1, 10, samples=0, seed=3, profile_samples=1, search_budget=2
    )
    assert rep.bound.sample_checks == ()
    assert rep.bound.all_verified is None
    assert rep.profile is not None and len(rep.profile.sample_reports) == 1
    alone = nl.onl_profile(
        c60, 1, 10, samples=1, seed=3, search_budget=2,
        certificate=_ball_cert(c60, 10),
        probes=(("adjacency", nl.adjacency(c60)),),
    )
    assert rep.profile.to_json() == alone.to_json()


def test_equivalence_experiment_shares_reports_only_with_a_search(
    c6, monkeypatch
):
    # band radius 2 > loc radius 1: no search, so no sample is profiled
    measured = []
    measure = nl.localization._report_and_norms

    def counted(*args):
        measured.append(args)
        return measure(*args)

    for module in (nl.duality, nl.localization):
        monkeypatch.setattr(module, "_report_and_norms", counted)
    rep = nl.equivalence_experiment(
        c6, 2, 1, samples=3, seed=0, profile_samples=3, search_budget=4
    )
    assert rep.profile is None and measured == []
    rep = nl.equivalence_experiment(
        c6, 1, 2, samples=3, seed=0, profile_samples=2, search_budget=4
    )
    # the 2 samples and the adjacency probe, each once
    assert len(measured) == 3
    checks = rep.bound.sample_checks
    assert rep.profile.sample_seeds == tuple(c["seed"] for c in checks[:2])
    for report, check in zip(rep.profile.sample_reports, checks):
        assert check["compressed_norm"] == report.compressed_norm


def test_equivalence_experiment_vacuous_still_completes(c6):
    rep = nl.equivalence_experiment(
        c6, 1, 1, certificate="ball", samples=5, seed=0,
        profile_samples=3, search_budget=10,
    )
    assert rep.bound.vacuous
    assert any("vacuous" in w for w in rep.warnings)
    assert rep.kernel_report["psd_ok"]


def test_equivalence_experiment_tree_ray(btree6):
    rep = nl.equivalence_experiment(
        btree6, 1, 4, certificate="tree_ray", samples=5, seed=1,
        profile_samples=3, search_budget=10,
    )
    assert rep.certificate_summary["origin"] == "tree_ray"
    assert rep.kernel_report["psd_ok"]


def test_shared_reports_state_the_profile_radius(btree6):
    # A tree-ray certificate's radius is the int 4; the shared reports
    # state the float radius the search was given, as a search alone does.
    rep = nl.equivalence_experiment(
        btree6, 1, 4.0, certificate="tree_ray", samples=3, seed=1,
        profile_samples=2, search_budget=4,
    )
    assert type(rep.certificate_summary["radius"]) is int
    assert [type(r.loc_radius) for r in rep.profile.sample_reports] == [
        float, float
    ]
    alone = nl.onl_profile(
        btree6, 1, 4.0, samples=2, seed=1, search_budget=4,
        certificate=nl.subset_to_vector(nl.tree_ray_certificate(btree6, 4)),
        probes=(("adjacency", nl.adjacency(btree6)),),
    )
    assert [r.to_json() for r in rep.profile.sample_reports] == [
        r.to_json() for r in alone.sample_reports
    ]
    assert rep.profile.to_json() == alone.to_json()


def test_equivalence_experiment_custom_certificate(c6):
    cert = nl.subset_to_vector(nl.ball_certificate(c6, 2))
    rep = nl.equivalence_experiment(
        c6, 1, 2, certificate=cert, samples=5, seed=0,
        profile_samples=3, search_budget=10,
    )
    assert rep.certificate_summary["origin"] == "custom"
    assert rep.kernel_report["psd_ok"]


def test_equivalence_experiment_refuses_a_certificate_from_another_space(
    c6, c60, monkeypatch
):
    # refused before the search draws its samples
    def no_draw(*args, **kwargs):
        raise AssertionError("random_banded was called")

    monkeypatch.setattr(nl.duality, "random_banded", no_draw)
    cert = nl.subset_to_vector(nl.ball_certificate(c6, 10))
    with pytest.raises(nl.DataError, match="another space than 'cycle_60'"):
        nl.equivalence_experiment(
            c60, 1, 10, certificate=cert, samples=0, profile_samples=2
        )


def test_equivalence_experiment_zero_loc_radius_warns(c6):
    rep = nl.equivalence_experiment(
        c6, 1, 0, certificate="ball", samples=3, seed=0,
        profile_samples=3, search_budget=10,
    )
    assert rep.profile is None
    assert len(rep.warnings) >= 1
