"""Acceptance gates for the package's quantitative guarantees.

Each test checks one numbered criterion end to end at its stated tolerance
and prints a single ``[PASS]``/``[FAIL]`` verdict line (visible under
``pytest -s``) before asserting.  The criteria are deliberately redundant
with the unit suites: they exercise the public API only, at full sample
counts, against independent oracles.
"""

import io
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

import normloc as nl
from helpers import (
    ball_block,
    ball_overlap,
    dense_norm,
    edges_of,
    floyd_warshall,
    literal_kernel_from_cp_map,
    matrix_unit,
    maximal_ball_centers,
)
from normloc.cli import main as cli_main


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_01_graph_metrics_match_floyd_warshall():
    families = (
        ("cycle", {"n": 3}, None),
        ("cycle", {"n": 6}, None),
        ("cycle", {"n": 17}, None),
        ("cycle", {"n": 64}, None),
        ("path", {"n": 1}, None),
        ("path", {"n": 2}, None),
        ("path", {"n": 33}, None),
        ("path", {"n": 64}, None),
        ("grid", {"rows": 2, "cols": 2}, None),
        ("grid", {"rows": 1, "cols": 7}, None),
        ("grid", {"rows": 3, "cols": 5}, None),
        ("grid", {"rows": 8, "cols": 8}, None),
        ("binary_tree", {"depth": 1}, None),
        ("binary_tree", {"depth": 3}, None),
        ("binary_tree", {"depth": 5}, None),
        ("random_regular", {"n": 8, "d": 3}, 0),
        ("random_regular", {"n": 20, "d": 3}, 1),
        ("random_regular", {"n": 50, "d": 3}, 2),
        ("random_regular", {"n": 64, "d": 4}, 3),
    )
    start = time.perf_counter()
    mismatched = []
    for kind, params, seed in families:
        sp = nl.generate_family(kind, params, seed=seed)
        assert sp.n <= 64
        oracle = floyd_warshall(sp.n, edges_of(sp))
        if not np.array_equal(sp.dist, oracle):
            mismatched.append(sp.name)
    elapsed = time.perf_counter() - start
    ok = not mismatched and elapsed < 1.0
    assert _verdict(
        1,
        ok,
        f"BFS metric == Floyd-Warshall on {len(families)} families "
        f"(n <= 64), exact, {elapsed:.2f}s < 1s",
    ), mismatched


def test_criterion_02_power_norms_match_dense_oracle():
    spaces = (
        nl.generate_family("cycle", {"n": 100}),
        nl.generate_family("grid", {"rows": 10, "cols": 10}),
        nl.generate_family("random_regular", {"n": 50, "d": 3}, seed=5),
    )
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for sp_i, sp in enumerate(spaces):
        for radius in (1, 2, 3):
            for k in range(23):
                if count == 200:
                    break
                a = nl.random_banded(sp, radius, seed=1000 * sp_i + 100 * radius + k)
                exact = dense_norm(a.data)
                approx = nl.operator_norm(a, method="power")
                worst = max(worst, abs(approx - exact) / exact)
                count += 1
    elapsed = time.perf_counter() - start
    ok = count == 200 and worst < 1e-8 and elapsed < 30.0
    assert _verdict(
        2,
        ok,
        f"power vs dense norm on {count} banded operators: worst relative "
        f"error {worst:.2e} < 1e-8, {elapsed:.1f}s < 30s",
    )


def test_criterion_03_ball_bound_never_violated(c60, grid8):
    violations = 0
    checked = 0
    for sp_i, sp in enumerate((c60, grid8)):
        for radius in (1, 2):
            kappa = nl.schur_test_kappa(sp, radius)
            base = (sp_i * 2 + radius) * 100_000
            for k in range(1000):
                a = nl.random_banded(sp, radius, seed=base + k)
                bound = kappa * float(np.abs(a.data).max())
                if nl.operator_norm(a) > bound * (1 + 1e-12):
                    violations += 1
                checked += 1
    ok = violations == 0 and checked == 4000
    assert _verdict(
        3,
        ok,
        f"norm <= (max ball size) * (max entry) on {checked} samples "
        f"(two spaces, R in {{1,2}}): {violations} violations",
    )


def test_criterion_04_localization_chain(c60, grid8, btree6):
    violations = 0
    checked = 0
    for sp_i, sp in enumerate((c60, grid8, btree6)):
        for k in range(500):
            a = nl.random_banded(sp, 1, seed=sp_i * 1000 + k)
            for loc_radius in (1, 2, 5):
                rep = nl.localization_report(a, loc_radius)
                chain = (
                    rep.sigma_sq <= rep.sigma_col + 1e-10
                    and rep.sigma_col <= rep.sigma_sq_wide + 1e-10
                )
                if not (chain and rep.chain_ok):
                    violations += 1
                checked += 1
    ok = violations == 0 and checked == 4500
    assert _verdict(
        4,
        ok,
        f"sigma_sq(S) <= sigma_col(S) <= sigma_sq(S+R) with 1e-10 slack on "
        f"{checked} reports (three spaces, S in {{1,2,5}}): "
        f"{violations} violations",
    )


def test_criterion_05_known_constants(c6, p4):
    adj6 = nl.adjacency(c6)
    adj4 = nl.adjacency(p4)
    checks = (
        ("||adjacency(C6)||", nl.operator_norm(adj6), 2.0),
        ("dense oracle C6", dense_norm(adj6.data), 2.0),
        (
            "||compression_1(adjacency(C6))||",
            nl.compress(adj6, 1).norm(),
            math.sqrt(2),
        ),
        (
            "naive oracle, same",
            max(
                dense_norm(
                    adj6.data[np.ix_(nl.ball(c6, x, 1), nl.ball(c6, x, 1))]
                )
                for x in range(6)
            ),
            math.sqrt(2),
        ),
        ("||adjacency(P4)||", nl.operator_norm(adj4), (1 + math.sqrt(5)) / 2),
        ("dense oracle P4", dense_norm(adj4.data), 2 * math.cos(math.pi / 5)),
    )
    bad = [name for name, got, want in checks if abs(got - want) > 1e-10]
    ok = not bad
    assert _verdict(
        5,
        ok,
        "known constants 2, sqrt(2), (1+sqrt(5))/2 within 1e-10, each "
        "confirmed by the dense oracle",
    ), bad


def test_criterion_06_power_witness_ratio_and_diameter(c60):
    start = time.perf_counter()
    ratio_violations = 0
    diameter_violations = 0
    checked = 0
    for k in range(200):
        a = nl.random_banded(c60, 1, seed=k)
        for power in (1, 2, 3, 4):
            w = nl.power_trick_witness(a, 5, power)
            if w.measured_ratio < w.threshold - 1e-10:
                ratio_violations += 1
            diameter = nl.support_diameter(c60, list(w.support_points))
            if diameter > (2 * power - 1) * 1 + 2 * 5:
                diameter_violations += 1
            checked += 1
    elapsed = time.perf_counter() - start
    ok = (
        ratio_violations == 0
        and diameter_violations == 0
        and checked == 800
        and elapsed < 60.0
    )
    assert _verdict(
        6,
        ok,
        f"power-trick witnesses on {checked} cases: ratio >= c_n^(1/n) - 1e-10 "
        f"({ratio_violations} violations), support diameter <= (2n-1)R + 2S "
        f"({diameter_violations} violations), {elapsed:.1f}s < 60s",
    )


def test_criterion_07_certificate_gives_one_seventh_bound(c60):
    cert = nl.subset_to_vector(nl.ball_certificate(c60, 10))
    bound = nl.a_implies_onl_bound(cert, 1)
    exact_ok = (
        bound.kappa == 3
        and bound.gram_deficit_exact == Fraction(1, 21)
        and bound.epsilon_exact == Fraction(1, 7)
        and bound.epsilon == float(Fraction(1, 7))
    )
    eps = bound.epsilon
    violations = 0
    for k in range(500):
        a = nl.random_banded(c60, 1, seed=k)
        norm_a = nl.operator_norm(a)
        moved = nl.phi_apply(cert, nl.compress(a, 10))
        multiplier_ok = (
            dense_norm(moved.data - a.data) <= eps * norm_a + 1e-9
        )
        lower_ok = (1 - eps) * norm_a <= nl.compress(a, 10).norm() + 1e-9
        if not (multiplier_ok and lower_ok):
            violations += 1
    spot = nl.compress(nl.adjacency(c60), 10).norm()
    spot_ok = abs(spot - 2 * math.cos(math.pi / 22)) < 1e-10 and spot >= 12 / 7
    ok = exact_ok and violations == 0 and spot_ok
    assert _verdict(
        7,
        ok,
        f"ball certificate (S=10, R=1) on the 60-cycle: epsilon = 1/7 exactly "
        f"(kappa=3, deficit 1/21), both certified inequalities on 500 samples "
        f"({violations} violations), adjacency spot check "
        f"{spot:.6f} >= 12/7",
    )


def test_criterion_08_extracted_kernels(c60, btree6):
    cases = (
        ("60-cycle ball S=10", c60,
         nl.subset_to_vector(nl.ball_certificate(c60, 10))),
        ("binary-tree ray L=8", btree6,
         nl.subset_to_vector(nl.tree_ray_certificate(btree6, 8))),
    )
    problems = []
    for label, sp, cert in cases:
        overlap = ball_overlap(sp, cert.radius)
        kernel = nl.kernel_from_cp_map(cert)
        table = kernel.table
        if not (table.diagonal() == 1.0).all():
            problems.append(f"{label}: diagonal not exactly 1")
        if not np.array_equal(table, table.conj().T):
            problems.append(f"{label}: not exactly Hermitian")
        report = nl.kernel_checks(kernel)
        if report["min_eigenvalue"] < -1e-8 * sp.n:
            problems.append(f"{label}: min eigenvalue {report['min_eigenvalue']}")
        if table[~overlap].any():
            problems.append(f"{label}: nonzero where compression vanishes")
        # spot-confirm the vanishing set against literal compressions
        rng = np.random.default_rng(0)
        centers = maximal_ball_centers(sp, cert.radius)
        for _ in range(200):
            y, z = rng.integers(0, sp.n, size=2)
            unit = matrix_unit(sp, int(y), int(z))
            unit_zero = not any(
                ball_block(unit, x, cert.radius).any() for x in centers
            )
            if unit_zero != (not overlap[y, z]):
                problems.append(f"{label}: overlap mask wrong at {(y, z)}")
        deficit = nl.a_implies_onl_bound(cert, 1).gram_deficit
        if nl.kernel_deviation(kernel, 1) != deficit:
            problems.append(f"{label}: band deviation != Gram deficit")
    # the closed-form kernel against the literal matrix-unit route
    oracle = literal_kernel_from_cp_map(cases[0][2])
    if nl.kernel_from_cp_map(cases[0][2]).table.tobytes() != oracle.tobytes():
        problems.append("60-cycle ball S=10: kernel differs from literal route")
    ok = not problems
    assert _verdict(
        8,
        ok,
        "extracted kernels (60-cycle S=10, tree ray L=8): exact unit "
        "diagonal, exact Hermitian, eigenvalues >= -1e-8*n, exact zeros off "
        "the overlap set, band deviation == Gram deficit exactly, 60-cycle "
        "kernel bytes == literal matrix-unit route",
    ), problems


def test_criterion_09_amplified_ratios_consistent(c6):
    problems = []
    for amplification in (2, 3):
        rep = nl.sampled_cb_norm_check(
            c6, 1, 2, amplification=amplification, samples=100, seed=0
        )
        if rep.amplified_ratio > rep.scalar_ratio_estimate + 1e-6:
            problems.append(f"m={amplification}: amplified ratio exceeds scalar")
        if not rep.consistent:
            problems.append(f"m={amplification}: inconsistent")
        if min(rep.reduction_fractions) < 0.95:
            problems.append(
                f"m={amplification}: reduction fraction "
                f"{min(rep.reduction_fractions):.4f} < 0.95"
            )
    ok = not problems
    assert _verdict(
        9,
        ok,
        "amplified inverse-localization ratios (R=1, S=2, m in {2,3}, 100 "
        "samples each) stay within 1e-6 of the scalar estimate; every "
        "fiberwise reduction keeps >= 95% of the norm",
    ), problems


def test_criterion_10_cli_outputs_byte_identical(tmp_path):
    c30 = str(tmp_path / "c30.json")
    c6 = str(tmp_path / "c6.json")
    cert = str(tmp_path / "cert.json")
    commands = (
        ["space", "gen", "--kind", "cycle", "--n", "30", "--out", c30],
        ["space", "gen", "--kind", "cycle", "--n", "6", "--out", c6],
        ["space", "validate", "--in", c30],
        ["onl", "profile", "--space", c30, "--band-radius", "1",
         "--loc-radius", "2", "--samples", "4", "--budget", "10",
         "--certificate", "ball", "--seed", "3",
         "--out", str(tmp_path / "prof")],
        ["cert", "build", "--space", c30, "--kind", "ball", "--radius", "3",
         "--form", "subset", "--out", cert],
        ["cert", "check", "--in", cert, "--band-radius", "1"],
        ["equiv", "run", "--space", c30, "--band-radius", "1",
         "--loc-radius", "5", "--samples", "4", "--profile-samples", "3",
         "--budget", "10", "--seed", "0", "--out", str(tmp_path / "eq")],
        ["cb", "check", "--space", c6, "--band-radius", "1",
         "--loc-radius", "2", "--amplification", "2", "--samples", "6",
         "--seed", "0", "--out", str(tmp_path / "cb.json")],
    )

    def run_all():
        stdouts = []
        for argv in commands:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(list(argv))
            assert code == 0, argv
            stdouts.append(buf.getvalue())
        artifacts = {}
        for name in sorted(p.name for p in tmp_path.iterdir()):
            with open(tmp_path / name, "rb") as fh:
                artifacts[name] = fh.read()
        return stdouts, artifacts

    first_out, first_files = run_all()
    second_out, second_files = run_all()
    ok = first_out == second_out and first_files == second_files
    assert _verdict(
        10,
        ok,
        f"all {len(commands)} CLI invocations re-run byte-identically "
        f"({len(first_files)} artifacts compared)",
    )
