import hashlib
import json
import os
import resource
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import normloc as nl
from normloc.cli import main


def _space_file(tmp_path, kind="cycle", n=30, name="sp.json", extra=()):
    path = tmp_path / name
    argv = ["space", "gen", "--kind", kind, "--n", str(n), "--out", str(path)]
    argv.extend(extra)
    assert main(argv) == 0
    return str(path)


def test_space_gen_families(tmp_path, capsys):
    path = tmp_path / "grid.json"
    code = main(
        ["space", "gen", "--kind", "grid", "--rows", "3", "--cols", "4",
         "--out", str(path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "grid_3x4" in out and "n=12" in out
    sp = nl.load_space(str(path))
    assert sp.n == 12

    tree = tmp_path / "tree.json"
    assert main(
        ["space", "gen", "--kind", "binary-tree", "--depth", "3",
         "--out", str(tree)]
    ) == 0
    assert nl.load_space(str(tree)).n == 15

    reg = tmp_path / "reg.json"
    assert main(
        ["space", "gen", "--kind", "random-regular", "--n", "10",
         "--degree", "3", "--seed", "7", "--out", str(reg)]
    ) == 0
    assert nl.load_space(str(reg)).n == 10


def test_space_gen_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    # missing a per-kind flag
    assert main(["space", "gen", "--kind", "grid", "--out", out]) == 2
    # random-regular without a seed
    assert main(
        ["space", "gen", "--kind", "random-regular", "--n", "8",
         "--degree", "3", "--out", out]
    ) == 2
    capsys.readouterr()
    # unknown kind is rejected by the parser itself
    with pytest.raises(SystemExit) as exc:
        main(["space", "gen", "--kind", "torus", "--out", out])
    assert exc.value.code == 2
    capsys.readouterr()


def test_space_gen_invalid_params_exit_3(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["space", "gen", "--kind", "cycle", "--n", "2", "--out", out]) == 3


def test_space_validate_ok(tmp_path, capsys):
    path = _space_file(tmp_path)
    capsys.readouterr()
    assert main(["space", "validate", "--in", path]) == 0
    assert capsys.readouterr().out.startswith("ok:")


def test_space_validate_flags_broken_metric(tmp_path, capsys):
    sp = nl.generate_family("cycle", {"n": 5})
    doc = nl.space_to_json(sp)
    doc["dist"][0][1] = 9  # break symmetry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["space", "validate", "--in", str(bad)]) == 3
    out = capsys.readouterr().out
    assert "symmetry:" in out or "triangle:" in out


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 3.7, "edges": [[0, 1], [1, 2]]}, "'n' must be an integer"),
        ({"n": "x", "edges": []}, "'n' must be an integer"),
        ({"n": 2, "edges": [[0.5, 1]]}, "an edge endpoint must be an integer"),
        ({"n": 2, "edges": [5]}, "'edges' must be a list of [u, v] pairs"),
        (
            {"dist": [[0, 1], [1, 0]], "labels": 5},
            "'labels' must be a list of strings",
        ),
        (
            {"dist": [[0, 1], [1, 0]], "labels": "ab"},
            "'labels' must be a list of strings",
        ),
    ],
    ids=[
        "fractional-n", "string-n", "fractional-endpoint", "bare-int-edge",
        "integer-labels", "string-labels",
    ],
)
def test_space_validate_malformed_graph_document_exit_3(
    tmp_path, capsys, doc, message
):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["space", "validate", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert message in captured.err


def test_space_gen_past_the_entry_bound_exits_3(tmp_path):
    # A child process capped at 1 GiB of address space: a size check that
    # came after the 2**41-edge list would fail there, not fill memory.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(nl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    out = tmp_path / "tree.json"
    done = subprocess.run(
        [sys.executable, "-m", "normloc.cli", "space", "gen", "--kind",
         "binary-tree", "--depth", "40", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=cap_memory,
    )
    assert done.returncode == 3
    assert "exceed 67108864" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_space_gen_huge_tree_depth_exits_3(tmp_path, capsys):
    # 2 ** 8001 - 1 points: their count squared has over 4,300 digits,
    # more than Python turns into a string, so no message may print it.
    out = tmp_path / "tree.json"
    argv = ["space", "gen", "--kind", "binary-tree", "--depth", "8000",
            "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "exceed 67108864" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


_PAIR = {"labels": ["0", "1"], "dist": [[0, 1], [1, 0]]}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "space validate", {"n": 10_000_000, "edges": []},
            "exceed 67108864",
        ),
        (
            "space validate", {"dist": [[0, 2**62], [2**62, 0]]},
            "integer distances must be below 2**62",
        ),
        (
            "cert check",
            {"form": "subset", "radius": 1, "m": 10**15,
             "subsets": [[[0, 1]], [[1, 1]]], "space": _PAIR},
            "exceed 67108864",
        ),
    ],
    ids=["huge-vertex-count", "huge-distance", "huge-slot-count"],
)
def test_oversized_documents_exit_3_before_allocating(
    tmp_path, capsys, command, doc, message
):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main([*command.split(), "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_outputs_honour_umask(tmp_path):
    old = os.umask(0o022)
    try:
        path = _space_file(tmp_path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
    # the temporary file was renamed into place, none is left behind
    assert os.listdir(tmp_path) == ["sp.json"]


def test_missing_and_malformed_inputs(tmp_path):
    assert main(["space", "validate", "--in", str(tmp_path / "no.json")]) == 3
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["space", "validate", "--in", str(junk)]) == 3


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_cert_check_non_finite_vector_exit_3(tmp_path, capsys, value):
    # a one-point vector certificate whose only coefficient is not finite
    doc = (
        '{"form": "vector", "radius": 0, "m": 1, '
        f'"entries": [[0, 0, 1, {value}, 0.0]], '
        '"space": {"name": "pt", "labels": ["0"], "dist": [[0]]}}'
    )
    path = tmp_path / "nan.json"
    path.write_text(doc)
    assert main(["cert", "check", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert "verdict: pass" not in captured.out
    assert "NaN or infinite" in captured.err


_PATH3 = {"name": "p3", "labels": ["0", "1", "2"],
          "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
_UNIT_DIAGONAL = [[x, x, 1.0, 0.0] for x in range(3)]


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"form": "kernel", "radius": 1, "entries": _UNIT_DIAGONAL
             + [[0, 1, float("nan"), 0.0], [1, 0, float("nan"), 0.0]]},
            "NaN or infinite",
        ),
        ({"form": "subset", "radius": 1, "subsets": [[1]]}, "[point, slot]"),
        (
            {"form": "subset", "radius": 1, "subsets": [[["a", 1]]]},
            "[point, slot]",
        ),
        (
            {"form": "subset", "radius": "x",
             "subsets": [[[0, 1]], [[1, 1]], [[2, 1]]]},
            "'radius' must be a finite number",
        ),
        (
            {"form": "subset", "radius": 1,
             "subsets": [[[0.9, 1]], [[1, 1]], [[2, 1]]]},
            "[point, slot]",
        ),
        (
            {"form": "subset", "radius": 1,
             "subsets": [[[0, 1]], [[1.5, 1]], [[2, 1]]]},
            "[point, slot]",
        ),
        (
            {"form": "subset", "radius": 1,
             "subsets": [[[0, 1]], [[1, 1]], [[2, True]]]},
            "[point, slot]",
        ),
        (
            {"form": "vector", "radius": 1, "entries": [5]},
            "is not [x, v, slot, re, im]",
        ),
        (
            {"form": "vector", "radius": 1,
             "entries": [[x, x, 1, "a" if x else 1.0, 0.0] for x in range(3)]},
            "a coefficient must be a number",
        ),
        (
            {"form": "vector", "radius": 1, "m": "x", "entries": []},
            "'m' must be an integer",
        ),
    ],
    ids=[
        "nan-kernel-pair", "bare-int-member", "string-point", "string-radius",
        "fractional-point", "fractional-point-above-one", "boolean-slot",
        "bare-int-vector-entry", "string-coefficient", "string-m",
    ],
)
def test_cert_check_malformed_document_exit_3(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**doc, "space": _PATH3}))
    assert main(["cert", "check", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert message in captured.err


def test_onl_profile_deterministic_outputs(tmp_path, capsys):
    path = _space_file(tmp_path, n=12)
    capsys.readouterr()
    args = [
        "onl", "profile", "--space", path, "--band-radius", "1",
        "--loc-radius", "2", "--samples", "4", "--budget", "10",
        "--certificate", "ball", "--include-adjacency", "--seed", "3",
    ]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", a]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--out", b]) == 0
    second = capsys.readouterr().out
    assert first == second
    for suffix in (".json", ".csv"):
        with open(a + suffix, "rb") as fa, open(b + suffix, "rb") as fb:
            assert fa.read() == fb.read()
    doc = json.loads(open(a + ".json").read())
    assert doc["consistent"] is True
    with open(a + ".csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0].split(",") == list(nl.localization.CSV_HEADER)
    assert len(lines) == 5


def test_onl_profile_bad_radii_exit_3(tmp_path):
    path = _space_file(tmp_path, n=12)
    assert main(
        ["onl", "profile", "--space", path, "--band-radius", "3",
         "--loc-radius", "1", "--samples", "2", "--seed", "0",
         "--out", str(tmp_path / "p")]
    ) == 3


def test_onl_profile_non_finite_distance_exit_3(tmp_path, capsys):
    # a NaN distance fails every ball test, so it must never reach a verdict
    path = tmp_path / "nan.json"
    path.write_text(
        '{"labels": ["a", "b", "c"], '
        '"dist": [[0, 1, 2], [1, 0, NaN], [2, NaN, 0]]}'
    )
    assert main(
        ["onl", "profile", "--space", str(path), "--band-radius", "1",
         "--loc-radius", "1", "--samples", "3", "--certificate", "ball",
         "--seed", "0", "--out", str(tmp_path / "p")]
    ) == 3
    captured = capsys.readouterr()
    assert "distances must be finite" in captured.err
    assert "Traceback" not in captured.err
    assert not list(tmp_path.glob("p*"))


def test_cert_build_and_check_all_forms(tmp_path, capsys):
    path = _space_file(tmp_path)
    for form in ("subset", "vector", "kernel"):
        out = str(tmp_path / f"{form}.json")
        assert main(
            ["cert", "build", "--space", path, "--kind", "ball",
             "--radius", "3", "--form", form, "--out", out]
        ) == 0
        capsys.readouterr()
        assert main(["cert", "check", "--in", out]) == 0
        text = capsys.readouterr().out
        assert f"form: {form}" in text
        assert "verdict: pass" in text


@pytest.mark.parametrize(
    "gen, build, digest, subsets",
    [
        (
            ["--kind", "cycle", "--n", "6"],
            ["--kind", "ball", "--radius", "1"],
            "611810166d625658a373b13afbc6cafd90d9b0682266dfdea2cc7faa912f31eb",
            [[[0, 1], [1, 1], [5, 1]], [[0, 1], [1, 1], [2, 1]],
             [[1, 1], [2, 1], [3, 1]], [[2, 1], [3, 1], [4, 1]],
             [[3, 1], [4, 1], [5, 1]], [[0, 1], [4, 1], [5, 1]]],
        ),
        (
            ["--kind", "binary-tree", "--depth", "2"],
            ["--kind", "tree-ray", "--length", "6"],
            "7d27c33412bd6550ca2600023e062d58a82293192fcabe9cc699ee36d50c414f",
            [[[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6]],
             [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 1]],
             [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [2, 1]],
             [[0, 1], [0, 2], [0, 3], [0, 4], [1, 1], [3, 1]],
             [[0, 1], [0, 2], [0, 3], [0, 4], [1, 1], [4, 1]],
             [[0, 1], [0, 2], [0, 3], [0, 4], [2, 1], [5, 1]],
             [[0, 1], [0, 2], [0, 3], [0, 4], [2, 1], [6, 1]]],
        ),
    ],
    ids=["ball-cycle-6", "tree-ray-depth-2"],
)
def test_cert_build_subset_golden_bytes(tmp_path, gen, build, digest, subsets):
    space = str(tmp_path / "space.json")
    out = tmp_path / "cert.json"
    assert main(["space", "gen", *gen, "--out", space]) == 0
    assert main(
        ["cert", "build", "--space", space, *build, "--form", "subset",
         "--out", str(out)]
    ) == 0
    data = out.read_bytes()
    assert json.loads(data)["subsets"] == subsets
    assert hashlib.sha256(data).hexdigest() == digest


def test_cert_check_reports_exact_epsilon(tmp_path, capsys):
    path = _space_file(tmp_path, n=60, name="c60.json")
    out = str(tmp_path / "ball.json")
    assert main(
        ["cert", "build", "--space", path, "--kind", "ball",
         "--radius", "10", "--form", "subset", "--out", out]
    ) == 0
    capsys.readouterr()
    assert main(["cert", "check", "--in", out, "--band-radius", "1"]) == 0
    text = capsys.readouterr().out
    assert "kappa: 3" in text
    assert "epsilon_exact: 1/7" in text
    assert "vacuous: False" in text


def test_cert_check_vector_document_keeps_exact_epsilon(tmp_path, capsys):
    path = _space_file(tmp_path, n=60, name="c60.json")
    out = str(tmp_path / "ball.json")
    assert main(
        ["cert", "build", "--space", path, "--kind", "ball",
         "--radius", "10", "--form", "vector", "--out", out]
    ) == 0
    capsys.readouterr()
    assert main(["cert", "check", "--in", out, "--band-radius", "1"]) == 0
    assert "epsilon_exact: 1/7" in capsys.readouterr().out


def test_cert_check_tampered_kernel_exit_4(tmp_path, capsys):
    sp = nl.generate_family("cycle", {"n": 12})
    kernel = nl.vector_to_kernel(
        nl.subset_to_vector(nl.ball_certificate(sp, 2))
    )
    doc = nl.certificate_to_json(kernel)
    # overwrite a symmetric off-diagonal pair with 2.0: stays Hermitian
    # with unit diagonal but the 2x2 minor goes indefinite
    entries = [e for e in doc["entries"] if {e[0], e[1]} != {0, 1}]
    entries += [[0, 1, 2.0, 0.0], [1, 0, 2.0, 0.0]]
    doc["entries"] = entries
    bad = tmp_path / "bad_kernel.json"
    bad.write_text(json.dumps(doc))
    assert main(["cert", "check", "--in", str(bad)]) == 4
    text = capsys.readouterr().out
    assert "psd_ok: False" in text
    assert "verdict: fail" in text


def test_cert_build_tree_ray_on_cycle_exit_3(tmp_path):
    path = _space_file(tmp_path, n=12)
    assert main(
        ["cert", "build", "--space", path, "--kind", "tree-ray",
         "--length", "2", "--out", str(tmp_path / "t.json")]
    ) == 3


def test_equiv_run_deterministic(tmp_path, capsys):
    path = _space_file(tmp_path)
    args = [
        "equiv", "run", "--space", path, "--band-radius", "1",
        "--loc-radius", "5", "--samples", "4", "--profile-samples", "3",
        "--budget", "10", "--seed", "0",
    ]
    a, b = str(tmp_path / "ea"), str(tmp_path / "eb")
    assert main(args + ["--out", a]) == 0
    capsys.readouterr()
    assert main(args + ["--out", b]) == 0
    capsys.readouterr()
    for suffix in (".json", ".csv"):
        with open(a + suffix, "rb") as fa, open(b + suffix, "rb") as fb:
            assert fa.read() == fb.read()
    doc = json.loads(open(a + ".json").read())
    assert doc["epsilon"]["epsilon_exact"] == "3/11"
    assert doc["kernel_checks"]["matches_gram"] is True


def test_named_tree_ray_certificate_needs_integer_radius(tmp_path, capsys):
    # one dispatch builds named certificates for both commands; each keeps
    # its exit code for a radius the tree-ray source cannot take
    path = _space_file(tmp_path)
    common = ["--space", path, "--band-radius", "1", "--loc-radius", "2.5",
              "--certificate", "tree_ray", "--seed", "0",
              "--out", str(tmp_path / "r")]
    message = "tree_ray needs an integer localization radius >= 1"
    assert main(["onl", "profile", "--samples", "2"] + common) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert main(["equiv", "run", "--samples", "2"] + common) == 3
    assert f"error: {message}" in capsys.readouterr().err


def test_equiv_run_certificate_file_radius_mismatch(tmp_path):
    path = _space_file(tmp_path)
    cert_path = str(tmp_path / "cert.json")
    assert main(
        ["cert", "build", "--space", path, "--kind", "ball", "--radius", "3",
         "--form", "vector", "--out", cert_path]
    ) == 0
    assert main(
        ["equiv", "run", "--space", path, "--band-radius", "1",
         "--loc-radius", "5", "--certificate", cert_path, "--samples", "2",
         "--profile-samples", "2", "--budget", "5", "--seed", "0",
         "--out", str(tmp_path / "e")]
    ) == 3


def test_cb_check_deterministic_and_floor(tmp_path, capsys):
    path = _space_file(tmp_path, n=6, name="c6.json")
    args = [
        "cb", "check", "--space", path, "--band-radius", "1",
        "--loc-radius", "2", "--amplification", "2", "--samples", "6",
        "--seed", "0",
    ]
    a, b = str(tmp_path / "cb_a.json"), str(tmp_path / "cb_b.json")
    assert main(args + ["--out", a]) == 0
    capsys.readouterr()
    assert main(args + ["--out", b]) == 0
    capsys.readouterr()
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    doc = json.loads(open(a).read())
    assert doc["consistent"] is True
    # an unreachable floor turns the same data into a verification failure
    assert main(
        args + ["--out", str(tmp_path / "cb_c.json"), "--fraction-floor", "1.1"]
    ) == 4
    capsys.readouterr()
