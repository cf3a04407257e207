import hashlib
import json
import os
import resource
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normloc as nl
from helpers import CERT_DOCS, SPACE_DOCS, leaf_parsers
from normloc.cli import build_parser, main


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


@pytest.mark.parametrize(
    "command",
    [
        "onl profile --space {space} --band-radius 1 --loc-radius 2 "
        "--samples 2 --out {out}",
        "equiv run --space {space} --band-radius 1 --loc-radius 2 "
        "--samples 2 --profile-samples 1 --out {out}",
        "cb check --space {space} --band-radius 1 --loc-radius 2 "
        "--amplification 2 --samples 1 --out {out}",
        "space validate --in {space}",
        "space gen --kind random-regular --n 12 --degree 3 --out {out}",
    ],
    ids=lambda command: " ".join(command.split()[:2]),
)
def test_negative_seed_exits_3(tmp_path, capsys, command):
    # numpy's generator refuses a negative seed; Python's random, which
    # space gen seeds, would take -1 as 1, so it is refused there too.
    space = _space_file(tmp_path, n=12)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = command.format(space=space, out=out).split() + ["--seed", "-1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the seed must be nonnegative, got -1" in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.glob("out*")) == []


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


def test_directory_input_exits_3(tmp_path, capsys):
    assert main(["space", "validate", "--in", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Is a directory" in captured.err


def test_directory_output_exits_3_and_leaves_no_temporary_file(
    tmp_path, capsys
):
    path = _space_file(tmp_path, n=6, name="c6.json")
    taken = tmp_path / "taken"
    taken.mkdir()
    code = main(
        ["cb", "check", "--space", path, "--band-radius", "1",
         "--loc-radius", "1", "--amplification", "2", "--samples", "2",
         "--seed", "0", "--out", str(taken)]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "Is a directory" in captured.err
    # the temporary file beside the directory was removed
    assert sorted(os.listdir(tmp_path)) == ["c6.json", "taken"]
    assert os.listdir(taken) == []


@pytest.mark.parametrize("command", ["space validate", "cert check"])
def test_input_that_is_not_utf8_exits_3(tmp_path, capsys, command):
    # ff fe opens a UTF-16 byte order mark, which is not UTF-8.
    path = tmp_path / "utf16.json"
    path.write_bytes('{"n": 3, "edges": []}'.encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    assert main([*command.split(), "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid JSON" in captured.err and "utf-8" in captured.err


def test_cb_check_huge_amplification_exits_3(tmp_path, capsys):
    # (6 * 10**7)**2 entries are past the bound.  Without the check numpy
    # refuses the (18, 10**7, 10**7) draw, unallocated, with a traceback.
    path = _space_file(tmp_path, n=6, name="c6.json")
    out = tmp_path / "cb.json"
    code = main(
        ["cb", "check", "--space", path, "--band-radius", "1",
         "--loc-radius", "1", "--amplification", "10000000", "--seed", "0",
         "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "operator entries exceed 67108864" in captured.err
    assert not out.exists()


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


# Every radius flag of every command, with the other arguments valid.
_RADIUS_FLAGS = [
    ("onl profile --space {space} --samples 2 --seed 0 --out {out}",
     {"--band-radius": "1", "--loc-radius": "2"}),
    ("cert build --space {space} --kind ball --out {out}",
     {"--radius": "2"}),
    ("cert check --in {cert}", {"--band-radius": "1"}),
    ("equiv run --space {space} --samples 2 --profile-samples 1 --seed 0 "
     "--out {out}", {"--band-radius": "1", "--loc-radius": "2"}),
    ("cb check --space {space} --amplification 2 --samples 1 --seed 0 "
     "--out {out}", {"--band-radius": "1", "--loc-radius": "2"}),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in _RADIUS_FLAGS for flag in flags],
    ids=lambda v: v.split()[0] if " " in v else v,
)
def test_non_finite_radius_flags_exit_3(tmp_path, capsys, command, flag, value):
    space = _space_file(tmp_path, n=12)
    cert = str(tmp_path / "cert.json")
    assert main(["cert", "build", "--space", space, "--kind", "ball",
                 "--radius", "2", "--out", cert]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    radii = dict(next(flags for c, flags in _RADIUS_FLAGS if c == command))
    radii[flag] = value
    argv = command.format(space=space, cert=cert, out=out).split()
    # "--flag=-inf": argparse reads a separate "-inf" as an option
    argv += [f"{name}={radius}" for name, radius in radii.items()]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"a radius must be a finite number, got '{value}'" in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_fraction_floor_exits_3(tmp_path, capsys, value):
    # -inf would switch the floor off and nan would fail every run
    space = _space_file(tmp_path, n=6)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(
        ["cb", "check", "--space", space, "--band-radius", "1",
         "--loc-radius", "2", "--amplification", "2", "--samples", "1",
         "--seed", "0", "--out", str(out), f"--fraction-floor={value}"]
    ) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        f"the fraction floor must be a finite number, got '{value}'"
        in captured.err
    )
    assert not out.exists()


def test_onl_profile_nan_epsilon_exits_4(tmp_path, capsys, monkeypatch):
    # A NaN epsilon gives a NaN floor, which no search can be consistent
    # with; read as 0 it would pass.
    monkeypatch.setattr(nl.certificates, "schur_test_kappa", lambda *_: np.nan)
    path = _space_file(tmp_path, n=60)
    capsys.readouterr()
    out = tmp_path / "p"
    assert main(
        ["onl", "profile", "--space", path, "--band-radius", "1",
         "--loc-radius", "10", "--samples", "2", "--budget", "0",
         "--certificate", "ball", "--seed", "0", "--out", str(out)]
    ) == 4
    assert "certified floor nan" in capsys.readouterr().out
    doc = json.loads((tmp_path / "p.json").read_text())
    assert doc["consistent"] is False and doc["vacuous"] is True


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
            ["--kind", "tree_ray", "--radius", "6"],
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
    assert "epsilon: 0.14285714285714285\n" in text
    assert "epsilon_exact: 1/7" in text
    assert "vacuous: False" in text
    # equiv run reads the same epsilon off the same certificate
    assert main(
        ["equiv", "run", "--space", path, "--band-radius", "1",
         "--loc-radius", "10", "--certificate", out, "--samples", "1",
         "--profile-samples", "0", "--seed", "0",
         "--out", str(tmp_path / "eq")]
    ) == 0
    assert "epsilon=0.14285714285714285 (exact 1/7)" in capsys.readouterr().out


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
    kernel = nl.kernel_from_cp_map(
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


def test_cert_build_kernel_states_its_measured_propagation(tmp_path):
    # balls of radius 5 on the 12-cycle meet at every distance up to 6
    path = _space_file(tmp_path, n=12)
    out = tmp_path / "kernel.json"
    assert main(
        ["cert", "build", "--space", path, "--kind", "ball", "--radius", "5",
         "--form", "kernel", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    report = nl.kernel_checks(nl.certificate_from_json(doc))
    assert doc["radius"] == report["measured_propagation"] == 6


@pytest.mark.parametrize("value", ["-1", "nan"])
@pytest.mark.parametrize("form", ["subset", "vector", "kernel"])
def test_cert_check_bad_band_radius_prints_nothing(
    tmp_path, capsys, form, value
):
    path = _space_file(tmp_path, n=12)
    out = str(tmp_path / "cert.json")
    assert main(
        ["cert", "build", "--space", path, "--kind", "ball", "--radius", "2",
         "--form", form, "--out", out]
    ) == 0
    capsys.readouterr()
    assert main(["cert", "check", "--in", out, f"--band-radius={value}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_cert_build_tree_ray_on_cycle_exit_3(tmp_path):
    path = _space_file(tmp_path, n=12)
    assert main(
        ["cert", "build", "--space", path, "--kind", "tree_ray",
         "--radius", "2", "--out", str(tmp_path / "t.json")]
    ) == 3


def test_cert_build_kinds_are_the_certificate_sources():
    build = next(
        action for action in leaf_parsers(build_parser())["cert build"]._actions
        if action.dest == "kind"
    )
    assert tuple(build.choices) == nl.certificates.CERTIFICATE_SOURCES


@pytest.mark.parametrize("form", ["subset", "vector", "kernel"])
@pytest.mark.parametrize("kind", nl.certificates.CERTIFICATE_SOURCES)
def test_every_source_builds_and_checks_in_every_form(
    tmp_path, capsys, kind, form
):
    path = str(tmp_path / "tree.json")
    assert main(
        ["space", "gen", "--kind", "binary-tree", "--depth", "3",
         "--out", path]
    ) == 0
    out = str(tmp_path / "cert.json")
    assert main(
        ["cert", "build", "--space", path, "--kind", kind, "--radius", "2",
         "--form", form, "--out", out]
    ) == 0
    capsys.readouterr()
    assert main(["cert", "check", "--in", out, "--band-radius", "1"]) == 0
    text = capsys.readouterr().out
    assert f"form: {form}\n" in text and "verdict: pass" in text


def test_cert_build_tree_ray_needs_integer_radius(tmp_path, capsys):
    path = str(tmp_path / "tree.json")
    assert main(
        ["space", "gen", "--kind", "binary-tree", "--depth", "3",
         "--out", path]
    ) == 0
    capsys.readouterr()
    out = tmp_path / "t.json"
    assert main(
        ["cert", "build", "--space", path, "--kind", "tree_ray",
         "--radius", "2.5", "--out", str(out)]
    ) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: tree_ray needs an integer localization radius >= 1, "
        "got 2.5\n"
    )
    assert not out.exists()


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
    assert doc["kernel_checks"]["psd_ok"] is True


def test_equiv_run_without_bound_samples_writes_null(tmp_path, capsys):
    path = _space_file(tmp_path)
    out = str(tmp_path / "e")
    assert main(
        ["equiv", "run", "--space", path, "--band-radius", "1",
         "--loc-radius", "5", "--samples", "0", "--profile-samples", "1",
         "--budget", "2", "--seed", "0", "--out", out]
    ) == 0
    capsys.readouterr()
    text = open(out + ".json").read()
    assert '"all_verified": null' in text
    doc = json.loads(text)
    assert doc["certified_bound_checks"] == {"samples": [], "all_verified": None}
    assert len(doc["onl_profile"]["sample_seeds"]) == 1


def test_named_tree_ray_certificate_needs_integer_radius(tmp_path, capsys):
    # one dispatch builds named certificates for both commands, and a
    # radius the tree-ray source cannot take is invalid data in each
    path = _space_file(tmp_path)
    common = ["--space", path, "--band-radius", "1", "--loc-radius", "2.5",
              "--certificate", "tree_ray", "--seed", "0",
              "--out", str(tmp_path / "r")]
    message = "tree_ray needs an integer localization radius >= 1"
    for command in (["onl", "profile"], ["equiv", "run"]):
        assert main(command + ["--samples", "2"] + common) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        "equiv run --samples -3",
        "equiv run --profile-samples -2",
        "equiv run --budget -5",
        "onl profile --budget -5",
    ],
)
def test_negative_count_exits_3_before_drawing(tmp_path, capsys, argv):
    path = _space_file(tmp_path, n=12)
    capsys.readouterr()
    code = main(
        argv.split()
        + ["--space", path, "--band-radius", "1", "--loc-radius", "2",
           "--seed", "0", "--out", str(tmp_path / "r")]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "must be >= 0, got -" in captured.err
    assert not list(tmp_path.glob("r.*"))


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


@pytest.mark.parametrize(
    "argv",
    [
        "onl profile --samples 2 --budget 4",
        "equiv run --samples 0 --profile-samples 2 --budget 4",
        "equiv run --samples 2 --profile-samples 0",
    ],
)
def test_certificate_from_another_space_exits_3(tmp_path, capsys, argv):
    path = _space_file(tmp_path, n=60)
    other = _space_file(tmp_path, n=6, name="c6.json")
    cert_path = str(tmp_path / "c6cert.json")
    assert main(
        ["cert", "build", "--space", other, "--kind", "ball", "--radius",
         "10", "--form", "vector", "--out", cert_path]
    ) == 0
    capsys.readouterr()
    code = main(
        argv.split()
        + ["--space", path, "--band-radius", "1", "--loc-radius", "10",
           "--certificate", cert_path, "--seed", "0",
           "--out", str(tmp_path / "r")]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "another space than 'cycle_60'" in captured.err
    assert not list(tmp_path.glob("r.*"))


def _zero_multiplier(certificate, compressed):
    return 0 * compressed.source


def _indefinite_kernel(certificate):
    # off the unit diagonal, slightly skew, indefinite, and claiming more
    # propagation than its entries reach
    table = np.eye(certificate.space.n, dtype=complex)
    table[0, 0] = 1.5
    table[0, 1], table[1, 0] = 2.0, 2.0 + 1e-7
    return nl.KernelCertificate(certificate.space, 2, table)


# A patched library function per verdict behind exit 4, and the JSON path
# of the verdict it breaks.
_BROKEN_VERDICTS = [
    ("equiv", nl.duality, "phi_apply", _zero_multiplier,
     ("certified_bound_checks", "all_verified")),
    ("equiv", nl.duality, "kernel_from_cp_map", _indefinite_kernel,
     ("kernel_checks", "psd_ok")),
    ("equiv", nl.localization, "_refine_ratio", lambda *args: 0.0,
     ("onl_profile", "consistent")),
    ("onl", nl.localization, "_refine_ratio", lambda *args: 0.0,
     ("consistent",)),
]


@pytest.mark.parametrize(
    "command, module, name, fake, verdict",
    _BROKEN_VERDICTS,
    ids=["all_verified", "psd_ok", "consistent", "profile-consistent"],
)
def test_broken_verdict_exits_4(
    tmp_path, capsys, monkeypatch, command, module, name, fake, verdict
):
    path = _space_file(tmp_path)
    monkeypatch.setattr(module, name, fake)
    common = ["--space", path, "--band-radius", "1", "--loc-radius", "5",
              "--samples", "2", "--budget", "4", "--certificate", "ball",
              "--seed", "0", "--out", str(tmp_path / "r")]
    argv = (["equiv", "run", "--profile-samples", "2"] if command == "equiv"
            else ["onl", "profile"])
    assert main(argv + common) == 4
    assert "verification failed" in capsys.readouterr().out
    doc = json.loads((tmp_path / "r.json").read_text())
    for key in verdict:
        doc = doc[key]
    assert doc is False


def test_broken_kernel_moves_every_kernel_check(tmp_path, monkeypatch):
    path = _space_file(tmp_path)
    monkeypatch.setattr(nl.duality, "kernel_from_cp_map", _indefinite_kernel)
    assert main(
        ["equiv", "run", "--space", path, "--band-radius", "1",
         "--loc-radius", "5", "--samples", "1", "--profile-samples", "0",
         "--seed", "0", "--out", str(tmp_path / "e")]
    ) == 4
    checks = json.loads((tmp_path / "e.json").read_text())["kernel_checks"]
    assert checks["diagonal_error"] == 0.5
    assert checks["hermitian_error"] > 0
    assert checks["min_eigenvalue"] < 0
    assert checks["psd_ok"] is False
    assert checks["claimed_propagation"] == 2
    assert checks["measured_propagation"] == 1


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


@pytest.mark.parametrize("dist", [[[2, 3], [3, 2]], [[5, 1], [1, 5]]])
def test_cb_check_samples_that_vanish_on_every_ball_exit_3(
    tmp_path, capsys, dist
):
    # Every ball block of a sample is zero: at radius 1 the first table's
    # balls and band are empty, and the second's balls hold only the other
    # point, whose diagonal entry is outside the band.
    path = tmp_path / "sp.json"
    path.write_text(json.dumps({"dist": dist}))
    out = tmp_path / "cb.json"
    code = main(
        ["cb", "check", "--space", str(path), "--band-radius", "1",
         "--loc-radius", "1", "--amplification", "2", "--seed", "0",
         "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "vanishes on every ball" in captured.err
    assert not out.exists()


_REPORT_KEYS = [
    "chain_ok", "chain_slack", "column_norm", "compressed_norm",
    "loc_radius", "m", "n", "operator_norm", "propagation", "sigma_col",
    "sigma_sq", "sigma_sq_wide", "space", "wide_norm", "witness_center",
]
_PROFILE_KEYS = [
    "adversarial_ratio", "band_radius", "certified_lower_bound",
    "consistent", "epsilon", "loc_radius", "n", "probes", "sample_seeds",
    "sample_sigma_sq", "samples", "search_budget", "seed", "space",
    "vacuous", "worst_ratio", "worst_sample_ratio",
]


def _check_profile_keys(doc):
    assert sorted(doc) == _PROFILE_KEYS
    (probe,) = doc["probes"]
    assert sorted(probe) == sorted(_REPORT_KEYS + ["name"])


def _check_equiv_keys(doc):
    assert sorted(doc) == [
        "certificate", "certified_bound_checks", "epsilon", "kernel_checks",
        "onl_profile", "parameters", "space", "warnings",
    ]
    assert sorted(doc["space"]) == ["n", "name"]
    assert sorted(doc["parameters"]) == ["band_radius", "loc_radius"]
    assert sorted(doc["certificate"]) == [
        "form", "gram_arithmetic", "origin", "radius", "slots",
    ]
    assert sorted(doc["epsilon"]) == [
        "epsilon", "epsilon_exact", "gram_deficit", "gram_deficit_exact",
        "kappa", "vacuous",
    ]
    checks = doc["certified_bound_checks"]
    assert sorted(checks) == ["all_verified", "samples"]
    assert sorted(checks["samples"][0]) == [
        "compressed_norm", "difference_norm", "lower_bound_ok",
        "multiplier_ok", "operator_norm", "seed",
    ]
    assert sorted(doc["kernel_checks"]) == [
        "claimed_propagation", "diagonal_error", "hermitian_error",
        "measured_propagation", "min_eigenvalue", "psd_ok",
    ]
    _check_profile_keys(doc["onl_profile"])


def _check_cb_keys(doc):
    assert sorted(doc) == [
        "amplification", "amplified_ratio", "amplified_ratios",
        "band_radius", "consistent", "loc_radius", "min_reduction_fraction",
        "reduction_fractions", "reduction_ratios", "samples",
        "scalar_ratio_estimate", "scalar_ratio_raw", "scalar_ratios", "seed",
        "space", "tolerance",
    ]


@pytest.mark.parametrize(
    "argv, check",
    [
        ("onl profile --band-radius 1 --loc-radius 2 --samples 3 --budget 8 "
         "--certificate ball --include-adjacency --out {out}",
         _check_profile_keys),
        ("equiv run --band-radius 1 --loc-radius 2 --samples 3 "
         "--profile-samples 2 --budget 8 --out {out}", _check_equiv_keys),
        ("cb check --band-radius 1 --loc-radius 2 --amplification 2 "
         "--samples 2 --out {out}.json", _check_cb_keys),
    ],
    ids=["onl-profile", "equiv-run", "cb-check"],
)
def test_json_artifact_keys(tmp_path, capsys, monkeypatch, argv, check):
    # Each report writes its fields by name, so a field added to a report
    # shows up here.  The object written must survive a JSON round trip:
    # no tuple, Fraction or numpy scalar in it.
    path = _space_file(tmp_path, n=12)
    written = []
    text = nl.cli._json_text

    def record(obj):
        written.append(obj)
        return text(obj)

    monkeypatch.setattr(nl.cli, "_json_text", record)
    out = str(tmp_path / "r")
    assert main(
        argv.format(out=out).split() + ["--space", path, "--seed", "0"]
    ) == 0
    capsys.readouterr()
    (doc,) = written
    check(doc)
    assert json.loads(json.dumps(doc)) == doc


def _inflate_amplified_norms(monkeypatch):
    # Doubles the norm of every amplified operator where the cb-norm check
    # reads it; the reductions are measured in localization, so their
    # fractions do not move.
    norm = nl.duality.operator_norm
    monkeypatch.setattr(
        nl.duality, "operator_norm", lambda a: norm(a) * (2 if a.m > 1 else 1)
    )


@pytest.mark.parametrize(
    "extra, patch, failed, passed",
    [
        (["--fraction-floor", "1.01"], None, "fraction floor", "consistent"),
        ([], _inflate_amplified_norms, "consistent is false", "fraction floor"),
    ],
    ids=["fraction-floor", "consistent"],
)
def test_cb_check_names_the_failed_clause(
    tmp_path, capsys, monkeypatch, extra, patch, failed, passed
):
    path = _space_file(tmp_path, n=6, name="c6.json")
    if patch is not None:
        patch(monkeypatch)
    out = tmp_path / "cb.json"
    assert main(
        ["cb", "check", "--space", path, "--band-radius", "1",
         "--loc-radius", "2", "--amplification", "2", "--samples", "6",
         "--seed", "0", "--out", str(out), *extra]
    ) == 4
    printed = capsys.readouterr().out
    assert "verification failed: " in printed
    assert failed in printed and passed not in printed
    doc = json.loads(out.read_text())
    if patch is None:
        assert doc["consistent"] is True
        assert doc["min_reduction_fraction"] < 1.01
    else:
        assert doc["consistent"] is False
        assert doc["min_reduction_fraction"] >= 0.95


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.just(["space", "validate"]), SPACE_DOCS),
    st.tuples(st.just(["cert", "check", "--band-radius", "1"]), CERT_DOCS),
))
def test_fuzzed_documents_exit_0_3_or_4(tmp_path_factory, case):
    command, doc = case
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    assert main([*command, "--in", str(path)]) in (0, 3, 4)
