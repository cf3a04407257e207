import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normloc as nl
from helpers import (
    literal_ball_subsets,
    literal_subset_vectors,
    literal_tree_ray_subsets,
    pairs_to_table,
)


def test_ball_certificate_structure(c6):
    cert = nl.ball_certificate(c6, 1)
    assert cert.sizes == (3,) * 6
    assert cert.m == 1
    assert cert.member.shape == (6, 6, 1) and cert.member.dtype == bool
    assert cert.member[1, 0, 0] and cert.member[1, 2, 0]
    with pytest.raises(ValueError):
        cert.member[1, 3, 0] = True


def test_subset_certificate_validation(c6):
    own = np.eye(6, dtype=bool)[:, :, None]
    assert nl.SubsetCertificate(c6, 0, own).sizes == (1,) * 6
    empty_row = own.copy()
    empty_row[4] = False
    with pytest.raises(nl.EmptySubset, match="point 4"):
        nl.SubsetCertificate(c6, 1, empty_row)
    far = own.copy()
    far[0, 3, 0] = True
    with pytest.raises(nl.DataError, match="distance 3"):
        nl.SubsetCertificate(c6, 1, far)
    with pytest.raises(nl.FormatError):
        nl.SubsetCertificate(c6, 1, own.astype(np.int64))
    for shape in ((6, 6), (6, 5, 1), (5, 6, 1), (6, 6, 0), (6, 6, 1, 1)):
        with pytest.raises(nl.FormatError):
            nl.SubsetCertificate(c6, 1, np.ones(shape, dtype=bool))
    for radius in (-1, float("nan")):
        with pytest.raises(nl.InvalidParams):
            nl.SubsetCertificate(c6, radius, own)


@pytest.mark.parametrize("radius", [-1, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("form", ["subset", "vector", "kernel"])
def test_every_form_refuses_a_bad_radius(c6, form, radius):
    # A NaN radius fails no `radius < 0` test, so each form tests
    # `not radius >= 0`; otherwise a NaN vector certificate would give
    # epsilon 3 and a NaN kernel would pass psd_ok.
    tables = {
        "subset": (nl.SubsetCertificate, np.eye(6, dtype=bool)[:, :, None]),
        "vector": (nl.VectorCertificate, np.eye(6, dtype=complex)[:, :, None]),
        "kernel": (nl.KernelCertificate, np.eye(6, dtype=complex)),
    }
    make, table = tables[form]
    assert make(c6, 0, table).radius == 0
    with pytest.raises(nl.InvalidParams):
        make(c6, radius, table)


def test_subset_document_validation(c6):
    def doc(subsets):
        return {"form": "subset", "radius": 1, "m": 1, "subsets": subsets,
                "space": nl.space_to_json(c6)}

    own = [[[x, 1]] for x in range(6)]
    assert nl.certificate_from_json(doc(own)).sizes == (1,) * 6
    with pytest.raises(nl.UnknownPoint):
        nl.certificate_from_json(doc([[[9, 1]]] + own[1:]))
    with pytest.raises(nl.DataError, match="slot 2"):
        nl.certificate_from_json(doc(own[:5] + [[[5, 2]]]))
    with pytest.raises(nl.FormatError, match="5 subsets for 6 points"):
        nl.certificate_from_json(doc(own[:5]))
    with pytest.raises(nl.EmptySubset):
        nl.certificate_from_json(doc(own[:2] + [[]] + own[3:]))


def test_subset_to_vector_unit_norms_and_support(c6):
    vec = nl.subset_to_vector(nl.ball_certificate(c6, 1))
    flat = vec.vectors.reshape(6, 6)
    norms = np.linalg.norm(flat, axis=1)
    assert np.abs(norms - 1).max() < 1e-12
    outside = c6.dist > 1
    assert not vec.vectors[outside].any()


def test_ball_certificate_exact_gram_values(c6):
    vec = nl.subset_to_vector(nl.ball_certificate(c6, 1))
    assert vec.exact_gram is not None
    counts, size = vec.exact_gram
    assert counts.dtype == np.int64 and size == 3
    assert counts[0, :4].tolist() == [3, 2, 1, 0]
    g = vec.gram
    assert np.array_equal(g, counts / size)
    assert g[0, 0] == 1.0
    assert abs(g[0, 1] - 2 / 3) < 1e-15


def test_gram_of_unequal_sizes_is_float(p4):
    vec = nl.subset_to_vector(nl.ball_certificate(p4, 1))
    assert vec.exact_gram is None
    g = vec.gram
    assert (np.diagonal(g) == 1.0).all()
    # end ball {0,1} against middle ball {0,1,2}
    assert abs(g[0, 1] - 2 / math.sqrt(6)) < 1e-12


def test_vector_certificate_validation(c6):
    vecs = np.zeros((6, 6, 1), dtype=complex)
    for x in range(6):
        vecs[x, x, 0] = 1.0
    ok = nl.VectorCertificate(c6, 0, vecs)
    assert ok.gram[0, 1] == 0.0

    off = vecs.copy()
    off[0, 3, 0] = 0.5
    with pytest.raises(nl.DataError):
        nl.VectorCertificate(c6, 0, off)

    unnorm = vecs.copy()
    unnorm[0, 0, 0] = 0.9
    with pytest.raises(nl.DataError):
        nl.VectorCertificate(c6, 0, unnorm)

    for bad in (np.nan, np.inf, complex(0, np.nan)):
        broken = vecs.copy()
        broken[0, 0, 0] = bad
        with pytest.raises(nl.DataError):
            nl.VectorCertificate(c6, 0, broken)


def test_vector_certificate_slot_count_is_the_table_depth(c6):
    for m in (1, 3):
        vecs = np.zeros((6, 6, m), dtype=complex)
        vecs[np.arange(6), np.arange(6), m - 1] = 1.0
        cert = nl.VectorCertificate(c6, 0, vecs)
        assert cert.m == m
        assert nl.certificate_to_json(cert)["m"] == m
    for shape in ((6, 6), (6, 6, 0), (5, 5, 1), (6, 5, 1), (6, 6, 1, 1)):
        with pytest.raises(nl.FormatError):
            nl.VectorCertificate(c6, 0, np.zeros(shape, dtype=complex))


def test_gram_is_computed_once_and_read_only(c60, p4):
    # cycle balls share one size (exact Gram), path balls do not (float)
    for sp in (c60, p4):
        vec = nl.subset_to_vector(nl.ball_certificate(sp, 1))
        g = vec.gram
        assert vec.gram is g
        with pytest.raises(ValueError):
            g[0, 1] = 0.0
        for name in ("gram", "exact_gram"):
            with pytest.raises(AttributeError):
                setattr(vec, name, None)
    counts, _ = nl.subset_to_vector(nl.ball_certificate(c60, 1)).exact_gram
    with pytest.raises(ValueError):
        counts[0, 1] = 0


def test_tree_ray_certificate_overlaps():
    bt = nl.generate_family("binary_tree", {"depth": 3})
    cert = nl.tree_ray_certificate(bt, 4)
    assert set(cert.sizes) == {4}
    assert cert.m == 4
    vec = nl.subset_to_vector(cert)
    assert vec.exact_gram is not None
    counts, size = vec.exact_gram
    # every adjacent pair overlaps in exactly length - 1 members
    assert size == 4
    assert (counts[bt.dist == 1] == 3).all()


def test_tree_ray_depth_shallower_than_ray():
    bt = nl.generate_family("binary_tree", {"depth": 2})
    cert = nl.tree_ray_certificate(bt, 6)
    assert set(cert.sizes) == {6}
    # root set is the root plus five padding slots
    assert np.argwhere(cert.member[0]).tolist() == [[0, s] for s in range(6)]


@pytest.mark.parametrize("depth", range(7))
def test_tree_ray_matches_literal_walk(depth):
    bt = nl.generate_family("binary_tree", {"depth": depth})
    for root in sorted({0, bt.n // 2, bt.n - 1}):
        for length in range(1, depth + 4):
            cert = nl.tree_ray_certificate(bt, length, root=root)
            expected = pairs_to_table(
                literal_tree_ray_subsets(bt, length, root), bt.n, length
            )
            assert np.array_equal(cert.member, expected), (root, length)


def test_ball_certificate_is_the_distance_test(c60, btree6, grid8):
    for sp, radius in ((c60, 10), (btree6, 5), (grid8, 5), (grid8, 0)):
        member = nl.ball_certificate(sp, radius).member
        assert np.array_equal(member[..., 0], sp.dist <= radius)


def test_subset_to_vector_matches_pair_oracle(c60, btree6, grid8):
    bt3 = nl.generate_family("binary_tree", {"depth": 3})
    p20 = nl.generate_family("path", {"n": 20})
    cases = [
        (nl.ball_certificate(c60, 10), literal_ball_subsets(c60, 10)),
        (nl.ball_certificate(p20, 3), literal_ball_subsets(p20, 3)),
        (nl.ball_certificate(btree6, 5), literal_ball_subsets(btree6, 5)),
        (nl.ball_certificate(grid8, 5), literal_ball_subsets(grid8, 5)),
        (nl.tree_ray_certificate(bt3, 4), literal_tree_ray_subsets(bt3, 4)),
    ] + [
        (nl.tree_ray_certificate(btree6, length),
         literal_tree_ray_subsets(btree6, length))
        for length in range(1, 9)
    ]
    for cert, subsets in cases:
        n, m = cert.space.n, cert.m
        vectors, exact = literal_subset_vectors(subsets, n, m)
        vec = nl.subset_to_vector(cert)
        assert vec.vectors.tobytes() == vectors.tobytes()
        # the certificate derives its exact Gram from the vectors alone
        if exact is None:
            assert vec.exact_gram is None
        else:
            assert vec.exact_gram[0].tobytes() == exact[0].tobytes()
            assert vec.exact_gram[1] == exact[1]
            assert vec.gram.tobytes() == (exact[0] / exact[1]).tobytes()


def test_tree_ray_rejects_non_trees(c6):
    with pytest.raises(nl.NotATree):
        nl.tree_ray_certificate(c6, 3)


def test_vector_to_kernel(c6):
    vec = nl.subset_to_vector(nl.ball_certificate(c6, 1))
    kern = nl.vector_to_kernel(vec)
    assert kern.radius == 2
    assert (np.diagonal(kern.table) == 1.0).all()
    assert not kern.table[c6.dist > 2].any()
    report = nl.kernel_checks(kern)
    assert report["psd_ok"] and report["min_eigenvalue"] > -1e-10


def test_kernel_deviation(c6):
    vec = nl.subset_to_vector(nl.ball_certificate(c6, 1))
    kern = nl.vector_to_kernel(vec)
    assert abs(nl.kernel_deviation(kern, 1) - 1 / 3) < 1e-15


def test_kernel_certificate_rejects_entries_beyond_radius(c6):
    table = np.eye(6, dtype=complex)
    table[0, 3] = 0.5
    table[3, 0] = 0.5
    with pytest.raises(nl.DataError):
        nl.KernelCertificate(c6, 2, table)


def test_kernel_checks_positive_definite():
    p2 = nl.generate_family("path", {"n": 2})

    def checks(table):
        return nl.kernel_checks(nl.KernelCertificate(p2, 1, table))

    good = checks([[1.0, 0.5], [0.5, 1.0]])
    assert good["psd_ok"] and abs(good["min_eigenvalue"] - 0.5) < 1e-12
    bad = checks([[1.0, 2.0], [2.0, 1.0]])
    assert not bad["psd_ok"] and abs(bad["min_eigenvalue"] + 1.0) < 1e-12
    skew = checks([[1.0, 1.0], [0.0, 1.0]])
    assert skew["min_eigenvalue"] is None and skew["psd_ok"] is False


def test_triangular_kernel_on_path_is_positive():
    # classic positive-definite kernel on the integers: max(0, 1 - d/width)
    p8 = nl.generate_family("path", {"n": 8})
    width = 4
    table = np.maximum(0.0, 1.0 - p8.dist / width).astype(complex)
    kern = nl.KernelCertificate(p8, width, table)
    report = nl.kernel_checks(kern)
    assert report["psd_ok"]
    assert report["diagonal_error"] == 0.0
    assert report["hermitian_error"] == 0.0
    assert report["measured_propagation"] == width - 1


def test_kernel_checks_flags_problems(c6):
    table = np.eye(6, dtype=complex) * 1.5
    report = nl.kernel_checks(nl.KernelCertificate(c6, 0, table))
    assert report["diagonal_error"] == 0.5


@pytest.mark.parametrize("form", ["subset", "vector", "kernel"])
def test_certificate_json_round_trip(c6, form):
    subset = nl.ball_certificate(c6, 1)
    if form == "subset":
        cert = subset
    elif form == "vector":
        cert = nl.subset_to_vector(subset)
    else:
        cert = nl.vector_to_kernel(nl.subset_to_vector(subset))
    doc = nl.certificate_to_json(cert)
    back = nl.certificate_from_json(doc)
    assert type(back) is type(cert)
    assert back.radius == cert.radius
    if form == "subset":
        assert np.array_equal(back.member, cert.member)
    elif form == "vector":
        assert np.array_equal(back.vectors, cert.vectors)
        # normalized equal-size indicators keep their exact Gram
        assert back.exact_gram[1] == cert.exact_gram[1] == 3
        assert np.array_equal(back.exact_gram[0], cert.exact_gram[0])
        assert back.gram.tobytes() == cert.gram.tobytes()
    else:
        assert np.array_equal(back.table, cert.table)


def test_certificate_json_rejects_malformed(c6):
    with pytest.raises(nl.FormatError):
        nl.certificate_from_json({"space": nl.space_to_json(c6)})
    with pytest.raises(nl.FormatError):
        nl.certificate_from_json(
            {"form": "sphere", "radius": 1, "space": nl.space_to_json(c6)}
        )
    with pytest.raises(nl.UnknownPoint):
        nl.certificate_from_json(
            {
                "form": "kernel",
                "radius": 1,
                "entries": [[0, 9, 1.0, 0.0]],
                "space": nl.space_to_json(c6),
            }
        )


def test_subset_round_trip_recovers_exactness(c6):
    doc = nl.certificate_to_json(nl.ball_certificate(c6, 1))
    back = nl.certificate_from_json(doc)
    vec = nl.subset_to_vector(back)
    assert vec.exact_gram is not None
    counts, size = vec.exact_gram
    assert (counts[0, 1], size) == (2, 3)


def test_exact_gram_must_match_the_vectors(c6):
    vec = nl.subset_to_vector(nl.ball_certificate(c6, 1))
    same = nl.VectorCertificate(c6, 1, vec.vectors)
    assert same.exact_gram[1] == 3
    assert same.gram.tobytes() == vec.gram.tobytes()
    with pytest.raises(TypeError):
        nl.VectorCertificate(c6, 1, vec.vectors, exact_gram=vec.exact_gram)
    # one entry a last bit off is no longer an indicator: float Gram
    nudged = vec.vectors.copy()
    nudged[0, 0, 0] = np.nextafter(nudged[0, 0, 0].real, 1.0)
    off = nl.VectorCertificate(c6, 1, nudged)
    assert off.exact_gram is None
    assert off.gram[0, 0] == 1.0 and off.gram[0, 1] != 2 / 3
    # equal support sizes with unequal weights are not indicators either
    weighted = np.zeros((6, 6, 1))
    for x in range(6):
        weighted[x, x, 0], weighted[x, (x + 1) % 6, 0] = 0.6, 0.8
    tilted = nl.VectorCertificate(c6, 1, weighted)
    assert tilted.exact_gram is None
    assert abs(tilted.gram[0, 1] - 0.48) < 1e-15
    # an imaginary part breaks exactness as well
    turned = vec.vectors * 1j
    assert nl.VectorCertificate(c6, 1, turned).exact_gram is None


@pytest.mark.parametrize(
    "call",
    [
        lambda bt, c6: nl.tree_ray_certificate(bt, 2.7),
        lambda bt, c6: nl.power_trick_witness(nl.adjacency(c6), 1, 2.7),
        lambda bt, c6: nl.sampled_cb_norm_check(
            c6, 1, 2, amplification=2.5, samples=1
        ),
        lambda bt, c6: nl.SubsetCertificate(c6, 1, np.eye(6)[:, :, None]),
        lambda bt, c6: nl.SubsetCertificate(
            c6, 1, np.eye(6, dtype=np.int64)[:, :, None]
        ),
    ],
    ids=["ray-length", "power", "amplification", "float-member",
         "int-member"],
)
def test_library_callers_need_integers(c6, call):
    bt = nl.generate_family("binary_tree", {"depth": 3})
    with pytest.raises(nl.FormatError):
        call(bt, c6)


# Documents are mostly well formed, with any field possibly replaced by a
# JSON value of another kind, so that the fuzz reaches every check of the
# readers.  Counts are small or far beyond MAX_TABLE_ENTRIES, which the
# readers must refuse before they allocate.
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
_SPACE_DOCS = _mostly(_DIST_DOCS | _GRAPH_DOCS)
_CERT_DOCS = st.fixed_dictionaries(
    {
        "form": _mostly(st.sampled_from(["subset", "vector", "kernel"])),
        "space": _mostly(
            st.sampled_from([
                {"dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
                {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
            ]),
            _SPACE_DOCS,
        ),
        "radius": _NUMBER,
        "subsets": _mostly(st.lists(_rows(_INDEX, _INDEX), min_size=3,
                                    max_size=4)),
        "entries": _rows(_INDEX, _INDEX, _INDEX, _NUMBER, _NUMBER)
        | _rows(_INDEX, _INDEX, _NUMBER, _NUMBER),
    },
    optional={"m": _mostly(st.integers(-1, 2) | _HUGE), "note": _JUNK},
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.just(nl.space_from_json), _SPACE_DOCS),
    st.tuples(st.just(nl.certificate_from_json), _CERT_DOCS),
))
def test_json_readers_load_or_raise_data_error(case):
    reader, doc = case
    try:
        reader(doc)
    except nl.DataError:
        pass
