import math
from fractions import Fraction

import numpy as np
import pytest

import normloc as nl


def test_ball_certificate_structure(c6):
    cert = nl.ball_certificate(c6, 1)
    assert cert.sizes == (3,) * 6
    assert cert.m == 1
    assert (0, 1) in cert.subsets[1]
    assert (2, 1) in cert.subsets[1]


def test_subset_certificate_validation(c6):
    with pytest.raises(nl.EmptySubset):
        nl.SubsetCertificate(c6, 1, 1, (frozenset(),) * 6)
    far = tuple(frozenset({(int((x + 3) % 6), 1)}) for x in range(6))
    with pytest.raises(nl.DataError):
        nl.SubsetCertificate(c6, 1, 1, far)
    bad_slot = tuple(frozenset({(x, 2)}) for x in range(6))
    with pytest.raises(nl.DataError):
        nl.SubsetCertificate(c6, 1, 1, bad_slot)
    with pytest.raises(nl.UnknownPoint):
        nl.SubsetCertificate(c6, 1, 1, (frozenset({(9, 1)}),) * 6)


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
    assert vec.exact_gram[0][0] == 1
    assert vec.exact_gram[0][1] == Fraction(2, 3)
    assert vec.exact_gram[0][2] == Fraction(1, 3)
    assert vec.exact_gram[0][3] == 0
    g = vec.gram()
    assert g[0, 0] == 1.0
    assert abs(g[0, 1] - 2 / 3) < 1e-15


def test_gram_of_unequal_sizes_is_float(p4):
    vec = nl.subset_to_vector(nl.ball_certificate(p4, 1))
    assert vec.exact_gram is None
    g = vec.gram()
    assert (np.diagonal(g) == 1.0).all()
    # end ball {0,1} against middle ball {0,1,2}
    assert abs(g[0, 1] - 2 / math.sqrt(6)) < 1e-12


def test_vector_certificate_validation(c6):
    vecs = np.zeros((6, 6, 1), dtype=complex)
    for x in range(6):
        vecs[x, x, 0] = 1.0
    ok = nl.VectorCertificate(c6, 0, 1, vecs)
    assert ok.gram()[0, 1] == 0.0

    off = vecs.copy()
    off[0, 3, 0] = 0.5
    with pytest.raises(nl.DataError):
        nl.VectorCertificate(c6, 0, 1, off)

    unnorm = vecs.copy()
    unnorm[0, 0, 0] = 0.9
    with pytest.raises(nl.DataError):
        nl.VectorCertificate(c6, 0, 1, unnorm)

    for bad in (np.nan, np.inf, complex(0, np.nan)):
        broken = vecs.copy()
        broken[0, 0, 0] = bad
        with pytest.raises(nl.DataError):
            nl.VectorCertificate(c6, 0, 1, broken)


def test_gram_is_computed_once_and_read_only(c60, p4):
    # cycle balls share one size (exact Gram), path balls do not (float)
    for sp in (c60, p4):
        vec = nl.subset_to_vector(nl.ball_certificate(sp, 1))
        g = vec.gram()
        assert vec.gram() is g
        with pytest.raises(ValueError):
            g[0, 1] = 0.0


def test_tree_ray_certificate_overlaps():
    bt = nl.generate_family("binary_tree", {"depth": 3})
    cert = nl.tree_ray_certificate(bt, 4)
    assert set(cert.sizes) == {4}
    assert cert.m == 4
    vec = nl.subset_to_vector(cert)
    assert vec.exact_gram is not None
    # every adjacent pair overlaps in exactly length - 1 members
    for y, z in np.argwhere(bt.dist == 1):
        if y < z:
            assert vec.exact_gram[y][z] == Fraction(3, 4)


def test_tree_ray_depth_shallower_than_ray():
    bt = nl.generate_family("binary_tree", {"depth": 2})
    cert = nl.tree_ray_certificate(bt, 6)
    assert set(cert.sizes) == {6}
    # root set is the root plus five padding slots
    assert cert.subsets[0] == frozenset(
        {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)}
    )


def test_tree_ray_rejects_non_trees(c6):
    with pytest.raises(nl.NotATree):
        nl.tree_ray_certificate(c6, 3)


def test_vector_to_kernel(c6):
    vec = nl.subset_to_vector(nl.ball_certificate(c6, 1))
    kern = nl.vector_to_kernel(vec)
    assert kern.radius == 2
    assert (np.diagonal(kern.table) == 1.0).all()
    assert not kern.table[c6.dist > 2].any()
    ok, low = nl.check_positive_definite(kern.table)
    assert ok and low > -1e-10


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


def test_check_positive_definite():
    good = np.array([[1.0, 0.5], [0.5, 1.0]])
    ok, low = nl.check_positive_definite(good)
    assert ok and abs(low - 0.5) < 1e-12
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    ok, low = nl.check_positive_definite(bad)
    assert not ok and abs(low + 1.0) < 1e-12
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(nl.NotHermitian):
        nl.check_positive_definite(skew)


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
        assert back.subsets == cert.subsets
    elif form == "vector":
        assert np.array_equal(back.vectors, cert.vectors)
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
    assert vec.exact_gram[0][1] == Fraction(2, 3)
