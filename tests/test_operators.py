import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normloc as nl
from helpers import dense_norm


def test_adjacency_structure(c6):
    a = nl.adjacency(c6)
    assert a.entry(0, 1) == 1
    assert a.entry(0, 2) == 0
    assert nl.propagation(a) == 1
    assert a.support.sum() == 12


def test_identity_and_matrix_unit(c6):
    one = nl.identity(c6)
    assert np.array_equal(one.to_dense(), np.eye(6))
    e = nl.matrix_unit(c6, 1, 4)
    assert e.entry(1, 4) == 1
    assert e.data.sum() == 1
    assert nl.propagation(e) == 3
    with pytest.raises(nl.UnknownPoint):
        nl.matrix_unit(c6, 0, 6)


def test_arithmetic_and_supports(c6):
    a = nl.adjacency(c6)
    e = nl.matrix_unit(c6, 0, 3)
    s = a + e
    assert s.support[0, 3]
    assert s.support[0, 1]
    assert np.array_equal(s.to_dense(), a.to_dense() + e.to_dense())
    d = s - e
    assert np.array_equal(d.to_dense(), a.to_dense())
    # structural support keeps the slot even though the data cancelled
    assert d.support[0, 3]
    assert nl.propagation(d) == 1
    neg = -a
    assert neg.entry(1, 0) == -1
    scaled = 2.5 * a
    assert scaled.entry(0, 1) == 2.5


def test_matmul_support_is_boolean_product(c6):
    a = nl.adjacency(c6)
    sq = a @ a
    assert np.array_equal(sq.to_dense(), a.to_dense() @ a.to_dense())
    assert nl.propagation(sq) == 2
    # distance-2 pairs are reachable, distance-3 pairs are not
    assert sq.support[0, 2]
    assert not sq.support[0, 3]


def test_adjoint(c6):
    a = nl.random_banded(c6, 2, seed=3)
    adj = a.adjoint()
    assert np.array_equal(adj.to_dense(), a.to_dense().conj().T)
    assert np.array_equal(adj.support, a.support.T)


def test_operator_mismatch_rejected(c6, p4):
    with pytest.raises(nl.DataError):
        nl.adjacency(c6) + nl.adjacency(p4)
    with pytest.raises(nl.DataError):
        nl.adjacency(c6) @ nl.random_banded(c6, 1, seed=0, m=2)


def test_constructor_rejects_entry_outside_support(c6):
    data = np.zeros((6, 6), dtype=complex)
    data[0, 3] = 1.0
    support = np.zeros((6, 6), dtype=bool)
    support[0, 1] = True
    with pytest.raises(nl.DataError):
        nl.BandedOperator(c6, 1, data, support)


def test_constructor_rejects_bad_shapes(c6):
    with pytest.raises(nl.FormatError):
        nl.BandedOperator(c6, 1, np.zeros((5, 5)))
    with pytest.raises(nl.FormatError):
        nl.BandedOperator(c6, 2, np.zeros((6, 6)))
    with pytest.raises(nl.InvalidParams):
        nl.BandedOperator(c6, 0, np.zeros((0, 0)))


def test_random_banded_support_and_determinism(c60):
    a = nl.random_banded(c60, 2, seed=9)
    b = nl.random_banded(c60, 2, seed=9)
    assert np.array_equal(a.to_dense(), b.to_dense())
    outside = c60.dist > 2
    assert not a.to_dense()[outside].any()
    inside = c60.dist <= 2
    assert (a.to_dense()[inside] != 0).all()
    assert nl.propagation(a) == 2
    real = nl.random_banded(c60, 1, seed=9, field="real")
    assert (real.to_dense().imag == 0).all()
    with pytest.raises(nl.InvalidParams):
        nl.random_banded(c60, 1, seed=0, field="rational")


def test_random_banded_multislot(c6):
    a = nl.random_banded(c6, 1, seed=4, m=3)
    assert a.data.shape == (18, 18)
    assert a.block(0, 1).shape == (3, 3)
    assert not a.block(0, 2).any()
    with pytest.raises(nl.InvalidParams):
        a.entry(0, 1)


def test_truncate_to_band(c6):
    a = nl.random_banded(c6, 3, seed=7)
    t = nl.truncate_to_band(a, 1)
    assert nl.propagation(t) == 1
    keep = c6.dist <= 1
    assert np.array_equal(t.to_dense()[keep], a.to_dense()[keep])
    assert not t.to_dense()[~keep].any()


def test_propagation_of_zero_is_zero(c6):
    z = nl.BandedOperator(c6, 1, np.zeros((6, 6)))
    assert nl.propagation(z) == 0


def test_norm_known_values(c6, p4):
    assert abs(nl.operator_norm(nl.adjacency(c6)) - 2.0) < 1e-12
    golden = (1 + math.sqrt(5)) / 2
    assert abs(nl.operator_norm(nl.adjacency(p4)) - golden) < 1e-12


def test_norm_methods_agree_with_oracle(c60):
    for seed in range(8):
        a = nl.random_banded(c60, 1, seed=seed)
        reference = dense_norm(a.to_dense())
        assert abs(nl.operator_norm(a, method="dense") - reference) < 1e-12
        assert (
            abs(nl.operator_norm(a, method="power") - reference)
            <= 1e-8 * reference
        )


def test_norm_zero_operator(c6):
    z = nl.BandedOperator(c6, 1, np.zeros((6, 6)))
    assert nl.operator_norm(z, method="dense") == 0.0
    assert nl.operator_norm(z, method="power") == 0.0


def test_norm_unknown_method(c6):
    with pytest.raises(nl.InvalidParams):
        nl.operator_norm(nl.adjacency(c6), method="magic")


def test_apply(c6):
    a = nl.adjacency(c6)
    vec = np.zeros(6, dtype=complex)
    vec[0] = 1.0
    out = a.apply(vec)
    assert out[1] == 1.0 and out[5] == 1.0 and out[0] == 0.0
    with pytest.raises(nl.FormatError):
        a.apply(np.zeros(5))


def test_max_abs_entry(c6):
    a = 3.0 * nl.adjacency(c6)
    assert nl.max_abs_entry(a) == 3.0


def test_operator_json_round_trip(c6):
    a = nl.random_banded(c6, 1, seed=2)
    doc = nl.operator_to_json(a)
    back = nl.operator_from_json(doc)
    assert np.array_equal(back.to_dense(), a.to_dense())
    assert back.space.name == c6.name


def test_operator_json_round_trip_multislot(c6):
    a = nl.random_banded(c6, 1, seed=5, m=2)
    doc = nl.operator_to_json(a)
    back = nl.operator_from_json(doc)
    assert np.array_equal(back.to_dense(), a.to_dense())
    assert back.m == 2


def test_operator_json_rejects_out_of_range(c6):
    doc = {"m": 1, "entries": [[0, 7, 1.0, 0.0]]}
    with pytest.raises(nl.UnknownPoint):
        nl.operator_from_json(doc, space=c6)
    with pytest.raises(nl.FormatError):
        nl.operator_from_json({"m": 1, "entries": [[0, 1, 1.0]]}, space=c6)
    with pytest.raises(nl.FormatError):
        nl.operator_from_json({"entries": []})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_norm_is_subadditive_and_submultiplicative(seed):
    c12 = nl.generate_family("cycle", {"n": 12})
    a = nl.random_banded(c12, 1, seed=seed)
    b = nl.random_banded(c12, 2, seed=seed + 1)
    na, nb = nl.operator_norm(a), nl.operator_norm(b)
    assert nl.operator_norm(a + b) <= na + nb + 1e-9
    assert nl.operator_norm(a @ b) <= na * nb + 1e-9
    assert nl.propagation(a @ b) <= nl.propagation(a) + nl.propagation(b)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_adjoint_preserves_norm(seed):
    c12 = nl.generate_family("cycle", {"n": 12})
    a = nl.random_banded(c12, 2, seed=seed)
    assert abs(nl.operator_norm(a) - nl.operator_norm(a.adjoint())) < 1e-10


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_top_singular_values_match_oracle(c6):
    rng = np.random.default_rng(11)
    a2 = nl.random_banded(c6, 1, seed=6, m=2)
    comp = nl.compress(a2, 1)
    stacks = {
        "square": _complex_stack(rng, (5, 9, 9)),
        "tall": _complex_stack(rng, (5, 12, 5)),
        "wide": _complex_stack(rng, (5, 5, 12)),
        "real": rng.standard_normal((5, 7, 7)),
        "zero": np.zeros((3, 6, 6), dtype=complex),
        "m=2": np.stack([comp.block(x) for x in range(c6.n)]),
    }
    for name, stack in stacks.items():
        got = nl.top_singular_values(stack)
        assert got.shape == stack.shape[:-2], name
        for value, matrix in zip(got, stack):
            reference = dense_norm(matrix)
            assert abs(value - reference) <= 1e-13 * reference, name
    matrix = stacks["tall"][0]
    assert nl.top_singular_values(matrix).shape == ()
    assert abs(nl.top_singular_values(matrix) - dense_norm(matrix)) <= (
        1e-13 * dense_norm(matrix)
    )
    assert nl.top_singular_values(np.zeros((4, 0, 3))).tolist() == [0.0] * 4


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
def test_norms_scale_across_the_float_range(scale):
    # Without scaling inside the kernel, the Gram of these operators
    # underflows to zero or overflows.
    c12 = nl.generate_family("cycle", {"n": 12})
    a = nl.random_banded(c12, 1, seed=5)
    scaled = a * scale
    pairs = [
        (nl.operator_norm(scaled), nl.operator_norm(a)),
        (nl.compress(scaled, 2).norm(), nl.compress(a, 2).norm()),
        (
            nl.best_localized_vector(scaled, 2).column_norm,
            nl.best_localized_vector(a, 2).column_norm,
        ),
    ]
    for got, unit in pairs:
        assert unit > 0
        assert abs(got - scale * unit) <= 1e-13 * scale * unit


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
def test_non_finite_entries_raise_data_error(c6, bad):
    stack = np.ones((2, 3, 3), dtype=complex)
    stack[1, 2, 0] = bad
    with pytest.raises(nl.DataError):
        nl.top_singular_values(stack)
    data = nl.adjacency(c6).to_dense()
    data[0, 1] = bad
    a = nl.BandedOperator(c6, 1, data)
    with pytest.raises(nl.DataError):
        nl.operator_norm(a, method="dense")
    with pytest.raises(nl.DataError):
        nl.compress(a, 1).norm()
    with pytest.raises(nl.DataError):
        nl.best_localized_vector(a, 1)
