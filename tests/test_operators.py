import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normloc as nl
from helpers import (
    ball_block,
    block_support,
    count_factorizations,
    dense_norm,
    identity,
    literal_random_banded,
    matrix_unit,
)


def test_adjacency_structure(c6):
    a = nl.adjacency(c6)
    assert a.data[0, 1] == 1
    assert a.data[0, 2] == 0
    assert nl.propagation(a) == 1
    assert a.support.sum() == 12


def test_identity_and_matrix_unit(c6):
    one = identity(c6)
    assert np.array_equal(one.data, np.eye(6))
    assert nl.propagation(one) == 0
    e = matrix_unit(c6, 1, 4)
    assert e.data[1, 4] == 1
    assert e.data.sum() == 1
    assert nl.propagation(e) == 3
    with pytest.raises(nl.UnknownPoint):
        matrix_unit(c6, 0, 6)


def test_arithmetic_and_supports(c6):
    a = nl.adjacency(c6)
    e = matrix_unit(c6, 0, 3)
    s = a + e
    assert s.support[0, 3]
    assert s.support[0, 1]
    assert np.array_equal(s.data, a.data + e.data)
    d = s - e
    assert np.array_equal(d.data, a.data)
    # the support is read from the data, so a cancelled slot leaves it
    assert not d.support[0, 3]
    assert np.array_equal(d.support, a.support)
    assert nl.propagation(d) == 1
    neg = -a
    assert neg.data[1, 0] == -1
    scaled = 2.5 * a
    assert scaled.data[0, 1] == 2.5


def test_matmul_support_is_nonzero_pattern(c6):
    a = nl.adjacency(c6)
    sq = a @ a
    assert np.array_equal(sq.data, a.data @ a.data)
    assert nl.propagation(sq) == 2
    # distance-2 pairs are reachable, distance-3 pairs are not
    assert sq.support[0, 2]
    assert not sq.support[0, 3]


def test_adjoint(c6):
    a = nl.random_banded(c6, 2, seed=3)
    adj = a.adjoint()
    assert np.array_equal(adj.data, a.data.conj().T)
    assert np.array_equal(adj.support, a.support.T)


def test_operator_mismatch_rejected(c6, p4):
    with pytest.raises(nl.DataError):
        nl.adjacency(c6) + nl.adjacency(p4)
    with pytest.raises(nl.DataError):
        nl.adjacency(c6) @ nl.random_banded(c6, 1, seed=0, m=2)


@pytest.mark.parametrize("m", [1, 2])
def test_support_is_the_nonzero_block_pattern(c6, m):
    a = nl.random_banded(c6, 1, seed=m, m=m)
    data =np.zeros((6 * m, 6 * m), dtype=complex)
    data[m - 1, 3 * m] = 1.0
    e = nl.BandedOperator(c6, m, data)
    for op in (a, e, a + e, (a + e) - e, a @ a, a.adjoint(), -a, a * 0):
        assert np.array_equal(op.support, block_support(op))
        assert nl.propagation(op) == nl.space.largest_distance(
            c6, block_support(op)
        )
    assert (a + e).support[0, 3] and not ((a + e) - e).support[0, 3]
    assert not (a * 0).support.any() and nl.propagation(a * 0) == 0


def test_support_is_read_only_and_computed_once(c6):
    a = nl.random_banded(c6, 1, seed=0)
    support = a.support
    assert a.support is support
    with pytest.raises(ValueError):
        support[0, 3] = True
    with pytest.raises(AttributeError):
        a.support = np.ones((6, 6), dtype=bool)


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
    assert np.array_equal(a.data, b.data)
    outside = c60.dist > 2
    assert not a.data[outside].any()
    inside = c60.dist <= 2
    assert (a.data[inside] != 0).all()
    assert nl.propagation(a) == 2


def test_random_banded_matches_literal_route(c6, grid3):
    tree = nl.generate_family("binary_tree", {"depth": 3})
    for space in (c6, grid3, tree):
        for m in (1, 2, 3):
            for radius in (0, 1, 2):
                for seed in range(5):
                    a = nl.random_banded(space, radius, seed, m)
                    want = literal_random_banded(space, radius, seed, m)
                    assert a.data.tobytes() == want.tobytes()


def test_random_banded_multislot(c6):
    a = nl.random_banded(c6, 1, seed=4, m=3)
    assert a.data.shape == (18, 18)
    assert a.data[0:3, 3:6].all()
    assert not a.data[0:3, 6:9].any()


def test_random_banded_refuses_a_table_past_the_entry_bound():
    # 3 points and 2731 slots make a side of 8193, one past the side whose
    # square is MAX_TABLE_ENTRIES = 2**26; the tables would take at least
    # 1.9 GB.
    p3 = nl.generate_family("path", {"n": 3})
    assert (3 * 2731) ** 2 > nl.space.MAX_TABLE_ENTRIES >= (3 * 2730) ** 2
    with pytest.raises(nl.DataError, match="operator entries exceed 67108864"):
        nl.random_banded(p3, 1, seed=0, m=2731)


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
        reference = dense_norm(a.data)
        assert abs(nl.operator_norm(a, method="dense") - reference) < 1e-12
        assert (
            abs(nl.operator_norm(a, method="power") - reference)
            <= 1e-8 * reference
        )


def test_norm_zero_operator(c6):
    z = nl.BandedOperator(c6, 1, np.zeros((6, 6)))
    assert nl.operator_norm(z, method="dense") == 0.0
    assert nl.operator_norm(z, method="power") == 0.0


def test_operator_keeps_its_norm(c60, monkeypatch):
    # The auto route is computed once per operator, with the dense route's
    # bits, and the other routes are computed on every call.
    a = nl.random_banded(c60, 1, seed=3)
    counts = count_factorizations(monkeypatch)
    norm = nl.operator_norm(a)
    assert counts == {"eigvalsh": 1, "eigh": 0}
    assert nl.operator_norm(a) == norm
    assert counts == {"eigvalsh": 1, "eigh": 0}
    assert nl.operator_norm(a, method="dense") == norm
    assert counts == {"eigvalsh": 2, "eigh": 0}
    with pytest.raises(AttributeError):
        a._norm = 0.0


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
    stacks = {
        "square": _complex_stack(rng, (5, 9, 9)),
        "tall": _complex_stack(rng, (5, 12, 5)),
        "wide": _complex_stack(rng, (5, 5, 12)),
        "real": rng.standard_normal((5, 7, 7)),
        "zero": np.zeros((3, 6, 6), dtype=complex),
        "m=2": np.stack([ball_block(a2, x, 1) for x in range(c6.n)]),
    }
    for name, stack in stacks.items():
        got = nl.top_singular_values(stack)
        assert got.shape == stack.shape[:-2], name
        for value, matrix in zip(got, stack):
            reference = dense_norm(matrix)
            assert abs(value - reference) <= 1e-13 * reference, name
            sigma, right = nl.top_singular_pair(matrix)
            assert abs(sigma - reference) <= 1e-13 * reference, name
            assert abs(np.linalg.norm(right) - 1) <= 1e-13, name
            attained = np.linalg.norm(matrix @ right)
            assert abs(attained - reference) <= 1e-12 * reference, name
    matrix = stacks["tall"][0]
    assert nl.top_singular_values(matrix).shape == ()
    assert abs(nl.top_singular_values(matrix) - dense_norm(matrix)) <= (
        1e-13 * dense_norm(matrix)
    )
    assert nl.top_singular_values(np.zeros((4, 0, 3))).tolist() == [0.0] * 4


def test_repeated_matrices_are_factorized_once(monkeypatch):
    rng = np.random.default_rng(5)
    distinct = _complex_stack(rng, (3, 4, 6))
    stack = np.stack([distinct[0], distinct[1], distinct[0], distinct[2],
                      distinct[0], distinct[1]])
    one_by_one = [nl.top_singular_values(matrix) for matrix in stack]
    counts = count_factorizations(monkeypatch)
    got = nl.top_singular_values(stack.reshape(2, 3, 4, 6))
    assert counts["eigvalsh"] == 3
    assert got.shape == (2, 3)
    assert got.ravel().tobytes() == np.array(one_by_one).tobytes()


def test_signed_zeros_are_not_repeats(monkeypatch):
    # -0.0 and 0.0 share a fingerprint but not their bits, so the bitwise
    # check refuses the repeat and every matrix is factorized.
    rng = np.random.default_rng(8)
    matrix = _complex_stack(rng, (4, 6))
    matrix[0] = 0.0
    negzero = matrix.copy()
    negzero[0] = complex(-0.0, 0.0)
    stack = np.stack([matrix, negzero, matrix])
    counts = count_factorizations(monkeypatch)
    got = nl.top_singular_values(stack)
    assert counts["eigvalsh"] == 3
    assert got.tobytes() == np.array(
        [nl.top_singular_values(m) for m in stack]
    ).tobytes()


def test_fingerprint_collision_factorizes_every_matrix(monkeypatch):
    # Zero weights give every matrix one fingerprint; the bitwise check
    # then finds the collision and the whole stack is factorized.
    monkeypatch.setattr(
        nl.operators, "_fingerprint_weights", lambda size: np.zeros(size)
    )
    rng = np.random.default_rng(6)
    distinct = _complex_stack(rng, (2, 3, 3))
    stack = np.stack([distinct[0], distinct[1], distinct[0]])
    counts = count_factorizations(monkeypatch)
    got = nl.top_singular_values(stack)
    assert counts["eigvalsh"] == 3
    assert got[0] == got[2] == nl.top_singular_values(distinct[0])
    assert got[1] == nl.top_singular_values(distinct[1])


def test_values_outlive_the_scratch_arrays():
    # Stacks are scaled and multiplied in arrays each thread keeps; the
    # values returned are fresh, so a later call leaves them alone.
    rng = np.random.default_rng(9)
    first, second = _complex_stack(rng, (2, 120, 8, 9))
    values = nl.top_singular_values(first)
    kept = values.copy()
    nl.top_singular_values(second)
    assert values.tobytes() == kept.tobytes()


def test_threads_keep_their_own_scratch():
    # 95 KB each, so every thread works in arrays it keeps
    stacks = [_complex_stack(np.random.default_rng(s), (60, 9, 11))
              for s in range(6)]
    expected = [nl.top_singular_values(s).tobytes() for s in stacks]
    with ThreadPoolExecutor(2) as pool:
        for _ in range(3):
            got = pool.map(lambda s: nl.top_singular_values(s).tobytes(), stacks)
            assert list(got) == expected


@pytest.mark.parametrize("sizes", [(0, 0), (0, 1 << 30)], ids=["fresh", "kept"])
def test_kept_and_fresh_arrays_give_the_same_bits(monkeypatch, sizes):
    rng = np.random.default_rng(10)
    stacks = [_complex_stack(rng, (7, 6, 5)), rng.standard_normal((4, 3, 8))]
    expected = [nl.top_singular_values(s).tobytes() for s in stacks]
    monkeypatch.setattr(nl.operators, "_SCRATCH_BYTES", sizes)
    assert [nl.top_singular_values(s).tobytes() for s in stacks] == expected


def test_real_stacks_keep_the_symmetric_product():
    # A real array's conjugate is the array itself, and numpy multiplies
    # an array by its own transpose with a symmetric product whose bits
    # differ from those of the general one, so no conjugate copy is made.
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((30, 7, 9))
    exponent = np.frexp(np.abs(stack).max(axis=(1, 2)))[1]
    scaled = stack * np.ldexp(1.0, -exponent)[:, None, None]
    gram = scaled @ np.swapaxes(scaled.conj(), -1, -2)
    expected = np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[:, -1]), exponent)
    assert nl.top_singular_values(stack).tobytes() == expected.tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
def test_norms_scale_across_the_float_range(scale):
    # Without scaling inside the kernel, the Gram of these operators
    # underflows to zero or overflows.
    c12 = nl.generate_family("cycle", {"n": 12})
    a = nl.random_banded(c12, 1, seed=5)
    scaled = a * scale
    reduced = nl.vector_amplification_reduction(scaled)
    pairs = [
        (nl.operator_norm(scaled), nl.operator_norm(a)),
        (
            nl.operator_norm(scaled, method="power"),
            nl.operator_norm(a, method="power"),
        ),
        (
            reduced.input_norm,
            nl.vector_amplification_reduction(a).input_norm,
        ),
        (nl.compress(scaled, 2).norm(), nl.compress(a, 2).norm()),
        (
            nl.best_localized_vector(scaled, 2).column_norm,
            nl.best_localized_vector(a, 2).column_norm,
        ),
    ]
    for got, unit in pairs:
        assert unit > 0
        assert abs(got - scale * unit) <= 1e-13 * scale * unit
    assert reduced.achieved_fraction >= 1 - 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
def test_non_finite_entries_raise_data_error(c6, bad):
    stack = np.ones((2, 3, 3), dtype=complex)
    stack[1, 2, 0] = bad
    with pytest.raises(nl.DataError):
        nl.top_singular_values(stack)
    # a repeated bad matrix is one matrix factorized once, and still raises
    for repeated in (stack[[1, 1]], stack[[0, 1, 0, 1]]):
        with pytest.raises(nl.DataError):
            nl.top_singular_values(repeated)
    with pytest.raises(nl.DataError):
        nl.top_singular_pair(stack[1])
    data = nl.adjacency(c6).data.copy()
    data[0, 1] = bad
    # refused at construction, so no norm, compression or search sees it
    with pytest.raises(nl.DataError):
        nl.BandedOperator(c6, 1, data)


@pytest.mark.parametrize(
    "m,error",
    [(1.7, nl.FormatError), (True, nl.FormatError), ("2", nl.FormatError),
     (2.0, nl.FormatError), (-1, nl.InvalidParams)],
    ids=["float", "bool", "string", "integral-float", "negative"],
)
def test_slot_count_is_a_positive_integer(c6, m, error):
    with pytest.raises(error):
        nl.BandedOperator(c6, m, np.eye(6))


@pytest.mark.parametrize("seed", [0, 1])
def test_top_pair_above_the_dense_limit(seed):
    # side 520 > DENSE_NORM_LIMIT, so the pair comes from power iteration
    c260 = nl.generate_family("cycle", {"n": 260})
    a = nl.random_banded(c260, 1, seed=seed, m=2)
    assert a.data.shape[0] > nl.operators.DENSE_NORM_LIMIT
    red = nl.vector_amplification_reduction(a)
    reference = dense_norm(a.data)
    assert abs(red.input_norm - reference) <= 1e-8 * reference
    assert red.achieved_fraction >= 1 - 1e-8


def test_power_iteration_cap_raises(c60, monkeypatch):
    monkeypatch.setattr(nl.operators, "POWER_STEP_CAP", 2)
    with pytest.raises(nl.ConvergenceFailure):
        nl.operator_norm(nl.random_banded(c60, 1, seed=0), method="power")
    c260 = nl.generate_family("cycle", {"n": 260})
    with pytest.raises(nl.ConvergenceFailure):
        nl.vector_amplification_reduction(
            nl.random_banded(c260, 1, seed=0, m=2)
        )


def test_library_has_one_top_singular_pair_routine():
    # Every largest singular value and vector comes from top_singular_values
    # or top_singular_pair; no second solver may creep back in.
    sources = sorted(Path(nl.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text()
        for banned in ("linalg.svd", "_top_right_vector"):
            assert banned not in text, f"{path.name} uses {banned}"
