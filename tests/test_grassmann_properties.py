"""Property tests: the sign rules of the exterior algebra.

``_merge_sign`` is checked against a brute-force inversion count, and
``wedge`` and ``berezin`` against the defining identities of the algebra.
Coefficients are small integers, so every comparison is exact.
"""

import itertools

import pytest

from opcalc.grassmann import MultiVector, _merge_sign, berezin

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)
MAX_N = 6


def indices(mask):
    return [j for j in range(MAX_N) if mask >> j & 1]


def inversion_sign(order):
    """(-1)^(number of out-of-order pairs) of a sequence of distinct ints."""
    inversions = sum(a > b for a, b in itertools.combinations(order, 2))
    return -1 if inversions % 2 else 1


@st.composite
def multivectors(draw, n):
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return MultiVector(n, {m: draw(st.integers(-3, 3)) for m in masks})


@SETTINGS
@hypothesis.given(
    pair=st.integers(0, (1 << MAX_N) - 1).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(0, (1 << MAX_N) - 1).map(lambda t: t & ~s))
    )
)
def test_merge_sign_counts_inversions_of_the_concatenation(pair):
    left, right = pair
    assert _merge_sign(left, right) == inversion_sign(indices(left) + indices(right))
    # swapping the blocks moves every element of one past every element of the other
    swap = -1 if bin(left).count("1") * bin(right).count("1") % 2 else 1
    assert _merge_sign(right, left) == swap * _merge_sign(left, right)


@SETTINGS
@hypothesis.given(
    abc=st.integers(1, MAX_N).flatmap(lambda n: st.tuples(*(multivectors(n),) * 3))
)
def test_wedge_is_associative(abc):
    a, b, c = abc
    assert a.wedge(b).wedge(c).coeffs == a.wedge(b.wedge(c)).coeffs


@SETTINGS
@hypothesis.given(
    nij=st.integers(1, MAX_N).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(1, n))
    )
)
def test_generators_anticommute_and_square_to_zero(nij):
    n, i, j = nij
    ei, ej = MultiVector.generator(n, i), MultiVector.generator(n, j)
    assert ei.wedge(ej).coeffs == (-ej.wedge(ei)).coeffs
    assert ei.wedge(ei).is_zero()
    if i != j:
        assert not ei.wedge(ej).is_zero()


@SETTINGS
@hypothesis.given(order=st.integers(1, MAX_N).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_berezin_reads_the_top_monomial_with_its_sign(order):
    n = len(order)
    assert berezin(MultiVector.monomial(n, range(1, n + 1))) == 1
    product = MultiVector.one(n)
    for j in order:
        product = product.wedge(MultiVector.generator(n, j))
    assert berezin(product) == inversion_sign(order)
