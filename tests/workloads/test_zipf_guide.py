"""The guided Zipf draw against the plain ``searchsorted`` it narrows."""

import numpy as np
import pytest

from repro.workloads.zipf import ZipfGenerator

THETAS = [0.0, 0.5, 0.99, 1.5]
SIZES = [1, 2, 7, 64, 30_000, 10**6]
#: 512 is the smallest draw that builds a table; 70,000 builds a 2^15 one.
COUNTS = [0, 1, 511, 512, 513, 5_000, 70_000]


def plain(generator, uniform):
    return np.searchsorted(generator._cdf, uniform, side="left")


@pytest.fixture(scope="module", params=[(t, n) for t in THETAS for n in SIZES],
                ids=lambda p: f"theta{p[0]}-n{p[1]}")
def twins(request):
    theta, n = request.param
    return [[ZipfGenerator(n, theta=theta, scramble=scramble, seed=9)
             for _ in range(2)] for scramble in (False, True)]


def test_sample_equals_the_plain_search(twins):
    """Every count, in one continuing stream per generator, so the
    draws also continue exactly across calls."""
    for guided, reference in twins:
        for count in COUNTS:
            ranks = plain(reference, reference._rng.random(count))
            if reference._permutation is not None:
                ranks = reference._permutation[ranks]
            drawn = guided.sample(count)
            assert drawn.dtype == np.int64 and drawn.shape == (count,)
            assert np.array_equal(drawn, ranks)


def test_hand_fed_edges(twins):
    """0.0, the largest double below 1.0, values exactly on a cdf entry
    and their neighbours on either side — at a length that builds a
    table and at one that does not."""
    generator = twins[0][0]
    cdf = generator._cdf
    entries = cdf[np.unique(np.linspace(0, len(cdf) - 1, 300).astype(int))]
    edges = np.concatenate((
        [0.0, np.nextafter(1.0, 0.0)], entries,
        np.nextafter(entries, 0.0), np.nextafter(entries, 1.0),
        np.arange(64) / 64))
    edges = edges[edges < 1.0]
    for uniform in (edges, np.tile(edges, 40)):
        assert np.array_equal(generator._ranks(uniform),
                              plain(generator, uniform))


def test_the_table_is_used_and_refused_where_it_should_be(monkeypatch):
    """A skewed cdf answers most of a large draw without a search, a
    flat one over more ranks than buckets is searched plainly, and a
    small draw builds no table."""
    searched = []
    real = np.searchsorted

    def spy(haystack, keys, side="left"):
        searched.append(len(keys))
        return real(haystack, keys, side=side)

    monkeypatch.setattr(np, "searchsorted", spy)
    uniform = np.random.default_rng(3).random(100_000)
    ZipfGenerator(30_000, theta=0.99)._ranks(uniform)
    table, rest = searched
    assert table == 2**15 + 1 and rest < len(uniform) // 4
    del searched[:]
    ZipfGenerator(10**6, theta=0.0)._ranks(uniform)
    assert searched == [2**15 + 1, len(uniform)]
    del searched[:]
    ZipfGenerator(30_000, theta=0.99)._ranks(uniform[:511])
    assert searched == [511]


def test_one_and_the_mass_queries_are_unchanged():
    generator, reference = (ZipfGenerator(1_000, theta=0.99, seed=4)
                            for _ in range(2))
    expected = plain(reference, reference._rng.random(5))
    assert [generator.one() for _ in range(5)] == expected.tolist()
    cdf = generator._cdf
    assert generator.probability_of_rank(0) == float(cdf[0])
    assert generator.probability_of_rank(7) == float(cdf[7] - cdf[6])
    assert generator.hot_set_mass(0.1) == float(cdf[99])
