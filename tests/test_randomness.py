import math

import numpy as np
import pytest

from alteration_lab.graphs import complete_graph
from alteration_lab.randomness import (
    RandomSource,
    clamp_probability,
    derive_labels,
    sample_gnp,
    sample_uniform_hypergraph,
)


def test_gnp_trivial_probabilities():
    src = RandomSource(1)
    assert sample_gnp(5, 0.0, src.stream("a")).num_edges == 0
    assert sample_gnp(4, 1.0, src.stream("b")) == complete_graph(4)


def test_gnp_rejects_bad_inputs():
    src = RandomSource(1)
    with pytest.raises(ValueError):
        sample_gnp(5, -0.1, src.stream("a"))
    with pytest.raises(ValueError):
        sample_gnp(5, 1.1, src.stream("a"))
    with pytest.raises(ValueError):
        sample_gnp(-1, 0.5, src.stream("a"))


def test_gnp_binomial_mean():
    # Mean edge count over seeded trials within 3 sigma of Bin(C(100,2), 0.5).
    src = RandomSource(2024)
    trials = 10_000
    total = sum(sample_gnp(100, 0.5, src.stream("gnp-mean", t)).num_edges for t in range(trials))
    mean = total / trials
    expected = math.comb(100, 2) * 0.5
    sigma = math.sqrt(math.comb(100, 2) * 0.25 / trials)
    assert abs(mean - expected) <= 3 * sigma


def test_hypergraph_sampler_trivial_and_errors():
    src = RandomSource(3)
    full = sample_uniform_hypergraph(4, 3, 1.0, src.stream("a"))
    assert full.num_edges == 4
    empty = sample_uniform_hypergraph(6, 3, 0.0, src.stream("b"))
    assert empty.num_edges == 0
    with pytest.raises(ValueError):
        sample_uniform_hypergraph(5, 1, 0.5, src.stream("c"))
    with pytest.raises(ValueError):
        sample_uniform_hypergraph(2, 3, 0.5, src.stream("c"))


def test_hypergraph_binomial_mean():
    src = RandomSource(77)
    trials = 10_000
    total = sum(
        sample_uniform_hypergraph(10, 3, 0.2, src.stream("h-mean", t)).num_edges
        for t in range(trials)
    )
    mean = total / trials
    expected = math.comb(10, 3) * 0.2
    sigma = math.sqrt(math.comb(10, 3) * 0.2 * 0.8 / trials)
    assert abs(mean - expected) <= 3 * sigma


def test_streams_reproducible_and_distinct():
    a = RandomSource(42).stream("tag", 5).random(8)
    b = RandomSource(42).stream("tag", 5).random(8)
    assert np.array_equal(a, b)
    c = RandomSource(42).stream("tag", 6).random(8)
    d = RandomSource(42).stream("other", 5).random(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        RandomSource(42).stream("tag", -1)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_uniforms_match_stream_draws_bit_for_bit(seed):
    # Starts 2**32 - 2 and 2**40 + 5 put the index's high word at 0 -> 1 and
    # above it; m covers empty, single, odd and longer-than-64 draws.
    src = RandomSource(seed)
    for tag in ("tail", "gnp-mean", "ramsey-search/0/1"):
        for start in (0, 3, 2**32 - 2, 2**40 + 5):
            for m in (0, 1, 7, 45, 100):
                got = src.uniforms(tag, start, start + 4, m)
                want = [src.stream(tag, i).random(m) for i in range(start, start + 4)]
                assert got.dtype == np.float64 and got.shape == (4, m)
                assert got.tobytes() == np.array(want).reshape(4, m).tobytes()


def test_uniforms_range_checks():
    src = RandomSource(5)
    assert src.uniforms("t", 7, 7, 3).shape == (0, 3)
    for start, stop, m in ((-1, 2, 3), (4, 3, 3), (0, 2**64 + 1, 3), (0, 2, -1)):
        with pytest.raises(ValueError):
            src.uniforms("t", start, stop, m)


def test_stream_and_key_indices_are_64_bit_words():
    src = RandomSource(2**64 - 1)
    for index in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            src.stream("t", index)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            src.key_bytes("t", index)
    # 2**64 once aliased index 0; the top index is a stream of its own.
    assert src.stream("t", 2**64 - 1).random(2).tobytes() != src.stream("t", 0).random(2).tobytes()
    assert len({src.key_bytes("t", i) for i in (0, 2**63, 2**64 - 1)}) == 3
    # Indices that were valid before keep their keys, and so every edge label.
    expected = {
        0: "706e452604c351002ff4f4e81356d7bf",
        5: "de21c6dd77b5716f6f0530bd4ae41e18",
        2**32 + 1: "bb73579180e35d66a4ee44cab438cf6f",
        2**63 - 1: "c5502ca8e0639f9ca9e6b817de608a9b",
    }
    for index, key in expected.items():
        assert src.key_bytes("edge-labels", index).hex() == key


def test_seed_is_a_64_bit_word():
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            RandomSource(seed)
    # 2**64 once aliased seed 0, and -1 the top seed; the ends of the range stay valid.
    top = RandomSource(2**64 - 1).stream("t").random(2).tobytes()
    assert top != RandomSource(0).stream("t").random(2).tobytes()


def test_label_table_fixed_once_and_in_range():
    labels = derive_labels(20, RandomSource(9))
    first = labels.label(3, 11)
    assert labels.label(11, 3) == first
    assert 0.0 <= first < 1.0
    again = derive_labels(20, RandomSource(9))
    assert again.label(3, 11) == first
    with pytest.raises(ValueError):
        labels.label(3, 3)
    with pytest.raises(ValueError):
        labels.label(0, 20)


def test_threshold_views_trivial():
    labels = derive_labels(7, RandomSource(10))
    assert labels.threshold_graph(0.0).num_edges == 0
    assert labels.threshold_graph(1.0) == complete_graph(7)


def test_threshold_monotone_coupling_over_seeds():
    for seed in range(100):
        labels = derive_labels(12, RandomSource(seed))
        low = labels.threshold_graph(0.3)
        high = labels.threshold_graph(0.5)
        assert low.edge_set <= high.edge_set


def test_threshold_distribution_matches_gnp_mean():
    # Threshold views at p reproduce the binomial edge-count mean.
    trials = 2000
    p = 0.3
    total = sum(
        derive_labels(15, RandomSource(1000), index=t).threshold_graph(p).num_edges
        for t in range(trials)
    )
    mean = total / trials
    expected = math.comb(15, 2) * p
    sigma = math.sqrt(math.comb(15, 2) * p * (1 - p) / trials)
    assert abs(mean - expected) <= 3 * sigma


def test_clamp_probability():
    with pytest.warns(UserWarning):
        p, clamped = clamp_probability(1.7)
    assert p == 1.0 and clamped
    p2, clamped2 = clamp_probability(0.3)
    assert p2 == 0.3 and not clamped2
    with pytest.raises(ValueError):
        clamp_probability(-0.2)
