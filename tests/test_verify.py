"""The seeded stream behind verify's checks (verify.SeededStream)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from wavedamp.verify import SeededStream

MASK = 2 ** 64 - 1
seeds = st.integers(0, MASK)
groups = st.integers(0, 2 ** 63)


def splitmix64(state, count):
    """The first count outputs of SplitMix64 from state, one word at a time."""
    words = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        words.append(z ^ (z >> 31))
    return words


def test_the_stream_is_splitmix64_with_box_muller():
    # seed 0, group 0 starts SplitMix64 at 0 (its finalizer fixes 0), whose first word is the
    # published 0xe220a8397b1dcdaf; value p takes words 2p and 2p + 1
    words = splitmix64(0, 40)
    assert words[0] == 0xE220A8397B1DCDAF
    u = [(w >> 11) * 2.0 ** -53 for w in words]
    uniforms = SeededStream(0, 0).uniform(0.0, 1.0, size=20)
    assert uniforms.tolist() == u[0::2]
    normals = SeededStream(0, 0).standard_normal(20)
    expected = [math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2)
                for u1, u2 in zip(u[0::2], u[1::2])]
    np.testing.assert_allclose(normals, expected, rtol=1e-15, atol=1e-15)


draws = st.lists(st.tuples(st.sampled_from(["uniform", "normal"]),
                           st.one_of(st.none(), st.integers(1, 40))), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, group=groups, sequence=draws)
def test_any_split_of_a_draw_equals_the_block(seed, group, sequence):
    # value p of either kind depends only on (seed, group, p): successive draws of mixed kinds
    # and sizes read the slices of one block draw of each kind at the same positions
    total = sum(1 if size is None else size for _, size in sequence)
    blocks = {"uniform": SeededStream(seed, group).uniform(-2.0, 3.0, size=total),
              "normal": SeededStream(seed, group).standard_normal((total,))}
    stream = SeededStream(seed, group)
    position = 0
    for kind, size in sequence:
        if kind == "uniform":
            value = stream.uniform(-2.0, 3.0, size)
        else:
            value = stream.normal(size=1 if size is None else size)
        count = 1 if size is None else size
        assert np.array_equal(np.ravel(value), blocks[kind][position:position + count])
        position += count


@settings(max_examples=60, deadline=None)
@given(first=st.tuples(seeds, groups), second=st.tuples(seeds, groups))
def test_distinct_seeds_and_groups_give_distinct_streams(first, second):
    a = SeededStream(*first).uniform(0.0, 1.0, size=4)
    b = SeededStream(*second).uniform(0.0, 1.0, size=4)
    assert np.array_equal(a, b) == (first == second)


def test_verify_groups_at_nearby_seeds_are_distinct():
    # the seven groups of run_checks at seeds 0-99: no two of the 700 streams share a value
    firsts = {float(SeededStream(seed, group).uniform(0.0, 1.0))
              for seed in range(100) for group in range(7)}
    assert len(firsts) == 700


@settings(max_examples=40, deadline=None)
@given(seed=seeds, group=groups)
def test_uniforms_lie_in_range_and_normals_are_finite(seed, group):
    stream = SeededStream(seed, group)
    for low, high in ((0.0, 1.0), (0.55, 1.0), (0.1, 10.0), (0.01, 1.0)):
        values = stream.uniform(low, high, size=500)
        assert np.all((low <= values) & (values < high))
    assert np.all(np.isfinite(stream.standard_normal((2, 500))))


def test_normals_have_unit_moments():
    values = SeededStream(20260809, 0).standard_normal(100_000)
    assert abs(values.mean()) < 0.02
    assert abs(values.var() - 1.0) < 0.02
