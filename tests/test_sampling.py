"""Seeded SPD and density sampling."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanineq import (
    CampaignConfig,
    DomainError,
    UsageError,
    check_density,
    min_eigenvalue,
    sample_density,
    sample_matrix_space,
    sample_operator_triple,
    sample_scalar_space,
    sample_spd,
    split_rng,
    validate_config,
)
from meanineq.campaign import DEFAULT_ATOMS, DEFAULT_DIMS, _count_ranges
from meanineq.sampling import DEFAULT_FLOOR, _bounded, _fresh_state, fresh_counts, philox_keys, spd_stack
from meanineq.tolerances import COND_LIMIT


def test_spd_stack_is_exactly_symmetric():
    # spd_stack does not symmetrize: numpy's G G^T takes entries (i, j) and
    # (j, i) from the same products.  Pinned for 2-D factors, (3, n, n) and
    # (k, 3, n, n) stacks, and strided factors, so a numpy change that breaks
    # it is caught here.
    rng = split_rng(31, 0)
    for n in range(1, 65):
        strided = rng.standard_normal((2, 3, n + 1, 2 * n))[:, :, :n, ::2]
        for g in (rng.standard_normal((n, n)), rng.standard_normal((3, n, n)), rng.standard_normal((4, 3, n, n)), strided):
            s = spd_stack(g)
            assert np.array_equal(s, s.swapaxes(-1, -2)), (n, g.shape, g.strides)


def test_spd_stack_adds_the_floor_to_the_diagonal_only():
    # In place on the diagonal: the bits of G G^T + DEFAULT_FLOOR * I, whose
    # off-diagonal + 0.0 changes no entry of a Gaussian G G^T; g is untouched.
    rng = split_rng(31, 1)
    for shape in ((1, 1), (5, 5), (3, 7, 7), (4, 3, 64, 64)):
        g = rng.standard_normal(shape)
        before = g.copy()
        want = g @ g.swapaxes(-1, -2) + DEFAULT_FLOOR * np.eye(shape[-1])
        assert spd_stack(g).tobytes() == want.tobytes(), shape
        assert np.array_equal(g, before)


def test_spd_floor_guarantee():
    for k in range(20):
        a = sample_spd(4, split_rng(1, k))
        assert min_eigenvalue(a) >= 1e-3 - 1e-12


def test_spd_determinism():
    a = sample_spd(5, split_rng(9, 2, 3))
    b = sample_spd(5, split_rng(9, 2, 3))
    assert np.array_equal(a, b)
    c = sample_spd(5, split_rng(9, 2, 4))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("sampler", [sample_spd, sample_density])
@pytest.mark.parametrize("n", [2.5, True, 3.0, "3", None])
def test_samplers_need_an_integer_dimension(sampler, n):
    # A dimension that is not an integer is a usage error, not a TypeError
    # from inside numpy, and nothing is drawn.
    rng = split_rng(0, 0)
    with pytest.raises(UsageError, match="^dimension must be an integer"):
        sampler(n, rng)
    assert _state(rng) == _state(split_rng(0, 0))
    assert np.array_equal(sampler(np.int64(3), rng), sampler(3, split_rng(0, 0)))


def test_spd_rejects_bad_params():
    rng = split_rng(0, 0)
    with pytest.raises(UsageError):
        sample_spd(0, rng)


def test_density_n1_is_unit():
    rho = sample_density(1, split_rng(3, 0))
    assert rho == pytest.approx(np.array([[1.0]]))


def test_density_invariants_on_ensemble():
    for k in range(50):
        rng = split_rng(4, k)
        n = int(rng.integers(1, 7))
        rho = sample_density(n, rng)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        lam = np.linalg.eigvalsh(rho)
        assert lam[0] >= -1e-12
        assert lam[-1] <= 1.0 + 1e-12


def test_density_reproducible():
    a = sample_density(3, split_rng(77, 1))
    b = sample_density(3, split_rng(77, 1))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 64])
def test_samplers_are_valid_by_construction(n):
    # The campaign samplers skip validation, so their output must pass it.
    for k in range(5):
        rng = split_rng(21, n, k)
        check_density(sample_density(n, rng))
        lam = np.linalg.eigvalsh(sample_spd(n, rng))
        assert lam[0] >= DEFAULT_FLOOR - 1e-12
        assert lam[-1] / lam[0] <= COND_LIMIT


def _state(rng):
    # Philox's state dict holds small arrays; its repr shows every element.
    return repr(rng.bit_generator.state)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_stacked_samplers_keep_the_per_atom_stream(n):
    # Stream contract: all atoms come from one draw, bit for bit the same as
    # sample_density, sample_spd, sample_spd per atom, leaving the same state.
    rng, ref = split_rng(31, n), split_rng(31, n)
    space = sample_matrix_space(rng, dims=(n, n), atoms=(4, 6))
    ref.integers(n, n + 1)
    k = int(ref.integers(4, 7))
    ref.exponential(1.0, size=k)
    assert len(space.p) == k
    for i in range(k):
        assert np.array_equal(space.rho[i], sample_density(n, ref))
        assert np.array_equal(space.x[i], sample_spd(n, ref))
        assert np.array_equal(space.y[i], sample_spd(n, ref))
    assert _state(rng) == _state(ref)

    rng, ref = split_rng(32, n), split_rng(32, n)
    rho, a, b = sample_operator_triple(rng, dims=(n, n))
    ref.integers(n, n + 1)
    assert np.array_equal(rho, sample_density(n, ref))
    assert np.array_equal(a, sample_spd(n, ref))
    assert np.array_equal(b, sample_spd(n, ref))
    assert _state(rng) == _state(ref)


@pytest.mark.parametrize(
    "sampler, ranges",
    [
        (sample_scalar_space, {"atoms": (0, 0)}),
        (sample_scalar_space, {"atoms": (3, 1)}),
        (sample_operator_triple, {"dims": (0, 0)}),
        (sample_operator_triple, {"dims": (65, 65)}),
    ],
    ids=["atoms-0-0", "atoms-3-1", "dims-0-0", "dims-65-65"],
)
def test_samplers_reject_bad_ranges_before_drawing(sampler, ranges):
    # A sampler rejects a range as validate_config does, with its message,
    # and its generator has drawn nothing.
    with pytest.raises(UsageError) as expected:
        validate_config(CampaignConfig("rm", ("geometric",), 1, **ranges))
    assert str(expected.value).startswith(f"{next(iter(ranges))} range must satisfy")
    rng = split_rng(12, 0)
    before = _state(rng)
    with pytest.raises(UsageError) as exc:
        sampler(rng, **ranges)
    assert str(exc.value) == str(expected.value)
    assert _state(rng) == before


def test_check_density_rejects():
    with pytest.raises(DomainError):
        check_density(np.eye(2))  # trace 2
    with pytest.raises(DomainError):
        check_density(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_split_paths_are_independent():
    x = split_rng(5, 0, 0).normal(size=8)
    y = split_rng(5, 0, 1).normal(size=8)
    z = split_rng(5, 1, 0).normal(size=8)
    assert not np.allclose(x, y)
    assert not np.allclose(x, z)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.5, 0), "seed must be an integer, got 1.5"),
        ((True, 0), "seed must be an integer, got True"),
        ((-0.5,), "seed must be an integer, got -0.5"),
        ((-1, 0), "seed must be a non-negative integer, got -1"),
        ((0, 2.9), "path entry must be an integer, got 2.9"),
        ((0, 1, False), "path entry must be an integer, got False"),
        ((0, -1), "path entries must be non-negative, got (-1,)"),
    ],
    ids=["seed-float", "seed-bool", "seed-negative-float", "seed-negative", "path-float", "path-bool", "path-negative"],
)
def test_split_rng_needs_non_negative_integers(args, message):
    # Each of these once drew another (seed, path)'s stream, or raised
    # numpy's ValueError, instead of a usage error.
    with pytest.raises(UsageError) as exc:
        split_rng(*args)
    assert str(exc.value) == message


def test_split_rng_takes_numpy_integers():
    assert _state(split_rng(np.int64(3), np.uint64(2), np.int32(1))) == _state(split_rng(3, 2, 1))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 9, 2**200 + 12345]
SPAWN = [0, 1, 7, 2**32 - 1, 2**32, 2**33]
TRIALS = [0, 1, 99, 2**32 - 1, 2**32, 2**32 + 5, 2**40]


def _seed_sequence_key(seed, fi, t):
    return np.random.SeedSequence(entropy=seed, spawn_key=(fi, t)).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_keys_are_the_seed_sequence_keys(seed):
    # Pairs with one- and two-word fi and t share a call, so pairs whose
    # spawn keys have different lengths are mixed side by side.
    pairs = [(fi, t) for fi in SPAWN for t in TRIALS]
    keys = philox_keys(seed, [fi for fi, _ in pairs], [t for _, t in pairs])
    assert keys.shape == (len(pairs), 2) and keys.dtype == np.uint64
    for key, (fi, t) in zip(keys, pairs):
        assert np.array_equal(key, _seed_sequence_key(seed, fi, t)), (fi, t)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**160),
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1)),
        min_size=1,
        max_size=8,
    ),
)
def test_philox_keys_match_seed_sequence_property(seed, pairs):
    keys = philox_keys(seed, [fi for fi, _ in pairs], [t for _, t in pairs])
    for key, (fi, t) in zip(keys, pairs):
        assert np.array_equal(key, _seed_sequence_key(seed, fi, t))


def _key(seed, fi, t):
    """split_rng(seed, fi, t)'s key as the int tuple a Philox state takes."""
    return tuple(philox_keys(seed, [fi], [t]).tolist()[0])


def reseed(rng, key):
    """``rng`` reset to the state a fresh Philox keyed by ``key`` starts in,
    as a campaign's ``fresh_counts`` resets its generator before each trial."""
    rng.bit_generator.state = _fresh_state(key)
    return rng


def test_reseeded_generator_draws_the_split_rng_stream():
    rng = split_rng(0, 0)
    for seed, fi, t in [(3, 0, 0), (3, 1, 4), (2**64 + 3, 2, 9)]:
        assert _state(reseed(rng, _key(seed, fi, t))) == _state(split_rng(seed, fi, t))
        ref = split_rng(seed, fi, t)
        assert np.array_equal(rng.normal(size=7), ref.normal(size=7))
        assert np.array_equal(rng.integers(0, 10, size=5), ref.integers(0, 10, size=5))


def test_reseed_takes_keys_with_the_top_bit_set():
    # A key word of 2**63 or more is a Python int beyond int64; it must reach
    # Philox as the same uint64, in either word of the key.
    pairs = [(5, 0, t) for t in range(64)]
    keys = [_key(*pair) for pair in pairs]
    for word in (0, 1):
        i = next(i for i, key in enumerate(keys) if key[word] >= 2**63)
        assert all(type(v) is int for v in keys[i])
        rng, ref = reseed(split_rng(0, 0), keys[i]), split_rng(*pairs[i])
        assert _state(rng) == _state(ref)
        a, b = rng.random(9), ref.random(9)
        assert [v.hex() for v in a.tolist()] == [v.hex() for v in b.tolist()]
        assert np.array_equal(rng.exponential(1.0, 5), ref.exponential(1.0, 5))


@pytest.mark.parametrize("spare", [1, 3, 5])
def test_reseed_leaves_no_buffered_words(spare):
    # Integers in [0, 2**32) are raw 32-bit halves of 64-bit draws; an odd
    # number of them leaves a spare half (and Philox a partly used buffer)
    # that the next trial must not see.
    def words(g, n):
        return g.integers(0, 2**32, size=n, dtype=np.uint64)

    rng = reseed(split_rng(0, 0), _key(8, 1, 1))
    words(rng, spare)
    assert rng.bit_generator.state["has_uint32"] == 1
    reseed(rng, _key(8, 1, 2))
    ref = split_rng(8, 1, 2)
    assert np.array_equal(words(rng, 3), words(ref, 3))
    assert np.array_equal(rng.uniform(size=3), ref.uniform(size=3))
    assert _state(rng) == _state(ref)


# The fresh-generator counts reproduce numpy's own bounded-integer rule
# (Lemire's, on 32-bit halves of Philox words, low half first) from raw
# words.  These tests pin the installed numpy's rule: a numpy that draws
# integers another way fails them, not the goldens alone.
ROWS = 10_000


def _keys(seed, rows=ROWS):
    """The int-tuple keys of trials 0 .. rows - 1 of function 0."""
    return list(map(tuple, philox_keys(seed, np.zeros(rows, dtype=np.uint64), np.arange(rows)).tolist()))


def _assert_fresh_counts_are_integers(ranges, seed, rows=ROWS):
    # Each key: the campaign's counts against rng.integers on a reseeded
    # generator, then the next 64-bit word.
    rng, ref = (np.random.Generator(np.random.Philox(0)) for _ in range(2))
    counts = fresh_counts(rng, ranges)
    for t, key in enumerate(_keys(seed, rows)):
        reseed(ref, key)
        want = tuple(int(ref.integers(lo, hi + 1)) for lo, hi in ranges)
        assert counts(key) == want, (t, key)
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw(), (t, key)


@pytest.mark.parametrize("mode", ["num", "op", "rm"])
def test_fresh_counts_are_integers_on_default_ranges(mode):
    _assert_fresh_counts_are_integers(_count_ranges(mode, DEFAULT_DIMS, DEFAULT_ATOMS), seed=41)


@pytest.mark.parametrize(
    "ranges",
    [((6, 6), (1, 1)), ((1, 1), (4, 4)), ((6, 6), (1, 12)), ((2, 6), (4, 4)), ((6, 6), (4, 4))],
    ids=["op-dims-6", "num-atoms-4", "rm-dims-6", "rm-atoms-4", "rm-both-fixed"],
)
def test_fresh_counts_draw_nothing_for_a_span_of_one(ranges):
    _assert_fresh_counts_are_integers(ranges, seed=42)


@pytest.mark.parametrize(
    "ranges",
    [((2, 6), (1, 2**31 + 1)), ((1, 2**31 + 1), (2, 6)), ((0, 2**31), (5, 2**31 + 5)), ((0, 2**32 - 2), (7, 7))],
    ids=["second", "first", "both", "span-2^32-1"],
)
def test_fresh_counts_follow_rejections_half_by_half(ranges):
    # Lemire rejects about half of the 32-bit halves at a span of 2**31 + 1,
    # so counts take low half, high half, then the next word's low half.
    _assert_fresh_counts_are_integers(ranges, seed=43)


@pytest.mark.parametrize("ranges", [((2, 6), (1, 2**32)), ((1, 2**40), (2, 6)), ((1, 1), (0, 2**63 - 2))])
def test_fresh_counts_use_integers_from_a_span_of_2_to_the_32(ranges):
    # numpy draws these spans from 64-bit words or other rules; the counts
    # are rng.integers' own, and leave the generator in its state.
    rng, ref = (np.random.Generator(np.random.Philox(0)) for _ in range(2))
    counts = fresh_counts(rng, ranges)
    for key in _keys(44, 200):
        reseed(ref, key)
        want = tuple(int(ref.integers(lo, hi + 1)) for lo, hi in ranges)
        assert counts(key) == want
        assert _state(rng) == _state(ref)


def _boundary_words(span):
    """32-bit words u whose (u * span) mod 2**32 is one below the Lemire
    threshold of span (rejected) and at it (taken)."""
    threshold = (2**32 - span) % span
    return [(threshold + d) * pow(span, -1, 2**32) % 2**32 for d in (-1, 0)]


@pytest.mark.parametrize("span", [3, 5, 11, 2**31 + 1, 2**32 - 1])
def test_numpy_rejects_exactly_below_the_bounded_threshold(span):
    # Philox hands out its buffered words first, so a generator with no
    # spare half can be fed chosen words: numpy's integers rejects a half
    # exactly while it is below the threshold that _bounded gives.
    below, at = _boundary_words(span)
    ranges = ((7, 7 + span - 1), (2, 1 + span), (0, span - 1))
    assert [thr for _, _, thr in _bounded(ranges)] == [(2**32 - span) % span] * 3
    rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (1, 2)},
        "buffer": (below | at << 32, at | below << 32, below | below << 32, at | at << 32),
        "buffer_pos": 0,
        "has_uint32": 0,
        "uinteger": 0,
    }
    got = [int(rng.integers(lo, hi + 1)) for lo, hi in ranges]
    assert got == [lo + (at * span >> 32) for lo, _ in ranges]
    # Seven halves, low first: rejected, taken; taken; then the spare,
    # rejected, two more rejected, and the last word's low half taken,
    # leaving its high half spare.
    state = rng.bit_generator.state
    assert (state["buffer_pos"], state["has_uint32"], state["uinteger"]) == (4, 1, at)


class _GivenWords:
    """A bit generator stand-in that hands out given raw words and accepts
    any state."""

    def __init__(self, words):
        self.random_raw = iter(words).__next__
        self.state = None


@pytest.mark.parametrize("span", [3, 5, 11, 2**31 + 1, 2**32 - 1])
def test_fresh_counts_reject_exactly_below_the_threshold(span):
    # A half one below the threshold sends the counts to rng.integers, here
    # a stand-in that returns -1; a half at it is taken.  Both ranges draw
    # (rm) from the low, then the high half; one alone, the first (op) or
    # the second (num), from the low half.
    below, at = _boundary_words(span)
    drawn, taken = (7, 6 + span), 7 + (at * span >> 32)
    cases = [
        ((drawn, drawn), [at | at << 32, below | at << 32, at | below << 32], (taken, taken)),
        ((drawn, (3, 3)), [at | below << 32, below | at << 32], (taken, 3)),
        (((3, 3), drawn), [at | below << 32, below | at << 32], (3, taken)),
    ]
    for ranges, words, want in cases:
        rng = SimpleNamespace(bit_generator=_GivenWords(words), integers=lambda lo, hi: -1)
        counts = fresh_counts(rng, ranges)
        assert counts((1, 2)) == want
        assert [counts((1, 2)) for _ in words[1:]] == [(-1, -1)] * (len(words) - 1)
