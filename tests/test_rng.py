"""Named RNG streams: reproducibility, independence and seeding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import RngStreams, derive_seed, seed_sequence_words


class TestRngStreams:
    def test_same_seed_same_sequence(self):
        a = RngStreams(seed=42).stream("backoff", 1)
        b = RngStreams(seed=42).stream("backoff", 1)
        assert list(a.integers(0, 100, 10)) == list(b.integers(0, 100, 10))

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).stream("backoff")
        b = RngStreams(seed=2).stream("backoff")
        assert list(a.integers(0, 1 << 30, 8)) != list(b.integers(0, 1 << 30, 8))

    def test_streams_are_independent_by_name(self):
        rngs = RngStreams(seed=7)
        a = rngs.stream("shadowing")
        b = rngs.stream("backoff")
        assert list(a.integers(0, 1 << 30, 8)) != list(b.integers(0, 1 << 30, 8))

    def test_streams_are_independent_by_key(self):
        rngs = RngStreams(seed=7)
        a = rngs.stream("backoff", 1)
        b = rngs.stream("backoff", 2)
        assert list(a.integers(0, 1 << 30, 8)) != list(b.integers(0, 1 << 30, 8))

    def test_same_stream_returned_twice(self):
        rngs = RngStreams(seed=7)
        assert rngs.stream("x", 3) is rngs.stream("x", 3)

    def test_consumption_in_one_stream_does_not_shift_another(self):
        # The core isolation property: draws in stream A never perturb B.
        rngs1 = RngStreams(seed=5)
        rngs1.stream("a").integers(0, 100, 1000)  # heavy use of A
        b1 = list(rngs1.stream("b").integers(0, 1 << 30, 8))

        rngs2 = RngStreams(seed=5)
        b2 = list(rngs2.stream("b").integers(0, 1 << 30, 8))
        assert b1 == b2

    def test_known_streams_lists_created(self):
        rngs = RngStreams(seed=0)
        rngs.stream("alpha")
        rngs.stream("beta", 4)
        names = rngs.known_streams()
        assert ("alpha",) in names and ("beta", 4) in names


#: Substream keys of every kind the simulator makes, plus a key of one
#: element and two heads that are equal as tuples but not as encodings.
SUBSTREAM_KEYS = (
    ("shadowing", 0, 3, 7),
    ("shadowing", 0, 3, 8),
    ("shadowing", 1, 3, 7),
    ("shadowing", 0, 2**32, 2**32 + 5),
    ("shadowing", 1, 2**40 + 1, 3),
    ("locerr", 0),
    ("locerr", 4),
    ("csr", 9),
    ("fault", "beacon_loss", "C0"),
    ("fault", "beacon_loss", "AP1"),
    ("fault", "rx_drop", "C0"),
    ("solo",),
    ("mixed", True, 1),
    ("mixed", 1, 2),
    ("mixed", 1.0, 3),
)


def _draws(gen):
    return list(gen.integers(0, 1 << 62, 6)) + list(gen.normal(size=3))


class TestSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**62 + 11])
    def test_substream_is_default_rng_of_derive_seed(self, seed):
        rngs = RngStreams(seed)
        for key in SUBSTREAM_KEYS:
            expected = np.random.default_rng(derive_seed(seed, *key))
            assert _draws(rngs.substream(*key)) == _draws(expected), key

    def test_substream_seed_ignores_creation_order(self):
        forward, backward = RngStreams(3), RngStreams(3)
        for key in SUBSTREAM_KEYS:
            forward.substream(*key)
        for key in reversed(SUBSTREAM_KEYS):
            backward.substream(*key)
        for key in SUBSTREAM_KEYS:
            assert _draws(forward.substream(*key)) == _draws(backward.substream(*key))

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_stream_is_default_rng_of_its_seed_sequence(self, seed):
        rngs = RngStreams(seed)
        for name, keys in (("backoff", (0,)), ("backoff", (2**33,)),
                           ("minstrel", (5,)), ("shadowing", ())):
            entropy = [seed] + [ord(c) for c in name] + list(keys)
            expected = np.random.default_rng(np.random.SeedSequence(entropy))
            assert _draws(rngs.stream(name, *keys)) == _draws(expected)


#: Seeds where numpy's entropy changes shape (one word, two words) and the
#: ends of the 63-bit range substream seeds come from.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)
_seed = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**63 - 1))
#: Key heads of the kinds the simulator batches or makes one at a time.
_HEADS = (("shadowing", 0, 3), ("shadowing", 1, 3), ("shadowing", 0, 2**40),
          ("locerr",), ("fault", "beacon_loss"))
_batch = st.tuples(
    st.sampled_from(_HEADS),
    st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**63)), min_size=1, max_size=12),
)


class TestBatchSeeding:
    @given(seeds=st.lists(_seed, min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_words_are_seed_sequence_state(self, seeds):
        words = seed_sequence_words(seeds)
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        assert words.flags.c_contiguous
        for seed, row in zip(seeds, words):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist(), seed

    @given(root=_seed, singles=st.lists(_batch, max_size=2),
           batches=st.lists(_batch, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_batches_draw_what_single_substreams_draw(self, root, singles, batches):
        # Some keys exist before the batches (made one at a time), batches
        # repeat and share keys, and every key is checked against a fresh
        # family making it alone and against default_rng of its seed.
        rngs = RngStreams(root)
        for head, lasts in singles:
            rngs.substream(*head, lasts[0])
        for head, lasts in batches:
            made = rngs.substreams(head, lasts)
            assert [id(gen) for gen in made] == [
                id(rngs.substream(*head, last)) for last in lasts
            ]
        keys = {head + (last,) for head, lasts in batches for last in lasts}
        keys |= {head + (lasts[0],) for head, lasts in singles}
        assert keys <= set(rngs.known_streams())
        for key in keys:
            expected = np.random.default_rng(derive_seed(root, *key))
            alone = RngStreams(root).substream(*key)
            assert _draws(rngs.substream(*key)) == _draws(alone) == _draws(expected), key
