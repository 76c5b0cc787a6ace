"""Named RNG streams: reproducibility, independence and seeding."""

import numpy as np
import pytest

from repro.util.rng import RngStreams, derive_seed


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
