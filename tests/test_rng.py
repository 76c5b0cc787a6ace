"""Named RNG streams: reproducibility and independence."""

from repro.util.rng import RngStreams


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
