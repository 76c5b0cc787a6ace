"""The co-occurrence map (Section IV-C2)."""

from repro.core.co_occurrence import CoOccurrenceMap


class TestCoOccurrenceMap:
    def test_unknown_returns_none(self):
        assert CoOccurrenceMap(1).query((2, 3), 4) is None

    def test_record_allowed(self):
        comap = CoOccurrenceMap(1)
        comap.record((2, 3), 4, allowed=True)
        assert comap.query((2, 3), 4) is True

    def test_record_denied(self):
        comap = CoOccurrenceMap(1)
        comap.record((2, 3), 4, allowed=False)
        assert comap.query((2, 3), 4) is False

    def test_distinct_receivers_tracked_separately(self):
        comap = CoOccurrenceMap(1)
        comap.record((2, 3), 4, allowed=True)
        assert comap.query((2, 3), 5) is None

    def test_concurrent_receivers_listing(self):
        comap = CoOccurrenceMap(1)
        comap.record((2, 3), 4, allowed=True)
        comap.record((2, 3), 6, allowed=True)
        comap.record((2, 3), 5, allowed=False)
        assert comap.concurrent_receivers((2, 3)) == [4, 6]

    def test_invalidate_node_as_link_member(self):
        comap = CoOccurrenceMap(1)
        comap.record((2, 3), 4, allowed=True)
        comap.invalidate_node(2)
        assert comap.query((2, 3), 4) is None

    def test_invalidate_node_as_receiver(self):
        comap = CoOccurrenceMap(1)
        comap.record((2, 3), 4, allowed=True)
        comap.record((2, 3), 5, allowed=True)
        comap.invalidate_node(4)
        assert comap.query((2, 3), 4) is None
        assert comap.query((2, 3), 5) is True

    def test_clear(self):
        comap = CoOccurrenceMap(1)
        comap.record((2, 3), 4, allowed=True)
        comap.clear()
        assert comap.entry_count == 0

    def test_entry_count(self):
        comap = CoOccurrenceMap(1)
        comap.record((2, 3), 4, allowed=True)
        comap.record((2, 3), 5, allowed=False)
        assert comap.entry_count == 2

    def test_render_empty_and_populated(self):
        comap = CoOccurrenceMap(7)
        assert "(empty)" in comap.render()
        comap.record((2, 3), 4, allowed=True)
        assert "2" in comap.render()
