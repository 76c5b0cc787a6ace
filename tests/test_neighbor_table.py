"""The neighbor table (Fig. 3)."""

from repro.core.neighbor_table import NeighborTable
from repro.util.geometry import Point


def fig3_table():
    """The example network of Fig. 3 (C11 is the node the figure is drawn for)."""
    table = NeighborTable()
    table.update(0, Point(0, 0))            # C0
    table.update(1, Point(0, -2))           # C1
    table.update(2, Point(4, -1))           # C2
    table.update(10, Point(6, 0))           # C10
    table.update(12, Point(10, 1))          # C12
    table.update(11, Point(7, -1))          # C11
    return table


class Reader:
    """Records what a table tells its readers."""

    def __init__(self):
        self.calls = []

    def observe_neighbor(self, node_id, moved):
        self.calls.append(("observe", node_id, moved))

    def forget_neighbor(self, node_id):
        self.calls.append(("forget", node_id))


class TestNeighborTable:
    def test_update_and_get(self):
        table = fig3_table()
        assert table.get(2).position == Point(4, -1)
        assert table.get(99) is None

    def test_position_of(self):
        table = fig3_table()
        assert table.position_of(0) == Point(0, 0)
        assert table.position_of(99) is None

    def test_distance_between_known_nodes(self):
        table = fig3_table()
        assert table.distance(0, 1) == 2.0

    def test_distance_with_unknown_node(self):
        assert fig3_table().distance(0, 99) is None

    def test_update_replaces(self):
        table = fig3_table()
        table.update(2, Point(5, 5), now=17)
        entry = table.get(2)
        assert entry.position == Point(5, 5)
        assert entry.updated_at == 17

    def test_neighbors_can_include_self(self):
        # One table serves every reader, so it lists every row: each
        # reader skips itself where that matters.
        ids = [e.node_id for e in fig3_table().neighbors()]
        assert ids == [0, 1, 2, 10, 12, 11]

    def test_remove(self):
        table = fig3_table()
        assert table.remove(2)
        assert not table.remove(2)
        assert 2 not in table

    def test_contains_and_len(self):
        table = fig3_table()
        assert 0 in table and len(table) == 6

    def test_ap_metadata(self):
        table = NeighborTable()
        table.update(5, Point(0, 0), is_ap=True)
        table.update(6, Point(1, 1), associated_ap=5)
        assert table.get(5).is_ap
        assert table.get(6).associated_ap == 5

    def test_render_mentions_all(self):
        text = fig3_table().render(11)
        assert text.startswith("Neighbor table of node 11\n")
        rows = text.splitlines()[2:]
        assert [int(row.split()[0]) for row in rows] == [0, 1, 2, 10, 11, 12]


class TestReaders:
    def test_update_tells_readers_whether_a_known_position_moved(self):
        table = NeighborTable()
        a, b = Reader(), Reader()
        table.join(a)
        table.join(b)
        assert table.update(3, Point(0, 0), now=10)  # first report
        # A keep-alive at the same spot refreshes the row, telling no one.
        assert not table.update(3, Point(0, 0), now=50)
        assert table.get(3).updated_at == 50
        assert table.update(3, Point(4, 0), now=90)  # a move
        expected = [("observe", 3, False), ("observe", 3, True)]
        assert a.calls == expected and b.calls == expected

    def test_association_or_ap_flag_change_in_place_is_told(self):
        # Readers derive announcement decisions from who is an AP and who
        # is associated with whom, so such a write is not a keep-alive,
        # though it moves nothing (and so still returns False).
        table = NeighborTable()
        reader = Reader()
        table.join(reader)
        table.update(3, Point(1, 2), associated_ap=0)
        assert not table.update(3, Point(1, 2), associated_ap=1)
        assert not table.update(3, Point(1, 2), is_ap=True, associated_ap=1)
        assert reader.calls == [("observe", 3, False)] * 3

    def test_remove_tells_readers_only_when_a_row_goes(self):
        table = NeighborTable()
        reader = Reader()
        table.join(reader)
        table.update(3, Point(0, 0))
        assert table.remove(3)
        assert not table.remove(3)
        assert reader.calls == [("observe", 3, False), ("forget", 3)]

    def test_row_written_after_a_remove_is_a_first_report(self):
        table = NeighborTable()
        reader = Reader()
        table.update(3, Point(0, 0))
        table.remove(3)
        table.join(reader)
        table.update(3, Point(9, 0))
        assert reader.calls == [("observe", 3, False)]
