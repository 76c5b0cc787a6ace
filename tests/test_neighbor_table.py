"""The neighbor table (Fig. 3)."""

from repro.core.neighbor_table import NeighborTable
from repro.util.geometry import Point


def fig3_table():
    """The example network of Fig. 3, as seen by C11 (owner id 11)."""
    table = NeighborTable(owner_id=11)
    table.update(0, Point(0, 0))            # C0
    table.update(1, Point(0, -2))           # C1
    table.update(2, Point(4, -1))           # C2
    table.update(10, Point(6, 0))           # C10
    table.update(12, Point(10, 1))          # C12
    table.update(11, Point(7, -1))          # own position
    return table


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

    def test_neighbors_excludes_self_by_default(self):
        table = fig3_table()
        ids = {e.node_id for e in table.neighbors()}
        assert 11 not in ids
        assert len(ids) == 5

    def test_neighbors_can_include_self(self):
        ids = {e.node_id for e in fig3_table().neighbors(exclude_self=False)}
        assert 11 in ids

    def test_remove(self):
        table = fig3_table()
        assert table.remove(2)
        assert not table.remove(2)
        assert 2 not in table

    def test_contains_and_len(self):
        table = fig3_table()
        assert 0 in table and len(table) == 6

    def test_ap_metadata(self):
        table = NeighborTable(owner_id=1)
        table.update(5, Point(0, 0), is_ap=True)
        table.update(6, Point(1, 1), associated_ap=5)
        assert table.get(5).is_ap
        assert table.get(6).associated_ap == 5

    def test_render_mentions_all(self):
        text = fig3_table().render()
        for node_id in (0, 1, 2, 10, 11, 12):
            assert str(node_id) in text
