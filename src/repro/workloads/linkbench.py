"""LinkBench-like social-graph workload.

Section 1 of the paper analyses "social network workload based on
LinkBench" alongside the TPC mixes when establishing that >70 % of dirty
page evictions modify <100 bytes.  This module reproduces the shape of
Facebook's published LinkBench mix: mostly link-list reads, a healthy
dose of small link/node updates, Zipfian node popularity.

Operation mix (LinkBench paper, rounded):
  get_link_list 50 %, get_node 13 %, count_links 5 %, update_link 8 %,
  add_link 9 %, delete_link 3 %, update_node 7 %, add_node 3 %,
  get_link 2 %.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.database import Database
from repro.engine.index import DuplicateKeyError
from repro.engine.schema import Column, ColumnType, Schema
from repro.storage.heap import FileFullError
from repro.workloads.base import DrawStream, Workload, draws, pages_for_rows

if TYPE_CHECKING:
    import numpy as np

NODE_SCHEMA = Schema(
    [
        Column("id", ColumnType.INT64),
        Column("version", ColumnType.INT64),
        Column("time", ColumnType.INT64),
        Column("data", ColumnType.CHAR, 100),
    ]
)

LINK_SCHEMA = Schema(
    [
        Column("id1", ColumnType.INT64),
        Column("link_type", ColumnType.INT32),
        Column("id2", ColumnType.INT64),
        Column("visibility", ColumnType.INT32),
        Column("version", ColumnType.INT64),
        Column("time", ColumnType.INT64),
        Column("data", ColumnType.CHAR, 40),
    ]
)

LINK_TYPES = 4


class LinkBenchWorkload(Workload):
    """Social graph with Zipfian access.

    Args:
        nodes: Initial node count.
        links_per_node: Average initial out-degree.
    """

    name = "linkbench"

    def __init__(self, nodes: int = 2000, links_per_node: int = 4) -> None:
        if nodes < 10:
            raise ValueError("need at least 10 nodes")
        self.nodes = nodes
        self.links_per_node = links_per_node
        self._next_node_id = 0
        #: adjacency: id1 -> list of (link_type, id2) currently live.
        self._adjacency: dict[int, list[tuple[int, int]]] = {}

    def estimate_pages(self, page_size: int) -> int:
        per_page = max(page_size // 120, 1)
        rows = self.nodes * (1 + self.links_per_node) * 2
        return rows // per_page + 64

    def build(self, db: Database, rng: np.random.Generator) -> None:
        def pages_for(rows: int, record: int) -> int:
            return pages_for_rows(db, rows, record)

        node = db.create_table(
            "node",
            NODE_SCHEMA,
            pages_for(self.nodes * 2, NODE_SCHEMA.record_size),
            pk="id",
        )
        link = db.create_table(
            "link",
            LINK_SCHEMA,
            pages_for(
                self.nodes * self.links_per_node * 2, LINK_SCHEMA.record_size
            ),
            pk=("id1", "link_type", "id2"),
        )

        self._adjacency = {}
        for node_id in range(self.nodes):
            node.insert(
                {
                    "id": node_id,
                    "version": 0,
                    "time": 0,
                    "data": "n" * 60,
                }
            )
            self._adjacency[node_id] = []
        self._next_node_id = self.nodes
        integers = draws(rng).integers
        for id1 in range(self.nodes):
            for _ in range(self.links_per_node):
                id2 = integers(0, self.nodes)
                link_type = integers(0, LINK_TYPES)
                try:
                    link.insert(
                        {
                            "id1": id1,
                            "link_type": link_type,
                            "id2": id2,
                            "visibility": 1,
                            "version": 0,
                            "time": 0,
                            "data": "l" * 20,
                        }
                    )
                    self._adjacency[id1].append((link_type, id2))
                except DuplicateKeyError:
                    pass
        db.checkpoint()

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def transaction(self, db: Database, rng: np.random.Generator) -> str:
        draw = draws(rng)
        roll = draw.random()
        if roll < 0.50:
            return self._get_link_list(db, draw)
        if roll < 0.63:
            return self._get_node(db, draw)
        if roll < 0.68:
            return self._count_links(db, draw)
        if roll < 0.76:
            return self._update_link(db, draw)
        if roll < 0.85:
            return self._add_link(db, draw)
        if roll < 0.88:
            return self._delete_link(db, draw)
        if roll < 0.95:
            return self._update_node(db, draw)
        if roll < 0.98:
            return self._add_node(db, draw)
        return self._get_link(db, draw)

    def _hot_node(self, draw: DrawStream) -> int:
        return draw.zipf(self.nodes)

    def _get_link_list(self, db: Database, draw: DrawStream) -> str:
        link = db.table("link")
        with db.begin("get_link_list"):
            id1 = self._hot_node(draw)
            for link_type, id2 in self._adjacency.get(id1, [])[:10]:
                key = (id1, link_type, id2)
                if link.pk_index is not None and key in link.pk_index:
                    link.get(key)
        return "get_link_list"

    def _get_node(self, db: Database, draw: DrawStream) -> str:
        with db.begin("get_node"):
            db.table("node").get(self._hot_node(draw))
        return "get_node"

    def _count_links(self, db: Database, draw: DrawStream) -> str:
        with db.begin("count_links"):
            _ = len(self._adjacency.get(self._hot_node(draw), []))
        return "count_links"

    def _update_link(self, db: Database, draw: DrawStream) -> str:
        link = db.table("link")
        with db.begin("update_link"):
            id1 = self._hot_node(draw)
            adj = self._adjacency.get(id1, [])
            if adj:
                link_type, id2 = adj[draw.integers(0, len(adj))]
                key = (id1, link_type, id2)
                if link.pk_index is not None and key in link.pk_index:
                    row = link.get(key)
                    link.update_field(key, "version", row["version"] + 1)
        return "update_link"

    def _add_link(self, db: Database, draw: DrawStream) -> str:
        link = db.table("link")
        with db.begin("add_link"):
            id1 = self._hot_node(draw)
            id2 = draw.integers(0, self._next_node_id)
            link_type = draw.integers(0, LINK_TYPES)
            try:
                link.insert(
                    {
                        "id1": id1,
                        "link_type": link_type,
                        "id2": id2,
                        "visibility": 1,
                        "version": 0,
                        "time": 1,
                        "data": "l" * 20,
                    }
                )
                self._adjacency.setdefault(id1, []).append((link_type, id2))
            except (DuplicateKeyError, FileFullError):
                pass
        return "add_link"

    def _delete_link(self, db: Database, draw: DrawStream) -> str:
        link = db.table("link")
        with db.begin("delete_link"):
            id1 = self._hot_node(draw)
            adj = self._adjacency.get(id1, [])
            if adj:
                link_type, id2 = adj.pop(draw.integers(0, len(adj)))
                key = (id1, link_type, id2)
                if link.pk_index is not None and key in link.pk_index:
                    link.delete(key)
        return "delete_link"

    def _update_node(self, db: Database, draw: DrawStream) -> str:
        node = db.table("node")
        with db.begin("update_node"):
            node_id = self._hot_node(draw)
            row = node.get(node_id)
            node.update_field(node_id, "version", row["version"] + 1)
            node.update_field(node_id, "time", row["time"] + 1)
        return "update_node"

    def _add_node(self, db: Database, draw: DrawStream) -> str:
        node = db.table("node")
        with db.begin("add_node"):
            try:
                node.insert(
                    {
                        "id": self._next_node_id,
                        "version": 0,
                        "time": 0,
                        "data": "n" * 60,
                    }
                )
                self._adjacency[self._next_node_id] = []
                self._next_node_id += 1
            except FileFullError:
                pass
        return "add_node"

    def _get_link(self, db: Database, draw: DrawStream) -> str:
        link = db.table("link")
        with db.begin("get_link"):
            id1 = self._hot_node(draw)
            adj = self._adjacency.get(id1, [])
            if adj:
                link_type, id2 = adj[0]
                key = (id1, link_type, id2)
                if link.pk_index is not None and key in link.pk_index:
                    link.get(key)
        return "get_link"
