"""Shared fixtures for the predicate-index suites (and its benchmark).

One single-table ``shop`` application, the index's bookkeeping invariant,
and the *sweep reference*: the one way a test or benchmark builds the arm
the index is proved against.
"""

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer
from repro.schema import Column, ColumnType, Schema, TableSchema
from repro.storage import Database
from repro.templates import QueryTemplate, TemplateRegistry, UpdateTemplate

SCHEMA = Schema(
    [
        TableSchema(
            "items",
            (
                Column("item_id", ColumnType.INTEGER),
                Column("name", ColumnType.TEXT),
                Column("category", ColumnType.TEXT),
                Column("stock", ColumnType.INTEGER),
            ),
            primary_key=("item_id",),
        )
    ]
)

REGISTRY = TemplateRegistry(
    SCHEMA,
    queries=[
        QueryTemplate.from_sql(
            "point", "SELECT stock FROM items WHERE item_id = ?"
        ),
        QueryTemplate.from_sql(
            "byname", "SELECT item_id FROM items WHERE name = ?"
        ),
        QueryTemplate.from_sql(
            "multi",
            "SELECT item_id FROM items WHERE category = ? AND name = ?",
        ),
        QueryTemplate.from_sql(
            "total", "SELECT SUM(stock) FROM items WHERE name = ?"
        ),
        QueryTemplate.from_sql(
            "percat",
            "SELECT category, COUNT(*) FROM items WHERE name = ? "
            "GROUP BY category",
        ),
        QueryTemplate.from_sql(
            "instock", "SELECT item_id FROM items WHERE stock > ?"
        ),
    ],
    updates=[
        UpdateTemplate.from_sql(
            "ins",
            "INSERT INTO items (item_id, name, category, stock) "
            "VALUES (?, ?, ?, ?)",
        ),
        UpdateTemplate.from_sql("del", "DELETE FROM items WHERE item_id = ?"),
        UpdateTemplate.from_sql(
            "setstock", "UPDATE items SET stock = ? WHERE item_id = ?"
        ),
    ],
)


def shop_home(registry, rows, level=ExposureLevel.STMT):
    """The ``shop`` home server over ``rows`` at a uniform exposure level."""
    db = Database(SCHEMA)
    db.load("items", list(rows))
    return HomeServer(
        "shop",
        db,
        registry,
        ExposurePolicy.uniform(registry, level),
        Keyring("shop", b"s" * 32),
    )


def shop_node(registry, rows, level=ExposureLevel.STMT, capacity=None):
    """(node, home): one default ``DsspNode`` serving :func:`shop_home`."""
    home = shop_home(registry, rows, level)
    node = DsspNode(cache_capacity=capacity)
    node.register_application(home)
    return node, home


def sweep_reference(node: DsspNode) -> None:
    """Reference arm: the node's index declines, so the engine sweeps."""
    node.cache.predicate_candidates = lambda *_: None


def assert_index_consistent(cache):
    """Postings cover only live keys and never exceed their buckets."""
    assert set(cache._postings) <= set(cache._entries)
    for (app, template), posting in cache._predicate.items():
        keys = cache._buckets.get((app, template), set())
        assert 0 < posting.size <= len(keys)
        accounted = set(posting.always)
        for by_value in posting.by_value.values():
            for members in by_value.values():
                accounted |= members
        for members in posting.nulls.values():
            accounted |= members
        assert accounted <= set(keys)
