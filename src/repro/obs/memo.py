"""The one bounded memo: a dict that reports whether it earns its keep.

Every memo in ``src/`` is a :class:`BoundedMemo` (or a stdlib
``lru_cache`` exported through :func:`export_lru_cache`), so every one of
them shows up by name in a live ``repro stats`` snapshot with its hits,
misses, size and bound — a memo that cannot show a hit rate gets deleted
(DESIGN.md, "Memo inventory").

Policy, the same for every instance: when full the table is dropped
*whole*.  A rebuild is cheap next to LRU bookkeeping on every hit, and
entries keyed on something that went stale (a dead statement's ``id``)
are reclaimed by the same clear.  A hit costs one dict lookup and one
integer add.  Not thread-safe, like the dicts it replaces.

Exported names and values are static strings and integers: no key, no
value and nothing derived from either leaves the memo.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Hashable
from typing import Any

__all__ = ["BoundedMemo", "export_lru_cache", "register_metrics"]

_MISSING = object()

#: name → live instances; per-instance memos sharing a name are summed.
_live: dict[str, weakref.WeakSet[BoundedMemo]] = {}
#: name → ``functools.lru_cache``-wrapped function.
_lru_caches: dict[str, Any] = {}


class BoundedMemo:
    """A clear-on-overflow memo named ``<layer>.<memo>``.

    Two lookup forms share the table: :meth:`get` keys on a hashable
    value; :meth:`get_pinned` keys on something containing an ``id()`` and
    stores the object that id belongs to beside the value, so the id
    cannot be recycled while the entry lives and a different object
    presented under the same key is a miss, never an alias.
    """

    __slots__ = ("name", "limit", "hits", "misses", "clears", "_data", "__weakref__")

    def __init__(self, name: str, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"memo {name!r} needs a positive limit, got {limit}")
        self.name = name
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.clears = 0
        self._data: dict = {}
        _live.setdefault(name, weakref.WeakSet()).add(self)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, build: Callable[..., Any], *args: Any) -> Any:
        """The value stored under ``key``, else ``build(*args)``, stored.

        If ``build`` raises, the miss is counted and nothing is stored.
        """
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            return value
        self.misses += 1
        value = build(*args)
        self._store(key, value)
        return value

    def get_pinned(
        self, key: Hashable, pin: object, build: Callable[..., Any], *args: Any
    ) -> Any:
        """Like :meth:`get` for a ``key`` built from ``id(pin)``."""
        entry = self._data.get(key)
        if entry is not None and entry[0] is pin:
            self.hits += 1
            return entry[1]
        self.misses += 1
        value = build(*args)
        self._store(key, (pin, value))
        return value

    def _store(self, key: Hashable, value: Any) -> None:
        if len(self._data) >= self.limit:
            self._data.clear()
            self.clears += 1
        self._data[key] = value


def export_lru_cache(name: str, cached: Any) -> None:
    """Report a ``functools.lru_cache`` function as memo ``name``."""
    _lru_caches[name] = cached


def register_metrics(registry) -> None:
    """Export every memo constructed so far as callable gauges.

    ``<name>.{hits,misses,clears,size,limit}`` per :class:`BoundedMemo`
    name (summed over its live instances, so ``size <= limit`` holds for
    the sum) and ``<name>.{hits,misses,size,limit}`` per exported
    ``lru_cache``.  Memos are per process, so every registry in a process
    reports the same figures.
    """
    for name in _live:
        for field in ("hits", "misses", "clears", "limit"):
            registry.gauge(
                f"{name}.{field}",
                lambda n=name, f=field: sum(getattr(m, f) for m in _live[n]),
            )
        registry.gauge(f"{name}.size", lambda n=name: sum(map(len, _live[n])))
    for name, cached in _lru_caches.items():
        for field, attribute in (
            ("hits", "hits"),
            ("misses", "misses"),
            ("size", "currsize"),
            ("limit", "maxsize"),
        ):
            registry.gauge(
                f"{name}.{field}",
                lambda c=cached, a=attribute: getattr(c.cache_info(), a),
            )
