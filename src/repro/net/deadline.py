"""Many request deadlines behind one armed loop timer.

``asyncio.timeout`` arms and cancels one loop timer per use; on the
request path that is two timers per hop for deadlines that almost never
fire.  A :class:`DeadlineQueue` belongs to one owner (a server, a client)
and keeps its open deadlines in a set: entering a scope adds to it,
leaving removes from it, and the one ``loop.call_at`` the queue keeps is
armed for the earliest deadline it has seen and looked at again only when
it fires — so a request whose deadline lies behind the armed one arms
nothing.  Open scopes are bounded by the owner's own concurrency bound
(``max_in_flight``, pool size, pipeline window), which bounds the scan on
fire.

The contract is ``asyncio.timeout``'s: expiry cancels the task inside the
scope, and the scope's exit turns that cancellation — and nobody else's —
into ``TimeoutError``.
"""

from __future__ import annotations

import asyncio

__all__ = ["DeadlineQueue"]


class _Deadline:
    """One open scope: ``with queue.after(delay): await ...``."""

    __slots__ = ("_queue", "_delay", "_task", "_cancelling", "when", "expired")

    def __init__(self, queue: "DeadlineQueue", delay: float) -> None:
        self._queue = queue
        self._delay = delay
        self.expired = False

    def __enter__(self) -> "_Deadline":
        task = asyncio.current_task()
        if task is None:
            raise RuntimeError("a deadline must be opened inside a task")
        self._task = task
        self._cancelling = task.cancelling()
        loop = asyncio.get_running_loop()
        self.when = loop.time() + self._delay
        queue = self._queue
        queue._scopes.add(self)
        if queue._timer is None or self.when < queue._timer.when():
            # Nothing armed, or a shorter timeout than the armed one.
            queue._arm(loop, self.when)
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._queue._scopes.discard(self)
        if (
            self.expired
            and self._task.uncancel() <= self._cancelling
            and exc_type is asyncio.CancelledError
        ):
            # No cancel request but ours is outstanding: this one is the
            # deadline's, not the caller's.
            raise TimeoutError from exc


class DeadlineQueue:
    """The open deadlines of one owner and the single timer behind them."""

    def __init__(self) -> None:
        self._scopes: set[_Deadline] = set()
        self._timer: asyncio.TimerHandle | None = None

    def after(self, delay: float) -> _Deadline:
        """Scope that raises ``TimeoutError`` if still open in ``delay`` s."""
        return _Deadline(self, delay)

    def __len__(self) -> int:
        return len(self._scopes)

    @property
    def armed(self) -> bool:
        """Whether a loop timer is currently scheduled for this queue."""
        return self._timer is not None

    def _arm(self, loop: asyncio.AbstractEventLoop, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = loop.call_at(when, self._fire, loop, when)

    def _fire(self, loop: asyncio.AbstractEventLoop, armed_for: float) -> None:
        self._timer = None
        # The loop may run a timer up to its clock resolution early, so
        # everything due by the armed instant is due now.
        now = max(loop.time(), armed_for)
        due = sorted(
            (scope for scope in self._scopes if scope.when <= now),
            key=lambda scope: scope.when,
        )
        self._scopes.difference_update(due)
        if self._scopes:
            self._arm(loop, min(scope.when for scope in self._scopes))
        for scope in due:
            scope.expired = True
            scope._task.cancel()
