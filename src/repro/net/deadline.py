"""Many request deadlines behind one armed loop timer.

``asyncio.timeout`` arms and cancels one loop timer per use; on the
request path that is two timers per hop for deadlines that almost never
fire.  A :class:`DeadlineQueue` belongs to one owner (a server, a client)
and keeps its open deadlines: opening one adds it, closing it removes it,
and the one ``loop.call_at`` the queue keeps is armed for the earliest
deadline it has seen and looked at again only when it fires — so a
request whose deadline lies behind the armed one arms nothing.  Open
deadlines are bounded by the owner's own concurrency bound
(``max_in_flight``, a client's request window), which bounds the scan on
fire.

A deadline comes in two kinds, sharing the queue and its timer:

* :meth:`DeadlineQueue.after` is ``asyncio.timeout``'s contract: expiry
  cancels the task inside the scope, and the scope's exit turns that
  cancellation — and nobody else's — into ``TimeoutError``.  It must be
  opened inside a task.
* a future as a key of :attr:`DeadlineQueue.due` needs no task and no
  object: expiry fails the future with ``TimeoutError`` if it is still
  pending, so code that runs inline from a read callback can wait on a
  future with a deadline.  The owner adds the entry, arms the queue if
  the entry is due before :attr:`~DeadlineQueue.armed_for`, and pops the
  entry when the wait ends — dictionary operations and one comparison,
  no call.
"""

from __future__ import annotations

import asyncio
import math

__all__ = ["DeadlineQueue"]


class _Deadline:
    """One open task scope: ``with queue.after(delay): await ...``."""

    __slots__ = ("_queue", "_delay", "_task", "_cancelling", "expired")

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
        queue, loop = self._queue, asyncio.get_running_loop()
        when = queue.due[self] = loop.time() + self._delay
        if when < queue.armed_for:
            queue.arm(when)  # nothing armed, or a shorter timeout
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._queue.due.pop(self, None)
        if (
            self.expired
            and self._task.uncancel() <= self._cancelling
            and exc_type is asyncio.CancelledError
        ):
            # No cancel request but ours is outstanding: this one is the
            # deadline's, not the caller's.
            raise TimeoutError from exc

    def _expire(self) -> None:
        self.expired = True
        self._task.cancel()


class DeadlineQueue:
    """The open deadlines of one owner and the single timer behind them."""

    def __init__(self) -> None:
        #: Open deadline (a task scope, or a future) -> its loop instant.
        self.due: dict[_Deadline | asyncio.Future, float] = {}
        self._timer: asyncio.TimerHandle | None = None
        #: The instant the timer is armed for; infinity while unarmed.
        self.armed_for = math.inf

    def after(self, delay: float) -> _Deadline:
        """Scope that raises ``TimeoutError`` if still open in ``delay`` s."""
        return _Deadline(self, delay)

    def __len__(self) -> int:
        return len(self.due)

    @property
    def armed(self) -> bool:
        """Whether a loop timer is currently scheduled for this queue."""
        return self._timer is not None

    def arm(self, when: float) -> None:
        """(Re-)arm the one timer for ``when``, before :attr:`armed_for`."""
        if self._timer is not None:
            self._timer.cancel()
        loop = asyncio.get_running_loop()
        self._timer = loop.call_at(when, self._fire, loop, when)
        self.armed_for = when

    def _fire(self, loop: asyncio.AbstractEventLoop, armed_for: float) -> None:
        self._timer = None
        self.armed_for = math.inf
        # The loop may run a timer up to its clock resolution early, so
        # everything due by the armed instant is due now.
        now = max(loop.time(), armed_for)
        late = sorted(
            ((when, entry) for entry, when in self.due.items() if when <= now),
            key=lambda pair: pair[0],
        )
        for _, entry in late:
            del self.due[entry]
        if self.due:
            self.arm(min(self.due.values()))
        for _, entry in late:
            if isinstance(entry, _Deadline):
                entry._expire()
            elif not entry.done():
                entry.set_exception(TimeoutError())
