"""Pure arithmetic of the benchmark: percentiles, span self time and the
per-layer cost ledger.

Spans are sequences ``(name, start, end, parent, rid, note)`` as recorded
by ``spans.SpanLog``; nothing here touches a clock except
:func:`replay_frames`, which times the wire codec and the SQL parser on
captured frames.

How the ledger is built, for one traced window:

1. Server-side spans open in the server's task, so they record no parent.
   :func:`adopt_orphans` gives each the tightest span that carries the
   same wire request id and encloses it in time.
2. :func:`add_forward_spans` names the stretch of a DSSP handler between
   its cache lookup and its admission/invalidation — the round trip to
   the home — so that wait is not booked as the handler's own work.
3. A span's self time is its duration minus the part of it its children
   cover (:func:`self_times`).
4. Per ``op`` span (one client-observed operation: seal, wire request,
   open), self times of the spans beneath it are summed by layer; the
   replayed codec and parser cost of that operation's frames is added as
   ``net.wire`` and ``sql``; what is left of the op's duration is
   ``transport`` (asyncio, sockets, dispatch bookkeeping, and — when more
   than one operation is in flight — the loop serving somebody else).
   The lines therefore sum to the client-observed time by construction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

__all__ = [
    "FrameCost",
    "Ledger",
    "adopt_orphans",
    "add_forward_spans",
    "build_ledger",
    "percentile",
    "replay_frames",
    "self_times",
]

NAME, START, END, PARENT, RID, NOTE = range(6)

#: Which ledger line each span name's self time is booked to.  Names not
#: listed (``op``, ``net.client.*``, ``net.dssp_server.forward``) are the
#: unnamed remainder: ``transport``.
LAYER_OF = {
    "crypto.client_seal": "crypto",
    "crypto.client_open": "crypto",
    "crypto.home_open": "crypto",
    "crypto.home_seal_result": "crypto",
    "dssp.cache.lookup": "dssp.cache",
    "dssp.cache.admit": "dssp.cache",
    "dssp.invalidation": "dssp.invalidation",
    "net.dssp_server.handle": "net.dssp_server",
    "net.home_server.handle": "net.home_server",
    "dssp.homeserver.serve_query": "dssp.homeserver",
    "dssp.homeserver.apply_update": "dssp.homeserver",
    "storage.execute": "storage",
    "storage.apply": "storage",
}
LEDGER_LINES = (
    "crypto",
    "sql",
    "net.wire",
    "net.dssp_server",
    "dssp.cache",
    "dssp.invalidation",
    "net.home_server",
    "dssp.homeserver",
    "storage",
    "transport",
)


def percentile(samples, fraction: float) -> float:
    """The ``fraction`` quantile (0..1), linear between closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = sorted(samples)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def adopt_orphans(spans) -> list[int]:
    """Parent index per span, orphans adopted through their request id.

    A span that recorded no parent but carries a request id becomes the
    child of the shortest span with the same id that encloses it; with no
    such span (or no id) it stays a root.
    """
    parents = [span[PARENT] for span in spans]
    by_rid: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[RID] is not None:
            by_rid[span[RID]].append(index)
    for index, span in enumerate(spans):
        if parents[index] != -1 or span[RID] is None:
            continue
        best = -1
        length = span[END] - span[START]
        for other in by_rid[span[RID]]:
            candidate = spans[other]
            candidate_length = candidate[END] - candidate[START]
            if (
                candidate_length > length
                and candidate[START] <= span[START]
                and span[END] <= candidate[END]
                and (
                    best == -1
                    or candidate_length < spans[best][END] - spans[best][START]
                )
            ):
                best = other
        parents[index] = best
    return parents


def add_forward_spans(spans: list, parents: list[int]) -> None:
    """Insert a ``net.dssp_server.forward`` span around each home round trip.

    Appends to ``spans`` and ``parents`` in place.  The forward span runs
    from the end of the handler's last child before the home handled the
    request (or the handler's start) to the start of its first child
    after (or the handler's end), and becomes the home span's parent.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent != -1:
            children[parent].append(index)
    for index in range(len(spans)):
        span = spans[index]
        if span[NAME] != "net.home_server.handle":
            continue
        handler = parents[index]
        if handler == -1 or spans[handler][NAME] != "net.dssp_server.handle":
            continue
        start, end = spans[handler][START], spans[handler][END]
        for sibling in children[handler]:
            if sibling == index:
                continue
            other = spans[sibling]
            if other[END] <= span[START]:
                start = max(start, other[END])
            elif other[START] >= span[END]:
                end = min(end, other[START])
        spans.append(
            ["net.dssp_server.forward", start, end, handler, span[RID], None]
        )
        parents.append(handler)
        parents[index] = len(spans) - 1


def self_times(spans, parents) -> list[float]:
    """Per span: duration minus the part covered by its children.

    Children are clipped to the parent's interval and overlapping
    children are counted once (interval union).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent != -1:
            children[parent].append((spans[index][START], spans[index][END]))
    selfs = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        selfs.append((end - start) - covered)
    return selfs


@dataclass
class FrameCost:
    """One captured frame, re-encoded and re-decoded offline."""

    rid: str | None
    #: ``request`` | ``response`` | ``push``
    kind: str
    size: int
    encode_s: float
    #: Decode without the SQL parse it contains.
    decode_s: float
    parse_s: float
    statements: int


def replay_frames(frames: list[bytes]) -> list[FrameCost]:
    """Time ``wire.encode_frame`` / ``wire.decode_frame`` / ``sql.parse``
    on the captured frames, in captured order, once each."""
    from repro.net import wire
    from repro.sql.formatter import to_sql
    from repro.sql.parser import parse

    kinds = {
        wire.FrameType.QUERY: "request",
        wire.FrameType.UPDATE: "request",
        wire.FrameType.RESULT: "response",
        wire.FrameType.UPDATE_ACK: "response",
        wire.FrameType.INVALIDATE: "push",
        wire.FrameType.INVALIDATE_BATCH: "push",
    }
    costs = []
    for raw in frames:
        frame_type, rid = wire.peek_raw(raw)
        kind = kinds.get(frame_type)
        if kind is None:
            continue
        started = perf_counter()
        frame = wire.decode_frame(raw)
        decoded = perf_counter()
        wire.encode_frame(frame, request_id=rid)
        encoded = perf_counter()
        if isinstance(frame, wire.InvalidationBatch):
            envelopes = [envelope for _, envelope in frame.entries]
        else:
            envelopes = [getattr(frame, "envelope", None)]
        texts = [
            to_sql(envelope.statement)
            for envelope in envelopes
            if envelope is not None and envelope.statement is not None
        ]
        parse_started = perf_counter()
        for text in texts:
            parse(text)
        parse_s = perf_counter() - parse_started
        costs.append(
            FrameCost(
                rid=rid,
                kind=kind,
                size=len(raw),
                encode_s=encoded - decoded,
                decode_s=max(0.0, (decoded - started) - parse_s),
                parse_s=parse_s if texts else 0.0,
                statements=len(texts),
            )
        )
    return costs


@dataclass
class Ledger:
    """Per-layer cost of the mean client-observed operation, seconds."""

    operations: int
    mean_op_s: float
    #: Ledger line -> seconds per operation; sums to ``mean_op_s``.
    lines: dict[str, float]
    #: Span name -> (count, total duration, total self time), all spans.
    by_name: dict[str, tuple[int, float, float]] = field(default_factory=dict)

    @property
    def named_share(self) -> float:
        return 1.0 - self.lines["transport"] / self.mean_op_s

    def table(self) -> str:
        rows = [f"{'layer':<20}{'us/op':>10}{'share':>8}"]
        for line in LEDGER_LINES:
            value = self.lines[line]
            rows.append(
                f"{line:<20}{value * 1e6:>10.1f}{value / self.mean_op_s:>8.1%}"
            )
        rows.append(f"{'client-observed op':<20}{self.mean_op_s * 1e6:>10.1f}")
        return "\n".join(rows)


def build_ledger(spans, parents, selfs, frame_costs) -> Ledger:
    """Sum self times beneath every ``op`` span into ledger lines."""
    roots: list[int] = []
    for index in range(len(spans)):
        top = index
        while parents[top] != -1:
            top = parents[top]
        roots.append(top)
    op_rids = set()
    operations = 0
    op_total = 0.0
    for span in spans:
        if span[NAME] == "op":
            operations += 1
            op_total += span[END] - span[START]
            op_rids.add(span[RID])
    if not operations:
        raise ValueError("no op spans recorded")
    totals = dict.fromkeys(LEDGER_LINES, 0.0)
    by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for index, span in enumerate(spans):
        entry = by_name[span[NAME]]
        entry[0] += 1
        entry[1] += span[END] - span[START]
        entry[2] += selfs[index]
        layer = LAYER_OF.get(span[NAME])
        if layer is not None and spans[roots[index]][NAME] == "op":
            totals[layer] += selfs[index]
    for cost in frame_costs:
        if cost.kind != "push" and cost.rid in op_rids:
            totals["net.wire"] += cost.encode_s + cost.decode_s
            totals["sql"] += cost.parse_s
    totals["transport"] = op_total - sum(totals.values())
    return Ledger(
        operations=operations,
        mean_op_s=op_total / operations,
        lines={line: value / operations for line, value in totals.items()},
        by_name={name: tuple(entry) for name, entry in by_name.items()},
    )
