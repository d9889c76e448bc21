"""Component micro-benchmarks (throughput of the building blocks).

Unlike the table/figure benchmarks (which run an experiment once), these
time the hot paths repeatedly, giving honest ops/sec numbers for the SQL
front end, the executor, the crypto, and the invalidation decision — the
costs the simulator's service-time constants abstract.
"""

import asyncio
import random
import time

from repro.analysis.exposure import ExposureLevel
from repro.analysis.independence import statement_independent
from repro.crypto.cipher import decrypt, encrypt
from repro.crypto import Keyring
from repro.crypto.envelope import EnvelopeCodec, QueryEnvelope, ResultEnvelope
from repro.dssp.cache import ViewCache
from repro.net import WireClient, wire
from repro.net.service import WireServer
from repro.sql.formatter import to_sql
from repro.sql.parser import parse
from repro.storage.rows import ResultSet
from repro.templates.binding import bind
from repro.workloads import get_application

from benchmarks.conftest import deploy

_SQL = (
    "SELECT i_id, i_title, a_fname, a_lname FROM item, author "
    "WHERE i_a_id = a_id AND i_subject = ? ORDER BY i_title LIMIT 50"
)


def test_micro_parse(benchmark):
    result = benchmark(parse, _SQL)
    assert result.tables


def test_micro_format(benchmark):
    statement = parse(_SQL)
    text = benchmark(to_sql, statement)
    assert text.startswith("SELECT")


def test_micro_bind(benchmark):
    statement = parse(_SQL)
    bound = benchmark(bind, statement, ["history"])
    assert bound.where


def test_micro_execute_point_query(benchmark):
    app = get_application("bookstore")
    instance = app.instantiate(scale=0.2, seed=1)
    query = bind(parse("SELECT i_stock FROM item WHERE i_id = ?"), [7])
    result = benchmark(instance.database.execute, query)
    assert len(result) == 1


def test_micro_execute_join_query(benchmark):
    app = get_application("bookstore")
    instance = app.instantiate(scale=0.2, seed=1)
    query = bind(parse(_SQL), ["history"])
    result = benchmark(instance.database.execute, query)
    assert result.columns


#: The templates that carry most of the home's storage time on the e2e
#: benchmark's workloads (bookstore at scale 2.0, bboard at 5.0).
_STORAGE_TEMPLATES = {
    "bookstore": (
        2.0,
        ("getBook", "getName", "getNewProducts", "getPurchaseAssociations",
         "getSubjects", "setStock"),
    ),
    "bboard": (5.0, ("getStoriesOfTheDay", "updateCommentRating")),
}


def test_micro_storage_templates(benchmark, emit):
    """What one statement costs the master copy, per template.

    A sampled page stream is replayed straight into ``Database.execute`` /
    ``apply`` (every statement, in order, so inserts find their parents);
    the table reports the named templates and the plan memo's books.  No
    threshold: the end-to-end pairs carry the evidence.
    """

    def measured():
        rows = []
        for app_name, (scale, names) in _STORAGE_TEMPLATES.items():
            instance = get_application(app_name).instantiate(scale=scale, seed=1)
            database, rng = instance.database, random.Random(1)
            spent = {name: [0, 0.0] for name in names}
            for _ in range(400):
                for operation in instance.sampler.sample_page(rng):
                    bound = operation.bound
                    started = time.perf_counter()
                    if operation.is_update:
                        database.apply(bound.statement)
                    else:
                        database.execute(bound.select)
                    elapsed = time.perf_counter() - started
                    if bound.template.name in spent:
                        spent[bound.template.name][0] += 1
                        spent[bound.template.name][1] += elapsed
            plans = database._executor._plans
            rows.append((app_name, spent, plans.hits, plans.misses))
        return rows

    rows = benchmark.pedantic(measured, rounds=1, iterations=1)
    lines = [f"{'template':<34} {'calls':>6} {'per call':>11}", "-" * 53]
    for app_name, spent, hits, misses in rows:
        for name, (calls, seconds) in spent.items():
            assert calls > 0, name
            lines.append(
                f"{app_name + '.' + name:<34} {calls:>6} "
                f"{seconds / calls * 1e6:>8.1f} us"
            )
        lines.append(
            f"{app_name + ' storage.plan':<34} hits={hits} misses={misses}"
        )
    emit("micro_storage_templates", "\n".join(lines))


def test_micro_encrypt_decrypt(benchmark):
    key = b"0123456789abcdef0123456789abcdef"
    payload = b"x" * 2000

    def round_trip():
        return decrypt(key, encrypt(key, payload))

    assert benchmark(round_trip) == payload


def test_micro_statement_independence(benchmark):
    app = get_application("bookstore")
    schema = app.registry.schema
    update = bind(
        parse("UPDATE item SET i_stock = ? WHERE i_id = ?"), [10, 5]
    )
    query = bind(parse("SELECT i_stock FROM item WHERE i_id = ?"), [9])
    assert benchmark(statement_independent, schema, update, query)


def test_micro_end_to_end_cached_query(benchmark):
    from repro.dssp import StrategyClass

    node, home, sampler = deploy("bookstore", strategy=StrategyClass.MVIS)
    bound = home.registry.query("getStock").bind([3])
    envelope = home.codec.seal_query(
        bound, home.policy.query_level("getStock")
    )
    node.query(envelope)  # warm the entry

    outcome = benchmark(node.query, envelope)
    assert outcome.cache_hit


def test_micro_invalidation_cost_by_strategy(benchmark, emit):
    """The runtime price of precision: per-update invalidation latency.

    Populates identical caches under each uniform exposure level and times
    one representative update's invalidation pass.  Precision costs CPU at
    the DSSP (per-entry statement/view checks) but saves WAN round trips;
    the simulator's ``dssp_invalidation_s`` constant abstracts exactly this
    number.
    """
    import time

    from repro.dssp import StrategyClass

    timings = {}
    for strategy in (
        StrategyClass.MBS,
        StrategyClass.MTIS,
        StrategyClass.MSIS,
        StrategyClass.MVIS,
    ):
        node, home, sampler = deploy("bookstore", strategy=strategy)
        rng = random.Random(0)
        for _ in range(200):
            for operation in sampler.sample_page(rng):
                if not operation.is_update:
                    level = home.policy.query_level(operation.bound.template.name)
                    node.query(home.codec.seal_query(operation.bound, level))
        entries_before = len(node.cache)
        bound = home.registry.update("setStock").bind([10, 5])
        envelope = home.codec.seal_update(
            bound, home.policy.update_level("setStock")
        )
        node.forward_update(envelope)
        started = time.perf_counter()
        invalidated = node.invalidate_for(envelope)
        elapsed = time.perf_counter() - started
        timings[strategy.name] = (entries_before, invalidated, elapsed)

    lines = [
        f"{'strategy':<8} {'cached views':>13} {'invalidated':>12} "
        f"{'decision time':>14}",
        "-" * 52,
    ]
    for name, (entries, invalidated, elapsed) in timings.items():
        lines.append(
            f"{name:<8} {entries:>13} {invalidated:>12} {elapsed * 1e6:>11.0f} us"
        )
    emit("micro_invalidation_cost", "\n".join(lines))

    def measured():
        return timings

    benchmark.pedantic(measured, rounds=1, iterations=1)
    # Blind wipes everything it sees; precise strategies keep most views.
    assert timings["MBS"][1] == timings["MBS"][0]
    assert timings["MVIS"][1] <= timings["MTIS"][1]


class _ScanEvictionCache(ViewCache):
    """The seed's eviction algorithm — a full ``min()`` scan of a recency
    clock per victim — kept as the before/after reference for the O(1)
    :class:`ViewCache` LRU."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity=capacity)
        self._recency: dict[tuple, int] = {}
        self._ticks = 0

    def get(self, key):
        entry = super().get(key)
        if entry is not None:
            self._ticks += 1
            self._recency[key] = self._ticks
        return entry

    def put(self, envelope, result):
        entry = super().put(envelope, result)
        self._ticks += 1
        self._recency[entry.key] = self._ticks
        return entry

    def invalidate(self, key):
        existed = super().invalidate(key)
        if existed:
            self._recency.pop(key, None)
        return existed

    def _maybe_evict(self):
        if self._capacity is None:
            return
        while len(self._entries) > self._capacity:
            victim = min(self._recency, key=self._recency.get)
            self.invalidate(victim)


def _synthetic_query(index: int) -> tuple[QueryEnvelope, ResultEnvelope]:
    envelope = QueryEnvelope(
        "bench", ExposureLevel.STMT, f"Q{index % 16}", (index,)
    )
    return envelope, ResultEnvelope(app_id="bench", ciphertext=b"sealed")


def _time_evictions(cache, capacity: int, inserts: int) -> float:
    """Mean seconds per capacity-triggered eviction at a full cache."""
    for i in range(capacity):
        cache.put(*_synthetic_query(i))
    started = time.perf_counter()
    for i in range(capacity, capacity + inserts):
        cache.put(*_synthetic_query(i))
    return (time.perf_counter() - started) / inserts


def test_micro_lru_eviction_at_capacity(benchmark, emit):
    """Eviction cost at a 10k-entry cache: O(1) LRU vs the min()-scan.

    Every insert beyond capacity evicts one victim.  The seed picked it by
    scanning the whole recency map (O(n) per eviction — at 10k entries the
    scan dominates the insert); the OrderedDict LRU pops it in O(1).
    """
    capacity = 10_000
    scan_s = _time_evictions(_ScanEvictionCache(capacity), capacity, 300)
    o1_s = _time_evictions(ViewCache(capacity=capacity), capacity, 3000)
    speedup = scan_s / o1_s

    lines = [
        f"{'eviction policy':<22} {'per-eviction':>13}",
        "-" * 37,
        f"{'min()-scan (seed)':<22} {scan_s * 1e6:>10.1f} us",
        f"{'OrderedDict (O(1))':<22} {o1_s * 1e6:>10.1f} us",
        "",
        f"speedup: {speedup:.0f}x at capacity={capacity}",
    ]
    emit("micro_lru_eviction", "\n".join(lines))

    def measured():
        return scan_s, o1_s

    benchmark.pedantic(measured, rounds=1, iterations=1)
    assert speedup >= 5.0, (scan_s, o1_s)


def test_micro_dssp_timing_counters(benchmark, emit):
    """The DsspStats wall-clock counters cover the three DSSP hot paths."""
    from repro.dssp import StrategyClass

    node, home, sampler = deploy("bookstore", strategy=StrategyClass.MSIS)
    rng = random.Random(0)

    def run():
        node.cold_start()
        for _ in range(150):
            for operation in sampler.sample_page(rng):
                if operation.is_update:
                    level = home.policy.update_level(operation.bound.template.name)
                    node.update(home.codec.seal_update(operation.bound, level))
                else:
                    level = home.policy.query_level(operation.bound.template.name)
                    node.query(home.codec.seal_query(operation.bound, level))
        return node.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"lookups             {stats.lookups:>8}   {stats.lookup_time_s * 1e3:>9.2f} ms",
        f"invalidation passes {stats.updates:>8}   {stats.invalidation_time_s * 1e3:>9.2f} ms",
        f"evictions           {stats.evictions:>8}   {stats.eviction_time_s * 1e3:>9.2f} ms",
    ]
    emit("micro_dssp_timing_counters", "\n".join(lines))
    assert stats.lookup_time_s > 0.0
    assert stats.invalidation_time_s > 0.0


def test_micro_update_with_invalidation(benchmark):
    from repro.dssp import StrategyClass

    node, home, sampler = deploy("bookstore", strategy=StrategyClass.MSIS)
    rng = random.Random(0)
    # Populate a realistic cache to give the engine buckets to scan.
    for _ in range(300):
        for operation in sampler.sample_page(rng):
            if not operation.is_update:
                level = home.policy.query_level(operation.bound.template.name)
                node.query(home.codec.seal_query(operation.bound, level))

    counter = [1000]

    def one_update():
        counter[0] += 1
        bound = home.registry.update("setStock").bind([counter[0] % 400, 5])
        envelope = home.codec.seal_update(
            bound, home.policy.update_level("setStock")
        )
        return node.update(envelope)

    outcome = benchmark(one_update)
    assert outcome.rows_affected >= 0


class _Unanswering(WireServer):
    """The whole server stack around a handler that does nothing."""

    async def handle(self, frame, context):
        return frame


async def _streams_floor(frame, round_trips: int) -> float:
    """Raw asyncio-streams echo using this codec, seconds per round trip."""

    async def echo(reader, writer):
        while (got := await wire.read_frame(reader)) is not None:
            await wire.write_frame(writer, got)
        writer.close()

    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for _ in range(2):  # a warm-up pass, then the one the clock keeps
            started = time.perf_counter()
            for _ in range(round_trips):
                await wire.write_frame(writer, frame)
                await wire.read_frame(reader)
        return (time.perf_counter() - started) / round_trips
    finally:
        writer.close()
        server.close()
        await server.wait_closed()


async def _stack_round_trip(frame, round_trips: int) -> float:
    """The same frame through WireClient -> WireServer, seconds each."""
    server = _Unanswering()
    client = WireClient(*await server.start(), pool_size=1)
    try:
        for _ in range(2):  # warm-up, then measured
            started = time.perf_counter()
            for _ in range(round_trips):
                await client._request(frame, idempotent=True)
        return (time.perf_counter() - started) / round_trips
    finally:
        await client.aclose()
        await server.stop()


def test_micro_wire_round_trip(benchmark, emit):
    """Per-hop fixed cost: what the wire tier adds to a bare echo.

    The floor is an asyncio-streams echo that encodes and decodes with
    this repo's codec; the stack is the real ``WireServer`` (framing,
    task per request, deadline, books, spans off) with a do-nothing
    handler behind ``WireClient`` (pool, retries, metrics).  No threshold:
    the floor's ``recv`` cost depends on the allocator's mood on this box.
    """
    frame = wire.QueryResponse(  # a typical frame's size
        ResultEnvelope(app_id="bookstore", ciphertext=b"x" * 600),
        cache_hit=True,
    )
    round_trips = 3000

    def measured():
        return (
            asyncio.run(_streams_floor(frame, round_trips)),
            asyncio.run(_stack_round_trip(frame, round_trips)),
        )

    floor_s, stack_s = benchmark.pedantic(measured, rounds=1, iterations=1)
    lines = [
        f"{'path':<34} {'per round trip':>15}",
        "-" * 50,
        f"{'streams echo + codec (floor)':<34} {floor_s * 1e6:>12.1f} us",
        f"{'WireClient -> WireServer (stack)':<34} {stack_s * 1e6:>12.1f} us",
        "",
        f"stack / floor: {stack_s / floor_s:.2f}x",
    ]
    emit("micro_wire_round_trip", "\n".join(lines))
    assert floor_s > 0.0 and stack_s > 0.0


def test_micro_envelope_codec(benchmark, emit):
    """What one query and one result cost on the wire, per exposure level,
    the first time and on a repeat.

    A bookstore one-parameter query (``getName``) sealed by the real
    codec, and a 20-row result at ``view`` (plaintext) and at ``stmt``
    (sealed), framed with a 3-byte request id: bytes per frame, the
    ``encode_frame`` time of the frame as decoded (a DSSP re-sends a view
    as the bytes it arrived as), ``decode_frame`` cold (its memo emptied before
    every call) and warm (the same bytes again: a ``wire.query_envelopes``
    / ``wire.view_results`` hit), and the client's ``open_result`` cold
    and warm (``crypto.open_result``).  Wire v2 — SQL text three times
    over plus a carried key — was 282 / 187 / 260 B at stmt / template /
    blind for this query (762 / 314 / 617 B for ``getCustomer``, the
    longest one-parameter bookstore template; now 66 / 82 / 83 at most)
    and 5.5 / 10.9 us to encode / decode at stmt with every parse an
    intern hit.  No threshold: the end-to-end pairs carry the evidence.
    """
    bound = get_application("bookstore").registry.query("getName").bind([7])
    codec = EnvelopeCodec(Keyring("bookstore", b"k" * 32))
    result = ResultSet(
        ("i_id", "i_title", "a_fname", "a_lname"),
        tuple((i, f"title of book {i}", "Ada", f"Author{i}") for i in range(20)),
        ordered=True,
    )
    rounds = 20_000

    def per_call(function, argument, memo=None) -> float:
        """Mean seconds per call; with ``memo``, emptied before each."""
        started = time.perf_counter()
        for _ in range(rounds):
            if memo is not None:
                memo._data.clear()
            function(argument)
        return (time.perf_counter() - started) / rounds

    cases = [
        ("query", level, wire.QueryRequest(codec.seal_query(bound, level)))
        for level in (
            ExposureLevel.STMT, ExposureLevel.TEMPLATE, ExposureLevel.BLIND
        )
    ] + [
        ("result", level, wire.QueryResponse(codec.seal_result(result, level), True))
        for level in (ExposureLevel.VIEW, ExposureLevel.STMT)
    ]
    encode = lambda f: wire.encode_frame(f, request_id="r17")

    def measured():
        rows = []
        for kind, level, sealed in cases:
            raw = encode(sealed)
            frame = wire.decode_frame(raw)  # as a DSSP holds and re-sends it
            assert frame == sealed and encode(frame) == raw
            memo = wire._query_requests if kind == "query" else wire._view_results
            opens = (None, None)  # a query, or a view: nothing to open
            if kind == "result" and level is not ExposureLevel.VIEW:
                opened = frame.result
                assert codec.open_result(opened) == result
                opens = (
                    per_call(codec.open_result, opened, codec._open_result_memo),
                    per_call(codec.open_result, opened),
                )
            rows.append(
                (
                    f"{kind} {level.name.lower()}",
                    len(raw),
                    per_call(encode, frame),
                    per_call(wire.decode_frame, raw, memo),
                    per_call(wire.decode_frame, raw),
                    *opens,
                )
            )
        return rows

    def us(seconds: float | None) -> str:
        return "–" if seconds is None else f"{seconds * 1e6:.2f} us"

    rows = benchmark.pedantic(measured, rounds=1, iterations=1)
    lines = [
        f"{'frame':<15} {'bytes':>7} {'encode':>10} {'decode cold':>12} "
        f"{'decode warm':>12} {'open cold':>10} {'open warm':>10}",
        "-" * 82,
    ]
    lines += [
        f"{name:<15} {size:>5} B {us(enc):>10} {us(cold):>12} {us(warm):>12} "
        f"{us(open_cold):>10} {us(open_warm):>10}"
        for name, size, enc, cold, warm, open_cold, open_warm in rows
    ]
    emit("micro_envelope_codec", "\n".join(lines))
    # no SQL text in a query frame
    assert all(size < 260 for name, size, *_ in rows if name.startswith("query"))
