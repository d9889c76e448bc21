"""The networked service layer (paper Figures 1 and 2, deployed).

The in-process reproduction wires :class:`~repro.dssp.proxy.DsspNode` and
:class:`~repro.dssp.homeserver.HomeServer` together with direct calls.
This package puts the *network* back between them:

* :mod:`repro.net.wire` — length-prefixed binary frames; envelopes stay
  sealed on the wire, so the exposure guarantees carry over byte-for-byte;
* :mod:`repro.net.home_server` — asyncio server around one or more home
  servers, including the invalidation-stream channel that fans completed
  updates out to subscribed DSSP nodes;
* :mod:`repro.net.dssp_server` — asyncio server around a
  :class:`~repro.dssp.proxy.DsspNode` with remote miss/update forwarding;
* :mod:`repro.net.client` — async client multiplexing requests over one
  connection, with retry/backoff and typed error mapping;
* :mod:`repro.net.loadgen` — load generator for measured (not
  analytic-model) strategy comparisons: one page runner behind a
  closed-loop driver and an open-loop driver that issues on an arrival
  schedule with drop accounting;
* :mod:`repro.net.traffic` — seeded arrival processes (Poisson, ON/OFF,
  diurnal, flash-crowd) with byte-for-byte reproducible schedules;
* :mod:`repro.net.deploy` — the one networked deployment: a home, N
  DSSP nodes and their clients (optionally behind chaos proxies), with
  one start order, readiness barrier, restart and stop order;
* :mod:`repro.net.scenarios` — named scenario deployments (steady,
  flash_crowd, multi_tenant, diurnal) and the knee-curve sweep;
* :mod:`repro.net.chaos` — seeded, fully deterministic fault injection
  (frame drops/delays/duplications/truncations via an in-process TCP
  proxy, plus node kill/restart schedules);
* :mod:`repro.net.oracle` — the consistency oracle: replays the identical
  trace through the trusted in-process engine and asserts no stale reads,
  no lost acked updates, and home-database convergence.
"""

from repro.net.chaos import (
    ChaosLog,
    ChaosProxy,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.net.client import (
    RetryPolicy,
    Subscription,
    WireClient,
)
from repro.net.deploy import Deployment, NodeHandle, eventually
from repro.net.dssp_server import DsspNetServer
from repro.net.home_server import HomeNetServer, UpdateDedup
from repro.net.loadgen import (
    LoadReport,
    TenantWorkload,
    run_load,
    run_open_load,
)
from repro.net.oracle import (
    ChaosRunner,
    ChaosTopology,
    OracleReport,
    Violation,
    run_chaos,
)
from repro.net.router import ShardRouter
from repro.net.scenarios import (
    SCENARIOS,
    deploy_scenario,
    find_knee,
    flash_crowd_trace,
    run_scenario,
    sweep_scenario,
)
from repro.net.traffic import (
    ARRIVAL_KINDS,
    ArrivalSchedule,
    DiurnalArrivals,
    FlashCrowdArrivals,
    OnOffArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.net.wire import (
    ErrorCode,
    ErrorResponse,
    FrameType,
    InvalidationBatch,
    InvalidationPush,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    SubscribeRequest,
    SubscribeResponse,
    UpdateRequest,
    UpdateResponse,
    decode_frame,
    decode_traced,
    encode_frame,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSchedule",
    "ChaosLog",
    "ChaosProxy",
    "ChaosRunner",
    "ChaosTopology",
    "Deployment",
    "DiurnalArrivals",
    "DsspNetServer",
    "ErrorCode",
    "ErrorResponse",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FlashCrowdArrivals",
    "FrameType",
    "HomeNetServer",
    "InvalidationBatch",
    "InvalidationPush",
    "LoadReport",
    "NodeHandle",
    "OnOffArrivals",
    "PoissonArrivals",
    "SCENARIOS",
    "TenantWorkload",
    "OracleReport",
    "QueryRequest",
    "QueryResponse",
    "RetryPolicy",
    "ShardRouter",
    "StatsRequest",
    "StatsResponse",
    "SubscribeRequest",
    "SubscribeResponse",
    "Subscription",
    "UpdateDedup",
    "UpdateRequest",
    "UpdateResponse",
    "Violation",
    "WireClient",
    "decode_frame",
    "decode_traced",
    "deploy_scenario",
    "encode_frame",
    "eventually",
    "find_knee",
    "flash_crowd_trace",
    "make_arrivals",
    "run_chaos",
    "run_open_load",
    "run_scenario",
    "sweep_scenario",
]
