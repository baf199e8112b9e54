"""Command-line entry points for the coordination daemon.

::

    # a daemon serving the many-writers mix's coordination traffic
    python -m repro.service serve --scenario many-writers --napps 24 \
        --port 7421 --ops-port 7422

    # replay the (identically parameterized) recorded trace through it
    python -m repro.service loadgen --scenario many-writers --napps 24 \
        --connect 127.0.0.1:7421 --nclients 4

    # ask a running daemon to drain and exit
    python -m repro.service drain --ops 127.0.0.1:7422

    # the whole loop in one process (CI smoke)
    python -m repro.service smoke

``serve`` runs until drained (``POST /drain`` on the ops port) and exits
0 after a clean drain.  ``loadgen`` exits non-zero if the daemon's
decision log is not bit-identical to the in-process reference.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..experiments.scenarios import build_scenario
from .loadgen import replay_trace, run_service_benchmark
from .server import CoordinationService, ServiceConfig
from .trace import record_trace, spec_fingerprint

_SCENARIO_ARGS = ("napps", "nservers", "phases", "seed")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="service-many-writers")
    parser.add_argument("--napps", type=int, default=24)
    parser.add_argument("--nservers", type=int, default=8)
    parser.add_argument("--phases", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--strategy", default="fcfs")


def _build_spec(args: argparse.Namespace):
    kwargs = {name: getattr(args, name) for name in _SCENARIO_ARGS}
    kwargs["strategy"] = args.strategy
    specs = build_scenario(args.scenario, **kwargs)
    if len(specs) != 1:
        raise SystemExit(f"scenario {args.scenario!r} builds {len(specs)} "
                         "specs; the daemon serves exactly one")
    return specs[0]


def _add_wire_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pipeline", type=int, default=1,
                        help="exchanges queued per flush; 1 = lockstep")


def _split_endpoint(value: str):
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", int(port)


async def _serve(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    config = ServiceConfig(host=args.host, port=args.port,
                           ops_port=args.ops_port,
                           max_sessions=args.max_sessions,
                           max_pending=args.max_pending,
                           spec_sha=spec_fingerprint(spec))
    service = CoordinationService(spec, config)
    await service.start()
    print(json.dumps({"event": "listening",
                      "endpoint": list(service.address),
                      "ops": (list(service.ops_address)
                              if service.ops_address else None),
                      "spec_sha": config.spec_sha}), flush=True)
    await service._drained.wait()
    await service.close()
    health = service.health()
    print(json.dumps({"event": "drained",
                      "clean": True,
                      "decisions": health["decisions"],
                      "sim_time": health["sim_time"]}), flush=True)
    return 0


async def _loadgen(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    trace, result = record_trace(spec)
    host, port = _split_endpoint(args.connect)
    stats = await replay_trace(
        trace, host, port, args.nclients,
        reference_decisions=result.decisions,
        inproc_wall_seconds=float(result.perf.get("wall_seconds", 0.0)),
        pipeline=args.pipeline)
    record = stats.as_record()
    record.update({"event": "loadgen", "nclients": stats.nclients,
                   "pipeline": args.pipeline,
                   "equivalent": stats.equivalent})
    print(json.dumps(record), flush=True)
    if not stats.equivalent:
        print("decision log over the wire DIVERGED from the in-process "
              "reference", file=sys.stderr)
        return 1
    return 0


async def _drain(args: argparse.Namespace) -> int:
    host, port = _split_endpoint(args.ops)
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"POST /drain HTTP/1.0\r\n\r\n")
    await writer.drain()
    response = await reader.read()
    writer.close()
    status = response.split(b" ", 2)[1:2]
    ok = status and status[0] in (b"202", b"200")
    print(response.decode("utf-8", "replace").rsplit("\r\n", 1)[-1],
          flush=True)
    return 0 if ok else 1


async def _smoke(args: argparse.Namespace) -> int:
    """Daemon + loadgen + drain in one process; asserts the whole loop."""
    spec = _build_spec(args)
    stats, service = await run_service_benchmark(
        spec, args.nclients, pipeline=args.pipeline)
    ok = stats.equivalent and service._drained.is_set()
    print(json.dumps({"event": "smoke", "ok": ok,
                      "decisions": stats.decisions,
                      "exchanges": stats.exchanges,
                      "service_rate": stats.service_rate,
                      "p99_latency_s": stats.p99_latency_s,
                      "equivalent": stats.equivalent,
                      "clean_drain": service._drained.is_set()}),
          flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.service")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the coordination daemon")
    _add_scenario_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--ops-port", type=int, default=0)
    serve.add_argument("--max-sessions", type=int, default=1024)
    serve.add_argument("--max-pending", type=int, default=64)
    serve.set_defaults(run=_serve)

    loadgen = sub.add_parser("loadgen", help="replay a trace over the wire")
    _add_scenario_args(loadgen)
    loadgen.add_argument("--connect", required=True,
                         help="daemon endpoint, host:port")
    loadgen.add_argument("--nclients", type=int, default=4)
    _add_wire_args(loadgen)
    loadgen.set_defaults(run=_loadgen)

    drain = sub.add_parser("drain", help="gracefully drain a daemon")
    drain.add_argument("--ops", required=True,
                       help="ops endpoint, host:port")
    drain.set_defaults(run=_drain)

    smoke = sub.add_parser("smoke", help="daemon+loadgen+drain, one process")
    _add_scenario_args(smoke)
    smoke.add_argument("--nclients", type=int, default=3)
    _add_wire_args(smoke)
    smoke.set_defaults(run=_smoke)

    args = parser.parse_args(argv)
    return asyncio.run(args.run(args))


if __name__ == "__main__":
    sys.exit(main())
