"""``serve-trace`` and ``serve-open``: the NDJSON frontend in front of a
warm 1-worker :class:`ServingFleet`.

Both workloads share one set-up: generate the cities; in a separate
builder process, as a deploy step would, build the service and a
:class:`WarmupPack` for the traffic's batch shapes and compute the
in-process reference answers; start the fleet and the frontend; serve
every warmed shape once so the worker has lowered its plans.  The set-up
runs :data:`SETUP_REPEATS` times and the median is ``setup_s``; the last
one serves the measured traffic.

- ``serve-trace`` (closed loop, one connection) pipelines bursts of a
  seeded mixed trace through ``FrontendClient.embed_many``; every
  response must be bit-identical to in-process ``EmbeddingService.run``.
- ``serve-open`` (open loop, one asyncio connection) sends small shards
  at seeded Poisson times at a fixed rate under the default flush
  policy; latency counts from each request's scheduled send time.
  Shard sizes are bucket edges, so every co-batch of ``b`` same-bucket
  shards has the mask of a warmed ``(b, edge)`` plan.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import time

import numpy as np

import openloop
from measure import (PassResult, Tracer, latency_summary, median, peak_rss_mb,
                     rss_mb)

SETUP_REPEATS = 3
CITIES = ("chi", "nyc")
#: serve-trace: the trace is replayed this many times per --seconds ...
REPLAYS_PER_SECOND = 1.5
MIN_REPLAYS = 2
#: ... and shards each city into this many pieces.
TRACE_SHARDS = {"chi": 4, "nyc": 5}
#: serve-open: the nominal offered rate (requests/s) and the rate ladder
#: the highest passing rate is searched on.
OPEN_RATE = 10.0
OPEN_LADDER = (10.0, 20.0, 40.0)
#: Requests an open-loop pass sends per --seconds: 199 at the default 10,
#: which puts the tail at p90 with 19 samples beyond it.
OPEN_REQUESTS_PER_SECOND = 19.9
MIN_REQUESTS = 20
#: Tail-latency limit of a passing rate (fixed once, from the seed).
OPEN_LIMIT_MS = 1000.0
#: serve-open's service capacity, and its shard sizes: bucket edges, so
#: all rows of a co-batch have one size and its mask is a warmed plan's.
OPEN_N_MAX = 45
OPEN_SIZES = (11, 22, 45)
OPEN_SHARDS_PER_SIZE = 2
#: Request dtypes; the frontend buckets each apart (None = model dtype).
OPEN_DTYPES = (None, "float32", "float64")
#: Batch sizes warmed per bucket edge; a larger co-batch (rare at these
#: rates: the nine size/dtype buckets each see a ninth of the traffic)
#: records a plan.
OPEN_WARM_BATCHES = (1, 2, 3, 4)
#: Allowed difference from the in-process single-request reference (the
#: repository's ragged-parity bound; float32 answers also get 2 ulp).
PARITY_ATOL = 1e-8
PARITY_RTOL = {"float64": 0.0, "float32": 2.5e-7}
START_DELAY = 0.05
BUILD_TIMEOUT = 120.0


def _policy(workload: str):
    from repro.serving import FlushPolicy
    # serve-trace dispatches stragglers with an explicit flush op, so a
    # long max_wait keeps co-batch compositions deterministic.
    return (FlushPolicy(max_batch=4, max_wait=30.0)
            if workload == "serve-trace" else FlushPolicy())


def _service_from(cities, seed: int, workload: str):
    """The service for ``workload``, sized on its traffic: whole cities
    for serve-trace, shards of at most :data:`OPEN_N_MAX` regions for
    serve-open (sized on full cities, every small shard would be padded
    to 180 regions and kernel time would dominate the open loop)."""
    from repro.core import HAFusionConfig
    from repro.data.features import ViewSet
    from repro.serving import EmbeddingService
    n_max = OPEN_N_MAX if workload == "serve-open" else None
    sample = [c.views() for c in cities]
    if n_max is not None:
        sample = [ViewSet(names=v.names, matrices=[m[:n_max] for m in v.matrices])
                  for v in sample]
    config = HAFusionConfig.for_city("nyc", conv_channels=4, dropout=0.0)
    return EmbeddingService.build(sample, config, seed=seed,
                                  policy=_policy(workload))


def build_service(seed: int, workload: str):
    """Fleet worker builder: the same service every process rebuilds."""
    from repro.data import load_city
    return _service_from([load_city(name, seed=seed) for name in CITIES],
                         seed, workload)


# ----------------------------------------------------------------------
# Seeded traffic
# ----------------------------------------------------------------------

def make_trace(rng, cities) -> list:
    """Both full cities plus their contiguous shards; the seed picks
    which half of each city's shards ask for float32, one shard per city
    with a 3-region subset, and the order of the burst within each
    scheduler bucket.  Buckets keep a fixed order, so the co-batches run
    in the same order for every seed."""
    from repro.core import shard_viewset
    from repro.serving import EmbedRequest
    from repro.serving.api import default_bucket_edges
    items = [dict(views=cities[name].views(), name=name)
             for name in ("chi", "nyc")]
    for name, parts in TRACE_SHARDS.items():
        shards = shard_viewset(cities[name].views(), parts)
        f32 = set(rng.choice(parts, parts // 2, replace=False).tolist())
        with_subset = int(rng.integers(parts))
        for i, shard in enumerate(shards):
            subset = None
            if i == with_subset:
                subset = sorted(rng.choice(shard.n_regions, 3,
                                           replace=False).tolist())
            items.append(dict(views=shard, name=f"{name}/{i}",
                              dtype="float32" if i in f32 else None,
                              region_subset=subset))
    edges = default_bucket_edges(cities["nyc"].n_regions)

    def bucket(item):
        edge = min(e for e in edges if e >= item["views"].n_regions)
        return -edge, item.get("dtype") or ""

    burst = sorted((items[k] for k in rng.permutation(len(items))), key=bucket)
    return [EmbedRequest(**item) for item in burst]


def make_pool(rng, cities) -> list:
    """Contiguous shards of each size in :data:`OPEN_SIZES`, half from
    each city, at seeded start regions."""
    from repro.data.features import ViewSet
    pool = []
    for size in OPEN_SIZES:
        for k in range(OPEN_SHARDS_PER_SIZE):
            views = cities[("chi", "nyc")[k % 2]].views()
            start = int(rng.integers(views.n_regions - size + 1))
            pool.append(ViewSet(names=views.names, matrices=[
                m[start:start + size] for m in views.matrices]))
    return pool


def open_requests(rng, pool, count: int) -> list[tuple[int, str | None]]:
    """(pool index, dtype) per request: every shard and every dtype
    equally often, in seeded order."""
    shards = np.resize(np.arange(len(pool)), count)[rng.permutation(count)]
    dtypes = np.resize(np.arange(len(OPEN_DTYPES)), count)[rng.permutation(count)]
    return [(int(s), OPEN_DTYPES[d]) for s, d in zip(shards, dtypes)]


# ----------------------------------------------------------------------
# Set-up and teardown
# ----------------------------------------------------------------------

def _build_pack(workload: str, seed: int, pack_dir: str, requests,
                conn) -> None:
    """Pack-builder process: record the traffic's plans into ``pack_dir``
    and send back the in-process reference answers."""
    from repro.serving import EmbedRequest, WarmupPack
    service = build_service(seed, workload)
    if workload == "serve-trace":
        # The reference replay records every co-batch composition of the
        # trace into the pack directory.
        WarmupPack.build(service, shape_grid=[(1, service.n_max)],
                         directory=pack_dir)
        answers = [r.embeddings for r in service.run(requests)]
    else:
        WarmupPack.build(service, directory=pack_dir, shape_grid=[
            (b, n) for n in OPEN_SIZES for b in OPEN_WARM_BATCHES])
        answers = [service.run([EmbedRequest(v)])[0].embeddings
                   for v in requests]
    conn.send(answers)
    conn.close()


class Deployment:
    """One set-up: pack and reference answers (built in a separate
    process, as a deploy step would), fleet, frontend."""

    def __init__(self, workload: str, seed: int, workdir: str, index: int):
        from repro.data import load_city
        from repro.serving import FrontendThread, ServingFleet, ServingFrontend
        start = time.perf_counter()
        self.seed, self.workload = seed, workload
        self.policy = _policy(workload)
        self.cities = {name: load_city(name, seed=seed) for name in CITIES}
        self.load_city_s = time.perf_counter() - start
        rng = np.random.default_rng(seed)
        if workload == "serve-trace":
            self.trace = make_trace(rng, self.cities)
        else:
            self.pool = make_pool(rng, self.cities)
        service = _service_from(self.cities.values(), seed, workload)
        self.n_max, self.view_dims = service.n_max, list(service.view_dims)
        self.view_names = service.view_names
        del service
        self.pack_dir = f"{workdir}/pack{index}"
        pack_start = time.perf_counter()
        self.reference = _run_builder(
            workload, seed, self.pack_dir,
            self.trace if workload == "serve-trace" else self.pool)
        self.pack_build_s = time.perf_counter() - pack_start
        self.fleet = ServingFleet(build_service, (seed, workload),
                                  n_workers=1, pack_dir=self.pack_dir)
        # Forked workers start out sharing these pages with this process.
        self.rss_at_fork_mb = rss_mb()
        self.thread = None
        try:
            fleet_start = time.perf_counter()
            self.fleet.start()
            self.fleet_start_s = time.perf_counter() - fleet_start
            self.frontend = ServingFrontend(
                self.fleet, n_max=self.n_max, view_dims=self.view_dims,
                view_names=self.view_names, policy=self.policy)
            self.thread = FrontendThread(self.frontend).start()
            self._warm(workload)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _warm(self, workload: str) -> None:
        """Serve every warmed batch shape once, so the worker has lowered
        its plans from the pack before anything is timed."""
        from repro.serving import EmbedRequest
        with self.thread.client() as client:
            if workload == "serve-trace":
                client.embed_many(self.trace)
                return
            # One shard per size; its copies co-batch (same bucket) and
            # the flush op dispatches each bucket as one batch of b.
            shards = [self.pool[OPEN_SHARDS_PER_SIZE * i]
                      for i in range(len(OPEN_SIZES))]
            for b in OPEN_WARM_BATCHES:
                client.embed_many([EmbedRequest(v) for v in shards
                                   for _ in range(b)])

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus what each worker added beyond
        the pages it shared with this process when forked."""
        return peak_rss_mb() + sum(peak_rss_mb(pid) - self.rss_at_fork_mb
                                   for pid in self.fleet.pids() if pid)

    def stats(self) -> dict:
        with self.thread.client() as client:
            return client.stats()

    def close(self) -> None:
        try:
            if self.thread is not None:
                self.thread.stop()
        finally:
            self.fleet.stop(graceful=False)   # no-op once stopped

    def twin(self):
        """An in-process service with the fleet's configuration, attached
        to the same pack; returns (service, attach seconds)."""
        from repro.serving import WarmupPack
        service = _service_from(self.cities.values(), self.seed,
                                self.workload)
        start = time.perf_counter()
        WarmupPack.load(self.pack_dir).attach(service)
        return service, time.perf_counter() - start


def _run_builder(workload: str, seed: int, pack_dir: str, requests) -> list:
    ctx = mp.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    builder = ctx.Process(target=_build_pack, name="perfbench-pack-builder",
                          args=(workload, seed, pack_dir, requests, sender))
    builder.start()
    sender.close()
    try:
        if not receiver.poll(BUILD_TIMEOUT):
            raise TimeoutError(f"pack builder gave no answer in {BUILD_TIMEOUT}s")
        answers = receiver.recv()
    except EOFError:
        raise RuntimeError("pack builder exited without an answer") from None
    finally:
        receiver.close()
        builder.join(timeout=BUILD_TIMEOUT)
        if builder.is_alive():
            builder.kill()
            builder.join()
    if builder.exitcode != 0:
        raise RuntimeError(f"pack builder exited with {builder.exitcode}")
    return answers


def _deploy(workload: str, seed: int, workdir: str,
            setups: int) -> tuple[Deployment, list]:
    setup_times = []
    for index in range(setups):
        deployment = Deployment(workload, seed, workdir, index)
        setup_times.append(deployment.setup_s)
        if index + 1 < setups:
            deployment.close()
    return deployment, setup_times


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def run_pass(workload: str, seed: int, seconds: int, traced: bool,
             workdir: str, setups: int = SETUP_REPEATS) -> PassResult:
    deployment, setup_times = _deploy(workload, seed, workdir, setups)
    tracer = Tracer()
    try:
        before = deployment.stats()
        if traced:
            hops = _trace_fleet(tracer, deployment.fleet)
        if workload == "serve-trace":
            out = _closed_loop(deployment, seconds)
        else:
            count = max(MIN_REQUESTS, round(OPEN_REQUESTS_PER_SECOND * seconds))
            ladder = {}
            if traced:
                for rate in OPEN_LADDER:
                    if rate != OPEN_RATE:
                        ladder[rate] = _open_loop(deployment, rate, count // 2)
            out = _open_loop(deployment, OPEN_RATE, count)
        tracer.restore()
        after = deployment.stats()
        rss = deployment.peak_rss_mb()
        e2e = {"setup_s": median(setup_times),
               "regions_per_s": out["regions_per_s"],
               "latency_p50_ms": out["latency"]["p50_ms"],
               "latency_tail_ms": out["latency"]["tail_ms"],
               "peak_rss_mb": rss}
        errors = out["errors"] + _check_stats(workload, before, after)
        failed = out["failed"] + sum(after[k] - before[k]
                                     for k in ("shed", "rejected"))
        layers = {}
        if traced:
            layers = _layer_metrics(workload, deployment, tracer, out, after,
                                    hops)
            layers["run.fail_ratio"] = failed / out["attempted"]
            if workload == "serve-open":
                ladder[OPEN_RATE] = out
                layers["open.max_rate_rps"] = openloop.max_passing_rate(
                    {r: (o["latencies"], o["failed"]) for r, o in ladder.items()},
                    OPEN_LIMIT_MS)
    finally:
        tracer.restore()
        deployment.close()
    return PassResult(e2e=e2e, layers=layers, attempted=out["attempted"],
                      failed=failed, errors=errors, tracer=tracer)


def _check_stats(workload: str, before: dict, after: dict) -> list[str]:
    errors = []
    fleet = after["fleet"]
    # serve-trace's compositions are all in the pack; serve-open reports
    # a (rare) unwarmed co-batch as plancache.events.record instead.
    if workload == "serve-trace" and fleet["record_epochs"]:
        errors.append(f"fleet paid {fleet['record_epochs']} record epochs")
    for key in ("crashes", "retries", "failed_batches"):
        if fleet[key] != before["fleet"][key]:
            errors.append(f"fleet {key}: {fleet[key]}")
    if after["deadline_failures"] != before["deadline_failures"]:
        errors.append(f"deadline failures: {after['deadline_failures']}")
    return errors


def _closed_loop(deployment: Deployment, seconds: int) -> dict:
    """Replay the trace as pipelined bursts over one connection."""
    trace, reference = deployment.trace, deployment.reference
    replays = max(MIN_REPLAYS, round(REPLAYS_PER_SECOND * seconds))
    sent, arrived, server = {}, {}, {}
    errors, failed, rates, responses = [], 0, [], []
    with deployment.thread.client() as client:
        send, recv = client._send, client._recv

        def timed_send(payload):
            if payload.get("op") == "embed":
                sent[payload["id"]] = time.perf_counter()
            send(payload)

        def timed_recv():
            reply = recv()
            arrived[reply.get("id")] = time.perf_counter()
            if "latency_seconds" in reply:
                server[reply["id"]] = reply["latency_seconds"]
            return reply

        client._send, client._recv = timed_send, timed_recv
        for _ in range(replays):
            start = time.perf_counter()
            got = client.embed_many(trace, on_error="return")
            rates.append(sum(r.n_regions for r in got if not isinstance(r, dict))
                         / (time.perf_counter() - start))
            for request, response, want in zip(trace, got, reference):
                if isinstance(response, dict):
                    failed += 1
                    errors.append(f"{request.name}: {response.get('error')}")
                    continue
                responses.append(response)
                if (response.embeddings.dtype != want.dtype
                        or not np.array_equal(response.embeddings, want)):
                    errors.append(f"{request.name}: socket answer differs "
                                  f"from in-process EmbeddingService.run")
    latencies = [arrived[i] - sent[i] for i in sent if i in arrived]
    # The median burst: a burst hit by a host hiccup does not move it.
    return {"attempted": replays * len(trace), "failed": failed,
            "errors": errors[:5], "regions_per_s": median(rates),
            "latencies": latencies, "latency": latency_summary(latencies),
            "server": [server[i] for i in sent if i in server],
            "client": [arrived[i] - sent[i] for i in sent if i in server],
            "responses": responses, "requests": trace, "lateness": None}


async def _send_on_schedule(host, port, lines, offsets):
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 26)
    loop = asyncio.get_running_loop()
    sent = [0.0] * len(lines)
    arrived, raw = {}, {}

    async def receive():
        for _ in lines:
            line = await reader.readline()
            if not line:
                raise ConnectionError("frontend closed the connection")
            at = loop.time()
            key = _reply_id(line)
            arrived[key], raw[key] = at, line

    receiver = asyncio.create_task(receive())
    start = loop.time() + START_DELAY
    try:
        for i, (line, offset) in enumerate(zip(lines, offsets)):
            delay = start + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[i] = loop.time()
            writer.write(line)
            await writer.drain()
        await asyncio.wait_for(receiver, timeout=120.0)
    finally:
        receiver.cancel()
        writer.close()
        await writer.wait_closed()
    return start, sent, arrived, raw


def _reply_id(line: bytes) -> int:
    # The frontend appends the echoed id last, so the reader finds it
    # without parsing a whole reply on the sending loop.
    return int(line[line.rfind(b'"id": ') + 6:].rstrip(b"}\r\n "))


def _open_loop(deployment: Deployment, rate: float, count: int) -> dict:
    """Send ``count`` shard requests at seeded Poisson times."""
    from repro.serving import EmbedRequest
    from repro.serving.api import request_to_wire, response_from_wire
    rng = np.random.default_rng([deployment.seed, int(rate * 1000)])
    plan = open_requests(rng, deployment.pool, count)
    offsets = openloop.poisson_schedule(rng, rate, count)
    requests, lines = [], []
    for i, (shard, dtype) in enumerate(plan):
        request = EmbedRequest(deployment.pool[shard], dtype=dtype,
                               name=f"shard{shard}")
        wire = request_to_wire(request)
        wire["id"] = i
        requests.append(request)
        lines.append(json.dumps(wire).encode() + b"\n")
    frontend = deployment.frontend
    start, sent, arrived, raw = asyncio.run(_send_on_schedule(
        frontend.host, frontend.port, lines, offsets))

    errors, failed, regions, responses = [], 0, 0, []
    latencies, server, client = [], [], []
    for i, (shard, dtype) in enumerate(plan):
        reply = json.loads(raw[i])
        latencies.append(arrived[i] - (start + offsets[i]))
        if not reply.get("ok"):
            failed += 1
            errors.append(f"request {i}: {reply.get('error')}")
            continue
        response = response_from_wire(reply)
        regions += response.n_regions
        responses.append(response)
        server.append(reply["latency_seconds"])
        client.append(arrived[i] - sent[i])
        want = deployment.reference[shard].astype(response.embeddings.dtype)
        if (response.embeddings.shape != want.shape or not np.allclose(
                response.embeddings, want, atol=PARITY_ATOL,
                rtol=PARITY_RTOL[str(want.dtype)])):
            errors.append(f"request {i} (shard {shard}, {dtype}): answer "
                          f"outside the ragged-parity bound")
    return {"attempted": count, "failed": failed, "errors": errors[:5],
            "regions_per_s": regions / (max(arrived.values()) - start),
            "latencies": latencies, "latency": latency_summary(latencies),
            "server": server, "client": client, "responses": responses,
            "requests": requests, "plan": plan, "offsets": offsets,
            "lateness": openloop.lateness([start + o for o in offsets], sent)}


# ----------------------------------------------------------------------
# Per-layer metrics (traced passes)
# ----------------------------------------------------------------------

def _trace_fleet(tracer: Tracer, fleet) -> list[float]:
    """Time each batch's fleet hop: submit -> result, minus the worker's
    compute time."""
    submitted, hops = {}, []

    def on_submit(args, result, span):
        submitted[args[0]] = span["start"]

    def on_result(args, result, span):
        if result.responses and result.batch_id in submitted:
            hops.append(span["end"] - submitted.pop(result.batch_id)
                        - result.responses[0].compute_seconds)

    tracer.wrap(fleet, "submit", "fleet.submit", on_return=on_submit)
    tracer.wrap(fleet, "next_result", "fleet.next_result", on_return=on_result)
    return hops


def _layer_metrics(workload, deployment, tracer, out, stats, hops) -> dict:
    events = {"hit": 0, "spec": 0, "disk": 0, "record": 0}
    for response in out["responses"]:
        events[response.plan_event] = events.get(response.plan_event, 0) + 1
    server = latency_summary(out["server"])
    fleet = stats["fleet"]
    layers = {
        "data.load_city_s": deployment.load_city_s,
        "plancache.pack_build_s": deployment.pack_build_s,
        "fleet.start_s": deployment.fleet_start_s,
        "fleet.hop_ms": median(hops) * 1e3,
        **{f"plancache.events.{k}": v for k, v in events.items()},
        **{f"fleet.{k}": fleet[k]
           for k in ("crashes", "retries", "respawns", "failed_batches")},
        **{f"frontend.{k}": stats[k]
           for k in ("shed", "rejected", "deadline_failures")},
        "frontend.latency_p50_ms": server["p50_ms"],
        "frontend.latency_tail_ms": server["tail_ms"],
        "frontend.client_overhead_ms": median(
            [c - s for c, s in zip(out["client"], out["server"])]) * 1e3,
        "run.tail_percentile": out["latency"]["tail_pct"],
    }
    if out["lateness"] is not None:
        layers["open.send_lateness_tail_ms"] = \
            latency_summary(out["lateness"])["tail_ms"]
    layers.update(_codec_metrics(out["requests"], out["responses"]))
    layers.update(_inprocess_metrics(workload, deployment, tracer, out))
    return layers


def _codec_metrics(requests, responses) -> dict:
    """Wire codec cost per message on this pass's own traffic."""
    from repro.serving.api import (request_from_wire, request_to_wire,
                                   response_from_wire, response_to_wire)
    times: dict[str, list[float]] = {}

    def timed(name, fn, arg):
        start = time.perf_counter()
        out = fn(arg)
        times.setdefault(name, []).append(time.perf_counter() - start)
        return out

    sizes = []
    for request in requests[:64]:
        line = timed("request_encode", lambda r: json.dumps(request_to_wire(r)),
                     request)
        sizes.append(len(line))
        timed("request_decode", lambda s: request_from_wire(json.loads(s)), line)
    for response in responses[:64]:
        line = timed("response_encode",
                     lambda r: json.dumps(response_to_wire(r)), response)
        timed("response_decode", lambda s: response_from_wire(json.loads(s)),
              line)
    metrics = {f"codec.{k}_ms": median(v) * 1e3 for k, v in times.items()}
    metrics["codec.request_bytes"] = median(sizes)
    return metrics


def _inprocess_metrics(workload, deployment, tracer, out) -> dict:
    """Scheduler, service and serving-plan metrics from an in-process
    twin of the fleet's service, driven by this pass's traffic."""
    from repro.nn.compile import InferencePlan
    service, attach_s = deployment.twin()
    plans = {}
    tracer.wrap(InferencePlan, "run", "compile.infer.run",
                on_return=lambda a, r, s: plans.setdefault(id(a[0]), a[0]))
    try:
        if workload == "serve-trace":
            service.run(deployment.trace)          # relower from the pack
            mark = service.flush_seq
            start = time.perf_counter()
            responses = []
            for _ in range(MIN_REPLAYS):
                responses += service.run(deployment.trace)
            inproc_s = time.perf_counter() - start
        else:
            mark = service.flush_seq
            start = time.perf_counter()
            responses = _drive_twin(service, deployment, out)
            inproc_s = time.perf_counter() - start
    finally:
        tracer.restore()
    flushes = [f for f in service.flush_log if f["seq"] > mark]
    rows = sum(f["batch_size"] for f in flushes)
    real = sum(sum(f["n_regions"]) for f in flushes)
    computes = list({id(r): r.compute_seconds for r in responses}.values())
    wait = latency_summary([r.wait_seconds for r in responses])
    compute = latency_summary(computes)
    gate = total = 0.0
    for plan in plans.values():
        report = plan.profile(replays=2)
        gate += report["ops"].get("F:fused_gate", {}).get("seconds", 0.0)
        total += report["seconds_per_replay"] * report["replays"]
    return {
        "plancache.attach_s": attach_s,
        "scheduler.batch_size": rows / len(flushes),
        "scheduler.fill_ratio": real / (rows * service.n_max),
        "scheduler.queue_wait_p50_ms": wait["p50_ms"],
        "scheduler.queue_wait_tail_ms": wait["tail_ms"],
        "service.compute_p50_ms": compute["p50_ms"],
        "service.compute_tail_ms": compute["tail_ms"],
        "service.inproc_regions_per_s":
            sum(r.n_regions for r in responses) / inproc_s,
        "compile.infer.run_ms": median(tracer.durations("compile.infer.run")) * 1e3,
        "compile.infer.share.fused_gate": gate / total,
        "compile.infer.slot_bytes": sum(p.buffer_report()["slot_bytes"]
                                        for p in plans.values()),
    }


def _drive_twin(service, deployment, out) -> list:
    """Submit the open-loop pass's requests at their scheduled offsets on
    the service's injected clock, polling on the frontend's flush tick."""
    from repro.serving import EmbedRequest
    tick = max(min(service.policy.max_wait / 2, 0.05), 0.001)
    tickets, now = [], 0.0
    for (shard, dtype), offset in zip(out["plan"], out["offsets"]):
        while now + tick <= offset:
            now += tick
            service.poll(now=now)
        tickets.append(service.submit(
            EmbedRequest(deployment.pool[shard], dtype=dtype), now=offset))
    service.flush(now=out["offsets"][-1] + service.policy.max_wait)
    return [t.response for t in tickets]
