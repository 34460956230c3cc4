"""One workload in one fresh process: set-up, timed loop, checks.

Modes:

* ``prepare`` writes what a workload loads at set-up (a store snapshot or
  an ingest directory), before any timing;
* ``setup`` times set-up only, from the parent's spawn time (imports
  included) until the first request could be sent;
* ``run`` times set-up and then the closed loop, checks every ranking,
  and reports end-to-end metrics (``--trace 0``) or per-layer metrics
  (``--trace 1``).

The last stdout line is one JSON object for ``run.py``.  Every timing is
speed-corrected with :mod:`calib`.
"""

import time

SPAWNED = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import calib  # noqa: E402

#: Share of the run the lists/metadata read loop takes; their write
#: phase takes the rest.
READ_SHARE = 0.8
#: Writes are counted, not timed: a checkpoint costs more the longer the
#: delta chain (~20 ms at the first, ~70 ms at the 40th), so a write
#: phase cut by time would report a different mix on every run.  The
#: counts fill about the intended share of a run at the reference speed.
WRITES_PER_SECOND = 40
LIVE_CYCLES_PER_SECOND = 10
#: A run stops at this many times its corrected budget of wall time.
WALL_CAP = 2.0


def percentile(values, fraction):
    """The fraction-quantile by the inclusive method (p50 = median)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Sample:
    __slots__ = ("kind", "label", "raw", "tick", "traced", "layers", "factor")

    def __init__(self, kind, label, raw, tick, traced, layers):
        self.kind = kind
        self.label = label
        self.raw = raw
        self.tick = tick
        self.traced = traced
        self.layers = layers
        self.factor = 1.0

    @property
    def ms(self):
        return self.raw * self.factor * 1e3


class Run:
    """The state of one run: workload, calibrator, tracer and samples."""

    def __init__(self, workload, tracer, cal):
        self.workload = workload
        self.tracer = tracer
        self.cal = cal
        self.samples = []
        self.failed = 0
        self.failures = []
        self.busy = 0.0

    # -- timing ----------------------------------------------------------
    def estimated_factor(self):
        recent = self.cal.slices[-2 * calib.WINDOW:]
        return calib.NOMINAL_SLICE_S / statistics.median(recent)

    def measure(self, kind, label, operation, probe=None):
        """Time one operation next to one calibration slice."""
        # A served request leaves the server thread finishing its
        # bookkeeping; let it reach its idle wait so it does not share the
        # interpreter with the slice.
        time.sleep(self.workload.settle_s)
        tick = self.cal.tick()
        traced = self.tracer is not None and self.tracer.active
        before = probe() if traced and probe else None
        snap = self.tracer.snapshot() if traced else None
        started = time.perf_counter()
        result = operation()
        raw = time.perf_counter() - started
        layers = None
        if traced:
            layers = {"wrapped": _delta(snap, self.tracer.snapshot())}
            if probe:
                layers["probe"] = (before, probe())
        self.samples.append(Sample(kind, label, raw, tick, traced, layers))
        self.busy += raw * self.estimated_factor()
        return result, self.samples[-1]

    def finish_timing(self):
        for __ in range(calib.WINDOW):
            self.cal.tick()
        for sample in self.samples:
            sample.factor = self.cal.factor(sample.tick)

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def _delta(before, after):
    calls = {name: after[0][name] - before[0][name] for name in after[0]}
    self_s = {name: after[1][name] - before[1][name] for name in after[1]}
    counters = {name: after[2][name] - before[2][name] for name in after[2]}
    return calls, self_s, counters


# ---------------------------------------------------------------------------
# probes of program-reported counters (traced run only)
# ---------------------------------------------------------------------------
PICTURE_FIELDS = (
    "segments_scored",
    "fingerprint_hits",
    "candidate_segments",
    "bindings",
    "unbounded_bindings",
)


def picture_counters(workload):
    totals = {name: 0 for name in PICTURE_FIELDS}
    totals["bounded_space"] = 0
    for system in workload.pictures():
        stats = system.stats
        for name in PICTURE_FIELDS:
            totals[name] += getattr(stats, name)
        bounded = stats.bindings - stats.unbounded_bindings
        totals["bounded_space"] += bounded * len(system.segments)
    return totals


# ---------------------------------------------------------------------------
# the request and its checks
# ---------------------------------------------------------------------------
def query_once(run, htl, label):
    """One request: query text -> parse -> global top-25 ranking."""
    workload = run.workload
    text = workload.templates[label][0]
    engine_box = []

    def operation():
        formula = workload.resolve(htl.parse(text))
        result, engine = workload.query(formula)
        engine_box.append(engine)
        return formula, result

    def probe():
        return picture_counters(workload)

    # Planner stats come from the engine the request used: a fresh engine
    # starts at zero, the served worker's long-lived one carries over.
    before_plans = workload.planner_stats()
    (formula, result), sample = run.measure("query", label, operation, probe)
    if sample.traced:
        sample.layers["plans"] = (before_plans, engine_box[0].planner.stats)
    topk = result
    if hasattr(result, "status"):  # a ServeResult
        if sample.traced:
            sample.layers["serve"] = (result.queue_ms, result.total_ms - result.service_ms)
        if not result.completed or result.degraded:
            run.fail(f"{label}: served request {result.status}")
            return formula, None, sample
        topk = result.topk
    elif topk.partial:
        run.fail(f"{label}: partial ranking")
        return formula, None, sample
    if sample.traced:
        outcomes = [outcome.status for outcome in topk.outcomes]
        sample.layers["outcomes"] = (
            outcomes.count("ok"),
            outcomes.count("pruned"),
            len(outcomes),
        )
    return formula, topk, sample


def check(run, label, formula, got, reference_fn):
    from workloads import ranking

    if ranking(got) != ranking(reference_fn(formula)):
        run.fail(f"{label}: ranking differs from the reference path")


def read_loop(run, htl, budget_s, wall_deadline, rng):
    """Closed loop of cold requests; each distinct (template, corpus)
    ranking is kept, every later request must repeat it exactly."""
    from workloads import deck, ranking

    first = {}
    cards = []
    while run.busy < budget_s and time.monotonic() < wall_deadline:
        if not cards:
            cards = deck(run.workload.templates, rng)
        label = cards.pop()
        formula, topk, __ = query_once(run, htl, label)
        if topk is None:
            continue
        if label not in first:
            first[label] = (formula, topk)
        elif ranking(topk) != ranking(first[label][1]):
            run.fail(f"{label}: ranking changed between identical requests")
    return first


def timed_write(run, writer):
    """One durable write; traced runs also count the bytes it wrote."""
    kind = writer.next_kind()
    video, batch, user_bytes = writer.prepare()
    traced = run.tracer is not None and run.tracer.active
    before = writer.file_sizes() if traced else None
    run.measure("write", kind, lambda: writer.write(video, batch))
    if traced:
        writer.account(before, writer.file_sizes(), user_bytes)


def write_loop(run, writer, n_writes, wall_deadline):
    for __ in range(n_writes):
        if time.monotonic() >= wall_deadline:
            break
        timed_write(run, writer)


def live_loop(run, htl, n_cycles, wall_deadline, rng, writer):
    """Reads beside writes: ``n_cycles`` of ``reads_per_write`` served
    queries, then one durable write.  One sampled commit epoch in
    ``check_every`` has its first request checked against the reference
    path at once, before the next write changes the corpus."""
    from workloads import deck, ranking

    workload = run.workload
    cards = []
    epoch = 0
    check_offset = rng.randrange(workload.check_every)
    checked = 0
    for __ in range(n_cycles):
        if time.monotonic() >= wall_deadline:
            break
        seen = {}
        for position in range(workload.reads_per_write):
            if not cards:
                cards = deck(workload.templates, rng)
            label = cards.pop()
            formula, topk, __ = query_once(run, htl, label)
            if topk is None:
                continue
            if label in seen:
                if ranking(topk) != seen[label]:
                    run.fail(f"{label}: ranking changed within one epoch")
                continue
            seen[label] = ranking(topk)
            if position == 0 and epoch % workload.check_every == check_offset:
                check(run, label, formula, topk, workload.reference)
                checked += 1
        timed_write(run, writer)
        epoch += 1
    return checked


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def placement(samples, fraction):
    """Where a percentile falls: inside some label's own spread (ok: 10%
    to 90% of that label's samples lie below it) or on the step between
    labels.  Returns (value, label, share of its samples below, ok) for
    the label whose middle the value sits nearest."""
    value = percentile([sample.ms for sample in samples], fraction)
    shares = {}
    for sample in samples:
        below, total = shares.get(sample.label, (0, 0))
        shares[sample.label] = (below + (sample.ms < value), total + 1)
    label, (below, total) = min(
        shares.items(), key=lambda item: abs(item[1][0] / item[1][1] - 0.5)
    )
    share = below / total
    return value, label, share, 0.1 <= share <= 0.9


def label_table(samples):
    rows = {}
    for label in sorted({sample.label for sample in samples}):
        values = [sample.ms for sample in samples if sample.label == label]
        rows[label] = {
            "n": len(values),
            "p50_ms": percentile(values, 0.5),
            "p10_ms": percentile(values, 0.1),
            "p90_ms": percentile(values, 0.9),
        }
    return rows


def end_to_end(queries, writes):
    query_ms = [sample.ms for sample in queries]
    write_ms = [sample.ms for sample in writes]
    return {
        "query_p50_ms": percentile(query_ms, 0.5),
        "query_p90_ms": percentile(query_ms, 0.9),
        "queries_per_s": len(query_ms) / (sum(query_ms) / 1e3),
        "write_p50_ms": percentile(write_ms, 0.5),
        "write_p90_ms": percentile(write_ms, 0.9),
    }


QUERY_LAYERS = (
    "htl.parse",
    "model.object_universe",
    "core.ops.list_algebra",
    "pictures.similarity_table",
    "core.simlist.from_sorted_pieces",
    "core.planner.plan_for",
)
WRITE_LAYERS = (
    "ingest.submit",
    "ingest.commit",
    "ingest.checkpoint",
    "model.append_segments",
)
SETUP_LAYERS = ("store.load", "pictures.index_build")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(run, setup, writer, untraced_queries):
    queries = [s for s in run.samples if s.kind == "query" and s.traced]
    writes = [s for s in run.samples if s.kind == "write" and s.traced]
    metrics = {}

    def mean_ms(samples, name):
        total = sum(s.layers["wrapped"][1][name] * s.factor for s in samples)
        return _ratio(total * 1e3, len(samples))

    def mean_calls(samples, name):
        return _ratio(sum(s.layers["wrapped"][0][name] for s in samples), len(samples))

    for name in QUERY_LAYERS:
        metrics[f"{name}_ms"] = mean_ms(queries, name)
        metrics[f"{name}_calls"] = mean_calls(queries, name)
    for name in WRITE_LAYERS:
        metrics[f"{name}_ms"] = mean_ms(writes, name)
        metrics[f"{name}_calls"] = mean_calls(writes, name)
    for name in SETUP_LAYERS:
        metrics[f"{name}_ms"] = setup["layers"][1][name] * setup["factor"] * 1e3
        metrics[f"{name}_calls"] = setup["layers"][0][name]
    metrics["startup.import_ms"] = setup["import_ms"]
    metrics["core.ops.entries_out"] = _ratio(
        sum(s.layers["wrapped"][2]["core.ops.entries_out"] for s in queries),
        len(queries),
    )

    outcomes = [s.layers["outcomes"] for s in queries if "outcomes" in s.layers]
    metrics["core.topk.videos_evaluated"] = _ratio(
        sum(ok for ok, __, __ in outcomes), len(outcomes)
    )
    metrics["core.topk.pruned_ratio"] = _ratio(
        sum(pruned for __, pruned, __ in outcomes),
        sum(total for __, __, total in outcomes),
    )

    pictures = {name: 0 for name in PICTURE_FIELDS + ("bounded_space",)}
    for sample in queries:
        before, after = sample.layers["probe"]
        for name in pictures:
            pictures[name] += after[name] - before[name]
    metrics["pictures.segments_scored"] = _ratio(
        pictures["segments_scored"], len(queries)
    )
    metrics["pictures.fingerprint_hit_ratio"] = _ratio(
        pictures["fingerprint_hits"],
        pictures["fingerprint_hits"] + pictures["segments_scored"],
    )
    metrics["pictures.candidate_ratio"] = _ratio(
        pictures["candidate_segments"], pictures["bounded_space"]
    )

    hits = misses = 0
    for sample in queries:
        before, after = sample.layers["plans"]
        hits += after.cache_hits - (before.cache_hits if before else 0)
        misses += after.cache_misses - (before.cache_misses if before else 0)
    metrics["core.planner.plan_cache_hit_ratio"] = _ratio(hits, hits + misses)

    serve = [(s.layers["serve"], s.factor) for s in queries if "serve" in s.layers]
    metrics["serve.queue_ms"] = _ratio(
        sum(queue * factor for (queue, __), factor in serve), len(queries)
    )
    metrics["serve.overhead_ms"] = _ratio(
        sum(overhead * factor for (__, overhead), factor in serve), len(queries)
    )
    metrics["ingest.bytes_written_per_user_byte"] = _ratio(
        writer.bytes_written, writer.user_bytes
    ) if writer is not None else 0.0

    unattributed = 0.0
    for sample in queries:
        wrapped = sum(sample.layers["wrapped"][1].values())
        queued = sample.layers["serve"][0] / 1e3 if "serve" in sample.layers else 0.0
        unattributed += (sample.raw - wrapped - queued) * sample.factor
    metrics["unattributed_ms"] = _ratio(unattributed * 1e3, len(queries))

    traced_p50 = percentile([s.ms for s in queries], 0.5)
    untraced_p50 = percentile([s.ms for s in untraced_queries], 0.5)
    metrics["trace.overhead_ratio"] = _ratio(traced_p50, untraced_p50)
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    return parser.parse_args(argv)


def import_program():
    """Import the program's public entry points from the checkout."""
    sys.path.insert(0, SRC)
    import repro.core.engine  # noqa: F401
    import repro.core.topk  # noqa: F401
    import repro.htl
    import repro.ingest  # noqa: F401
    import repro.pictures.signature  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.store  # noqa: F401

    if not os.path.abspath(repro.htl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro was imported from outside {SRC}")
    return repro.htl


def main(argv=None):
    args = parse_args(argv)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.mode == "prepare":
        import_program()
        workload.prepare(args.dir, args.seed)
        print(json.dumps({"prepared": args.workload}))
        return 0

    spawned = args.spawned_at if args.spawned_at is not None else SPAWNED
    cal = calib.Calibrator()
    for __ in range(3):
        cal.tick()
    calibrating = sum(cal.slices)
    import_started = time.perf_counter()
    htl = import_program()
    import_s = time.perf_counter() - import_started

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    before_setup = tracer.snapshot() if tracer else None
    workload.setup(args.dir, args.seed)
    setup_layers = _delta(before_setup, tracer.snapshot()) if tracer else None
    ready = time.monotonic()
    for __ in range(3):
        cal.tick()
    setup_factor = calib.NOMINAL_SLICE_S / statistics.median(cal.slices)
    setup = {
        "setup_s": (ready - spawned - calibrating) * setup_factor,
        "raw_setup_s": ready - spawned - calibrating,
        "factor": setup_factor,
        "import_ms": import_s * setup_factor * 1e3,
        "layers": setup_layers,
    }
    if args.mode == "setup":
        workload.close()
        print(json.dumps({"setup": {k: setup[k] for k in ("setup_s", "raw_setup_s")}}))
        return 0

    # The set-up heap (the corpus) is long-lived: keep full collections
    # from rescanning it on every request.
    gc.collect()
    gc.freeze()
    run = Run(workload, tracer, cal)
    rng = random.Random(args.seed * 7 + 3)
    budget = args.seconds
    wall_deadline = time.monotonic() + WALL_CAP * budget
    if tracer:
        tracer.uninstall()
    halves = (False, True) if tracer else (False,)
    checked = 0
    writer = None
    untraced_queries = []
    if args.workload == "live":
        writer = workloads.Writer(
            workload.ingester,
            workload.database.names(),
            workload.batch,
            random.Random(args.seed + 5),
            workload.writes_per_video,
        )
        cycles = round(budget * LIVE_CYCLES_PER_SECOND / len(halves))
        for traced in halves:
            if traced:
                untraced_queries = [s for s in run.samples if s.kind == "query"]
                tracer.install()
            checked += live_loop(run, htl, cycles, wall_deadline, rng, writer)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        read_budget = budget * READ_SHARE
        first = {}
        for done, traced in enumerate(halves, start=1):
            if traced:
                untraced_queries = [s for s in run.samples if s.kind == "query"]
                tracer.install()
            # run.busy accumulates, so each half reads to its share's end.
            share = read_budget * done / len(halves)
            first.update(read_loop(run, htl, share, wall_deadline, rng))
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for label, (formula, topk) in sorted(first.items()):
            check(run, label, formula, topk, workload.reference)
            checked += 1
        from repro.ingest import initialise

        # Start the write phase from the heap set-up left, not from what
        # the read phase happened to leave for the collector.
        gc.collect()
        gc.freeze()
        writer_root = os.path.join(args.dir, "writes")
        ingester = initialise(
            writer_root,
            workload.write_database(random.Random(args.seed + 9)),
            fsync=workloads.FSYNC,
        )
        writer = workloads.Writer(
            ingester,
            ingester.database.names(),
            workload.batch,
            random.Random(args.seed + 5),
            workload.writes_per_video,
        )
        write_loop(
            run,
            writer,
            round((budget - read_budget) * WRITES_PER_SECOND),
            wall_deadline,
        )
        ingester.close()
    workload.close()
    run.finish_timing()

    queries = [s for s in run.samples if s.kind == "query"]
    writes = [s for s in run.samples if s.kind == "write"]
    attempted = len(queries) + len(writes)
    result = {
        "attempted": attempted,
        "failed": run.failed,
        "failures": run.failures,
        "checked": checked,
        "setup": {k: setup[k] for k in ("setup_s", "raw_setup_s")},
        "calibration": cal.summary(),
        "queries": label_table(queries),
        "writes": label_table(writes),
        "placement": {
            "query_p50_ms": placement(queries, 0.5),
            "query_p90_ms": placement(queries, 0.9),
            "write_p90_ms": placement(writes, 0.9),
        },
        "raw": {
            "query_p50_ms": percentile([s.raw * 1e3 for s in queries], 0.5),
            "query_p90_ms": percentile([s.raw * 1e3 for s in queries], 0.9),
            "write_p50_ms": percentile([s.raw * 1e3 for s in writes], 0.5),
        },
    }
    if tracer:
        tracer.uninstall()
        # Counted over the measured operations and set-up only: reference
        # checks run with the wrappers in place and must not count.
        calls = dict(setup["layers"][0])
        for sample in run.samples:
            if sample.traced:
                for name, count in sample.layers["wrapped"][0].items():
                    calls[name] += count
        result["wrapper_calls"] = calls
        result["missing_wrappers"] = tracer.missing
        result["per_layer"] = per_layer(run, setup, writer, untraced_queries)
    else:
        metrics = end_to_end(queries, writes)
        metrics["peak_rss_mb"] = peak_rss_kb / 1024.0
        result["end_to_end"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
