"""Tests for repro.obs: tracer, metrics, exporters, and the
end-to-end Solros integration (span trees, the Fig. 13(a) split read
off span categories, and a golden export)."""

import hashlib
import json

import pytest

from repro.core import SolrosConfig, SolrosSystem
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    RateMeter,
    SpanContext,
    Tracer,
    chrome_trace,
    disable_capture,
    enable_capture,
    metrics_json,
)
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.sim import Engine


# ----------------------------------------------------------------------
# Tracer unit tests
# ----------------------------------------------------------------------
def test_span_nesting_and_ordering():
    eng = Engine()
    tracer = Tracer(eng)

    def proc(eng):
        root = tracer.begin("request", "stub")
        yield 100
        child = tracer.begin("rpc", "transport", parent=root)
        yield 50
        grandchild = tracer.begin("disk", "device", parent=child.ctx())
        yield 25
        tracer.end(grandchild)
        tracer.end(child)
        yield 10
        tracer.end(root, outcome="ok")
        return root

    root = eng.run_process(proc(eng))

    spans = tracer.finished_spans()
    assert len(spans) == 3
    # All three share the root's trace; parent links form a chain.
    assert {s.trace_id for s in spans} == {root.trace_id}
    by_name = {s.name: s for s in spans}
    assert by_name["request"].parent_id is None
    assert by_name["rpc"].parent_id == by_name["request"].span_id
    assert by_name["disk"].parent_id == by_name["rpc"].span_id
    # Timestamps follow the simulated clock.
    assert by_name["request"].start_ns == 0
    assert by_name["rpc"].start_ns == 100
    assert by_name["disk"].duration_ns == 25
    assert by_name["request"].end_ns == 185
    assert by_name["request"].attrs["outcome"] == "ok"
    # The DFS tree lists the chain at increasing depth.
    tree = tracer.span_tree(root.trace_id)
    assert [(depth, s.name) for depth, s in tree] == [
        (0, "request"), (1, "rpc"), (2, "disk"),
    ]
    assert tracer.categories() == ["device", "stub", "transport"]


def test_span_context_propagation_shape():
    eng = Engine()
    tracer = Tracer(eng)
    root = tracer.begin("a", "stub")
    ctx = root.ctx()
    assert isinstance(ctx, SpanContext)
    child = tracer.begin("b", "transport", parent=ctx)
    assert (child.trace_id, child.parent_id) == (root.trace_id, root.span_id)
    # A parentless begin starts a fresh trace.
    other = tracer.begin("c", "stub")
    assert other.trace_id != root.trace_id
    assert sorted(tracer.traces()) == [root.trace_id, other.trace_id]


def test_category_union_counts_overlap_once():
    eng = Engine()
    tracer = Tracer(eng)

    def proc(eng):
        a = tracer.begin("cmd1", "device")
        yield 60
        b = tracer.begin("cmd2", "device", parent=a.ctx())
        yield 40
        tracer.end(a)
        yield 40
        tracer.end(b)

    eng.run_process(proc(eng))
    # cmd1 covers [0,100), cmd2 covers [60,140): union is 140, sum 180.
    assert tracer.category_union_ns() == {"device": 140}
    # Self time: cmd1 minus the overlap with its child, plus the child.
    assert tracer.category_self_ns() == {"device": 60 + 80}


def test_tracer_caps_retained_spans():
    eng = Engine()
    tracer = Tracer(eng, max_spans=2)
    spans = [tracer.begin(f"s{i}", "stub") for i in range(4)]
    for s in spans:
        tracer.end(s)
    assert len(tracer.spans) == 2
    assert tracer.dropped == 2
    # Overflow spans are still real, usable objects.
    assert spans[3].finished


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    span = NULL_TRACER.begin("x", "stub", core=None, whatever=1)
    assert NULL_TRACER.end(span) is span
    assert NULL_TRACER.finished_spans() == []
    assert NULL_TRACER.category_union_ns() == {}

    eng = Engine()

    def inner(eng):
        yield 30
        return 9

    def main(eng):
        result = yield from NULL_TRACER.timed("y", "stub", inner(eng))
        return result

    assert eng.run_process(main(eng)) == 9


# ----------------------------------------------------------------------
# Metrics unit tests
# ----------------------------------------------------------------------
def test_registry_creates_and_reuses_by_name():
    eng = Engine()
    reg = MetricsRegistry(eng)
    c = reg.counter("rpc.calls", lambda: 0)
    g = reg.gauge("ring.occ")
    h = reg.histogram("batch")
    m = reg.meter("net.out")
    assert isinstance(c, Counter) and isinstance(g, Gauge)
    assert isinstance(h, HistogramMetric) and isinstance(m, RateMeter)
    assert reg.counter("rpc.calls", lambda: 1) is c and c.value == 0
    assert len(reg) == 4 and "ring.occ" in reg
    with pytest.raises(TypeError):
        reg.gauge("rpc.calls")


def test_counter_and_gauge_semantics():
    eng = Engine()
    reg = MetricsRegistry(eng)
    # A counter is pulled: it reads its owner's field when asked.
    stats = {"hits": 0}
    c = reg.counter("hits", lambda: stats["hits"])
    assert c.value == 0
    stats["hits"] += 5
    assert c.value == 5
    assert reg.snapshot()["hits"] == {"type": "counter", "value": 5}

    g = reg.gauge("depth")

    def proc(eng):
        g.set(3)
        yield 100
        g.add(-1)
        yield 50
        g.set(7)

    eng.run_process(proc(eng))
    assert g.value == 7 and g.min == 2 and g.max == 7 and g.sets == 3
    assert g.series() == [(0, 3), (100, 2), (150, 7)]


def test_rate_meter_ticks_on_sim_clock():
    eng = Engine()
    reg = MetricsRegistry(eng)
    meter = reg.meter("io")

    def proc(eng):
        meter.add(nbytes=2000, nops=2)
        yield 1000
        rates = meter.tick()
        return rates

    rates = eng.run_process(proc(eng))
    assert rates["bytes"] == 2000.0
    assert rates["gb_per_sec"] == pytest.approx(2.0)
    assert meter.to_dict()["intervals"] == 1


def test_snapshot_is_json_ready():
    eng = Engine()
    reg = MetricsRegistry(eng)
    reg.counter("a", lambda: 1)
    reg.gauge("b").set(1.5)
    reg.histogram("c").record(10)
    reg.meter("d").add(nbytes=100)
    snap = reg.snapshot()
    assert set(snap) == {"a", "b", "c", "d"}
    assert snap["a"]["type"] == "counter"
    assert snap["c"]["count"] == 1
    json.dumps(snap)  # must not raise


# ----------------------------------------------------------------------
# Exporter unit tests
# ----------------------------------------------------------------------
def test_chrome_trace_document_shape():
    eng = Engine()
    tracer = Tracer(eng)
    reg = MetricsRegistry(eng)

    def proc(eng):
        root = tracer.begin("req", "stub")
        yield 2000
        reg.gauge("depth").set(1)
        yield 500
        tracer.end(root)

    eng.run_process(proc(eng))
    doc = chrome_trace([("sim", tracer, reg)])
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "C"}
    x = next(e for e in events if e["ph"] == "X")
    assert x["name"] == "req" and x["cat"] == "stub"
    assert x["ts"] == 0.0 and x["dur"] == 2.5      # ns -> usec
    counter = next(e for e in events if e["ph"] == "C")
    assert counter["ts"] == 2.0 and counter["args"]["value"] == 1
    meta = [e for e in events if e["ph"] == "M"]
    assert {"process_name", "thread_name"} == {e["name"] for e in meta}
    json.dumps(doc)

    mdoc = metrics_json([("sim", reg)])
    assert mdoc["sim"]["depth"]["value"] == 1


# ----------------------------------------------------------------------
# Integration: a Solros file read end to end
# ----------------------------------------------------------------------
def _build_traced_system(trace=True):
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=8192, max_inodes=16, trace=trace,
        buffer_cache_bytes=8 * 1024 * 1024,
    )
    system = SolrosSystem(eng, cfg)
    eng.run_process(system.boot(n_phis=1))
    return eng, system


def _read_workload(eng, system, nbytes=256 * 1024):
    phi = system.dataplane(0)
    vfs = phi.fs
    core = phi.core(0)

    def run(eng):
        fd = yield from vfs.open(core, "/bench", O_CREAT | O_RDWR)
        yield from vfs.write(core, fd, length=nbytes)
        yield from vfs.close(core, fd)
        fd = yield from vfs.open(core, "/bench")
        out = yield from vfs.pread(core, fd, nbytes, 0)
        yield from vfs.close(core, fd)
        return out

    out = eng.run_process(run(eng))
    system.shutdown()
    return out


def test_solros_read_produces_linked_span_tree():
    eng, system = _build_traced_system()
    tracer = system.obs.tracer
    _read_workload(eng, system)

    cats = set(tracer.categories())
    assert {"stub", "transport", "proxy", "fs", "device"} <= cats

    # Every root is a stub-level operation; find the pread trace.
    roots = {s.name: s for s in tracer.roots()}
    assert "fs.pread" in roots and "fs.open" in roots
    pread = roots["fs.pread"]
    tree = tracer.span_tree(pread.trace_id)
    names = [s.name for _d, s in tree]
    assert names[0] == "fs.pread"
    assert "rpc.9p" in names
    assert "rpc.serve.9p" in names
    assert any(n.startswith("nvme.cmd.") for n in names)
    # The single read request touches at least four categories.
    per_request = {s.category for _d, s in tree}
    assert len(per_request) >= 4
    # Spans nest sanely: children start no earlier than their parent.
    by_id = {s.span_id: s for _d, s in tree}
    for _d, s in tree:
        if s.parent_id is not None and s.parent_id in by_id:
            assert s.start_ns >= by_id[s.parent_id].start_ns


def test_null_hooks_answer_and_record_nothing():
    from repro.faults import NULL_FAULTS
    from repro.obs import NULL_HUB, NULL_METRICS

    assert NULL_HUB.tracer is NULL_TRACER
    assert NULL_HUB.metrics is NULL_METRICS
    assert NULL_HUB.faults is NULL_FAULTS
    # One shared do-nothing instrument, whatever the type or name.
    inst = NULL_METRICS.counter("a.b", lambda: 1)
    assert inst is NULL_METRICS.gauge("c.d") is NULL_METRICS.histogram("e.f")
    assert inst is NULL_METRICS.meter("g.h")
    inst.set(1.5)
    inst.add(-1)
    inst.add(4096, nops=2)
    inst.record(7)
    # The null injector never injects, and has no plan to test.
    assert NULL_FAULTS.plan is None
    assert NULL_FAULTS.nvme_command("read", True) == (0, False)
    assert NULL_FAULTS.ring_stall("r") == 0
    assert NULL_FAULTS.pcie_degrade("r") == 0
    assert NULL_FAULTS.nic_drop("tx") == 0
    assert NULL_FAULTS.proxy_request("fs-rpc.phi0") is False

    # Traced, no plan: no faults.* series, and bring-up (mkfs) issued
    # NVMe commands that the histogram does not count.
    eng, system = _build_traced_system()
    assert system.obs.metrics.get("nvme.nvme0.cmd_bytes").count == 0
    assert system.machine.nvme.stats.commands > 0
    assert not [
        n for n in system.obs.metrics.names() if n.startswith("faults.")
    ]
    assert system.faults is None and system.faults_state() is None
    system.shutdown()


def test_fig13a_solros_breakdown_is_pinned():
    """Figure 13(a)'s Solros row, to the float.  The split is read off
    the fs and device span categories; these are the values the
    figure printed (126 / 66.69 / 260 / 453 us) before the proxy's own
    timers were retired."""
    from repro.bench.figures import fs_latency_breakdown

    assert fs_latency_breakdown("solros") == {
        "filesystem": 126.19428571428573,
        "transport": 66.68642857142851,
        "storage": 259.93028571428573,
        "total": 452.811,
    }


def test_tracing_never_changes_simulated_time():
    eng_off, system_off = _build_traced_system(trace=False)
    _read_workload(eng_off, system_off)
    eng_on, system_on = _build_traced_system(trace=True)
    _read_workload(eng_on, system_on)
    assert system_off.obs.enabled is False
    assert system_on.obs.enabled is True
    assert eng_on.now == eng_off.now
    assert len(system_on.obs.tracer.finished_spans()) > 0


def test_metrics_populated_by_read_workload():
    eng, system = _build_traced_system()
    metrics = system.obs.metrics
    _read_workload(eng, system)

    names = metrics.names()
    assert any(n.startswith("ring.") and n.endswith(".occupancy_bytes")
               for n in names)
    assert any(n.startswith("rpc.") and n.endswith(".inflight")
               for n in names)
    calls = next(
        metrics.get(n) for n in names
        if n.startswith("rpc.") and n.endswith(".calls")
    )
    assert calls.meter.ops >= 6  # open/write/close/open/pread/close
    # The in-flight gauge returned to zero when the workload drained.
    inflight = next(
        metrics.get(n) for n in names
        if n.startswith("rpc.") and n.endswith(".inflight")
    )
    assert inflight.value == 0 and inflight.max >= 1
    hits = metrics.get("cache.hits")
    misses = metrics.get("cache.misses")
    assert hits is not None and misses is not None
    assert hits.value + misses.value > 0
    assert metrics.get("nvme.nvme0.cmd_bytes").count > 0


def test_capture_hook_collects_systems():
    capture = enable_capture()
    try:
        eng, system = _build_traced_system(trace=False)
        # Capture overrides config.trace=False: the hub is enabled and
        # registered with the capture.
        assert system.obs.enabled
        assert system.obs in capture.hubs
        _read_workload(eng, system)
    finally:
        disable_capture()
    triples = capture.export_triples()
    assert len(triples) == 1
    label, tracer, metrics = triples[0]
    assert label == "solros#1"
    assert tracer.finished_spans()
    doc = chrome_trace(triples)
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    assert capture.metric_pairs()[0][1] is metrics


# ----------------------------------------------------------------------
# Golden export: the exact series and spans one seeded run produces
# ----------------------------------------------------------------------
GOLDEN_EXPORT_SHA256 = (
    "8a989199b8a8e23d3b9b98bd47171f3e254615c5d7e25198f1e43172ca2e1725"
)


def _golden_system():
    """A small seeded traced run over every instrumented layer: P2P
    and buffered reads through the buffer cache, dispatched by the
    drr+priority scheduler, then a Solros TCP echo, all under a chaos
    fault plan (NVMe errors and spikes, ring stalls, PCIe degradation,
    a proxy crash, NIC drops)."""
    from repro.faults import (
        FaultPlan,
        NicFaults,
        NvmeFaults,
        ProxyFaults,
        RingFaults,
    )
    from repro.net import SocketAddr
    from repro.net.testbed import NetTestbed

    plan = FaultPlan(
        seed=5,
        nvme=NvmeFaults(read_error_rate=0.35, latency_spike_rate=0.2),
        ring=RingFaults(stall_rate=0.02, pcie_degrade_rate=0.05),
        proxy=ProxyFaults(crash_at_requests=(6,), restart_after_ns=200_000),
        nic=NicFaults(drop_rate=0.2, retransmit_ns=4_000),
    )
    eng = Engine()
    system = SolrosSystem(eng, SolrosConfig(
        disk_blocks=8192, max_inodes=16, trace=True,
        buffer_cache_bytes=1024 * 1024, sched_policy="drr+priority",
        fault_plan=plan, rpc_timeout_ns=800_000,
    ))
    eng.run_process(system.boot(n_phis=3))
    block = 64 * 1024

    def writer(eng):
        phi = system.dataplane(0)
        core = phi.core(1)
        fd = yield from phi.fs.open(core, "/golden", O_CREAT | O_RDWR)
        yield from phi.fs.pwrite(core, fd, 0, length=16 * block)
        yield from phi.fs.close(core, fd)

    def reader(phi_index, blocks):
        phi = system.dataplane(phi_index)
        core = phi.core(0)
        fd = yield from phi.fs.open(core, "/golden", O_RDWR)
        for b in blocks:
            yield from phi.fs.pread(core, fd, block, b * block)
        yield from phi.fs.close(core, fd)

    eng.run_process(writer(eng))
    # phi0 is NUMA-local to the SSD (P2P); phi2 is across the NUMA
    # boundary (buffered), and its repeated blocks hit the cache.
    procs = [
        eng.spawn(reader(0, [1, 5, 9, 13, 2, 6])),
        eng.spawn(reader(2, [3, 7, 3, 7, 11, 3])),
    ]
    eng.run()
    assert all(p.ok for p in procs)

    tb = NetTestbed(eng, system.machine)
    proxy = tb.solros_proxy()
    api = proxy.attach(system.dataplane(0))
    core = system.dataplane(0).core(2)

    def server(eng):
        listener = yield from api.listen(core, 7000)
        sock = yield from listener.accept(core)
        while True:
            payload, n = yield from sock.recv(core)
            if payload is None:
                return
            yield from sock.send(core, payload, n)

    def client(eng):
        ccore = tb.client_cpu.core(0)
        conn = yield from tb.client.connect(ccore, SocketAddr("host", 7000))
        for _ in range(6):
            yield from conn.send(ccore, b"x" * 64, 64)
            yield from conn.recv(ccore)
        yield from conn.close(ccore)

    eng.spawn(server(eng))
    done = eng.spawn(client(eng))
    eng.run()
    assert done.ok
    proxy.stop()
    system.shutdown()
    eng.run()
    return system


def _export_rows(system):
    metrics = system.obs.metrics
    spans = [
        (s.name, s.category, s.start_ns, s.end_ns, s.parent_id)
        for s in system.obs.tracer.spans
    ]
    # Gauge series carry the engine.now of every set, including the
    # initial one a component makes when its gauge is created.
    series = {
        name: metrics.get(name).series()
        for name in metrics.names()
        if isinstance(metrics.get(name), Gauge)
    }
    return metrics.snapshot(), spans, series


def test_golden_export_is_byte_identical():
    snapshot, spans, series = _export_rows(_golden_system())
    families = {name.split(".")[0] for name in snapshot}
    assert families == {
        "ring", "combining", "rpc", "proxy", "cache", "nvme", "sched",
        "net", "faults",
    }
    assert {s[1] for s in spans} == {
        "stub", "transport", "proxy", "fs", "device", "net",
    }
    blob = json.dumps([snapshot, spans, series], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_EXPORT_SHA256


# ----------------------------------------------------------------------
# The bench runner survives crashing experiments (repro.bench cli)
# ----------------------------------------------------------------------
def test_run_one_reports_errors_without_aborting(tmp_path, capsys):
    from repro.bench.cli import run_one

    bench = tmp_path / "bench_broken.py"
    bench.write_text(
        "def test_a_crashes(benchmark):\n"
        "    raise RuntimeError('boom')\n"
        "\n"
        "def test_b_fails_shape(benchmark):\n"
        "    assert 1 == 2, 'shape'\n"
        "\n"
        "def test_c_passes(benchmark):\n"
        "    pass\n"
    )
    ok = run_one("broken", str(bench))
    out = capsys.readouterr().out
    assert ok is False
    assert "ERROR: RuntimeError('boom')" in out
    assert "SHAPE-CHECK FAILED: shape" in out
    assert "test_c_passes: ok" in out
