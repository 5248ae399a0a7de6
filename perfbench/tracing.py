"""The traced run: spans from benchmark-side wrappers, counters from
the public stats objects, and host self time per package from
cProfile.

Nothing here edits the program.  :func:`instrument` replaces public
entry points *on the instances* of one booted system with wrappers
that ``yield from`` the original call, so the wrapped run schedules
exactly the same engine events and its simulated figures equal the
untraced run's.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from typing import Dict, List, Optional

__all__ = ["SpanRecorder", "instrument", "layer_metrics", "package_self_s"]

# Span layers, in the order the per-layer metrics report them.
LAYERS = (
    "fs.stub",        # Vfs calls on the co-processor
    "transport.rpc",  # RpcChannel.call
    "fs.proxy",       # SolrosFsProxy.handle
    "fs.extfs",       # ExtFS calls (public, plus the allocator entry)
    "hw.nvme",        # NvmeDevice.submit
    "hw.dma",         # Fabric.dma_copy
    "net.socket",     # SolrosSocket.send / recv
    "apps",           # TextIndexer.run
)

VFS_CALLS = (
    "open", "close", "read", "pread", "write", "pwrite", "fsync",
    "stat", "unlink", "mkdir", "readdir",
)
# ``_ensure_allocated`` is not public, but the proxy calls it directly
# for every write: without it ExtFS allocation would count as proxy
# time.
EXTFS_CALLS = (
    "lookup", "create", "mkdir", "unlink", "readdir", "stat", "read",
    "write", "truncate", "fiemap", "preallocate", "sync",
    "_ensure_allocated",
)


class SpanRecorder:
    """Spans kept in memory: ``[layer, call, start, end, parent]``.

    The parent is the innermost open span of the same simulated
    process or, for a proxy call, the ``RpcChannel.call`` span whose
    message the proxy received.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.spans: List[list] = []
        self._stacks: Dict[object, List[int]] = {}
        self._by_msg: Dict[int, int] = {}

    def span(self, layer: str, call: str, gen, parent: Optional[int] = None,
             msg=None):
        """``yield from`` ``gen`` inside a span."""
        proc = self.engine.active_process
        stack = self._stacks.setdefault(proc, [])
        if parent is None and stack:
            parent = stack[-1]
        idx = len(self.spans)
        self.spans.append([layer, call, self.engine.now, None, parent])
        stack.append(idx)
        if msg is not None:
            self._by_msg[id(msg)] = idx
        try:
            result = yield from gen
        finally:
            stack.pop()
            if not stack:
                del self._stacks[proc]
            if msg is not None:
                self._by_msg.pop(id(msg), None)
            self.spans[idx][3] = self.engine.now
        return result

    def sender_of(self, msg) -> Optional[int]:
        return self._by_msg.get(id(msg))

    def wrap(self, obj, attr: str, layer: str) -> None:
        """Record every call of ``obj.attr`` as a ``layer`` span."""
        orig = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            return self.span(layer, attr, orig(*args, **kwargs))

        setattr(obj, attr, wrapper)

    def self_ns(self, start_ns: int) -> Dict[str, int]:
        """Simulated self time per layer over the spans that began at or
        after ``start_ns`` and ended: duration minus the part of it
        that child spans cover."""
        children: Dict[int, List[int]] = {}
        for idx, span in enumerate(self.spans):
            if span[4] is not None:
                children.setdefault(span[4], []).append(idx)
        out = {layer: 0 for layer in LAYERS}
        for idx, (layer, _call, t0, t1, _parent) in enumerate(self.spans):
            if t1 is None or t0 < start_ns:
                continue
            covered, reach = 0, t0
            for c0, c1 in sorted(
                (max(self.spans[c][2], t0), min(self.spans[c][3] or t1, t1))
                for c in children.get(idx, ())
            ):
                if c1 <= reach:
                    continue
                covered += c1 - max(c0, reach)
                reach = c1
            out[layer] += (t1 - t0) - covered
        return out

    def write(self, path: str) -> None:
        """Write every span once, as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["layer", "call", "start_ns", "end_ns", "parent"],
                 "spans": self.spans},
                fh,
            )


def instrument(workload, rec: SpanRecorder) -> None:
    """Wrap the public entry points of ``workload``'s system."""
    system = workload.system
    for vfs in workload.vfs_list():
        for call in VFS_CALLS:
            rec.wrap(vfs, call, "fs.stub")
    for dp in system.dataplanes:
        _wrap_rpc_call(rec, dp.fs_channel)
    proxy = system.control.fs_proxy
    handle = proxy.handle

    def traced_handle(core, session, msg, ctx=None):
        return rec.span(
            "fs.proxy", "handle", handle(core, session, msg, ctx),
            parent=rec.sender_of(msg),
        )

    proxy.handle = traced_handle
    for call in EXTFS_CALLS:
        rec.wrap(system.control.fs, call, "fs.extfs")
    rec.wrap(system.machine.nvme, "submit", "hw.nvme")
    rec.wrap(system.machine.fabric, "dma_copy", "hw.dma")
    workload.instrument(rec)


def _wrap_rpc_call(rec: SpanRecorder, channel) -> None:
    """RpcChannel.call, remembering its message for the proxy span."""
    orig = channel.call

    def traced_call(core, method, payload=None, *args, **kwargs):
        return rec.span(
            "transport.rpc", method, orig(core, method, payload, *args, **kwargs),
            msg=payload,
        )

    channel.call = traced_call


def package_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside the repo."""
    path = filename.replace(os.sep, "/")
    if "/perfbench/" in path:
        return "bench"
    if "/src/repro/" not in path:
        return None
    mod = path.split("/src/repro/", 1)[1]
    top = mod.split("/", 1)[0]
    if top == "fs":
        name = mod.rsplit("/", 1)[-1]
        if name in ("vfs.py", "stub.py", "ninep.py"):
            return "fs.stub"
        if name in ("proxy.py", "buffercache.py"):
            return "fs.proxy"
        return "fs.extfs"
    if top in ("sim", "hw", "transport", "net", "apps"):
        return top
    return "other"


def package_self_s(prof: cProfile.Profile) -> Dict[str, float]:
    """cProfile self seconds per package.  Time in a function outside
    the repo (a builtin or the standard library) goes to the package
    of its callers, in proportion to the time each caller spent in
    it."""
    stats = pstats.Stats(prof).stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func, seen=()):
        if func in memo:
            return memo[func]
        pkg = package_of(func[0])
        if pkg is not None:
            share = {pkg: 1.0}
        else:
            callers = stats.get(func, (0, 0, 0, 0, {}))[4]
            total = sum(c[2] for c in callers.values())
            share: Dict[str, float] = {}
            for caller, c in callers.items():
                if caller in seen or not total:
                    continue
                for p, w in owners(caller, seen + (func,)).items():
                    share[p] = share.get(p, 0.0) + w * c[2] / total
            if not share:
                share = {"other": 1.0}
        if not seen:
            memo[func] = share
        return share

    out: Dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for pkg, w in owners(func).items():
            out[pkg] = out.get(pkg, 0.0) + tt * w
    return out


def counters(workload) -> Dict[str, float]:
    """Every counter the layers keep in their public stats objects."""
    system = workload.system
    out: Dict[str, float] = {}

    def add(prefix, stats):
        for key, value in vars(stats).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"{prefix}.{key}"] = out.get(f"{prefix}.{key}", 0) + value

    add("nvme", system.machine.nvme.stats)
    add("proxy", system.control.fs_proxy.stats)
    if system.control.cache is not None:
        add("cache", system.control.cache.stats)
    for ring in workload.rings():
        add("ring", ring.stats)
        # RingBuffer exposes no accessor for its combining queues.
        for side in (ring._enq_side, ring._deq_side):
            if side.combining:
                add("combining", side.queue.stats)
    out["stub.retries"] = sum(
        dp.fs.backend.retries for dp in system.dataplanes
    )
    net = workload.net_stats()
    if net is not None:
        add("net", net)
    return out


def layer_metrics(ops: int, events: int, self_ns: Dict[str, int],
                  host: Dict[str, float], before: Dict[str, float],
                  after: Dict[str, float], n_spans: int,
                  traced_s: float, untraced_s: float) -> Dict[str, tuple]:
    """The per-layer metrics, each as (value, unit)."""
    d = {k: after.get(k, 0) - before.get(k, 0) for k in after}

    def per_op_us(layer):
        return (self_ns[layer] / 1e3 / ops, "us/op")

    def ratio(num, den):
        return num / den if den else 0.0

    data_requests = (
        d["proxy.p2p_reads"] + d["proxy.buffered_reads"]
        + d["proxy.p2p_writes"] + d["proxy.buffered_writes"]
    )
    lookups = d.get("cache.hits", 0) + d.get("cache.misses", 0)
    attempts = d["ring.enqueues"] + d["ring.dequeues"] + d["ring.would_blocks"]
    batches = d.get("combining.batches", 0)
    return {
        "sim.events_per_op": (events / ops, "events/op"),
        "sim.host_self_s": (host.get("sim", 0.0), "s"),
        "hw.nvme.self_us_per_op": per_op_us("hw.nvme"),
        "hw.nvme.commands_per_op": (d["nvme.commands"] / ops, "count/op"),
        "hw.nvme.interrupts_per_op": (d["nvme.interrupts"] / ops, "count/op"),
        "hw.dma.self_us_per_op": per_op_us("hw.dma"),
        "hw.host_self_s": (host.get("hw", 0.0), "s"),
        "transport.rpc.self_us_per_op": per_op_us("transport.rpc"),
        "transport.ring.pcie_tx_per_op": (d["ring.pcie_tx"] / ops, "count/op"),
        "transport.ring.would_block_ratio": (
            ratio(d["ring.would_blocks"], attempts), "ratio"),
        "transport.ring.attempts": (attempts, "count"),
        "transport.combining.avg_batch": (
            ratio(d.get("combining.operations", 0), batches), "ops/batch"),
        "transport.combining.batches": (batches, "count"),
        "transport.host_self_s": (host.get("transport", 0.0), "s"),
        "fs.stub.self_us_per_op": per_op_us("fs.stub"),
        "fs.proxy.self_us_per_op": per_op_us("fs.proxy"),
        "fs.extfs.self_us_per_op": per_op_us("fs.extfs"),
        "fs.stub.retries_per_op": (d["stub.retries"] / ops, "count/op"),
        "fs.stub.host_self_s": (host.get("fs.stub", 0.0), "s"),
        "fs.proxy.host_self_s": (host.get("fs.proxy", 0.0), "s"),
        "fs.extfs.host_self_s": (host.get("fs.extfs", 0.0), "s"),
        "fs.proxy.p2p_share": (
            ratio(d["proxy.p2p_reads"] + d["proxy.p2p_writes"], data_requests),
            "ratio"),
        "fs.proxy.data_requests": (data_requests, "count"),
        "fs.cache.hit_rate": (ratio(d.get("cache.hits", 0), lookups), "ratio"),
        "fs.cache.lookups": (lookups, "count"),
        "net.socket.self_us_per_op": per_op_us("net.socket"),
        "net.proxy.messages_per_op": (
            (d.get("net.messages_in", 0) + d.get("net.messages_out", 0)) / ops,
            "count/op"),
        "net.host_self_s": (host.get("net", 0.0), "s"),
        "apps.host_self_s": (host.get("apps", 0.0), "s"),
        "bench.host_self_s": (host.get("bench", 0.0), "s"),
        "bench.trace_overhead_ratio": (traced_s / untraced_s, "ratio"),
        "bench.untraced_host_s": (untraced_s, "s"),
        "bench.spans_per_op": (n_spans / ops, "spans/op"),
        "bench.ops": (ops, "count"),
    }
