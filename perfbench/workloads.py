"""The four benchmark workloads, driven through the public Solros APIs.

Each workload is a closed loop: every simulated client issues its next
operation only after the previous one completed.  All inputs derive
from the benchmark seed; the system receives only the generated
inputs.  A workload is built by :meth:`Workload.setup` (boot, mkfs,
data population, warm-up) and then measured in rounds of a fixed
number of operations by :meth:`Workload.run_round`.  A round is
identical in every run of a seed, so the first round's simulated
figures repeat exactly; later rounds continue on the same state and
only add host-time samples.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional

from repro.apps import SyntheticCorpus, TextIndexer
from repro.core import SolrosConfig, SolrosSystem
from repro.fs import O_CREAT, O_RDWR, FsError
from repro.fs.vfs import Vfs
from repro.hw import KB, MB
from repro.net import RoundRobinBalancer, SocketAddr
from repro.net.testbed import NetTestbed
from repro.sim import Engine
from repro.transport.rpc import RemoteCallError

__all__ = ["WORKLOADS", "BenchEngine", "Round", "Workload"]

# Errors an operation may raise and still leave the simulation sound:
# a file-system errno (local, or carried back over the RPC) or a
# socket error.  Anything else aborts the round and fails the run.
OP_ERRORS = (FsError, RemoteCallError, OSError)


class BenchEngine(Engine):
    """The simulation engine plus two benchmark-side hooks.

    ``spawn_hooks`` see every new process (the traced run links spans
    across spawns; textindex notes when each indexer worker ends).
    :meth:`count_events` counts scheduled engine events until the
    engine grows a counter of its own.  Neither adds simulated time.
    """

    def __init__(self) -> None:
        super().__init__()
        self.spawn_hooks: List[Callable] = []
        self.events = 0

    def spawn(self, gen, name=None):
        proc = super().spawn(gen, name)
        for hook in self.spawn_hooks:
            hook(proc)
        return proc

    def count_events(self) -> None:
        base = Engine._schedule

        def schedule(delay, callback):
            self.events += 1
            base(self, delay, callback)

        # Only the traced run pays for the counting frame.
        self._schedule = schedule


class Round:
    """One measured round: per-op simulated latencies and failures."""

    def __init__(self) -> None:
        self.latencies_ns: List[int] = []
        self.failed = 0
        self.sim_ns = 0

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)


class Workload:
    """Shared plumbing: seeded RNG streams, the engine, round timing."""

    name = ""
    #: Simulated clients, and operations each issues per round.
    clients = 0
    ops_per_client = 0
    #: Bytes one operation moves, as stated in the README.
    bytes_per_op = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.engine = BenchEngine()
        self.system: Optional[SolrosSystem] = None

    def rng(self, stream: str) -> random.Random:
        """An RNG stream fixed by (workload, seed, stream)."""
        return random.Random(f"perfbench/{self.name}/{self.seed}/{stream}")

    @property
    def ops_per_round(self) -> int:
        return self.clients * self.ops_per_client

    def setup(self) -> None:
        raise NotImplementedError

    def client(self, i: int, rnd: Round, n_ops: int) -> Iterable:
        """Generator for client ``i``: ``n_ops`` closed-loop ops."""
        raise NotImplementedError

    def run_round(self, n_ops: Optional[int] = None) -> Round:
        """Run ``n_ops`` (default: a round's worth) ops per client."""
        n_ops = n_ops or self.ops_per_client
        rnd = Round()
        eng = self.engine
        start = eng.now

        def main(eng):
            procs = [
                eng.spawn(self.client(i, rnd, n_ops), name=f"bench-client{i}")
                for i in range(self.clients)
            ]
            yield eng.all_of(procs)

        eng.run_process(main(eng), name="bench-round")
        rnd.sim_ns = eng.now - start
        return rnd

    def warm_up(self, n_ops: int) -> None:
        """An unmeasured round of ``n_ops`` ops per client."""
        warm = self.run_round(n_ops)
        if warm.failed:
            raise RuntimeError(f"{self.name}: {warm.failed} warm-up ops failed")

    def timed_op(self, rnd: Round, op) -> Iterable:
        """Run ``op`` (a generator returning True when its output
        verified) and record its latency or its failure."""
        t0 = self.engine.now
        try:
            ok = yield from op
        except OP_ERRORS:
            ok = False
        if ok:
            rnd.latencies_ns.append(self.engine.now - t0)
        else:
            rnd.failed += 1

    def vfs_list(self) -> List[Vfs]:
        """The data-plane VFS instances the workload calls."""
        return []

    def rings(self) -> List:
        """Every ring buffer of the system."""
        return [
            ring
            for dp in self.system.dataplanes
            for ring in (dp.fs_channel.request_ring, dp.fs_channel.response_ring)
        ]

    def net_stats(self):
        """The network proxy's NetStats, for workloads that use it."""
        return None

    def instrument(self, rec) -> None:
        """Wrap workload-specific entry points for the traced run."""

    def prepare_check(self) -> None:
        """Build what output checks need (after the timed set-up)."""

    def shutdown(self) -> None:
        if self.system is not None:
            self.system.shutdown()


# ----------------------------------------------------------------------
# fs-read: the headline P2P / host-buffered read path
# ----------------------------------------------------------------------
class FsRead(Workload):
    """Seeded random 512 KB preads of one preallocated, seeded file.

    16 threads on phi0 (same NUMA node as the SSD: the policy picks
    P2P) and 8 on phi2 (cross-NUMA: host-buffered).  The buffer cache
    is 4x smaller than the file; a warm-up pass fills it.
    """

    name = "fs-read"
    clients = 24
    ops_per_client = 48
    bytes_per_op = "524288 read"
    FILE_BYTES = 32 * MB
    READ_BYTES = 512 * KB
    PATH = "/data.bin"
    PHI0_THREADS = 16
    WARMUP_OPS = 8

    def setup(self) -> None:
        eng = self.engine
        cfg = SolrosConfig(
            disk_blocks=16 * 1024,  # 64 MB disk
            max_inodes=64,
            buffer_cache_bytes=self.FILE_BYTES // 4,
        )
        self.system = system = SolrosSystem(eng, cfg)
        eng.run_process(system.boot(n_phis=3))
        self.content = self.rng("content").randbytes(self.FILE_BYTES)
        host = system.control.host_vfs()
        core = system.machine.host_core(0)

        def populate(eng):
            fd = yield from host.open(core, self.PATH, O_CREAT | O_RDWR)
            step = 64 * KB
            for off in range(0, self.FILE_BYTES, step):
                yield from host.pwrite(
                    core, fd, off, self.content[off : off + step]
                )
            yield from host.fsync(core, fd)
            yield from host.close(core, fd)

        eng.run_process(populate(eng))
        phi0, phi2 = system.dataplane(0), system.dataplane(2)
        self.threads = [(phi0, c) for c in phi0.app_cores(self.PHI0_THREADS)]
        self.threads += [
            (phi2, c) for c in phi2.app_cores(self.clients - self.PHI0_THREADS)
        ]
        self.fds: Dict[int, int] = {}
        self.offsets = [self.rng(f"client{i}") for i in range(self.clients)]

        def open_all(eng):
            for i, (dp, core) in enumerate(self.threads):
                self.fds[i] = yield from dp.fs.open(core, self.PATH, O_RDWR)

        eng.run_process(open_all(eng))
        # Warm-up: a short unmeasured pass of the same mix fills the
        # cache (the phi2 reads stage through it) before timing.
        self.warm_up(self.WARMUP_OPS)

    def vfs_list(self) -> List[Vfs]:
        return [self.system.dataplane(0).fs, self.system.dataplane(2).fs]

    def client(self, i: int, rnd: Round, n_ops: int):
        dp, core = self.threads[i]
        fd = self.fds[i]
        sectors = (self.FILE_BYTES - self.READ_BYTES) // 512
        offsets = [self.offsets[i].randrange(sectors) * 512 for _ in range(n_ops)]
        for off in offsets:
            yield from self.timed_op(rnd, self._read(dp.fs, core, fd, off))

    def _read(self, vfs: Vfs, core, fd: int, off: int):
        data = yield from vfs.pread(core, fd, self.READ_BYTES, off)
        return data == self.content[off : off + self.READ_BYTES]


# ----------------------------------------------------------------------
# fs-churn: file lifecycles (allocation, metadata, write path)
# ----------------------------------------------------------------------
class FsChurn(Workload):
    """8 phi0 threads loop create / write / fsync / read back / close.

    Each thread works in its own directory and keeps at most
    ``LIVE_FILES`` files, unlinking a seeded victim beyond that, so the
    allocation bitmap fragments.  One op is one lifecycle.
    """

    name = "fs-churn"
    clients = 8
    ops_per_client = 128
    bytes_per_op = "16384-1048576 written + the same read back"
    MIN_BYTES = 16 * KB
    MAX_BYTES = 1 * MB
    CHUNK = 64 * KB
    LIVE_FILES = 8

    def setup(self) -> None:
        eng = self.engine
        cfg = SolrosConfig(disk_blocks=32 * 1024, max_inodes=256)
        self.system = system = SolrosSystem(eng, cfg)
        eng.run_process(system.boot(n_phis=1))
        self.dp = system.dataplane(0)
        self.cores = self.dp.app_cores(self.clients)
        # One pool of seeded bytes; each lifecycle writes a seeded
        # slice of it, so consecutive files differ in content.
        self.pool = self.rng("content").randbytes(self.MAX_BYTES * 2)
        self.rngs = [self.rng(f"client{i}") for i in range(self.clients)]
        self.live: List[List[str]] = [[] for _ in range(self.clients)]
        self.serial = [0] * self.clients

        def mkdirs(eng):
            for i, core in enumerate(self.cores):
                yield from self.dp.fs.mkdir(core, f"/churn{i}")

        eng.run_process(mkdirs(eng))
        # Warm-up: fill every thread's live set.
        self.warm_up(self.LIVE_FILES)

    def vfs_list(self) -> List[Vfs]:
        return [self.dp.fs]

    def client(self, i: int, rnd: Round, n_ops: int):
        for _ in range(n_ops):
            yield from self.timed_op(rnd, self._lifecycle(i))

    def _lifecycle(self, i: int):
        vfs, core, rng = self.dp.fs, self.cores[i], self.rngs[i]
        size = rng.randint(self.MIN_BYTES, self.MAX_BYTES)
        start = rng.randrange(len(self.pool) - size)
        data = self.pool[start : start + size]
        self.serial[i] += 1
        path = f"/churn{i}/f{self.serial[i]}"
        fd = yield from vfs.open(core, path, O_CREAT | O_RDWR)
        for off in range(0, size, self.CHUNK):
            yield from vfs.pwrite(core, fd, off, data[off : off + self.CHUNK])
        yield from vfs.fsync(core, fd)
        back = yield from vfs.pread(core, fd, size, 0)
        yield from vfs.close(core, fd)
        live = self.live[i]
        live.append(path)
        if len(live) > self.LIVE_FILES:
            victim = live.pop(rng.randrange(len(live)))
            yield from vfs.unlink(core, victim)
        return back == data


# ----------------------------------------------------------------------
# net-rpc: request/reply over the Solros network service
# ----------------------------------------------------------------------
class NetRpc(Workload):
    """8 client connections to one shared listening socket.

    The socket round-robins connections across phi0 and phi1; each
    server echoes the payload after a small per-request compute.  One
    op is one request/reply; the client checks the reply equals the
    request.
    """

    name = "net-rpc"
    clients = 8
    ops_per_client = 128
    bytes_per_op = "64-4096 sent + the same received"
    PORT = 7200
    MIN_BYTES = 64
    MAX_BYTES = 4 * KB
    SERVER_UNITS = 2_000  # per-request server compute (host-ns units)
    WARMUP_OPS = 4

    def setup(self) -> None:
        eng = self.engine
        cfg = SolrosConfig(disk_blocks=8192, max_inodes=16)
        self.system = system = SolrosSystem(eng, cfg)
        eng.run_process(system.boot(n_phis=2))
        self.testbed = tb = NetTestbed(eng, system.machine, seed=self.seed)
        self.proxy = tb.solros_proxy()
        self.apis = [self.proxy.attach(system.dataplane(i)) for i in (0, 1)]
        self.pool = self.rng("content").randbytes(self.MAX_BYTES * 4)
        self.rngs = [self.rng(f"client{i}") for i in range(self.clients)]
        self.conns: Dict[int, object] = {}
        listeners = []

        def listen(eng):
            for i, api in enumerate(self.apis):
                core = system.dataplane(i).core(0)
                balancer = RoundRobinBalancer() if i == 0 else None
                listener = yield from api.listen(core, self.PORT, balancer)
                listeners.append(listener)

        eng.run_process(listen(eng))
        for i, listener in enumerate(listeners):
            eng.spawn(self._acceptor(i, listener), name=f"srv{i}-accept")

        def connect(eng):
            for j in range(self.clients):
                core = tb.client_cpu.core(j)
                self.conns[j] = yield from tb.client.connect(
                    core, SocketAddr("host", self.PORT)
                )

        eng.run_process(connect(eng))
        self.warm_up(self.WARMUP_OPS)

    def _acceptor(self, phi: int, listener):
        dp = self.system.dataplane(phi)
        n = 0
        while True:
            core = dp.core(1 + n % 16)
            sock = yield from listener.accept(dp.core(0))
            self.engine.spawn(self._serve(sock, core), name=f"srv{phi}-{n}")
            n += 1

    def _serve(self, sock, core):
        while True:
            payload, n = yield from self.socket_recv(sock, core)
            if payload is None:
                return
            yield from core.compute(self.SERVER_UNITS, "branchy")
            yield from self.socket_send(sock, core, payload, n)

    def socket_recv(self, sock, core):
        return sock.recv(core)

    def socket_send(self, sock, core, payload, n):
        return sock.send(core, payload, n)

    def instrument(self, rec) -> None:
        self.socket_recv = lambda sock, core: rec.span(
            "net.socket", "recv", sock.recv(core)
        )
        self.socket_send = lambda sock, core, payload, n: rec.span(
            "net.socket", "send", sock.send(core, payload, n)
        )

    def rings(self) -> List:
        return super().rings() + [
            ring
            for ch in self.proxy.channels.values()
            for ring in (
                ch.rpc.request_ring, ch.rpc.response_ring,
                ch.outbound, ch.inbound,
            )
        ]

    def net_stats(self):
        return self.proxy.stats

    def client(self, i: int, rnd: Round, n_ops: int):
        for _ in range(n_ops):
            yield from self.timed_op(rnd, self._request(i))

    def _request(self, i: int):
        rng = self.rngs[i]
        size = rng.randint(self.MIN_BYTES, self.MAX_BYTES)
        start = rng.randrange(len(self.pool) - size)
        request = self.pool[start : start + size]
        core = self.testbed.client_cpu.core(i)
        conn = self.conns[i]
        yield from conn.send(core, request, size)
        reply, n = yield from conn.recv(core)
        return reply == request and n == size

    def shutdown(self) -> None:
        self.proxy.stop()
        super().shutdown()


# ----------------------------------------------------------------------
# textindex: application code over the Solros file system
# ----------------------------------------------------------------------
class TextIndex(Workload):
    """16 TextIndexer workers on phi0 index a seeded corpus.

    One op is one document: its latency runs from the worker opening
    it to the worker opening its next document (or ending), so it
    covers the fetch through the stack and the tokenising.  Each round
    re-indexes the whole corpus and writes the index back.
    """

    name = "textindex"
    clients = 16
    N_DOCS = 1024
    DOC_BYTES = 16 * KB
    ops_per_client = N_DOCS // clients
    bytes_per_op = "8192-24576 read (16384 mean)"
    CORPUS = "/corpus"
    OUTPUT = "/index.out"

    def setup(self) -> None:
        eng = self.engine
        cfg = SolrosConfig(disk_blocks=64 * 1024, max_inodes=2048)
        self.system = system = SolrosSystem(eng, cfg)
        eng.run_process(system.boot(n_phis=1))
        corpus = SyntheticCorpus(
            n_docs=self.N_DOCS,
            avg_doc_bytes=self.DOC_BYTES,
            seed=self.rng("corpus").randrange(1 << 30),
        )
        self.docs = [corpus.doc_bytes(i) for i in range(self.N_DOCS)]
        self.names = [corpus.doc_name(i) for i in range(self.N_DOCS)]
        host = system.control.host_vfs()
        core = system.machine.host_core(0)

        def populate(eng):
            yield from host.mkdir(core, self.CORPUS)
            for name, doc in zip(self.names, self.docs):
                fd = yield from host.open(
                    core, f"{self.CORPUS}/{name}", O_CREAT | O_RDWR
                )
                yield from host.pwrite(core, fd, 0, doc)
                if name == self.names[-1]:
                    yield from host.fsync(core, fd)
                yield from host.close(core, fd)

        eng.run_process(populate(eng))
        self.dp = system.dataplane(0)
        self.cores = self.dp.app_cores(self.clients)
        self.vfs = _DocClock(self.dp.fs.backend, eng, self.cores)
        self.indexer = TextIndexer(eng, self.vfs)
        eng.spawn_hooks.append(self.vfs.note_worker)

    def vfs_list(self) -> List[Vfs]:
        return [self.vfs]

    def prepare_check(self) -> None:
        """The oracle: a digest of each document's term counts, computed
        from the corpus bytes alone."""
        self.expected = {
            name: _digest(Counter(doc.decode().split()).items())
            for name, doc in zip(self.names, self.docs)
        }
        self.docs = None

    def instrument(self, rec) -> None:
        rec.wrap(self.indexer, "run", "apps")

    def run_round(self, n_ops: Optional[int] = None) -> Round:
        rnd = Round()
        eng = self.engine
        self.vfs.reset()
        start = eng.now
        result = eng.run_process(
            self.indexer.run(self.cores, self.CORPUS, self.OUTPUT), name="index"
        )
        rnd.sim_ns = eng.now - start
        bad = self._check(result.index)
        spans = self.vfs.doc_latencies()
        for name, latency in spans:
            if name in bad:
                rnd.failed += 1
            else:
                rnd.latencies_ns.append(latency)
        # Documents never opened count as failed too.
        rnd.failed += self.N_DOCS - len(spans)
        return rnd

    def _check(self, index: Dict[str, Dict[str, int]]) -> set:
        """Names of documents whose postings differ from the oracle."""
        got: Dict[str, int] = {}
        for term, postings in index.items():
            for doc, tf in postings.items():
                got[doc] = got.get(doc, 0) ^ hash((term, tf))
        names = set(got) | set(self.expected)
        return {n for n in names if got.get(n) != self.expected.get(n)}


def _digest(term_counts) -> int:
    """Order-free digest of one document's (term, count) pairs."""
    out = 0
    for pair in term_counts:
        out ^= hash(pair)
    return out


class _DocClock(Vfs):
    """The indexer's VFS, noting when each worker opens a document and
    when each worker ends, to time documents end to end."""

    def __init__(self, backend, engine: BenchEngine, cores) -> None:
        super().__init__(backend)
        self.engine = engine
        self.cores = cores
        self.reset()

    def reset(self) -> None:
        self.opens: Dict[int, List] = {}   # core id -> [(doc, t)]
        self.ends: Dict[int, int] = {}     # core id -> worker end

    def open(self, core, path, flags=0):
        if path.endswith(".txt"):
            self.opens.setdefault(core.cid, []).append(
                (path.rsplit("/", 1)[-1], self.engine.now)
            )
        fd = yield from super().open(core, path, flags)
        return fd

    def note_worker(self, proc) -> None:
        # TextIndexer names worker w "indexer-w" and runs it on cores[w].
        if proc.name.startswith("indexer-"):
            cid = self.cores[int(proc.name.split("-")[1])].cid
            self.engine.spawn(self._watch(proc, cid), name=f"end-of-{proc.name}")

    def _watch(self, proc, cid: int):
        yield proc
        self.ends[cid] = self.engine.now

    def doc_latencies(self) -> List:
        """(doc, ns) from each open to the worker's next open or end."""
        out = []
        for cid, opens in self.opens.items():
            stops = [t for _doc, t in opens[1:]] + [self.ends[cid]]
            for (doc, t0), t1 in zip(opens, stops):
                out.append((doc, t1 - t0))
        return out


WORKLOADS = {w.name: w for w in (FsRead, FsChurn, NetRpc, TextIndex)}
