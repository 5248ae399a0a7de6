"""Tests for repro.faults: deterministic fault injection + recovery.

Covers the per-class fault matrix (errno surfaces at the co-processor
call site; recovery converges within the retry budget), the RPC
timeout / idempotent re-issue machinery, the per-device circuit
breaker with P2P→buffered degradation, bit-identity of the quiet
plan, and the satellite regressions (retry-delay clamping, deadline
cut-off, RemoteCallError cause flattening).
"""

import random

import pytest

from repro.core import SolrosConfig, SolrosSystem
from repro.faults import (
    CLOSED,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    NicFaults,
    NvmeFaults,
    OPEN,
    ProxyFaults,
    RingFaults,
)
from repro.fs import O_RDWR
from repro.fs.ninep import Topen
from repro.fs.stub import SolrosFsBackend
from repro.hw import KB, build_machine
from repro.obs import NULL_METRICS
from repro.sched import Qos, RetryPolicy
from repro.sim import Engine
from repro.transport import RemoteCallError, RpcChannel, RpcTimeout

FILE = "/chaos.dat"
FILE_BYTES = 512 * KB
BLOCK = 16 * KB


def boot(plan=None, timeout_ns=None, **cfg_kwargs):
    eng = Engine()
    cfg = SolrosConfig(
        disk_blocks=4096,
        max_inodes=32,
        fault_plan=plan,
        rpc_timeout_ns=timeout_ns,
        **cfg_kwargs,
    )
    sys_ = SolrosSystem(eng, cfg)
    eng.run_process(sys_.boot(n_phis=1))
    # Setup I/O (preallocation) is not under test: keep the plan's
    # chaos budget for the workload itself.
    if sys_.faults is not None:
        sys_.faults.armed = False
    eng.run_process(
        sys_.control.fs.preallocate(
            sys_.machine.host_core(0), FILE, FILE_BYTES
        )
    )
    if sys_.faults is not None:
        sys_.faults.armed = True
    return eng, sys_


def run_io(eng, sys_, n_ops=6, op="read", max_tries=None):
    """A small closed loop of distinct-offset reads or writes."""
    phi = sys_.dataplane(0)
    if max_tries is not None:
        phi.fs.backend.retry = RetryPolicy(max_tries=max_tries)
    core = phi.core(0)
    moved = [0]

    def main(eng):
        fd = yield from phi.fs.open(core, FILE, O_RDWR)
        for i in range(n_ops):
            offset = (i * BLOCK) % FILE_BYTES
            if op == "read":
                data = yield from phi.fs.pread(core, fd, BLOCK, offset)
                moved[0] += len(data)
            else:
                moved[0] += yield from phi.fs.pwrite(
                    core, fd, offset, length=BLOCK
                )
        yield from phi.fs.close(core, fd)
        return moved[0]

    return eng.run_process(main(eng))


# ----------------------------------------------------------------------
# The fault matrix: errno surfaces, recovery converges
# ----------------------------------------------------------------------
SURFACE_MATRIX = [
    pytest.param(
        FaultPlan(seed=3, nvme=NvmeFaults(read_error_rate=1.0)),
        None, "read", "EIO", id="nvme-read-error",
    ),
    pytest.param(
        FaultPlan(seed=3, nvme=NvmeFaults(write_error_rate=1.0)),
        None, "write", "EIO", id="nvme-write-error",
    ),
    pytest.param(
        FaultPlan(
            seed=3,
            proxy=ProxyFaults(
                crash_at_requests=(1,), restart_after_ns=10**12
            ),
        ),
        200_000, "read", "ETIMEDOUT", id="proxy-crash",
    ),
]


@pytest.mark.parametrize("plan,timeout_ns,op,errno", SURFACE_MATRIX)
def test_errno_surfaces_at_call_site(plan, timeout_ns, op, errno):
    """With certain failure and a tiny retry budget, the injected
    errno reaches the co-processor call site as a single-layer
    RemoteCallError whose cause is marked transient."""
    eng, sys_ = boot(plan, timeout_ns)
    with pytest.raises(RemoteCallError) as exc:
        run_io(eng, sys_, op=op, max_tries=2)
    err = exc.value
    assert err.errno_name == errno
    # The cause chain is flat: never RemoteCallError(RemoteCallError).
    assert not isinstance(err.cause, RemoteCallError)
    assert getattr(err.cause, "transient", False)
    sys_.shutdown()
    eng.run()


RECOVERY_MATRIX = [
    pytest.param(
        FaultPlan(seed=5, nvme=NvmeFaults(read_error_rate=0.25)),
        None, "read", "faults.nvme.read_errors", id="nvme-read-error",
    ),
    pytest.param(
        FaultPlan(seed=5, nvme=NvmeFaults(write_error_rate=0.25)),
        None, "write", "faults.nvme.write_errors", id="nvme-write-error",
    ),
    pytest.param(
        FaultPlan(seed=5, nvme=NvmeFaults(latency_spike_rate=0.5)),
        None, "read", "faults.nvme.latency_spikes", id="nvme-latency-spike",
    ),
    pytest.param(
        FaultPlan(seed=5, ring=RingFaults(stall_rate=0.2)),
        None, "read", "faults.ring.stalls", id="ring-stall",
    ),
    pytest.param(
        FaultPlan(seed=5, ring=RingFaults(pcie_degrade_rate=0.5)),
        None, "read", "faults.pcie.degraded", id="pcie-degrade",
    ),
    pytest.param(
        FaultPlan(
            seed=5,
            proxy=ProxyFaults(
                crash_at_requests=(3,), restart_after_ns=300_000
            ),
        ),
        500_000, "read", "faults.proxy.crashes", id="proxy-crash",
    ),
]


@pytest.mark.parametrize("plan,timeout_ns,op,counter", RECOVERY_MATRIX)
def test_recovery_converges(plan, timeout_ns, op, counter):
    """At moderate rates the whole workload completes within the
    default retry budget, and the injector accounted for every hit."""
    moved_clean = None
    eng0, clean = boot()
    moved_clean = run_io(eng0, clean, op=op)
    clean.shutdown()
    eng0.run()

    eng, sys_ = boot(plan, timeout_ns)
    moved = run_io(eng, sys_, op=op)
    counts = sys_.faults_state()["counts"]
    assert moved == moved_clean == 6 * BLOCK
    assert counts[counter] > 0, counts
    sys_.shutdown()
    eng.run()


def test_latency_spikes_stretch_the_clock():
    eng0, clean = boot()
    run_io(eng0, clean)
    clean_now = eng0.now
    plan = FaultPlan(seed=5, nvme=NvmeFaults(latency_spike_rate=0.5))
    eng, sys_ = boot(plan)
    run_io(eng, sys_)
    assert eng.now > clean_now
    clean.shutdown()
    sys_.shutdown()


def test_proxy_crash_mid_read_recovers():
    """The acceptance scenario: kill the fs proxy mid-workload; the
    read still completes via timeout + idempotent re-issue."""
    plan = FaultPlan(
        seed=7,
        proxy=ProxyFaults(crash_at_requests=(3,), restart_after_ns=300_000),
    )
    eng, sys_ = boot(plan, timeout_ns=500_000)
    moved = run_io(eng, sys_)
    assert moved == 6 * BLOCK
    state = sys_.faults_state()
    counts = state["counts"]
    assert counts["faults.proxy.crashes"] == 1
    assert counts["faults.proxy.dropped"] >= 1
    assert counts["faults.rpc.timeouts"] >= 1
    assert counts["faults.rpc.retries"] >= 1
    assert sys_.dataplane(0).fs.backend.retries == counts["faults.rpc.retries"]
    sys_.shutdown()
    eng.run()


def test_nic_drop_charges_retransmit():
    """NIC-level drops: one retransmit penalty per hit, counted."""
    def elapsed(with_faults):
        eng = Engine()
        m = build_machine(eng)
        injector = None
        if with_faults:
            injector = FaultInjector(
                eng,
                FaultPlan(
                    seed=2,
                    nic=NicFaults(drop_rate=1.0, retransmit_ns=5_000),
                ),
                NULL_METRICS,
            )
            m.nic.faults = injector

        def main(eng):
            yield from m.nic.transmit(1_000)
            yield from m.nic.receive(1_000)

        eng.run_process(main(eng))
        return eng.now, injector

    base, _ = elapsed(False)
    faulty, injector = elapsed(True)
    assert faulty == base + 2 * 5_000
    assert injector.counts["faults.nic.drops"] == 2


# ----------------------------------------------------------------------
# Circuit breaker: P2P -> buffered degradation
# ----------------------------------------------------------------------
def test_breaker_opens_and_degrades_to_buffered():
    """Persistent P2P-only NVMe errors trip the per-device breaker;
    reads keep completing on the host-staged buffered path, and once
    the faults stop the half-open probe closes the breaker again."""
    plan = FaultPlan(
        seed=9,
        nvme=NvmeFaults(read_error_rate=1.0, error_scope="p2p"),
    )
    eng, sys_ = boot(
        plan,
        fault_breaker_threshold=2,
        fault_breaker_reset_ns=200_000,
    )
    moved = run_io(eng, sys_, n_ops=4)
    assert moved == 4 * BLOCK  # every read completed, degraded
    counts = sys_.faults_state()["counts"]
    assert counts["faults.breaker.trips"] >= 1
    assert counts["faults.fallback.buffered"] >= 3
    assert counts["faults.nvme.read_errors"] >= 2
    # Faults stop: the half-open probe should succeed and re-close.
    sys_.faults.armed = False
    run_io(eng, sys_, n_ops=8)
    snaps = sys_.faults_state()["breakers"]
    assert [b["state"] for b in snaps] == [CLOSED]
    assert OPEN != CLOSED  # vocabulary sanity
    sys_.shutdown()
    eng.run()


# ----------------------------------------------------------------------
# RPC timeout + idempotent re-issue
# ----------------------------------------------------------------------
def test_rpc_timeout_raises_etimedout():
    eng = Engine()
    m = build_machine(eng)
    ch = RpcChannel(eng, m.fabric, client_cpu=m.phi(0), server_cpu=m.host)

    def never_replies(core, method, payload):
        yield 10**12  # far past any timeout

    ch.start_client(m.phi_core(0, 60))
    ch.start_server([m.host_core(1)], never_replies)

    def client(eng):
        try:
            yield from ch.call(m.phi_core(0, 0), "slow", None, timeout_ns=50_000)
        except RemoteCallError as error:
            ch.stop()
            return error
        ch.stop()
        return None

    err = eng.run_process(client(eng))
    assert isinstance(err, RemoteCallError)
    assert isinstance(err.cause, RpcTimeout)
    assert err.errno_name == "ETIMEDOUT"
    assert err.cause.transient
    assert not isinstance(err.cause, RemoteCallError)


def test_dedup_cache_replays_without_reexecuting():
    eng = Engine()
    m = build_machine(eng)
    ch = RpcChannel(eng, m.fabric, client_cpu=m.phi(0), server_cpu=m.host)
    executions = []

    def handler(core, method, payload):
        executions.append(method)
        yield from core.compute(100)
        return ("done", payload)

    ch.start_client(m.phi_core(0, 60))
    ch.start_server([m.host_core(1)], handler)

    def client(eng):
        seq = ch.next_dedup()
        a = yield from ch.call(m.phi_core(0, 0), "op", 41, dedup=seq)
        b = yield from ch.call(m.phi_core(0, 0), "op", 41, dedup=seq)
        ch.stop()
        return a, b

    a, b = eng.run_process(client(eng))
    assert a == b == ("done", 41)
    assert executions == ["op"]  # the re-issue was answered from cache


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------
def test_retry_delay_clamped_to_max_even_with_large_hint():
    policy = RetryPolicy(base_ns=2_000, max_ns=10_000, max_tries=5)
    rng = random.Random(1)
    for attempt in range(8):
        for hint in (None, 0, 9_999, 10_000, 10**9, 2**63):
            assert policy.delay(attempt, rng, hint_ns=hint) <= 10_000


def test_remote_call_error_cause_chain_stays_flat():
    inner = InjectedFault("injected EIO")
    wrapped = RemoteCallError("9p", RemoteCallError("9p", inner))
    assert wrapped.cause is inner
    assert wrapped.errno_name == "EIO"


def test_deadline_stops_retrying_before_budget():
    """Satellite 1: once engine.now passes the QoS deadline the stub
    raises the last cause instead of burning the remaining budget."""
    def run(deadline_ns):
        eng = Engine()
        m = build_machine(eng)
        ch = RpcChannel(
            eng, m.fabric, client_cpu=m.phi(0), server_cpu=m.host
        )

        def always_fails(core, method, payload):
            yield from core.compute(10)
            raise InjectedFault("persistent injected failure")

        ch.start_client(m.phi_core(0, 60))
        ch.start_server([m.host_core(1)], always_fails)
        backend = SolrosFsBackend(
            ch,
            m.phi(0),
            qos=Qos(priority=1, deadline_ns=deadline_ns),
            retry=RetryPolicy(base_ns=100_000, max_ns=100_000, max_tries=10),
        )

        def client(eng):
            try:
                yield from backend._call(m.phi_core(0, 0), Topen(FILE, 0))
            except RemoteCallError as error:
                ch.stop()
                return error
            ch.stop()
            return None

        err = eng.run_process(client(eng))
        assert isinstance(err, RemoteCallError)
        assert isinstance(err.cause, InjectedFault)
        return backend.retries

    # No deadline: the whole budget burns (max_tries - 1 backoffs).
    assert run(None) == 9
    # A 150 us deadline fits at most two ~(50,100] us backoffs.
    assert run(150_000) <= 2


# ----------------------------------------------------------------------
# Determinism + the quiet plan
# ----------------------------------------------------------------------
CHAOS_PLAN = FaultPlan(
    seed=11,
    nvme=NvmeFaults(read_error_rate=0.2, latency_spike_rate=0.3),
    ring=RingFaults(stall_rate=0.1, pcie_degrade_rate=0.2),
    proxy=ProxyFaults(crash_at_requests=(4,), restart_after_ns=300_000),
)


def test_same_plan_same_trace():
    def once():
        eng, sys_ = boot(CHAOS_PLAN, timeout_ns=500_000)
        moved = run_io(eng, sys_)
        state = sys_.faults_state()
        now = eng.now
        sys_.shutdown()
        eng.run()
        return moved, state["counts"], now

    assert once() == once()


def test_quiet_plan_is_bit_identical_to_no_plan():
    """An armed-but-empty plan reaches every hook yet draws nothing:
    the run must be indistinguishable from the legacy path."""
    eng_off, sys_off = boot(None)
    moved_off = run_io(eng_off, sys_off)
    eng_quiet, sys_quiet = boot(FaultPlan())
    moved_quiet = run_io(eng_quiet, sys_quiet)
    assert FaultPlan().quiet
    assert moved_quiet == moved_off
    assert eng_quiet.now == eng_off.now
    assert not any(sys_quiet.faults_state()["counts"].values())
    sys_off.shutdown()
    sys_quiet.shutdown()
