"""Tests for repro.lint: each checker against a true-positive fixture
and a near-miss fixture, the suppression/baseline workflow, the CLI
exit-code contract, the repo-is-clean gate, and the runtime sanitizer's
lockdep/phase machinery."""

import textwrap

import pytest

from repro.lint.__main__ import main as lint_main
from repro.lint.core import (
    load_baseline,
    load_project,
    repo_root,
    run_checkers,
    split_baselined,
    write_baseline,
)
from repro.lint.sanitize import Sanitizer, SanitizerError
from repro.sim import Engine, SimError


def run_fixture(tmp_path, files, rules=None):
    """Materialize ``files`` (relpath -> source) under ``tmp_path`` and
    run (a subset of) the checkers; returns (findings, suppressed)."""
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text))
    project = load_project(tmp_path)
    return run_checkers(project, only=rules)


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# coroutine-discipline
# ----------------------------------------------------------------------
def test_coroutine_discipline_flags_discarded_call(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sim/fix.py": """
            def work(core):
                yield 10

            def driver(core):
                work(core)
                yield 0
        """,
    }, rules=["coroutine-discipline"])
    assert rules_of(findings) == ["coroutine-discipline"]
    assert "yield from" in findings[0].message
    assert findings[0].line == 6


def test_coroutine_discipline_near_misses_are_clean(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sim/fix.py": """
            def work(core):
                yield 10

            def driver(core, engine):
                yield from work(core)      # driven
                g = work(core)             # kept
                engine.spawn(work(core))   # handed off
                return g
        """,
    }, rules=["coroutine-discipline"])
    assert findings == []


def test_coroutine_discipline_skips_ambiguous_names(tmp_path):
    # Two defs share the name; one is not a generator, so a call site
    # cannot be resolved safely and must not be flagged.
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sim/a.py": """
            def work(core):
                yield 10
        """,
        "src/repro/sim/b.py": """
            def work(core):
                return 10

            def driver(core):
                work(core)
                yield 0
        """,
    }, rules=["coroutine-discipline"])
    assert findings == []


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_determinism_flags_entropy_in_sim_packages(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sim/d.py": """
            import random
            import time

            def bad(name, xs, a, b):
                t = time.time()
                r = random.random()
                rng = random.Random()
                seed = hash(name)
                xs.sort(key=id)
                return id(a) < id(b), t, r, rng, seed
        """,
    }, rules=["determinism"])
    messages = " | ".join(f.message for f in findings)
    # seven sites: both operands of the id() comparison are flagged
    assert len(findings) == 7
    assert "wall-clock" in messages
    assert "process-global" in messages
    assert "without a seed" in messages
    assert "PYTHONHASHSEED" in messages
    assert "sort key" in messages
    assert "ordering comparison" in messages


def test_determinism_ignores_out_of_scope_and_seeded(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        # repro.bench is not a simulated package: wall-clock is fine.
        "src/repro/bench/d.py": """
            import time

            def harness():
                return time.time()
        """,
        # Seeded RNGs and equality (not ordering) on id() are fine.
        "src/repro/sim/ok.py": """
            import random

            def good(a, b):
                rng = random.Random(42)
                return rng, id(a) == id(b)
        """,
    }, rules=["determinism"])
    assert findings == []


# ----------------------------------------------------------------------
# rpc-conformance
# ----------------------------------------------------------------------
_RPC_OK = {
    "src/repro/fs/ninep.py": """
        class Topen:
            pass

        class Tread:
            pass
    """,
    "src/repro/fs/proxy.py": """
        def handle(msg):
            if isinstance(msg, Topen):
                return 1
            if isinstance(msg, Tread):
                return 2
    """,
    "src/repro/fs/stub.py": """
        def emit():
            return Topen(), Tread()
    """,
}


def test_rpc_conformance_clean_registry(tmp_path):
    findings, _ = run_fixture(tmp_path, dict(_RPC_OK),
                              rules=["rpc-conformance"])
    assert findings == []


def test_rpc_conformance_flags_unhandled_and_unemitted_opcode(tmp_path):
    files = dict(_RPC_OK)
    files["src/repro/fs/ninep.py"] = """
        class Topen:
            pass

        class Tread:
            pass

        class Tstat:
            pass
    """
    findings, _ = run_fixture(tmp_path, files, rules=["rpc-conformance"])
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("no proxy-side isinstance handler" in m for m in messages)
    assert any("never emitted" in m for m in messages)


def test_rpc_conformance_flags_duplicate_handler(tmp_path):
    files = dict(_RPC_OK)
    files["src/repro/fs/proxy.py"] = """
        def handle(msg):
            if isinstance(msg, Topen):
                return 1
            if isinstance(msg, Tread):
                return 2
            if isinstance(msg, Topen):
                return 3
    """
    findings, _ = run_fixture(tmp_path, files, rules=["rpc-conformance"])
    assert len(findings) == 1
    assert "2 proxy branches" in findings[0].message


def test_rpc_conformance_net_op_sets_must_agree(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/net/service.py": """
            def dispatch(op):
                if op == "connect":
                    return 1
                if op == "shutdown":
                    return 2
        """,
        "src/repro/net/socket_api.py": """
            def emit(rpc, core):
                rpc.call(core, "net", ("connect", 1))
                return ("ping", 2)
        """,
    }, rules=["rpc-conformance"])
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "'ping' is emitted by the socket API" in messages[0]
    assert "'shutdown' is dispatched by the service" in messages[1]


# ----------------------------------------------------------------------
# qos-constants
# ----------------------------------------------------------------------
def test_qos_constants_flag_out_of_range_priority(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sched/qos.py": """
            CLASS_RT = 0
            CLASS_BULK = 2
        """,
        "src/repro/fs/user.py": """
            def f(call):
                call(priority=5)
                call(priority=1)
        """,
    }, rules=["qos-constants"])
    assert rules_of(findings) == ["qos-constants"]
    assert "priority=5" in findings[0].message


def test_qos_constants_flag_redefinition(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sched/qos.py": "CLASS_RT = 0\n",
        "src/repro/fs/rogue.py": "CLASS_RT = 0\n",
    }, rules=["qos-constants"])
    assert len(findings) == 1
    assert "defined in multiple modules" in findings[0].message


# ----------------------------------------------------------------------
# obs-conformance
# ----------------------------------------------------------------------
_OBS_DOC = """
## Span categories

| category | meaning |
| --- | --- |
| `stub` | co-processor side |
| `proxy` | host side |

## Metric catalog

| metric | type |
| --- | --- |
| `sched.submitted` | counter |
| `ring.<name>.bytes` | counter |
"""


def _write_obs_doc(tmp_path):
    p = tmp_path / "docs" / "OBSERVABILITY.md"
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(_OBS_DOC)


def test_obs_conformance_accepts_documented_names(tmp_path):
    _write_obs_doc(tmp_path)
    findings, _ = run_fixture(tmp_path, {
        "src/repro/obs_use.py": """
            def setup(metrics, tracer, core, name):
                metrics.counter("sched.submitted")
                metrics.counter(f"ring.{name}.bytes")
                tracer.begin("fs.open", "stub", core=core)
        """,
    }, rules=["obs-conformance"])
    assert findings == []


def test_obs_conformance_flags_undocumented_and_misnamed(tmp_path):
    _write_obs_doc(tmp_path)
    findings, _ = run_fixture(tmp_path, {
        "src/repro/obs_use.py": """
            def setup(metrics, tracer, core):
                metrics.counter("Sched.Bad")
                metrics.counter("sched.unknown")
                tracer.begin("fs.open", "bogus", core=core)
        """,
    }, rules=["obs-conformance"])
    messages = " | ".join(f.message for f in findings)
    assert len(findings) == 3
    assert "naming scheme" in messages
    assert "not documented" in messages
    assert "span category 'bogus'" in messages


def test_obs_conformance_without_doc_only_checks_naming(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/obs_use.py": """
            def setup(metrics):
                metrics.counter("anything.goes")
                metrics.counter("But.Not.This")
        """,
    }, rules=["obs-conformance"])
    assert len(findings) == 1
    assert "naming scheme" in findings[0].message


# ----------------------------------------------------------------------
# lock-phase
# ----------------------------------------------------------------------
def test_lock_phase_flags_leaked_and_unmatched(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/transport/use.py": """
            def leaks(core, lock):
                yield from lock.acquire(core)
                yield 1

            def unmatched(core, lock):
                yield from lock.release(core)
        """,
    }, rules=["lock-phase"])
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "acquired but never released" in messages[0]
    assert "without a matching acquire" in messages[1]


def test_lock_phase_flags_bad_nesting(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/transport/use.py": """
            def interleaved(core, a, b):
                yield from a.acquire(core)
                yield from b.acquire(core)
                yield from a.release(core)
                yield from b.release(core)
        """,
    }, rules=["lock-phase"])
    assert any("not well-nested" in f.message for f in findings)


def test_lock_phase_well_nested_try_finally_is_clean(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/transport/use.py": """
            def good(core, lock, resource):
                yield from lock.acquire(core)
                try:
                    yield 5
                finally:
                    yield from lock.release(core)
                yield resource.request()
                try:
                    yield 5
                finally:
                    resource.release()
        """,
    }, rules=["lock-phase"])
    assert findings == []


def test_lock_phase_flags_ready_before_copy(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/transport/use.py": """
            def bad(core, ring, data):
                slot = yield from ring.try_enqueue(core, 8)
                yield from ring.set_ready(core, slot)

            def bad_rx(core, ring):
                slot = yield from ring.try_dequeue(core)
                yield from ring.set_done(core, slot)
        """,
    }, rules=["lock-phase"])
    messages = " | ".join(f.message for f in findings)
    assert len(findings) == 2
    assert "set_ready() on slot 'slot' before copy_to()" in messages
    assert "set_done() on slot 'slot' before copy_from()" in messages


def test_lock_phase_ordered_ring_protocol_is_clean(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/transport/use.py": """
            def good(core, ring, data):
                slot = yield from ring.try_enqueue(core, 8)
                yield from ring.copy_to(core, slot, data)
                yield from ring.set_ready(core, slot)

            def good_rx(core, ring):
                slot = yield from ring.try_dequeue(core)
                payload = yield from ring.copy_from(core, slot)
                yield from ring.set_done(core, slot)
                return payload
        """,
    }, rules=["lock-phase"])
    assert findings == []


# ----------------------------------------------------------------------
# Suppression + baseline workflow
# ----------------------------------------------------------------------
def test_inline_allow_suppresses_finding(tmp_path):
    findings, suppressed = run_fixture(tmp_path, {
        "src/repro/sim/fix.py": """
            def work(core):
                yield 10

            def driver(core):
                work(core)  # lint: allow(coroutine-discipline)
                yield 0
        """,
    }, rules=["coroutine-discipline"])
    assert findings == [] and suppressed == 1


def test_file_level_allow_suppresses_whole_file(tmp_path):
    findings, suppressed = run_fixture(tmp_path, {
        "src/repro/sim/fix.py": """
            # lint: allow-file(coroutine-discipline)
            def work(core):
                yield 10

            def driver(core):
                work(core)
                work(core)
                yield 0
        """,
    }, rules=["coroutine-discipline"])
    assert findings == [] and suppressed == 2


_WORK = "def work(core):\n    yield 10\n\ndef rest(core):\n    yield 20\n\n"


def test_baseline_roundtrip(tmp_path):
    files = {
        "src/repro/sim/fix.py": _WORK + "def driver(core):\n    work(core)\n",
    }
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    project = load_project(tmp_path)
    findings, _ = run_checkers(project, only=["coroutine-discipline"])
    assert len(findings) == 1
    write_baseline(tmp_path, project, findings)
    baseline = load_baseline(tmp_path)
    new, old = split_baselined(project, findings, baseline)
    assert new == [] and len(old) == 1
    # Fingerprints are content-based: a new finding is NOT covered.
    (tmp_path / "src/repro/sim/fix.py").write_text(
        _WORK + "def driver(core):\n    work(core)\n    rest(core)\n"
    )
    project2 = load_project(tmp_path)
    findings2, _ = run_checkers(project2, only=["coroutine-discipline"])
    new2, old2 = split_baselined(project2, findings2, baseline)
    assert len(new2) == 1 and "'rest'" in new2[0].message
    assert len(old2) == 1


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def test_cli_exits_nonzero_on_true_positive(tmp_path, capsys):
    p = tmp_path / "src/repro/sim/fix.py"
    p.parent.mkdir(parents=True)
    p.write_text(textwrap.dedent("""
        def work(core):
            yield 10

        def driver(core):
            work(core)
            yield 0
    """))
    assert lint_main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "coroutine-discipline" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    p = tmp_path / "src/repro/sim/fix.py"
    p.parent.mkdir(parents=True)
    p.write_text("def work(core):\n    yield 10\n")
    assert lint_main(["--root", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_output(tmp_path, capsys):
    p = tmp_path / "src/repro/sim/fix.py"
    p.parent.mkdir(parents=True)
    p.write_text(_WORK + "def driver(core):\n    work(core)\n")
    assert lint_main(["--root", str(tmp_path), "--json"]) == 1
    out = capsys.readouterr().out
    assert '"coroutine-discipline"' in out


def test_repo_is_clean_under_baseline(capsys):
    """The committed tree must pass its own gate (the CI contract)."""
    assert lint_main(["--root", str(repo_root()), "--baseline"]) == 0


# ----------------------------------------------------------------------
# Runtime sanitizer
# ----------------------------------------------------------------------
class _L:
    def __init__(self, name):
        self.name = name


def test_sanitizer_detects_abba_inversion():
    s = Sanitizer(enabled=True)
    a, b, core1, core2 = _L("A"), _L("B"), object(), object()
    s.on_acquire(core1, a)
    s.on_acquire(core1, b)
    s.on_release(core1, b)
    s.on_release(core1, a)
    s.on_acquire(core2, b)
    with pytest.raises(SanitizerError, match="inversion"):
        s.on_acquire(core2, a)


def test_sanitizer_detects_three_lock_cycle():
    s = Sanitizer(enabled=True)
    a, b, c = _L("A"), _L("B"), _L("C")
    core = object()
    for first, second in ((a, b), (b, c)):
        s.on_acquire(core, first)
        s.on_acquire(core, second)
        s.on_release(core, second)
        s.on_release(core, first)
    s.on_acquire(core, c)
    with pytest.raises(SanitizerError, match="cycle"):
        s.on_acquire(core, a)


def test_sanitizer_self_deadlock_and_bad_release():
    s = Sanitizer(enabled=True)
    a, core = _L("A"), object()
    s.on_acquire(core, a)
    with pytest.raises(SanitizerError, match="self-deadlock"):
        s.on_acquire(core, a)
    s.on_release(core, a)
    with pytest.raises(SanitizerError, match="does not hold"):
        s.on_release(core, a)


def test_sanitizer_lock_classes_merge_by_label():
    # Two instances with the same name are one lockdep class: taking
    # them in opposite orders is an inversion even across instances.
    s = Sanitizer(enabled=True)
    a1, a2, b = _L("A"), _L("A"), _L("B")
    core = object()
    s.on_acquire(core, a1)
    s.on_acquire(core, b)
    s.on_release(core, b)
    s.on_release(core, a1)
    s.on_acquire(core, b)
    with pytest.raises(SanitizerError, match="inversion"):
        s.on_acquire(core, a2)


def test_sanitizer_slot_phase_machine():
    s = Sanitizer(enabled=True)
    ring = _L("rb")
    # Correct protocol is silent, and 'done' retires the slot so the
    # seq can be reserved again.
    s.on_slot_reserve(ring, 1)
    s.on_slot_copy(ring, 1)
    s.on_slot_phase(ring, 1, "ready")
    s.on_slot_phase(ring, 1, "consumed")
    s.on_slot_phase(ring, 1, "done")
    # ready-before-copy is the paper's protocol violation.
    s.on_slot_reserve(ring, 2)
    with pytest.raises(SanitizerError, match="before copy_to"):
        s.on_slot_phase(ring, 2, "ready")
    # Skipping 'ready' is an illegal transition.
    s.on_slot_reserve(ring, 3)
    s.on_slot_copy(ring, 3)
    with pytest.raises(SanitizerError, match="illegal phase transition"):
        s.on_slot_phase(ring, 3, "consumed")
    # Double-reserve of a live slot.
    with pytest.raises(SanitizerError, match="re-reserved"):
        s.on_slot_reserve(ring, 2)


def test_sanitizer_disabled_by_default_costs_nothing():
    s = Sanitizer(enabled=False)
    assert s.enabled is False


def test_sanitizer_records_wait_while_holding():
    s = Sanitizer(enabled=True)
    lock, cell, core = _L("A"), _L("line0"), object()
    s.on_wait(core, cell)          # not holding: not recorded
    s.on_acquire(core, lock)
    s.on_wait(core, cell)
    assert s.waits_while_holding == [("_L(A)", "_L(line0)")]


# ----------------------------------------------------------------------
# Engine diagnostic for discarded coroutines
# ----------------------------------------------------------------------
def test_engine_diagnoses_bare_yield_of_generator():
    def inner():
        yield 10

    def outer():
        yield inner()  # should be 'yield from'

    eng = Engine()
    with pytest.raises(SimError, match="yield from"):
        eng.run_process(outer())
