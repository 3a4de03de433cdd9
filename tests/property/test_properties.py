"""Property-based tests (hypothesis) on the core data structures and invariants.

These cover the algebraic properties the rest of the system leans on:
vector-clock ordering, RNG rewind fidelity, COW checkpoint round-trips,
recovery-line consistency, Scroll serialization and state fingerprinting.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dsim.clock import VectorClock, VectorTimestamp
from repro.dsim.process import ProcessCheckpoint
from repro.dsim.rng import DeterministicRNG, derive_seed
from repro.investigator.state import ModelState, fingerprint
from repro.scroll.entry import ActionKind, ScrollEntry
from repro.scroll.scroll import Scroll
from repro.timemachine.checkpoint import CheckpointStore
from repro.timemachine.cow import CowPageStore
from repro.timemachine.recovery_line import compute_recovery_line, is_consistent

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
pids = st.sampled_from(["a", "b", "c", "d"])
vt_maps = st.dictionaries(pids, st.integers(min_value=0, max_value=20), max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=10,
)
state_dicts = st.dictionaries(st.text(min_size=1, max_size=6), json_values, max_size=5)


# ----------------------------------------------------------------------
# Vector timestamps
# ----------------------------------------------------------------------
class TestVectorTimestampProperties:
    @given(vt_maps, vt_maps)
    def test_partial_order_antisymmetry(self, a_map, b_map):
        a, b = VectorTimestamp.from_mapping(a_map), VectorTimestamp.from_mapping(b_map)
        if a < b:
            assert not (b < a)

    @given(vt_maps, vt_maps, vt_maps)
    def test_partial_order_transitivity(self, a_map, b_map, c_map):
        a = VectorTimestamp.from_mapping(a_map)
        b = VectorTimestamp.from_mapping(b_map)
        c = VectorTimestamp.from_mapping(c_map)
        if a <= b and b <= c:
            assert a <= c

    @given(vt_maps, vt_maps)
    def test_merge_is_upper_bound(self, a_map, b_map):
        a, b = VectorTimestamp.from_mapping(a_map), VectorTimestamp.from_mapping(b_map)
        merged = a.merge(b)
        assert a <= merged and b <= merged

    @given(vt_maps)
    def test_merge_idempotent(self, a_map):
        a = VectorTimestamp.from_mapping(a_map)
        assert a.merge(a) == a

    @given(st.lists(st.sampled_from(["tick", "recv"]), max_size=20))
    def test_local_clock_is_strictly_increasing(self, operations):
        clock = VectorClock("a")
        other = VectorClock("b")
        previous = clock.snapshot()
        for op in operations:
            if op == "tick":
                current = clock.tick()
            else:
                current = clock.merge(other.tick())
            assert previous < current
            previous = current

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("tick"), st.just({})),
                st.tuples(st.just("merge"), vt_maps),
                st.tuples(st.just("restore"), vt_maps),
            ),
            max_size=25,
        )
    )
    def test_memoized_snapshot_matches_a_fresh_one(self, operations):
        clock = VectorClock("a")
        for op, mapping in operations:
            if op == "tick":
                clock.tick()
            elif op == "merge":
                clock.merge(VectorTimestamp.from_mapping(mapping))
            else:
                clock.restore(VectorTimestamp.from_mapping(mapping))
            fresh = VectorTimestamp.from_mapping(
                {pid: clock.component(pid) for pid in ("a", "b", "c", "d")}
            )
            assert clock.snapshot() == fresh
            assert clock.snapshot() == fresh  # a memo hit


# ----------------------------------------------------------------------
# RNG rewind fidelity
# ----------------------------------------------------------------------
class TestRNGProperties:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.lists(st.sampled_from(["random", "randint", "choice", "expovariate"]), max_size=30),
        st.integers(min_value=0, max_value=30),
    )
    def test_restore_to_any_cursor_reproduces_suffix(self, seed, methods, cut):
        def draw(rng, method):
            if method == "random":
                return rng.random()
            if method == "randint":
                return rng.randint(0, 1000)
            if method == "choice":
                return rng.choice(["x", "y", "z"])
            return rng.expovariate(2.0)

        rng = DeterministicRNG(seed)
        values = [draw(rng, method) for method in methods]
        cut = min(cut, len(methods))
        rng.restore(cut)
        replayed = [draw(rng, method) for method in methods[cut:]]
        assert replayed == values[cut:]

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=10), st.text(max_size=10))
    def test_derive_seed_deterministic_and_label_sensitive(self, seed, a, b):
        assert derive_seed(seed, a) == derive_seed(seed, a)
        if a != b:
            assert derive_seed(seed, a) != derive_seed(seed, b)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(0, 50), st.integers(0, 50))
    def test_randint_respects_bounds(self, seed, low, span):
        rng = DeterministicRNG(seed)
        high = low + span
        for _ in range(20):
            value = rng.randint(low, high)
            assert low <= value <= high


# ----------------------------------------------------------------------
# Copy-on-write checkpoints
# ----------------------------------------------------------------------
class TestCowProperties:
    @settings(max_examples=50)
    @given(st.lists(state_dicts, min_size=1, max_size=6))
    def test_every_checkpoint_restores_exactly(self, states):
        store = CowPageStore(page_size=64)
        checkpoints = [store.capture("p", state, float(index)) for index, state in enumerate(states)]
        for checkpoint, state in zip(checkpoints, states):
            assert store.restore(checkpoint) == state

    @settings(max_examples=50)
    @given(st.lists(state_dicts, min_size=1, max_size=6))
    def test_stored_bytes_never_exceed_logical_bytes(self, states):
        store = CowPageStore(page_size=64)
        for index, state in enumerate(states):
            store.capture("p", state, float(index))
        assert store.stored_bytes() <= store.logical_bytes()
        assert 0.0 <= store.savings_ratio() <= 1.0


# ----------------------------------------------------------------------
# Recovery lines
# ----------------------------------------------------------------------
def _checkpoint(pid: str, sequence: int, vt: dict) -> ProcessCheckpoint:
    return ProcessCheckpoint(
        pid=pid,
        sequence=sequence,
        time=float(sequence),
        state={"seq": sequence},
        vt=VectorTimestamp.from_mapping(vt),
        lamport=0,
        rng_draws=0,
        sent_count=0,
        received_count=0,
    )


class TestRecoveryLineProperties:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(pids, pids), max_size=15))
    def test_computed_line_is_always_consistent(self, sends):
        """Simulate a message history with vector clocks and per-event checkpoints.

        Whatever the communication pattern, the recovery line computed from the
        per-process checkpoint histories must satisfy the consistency condition.
        """
        processes = ["a", "b", "c", "d"]
        clocks = {pid: VectorClock(pid) for pid in processes}
        store = CheckpointStore()
        sequence = {pid: 0 for pid in processes}

        def take_checkpoint(pid):
            sequence[pid] += 1
            store.add(_checkpoint(pid, sequence[pid], clocks[pid].snapshot().as_dict()))

        for pid in processes:
            take_checkpoint(pid)
        for src, dst in sends:
            if src == dst:
                continue
            ts = clocks[src].tick()
            clocks[dst].merge(ts)
            take_checkpoint(dst)

        line = compute_recovery_line(store)
        assert is_consistent(line.checkpoints)
        assert set(line.checkpoints) == set(processes)


# ----------------------------------------------------------------------
# Scroll serialization
# ----------------------------------------------------------------------
class TestScrollProperties:
    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(pids, st.sampled_from(list(ActionKind)), st.floats(0, 100), state_dicts),
            max_size=15,
        )
    )
    def test_scroll_round_trip_preserves_entries(self, raw_entries):
        scroll = Scroll()
        for pid, kind, time, detail in raw_entries:
            scroll.record(pid, kind, time, detail)
        rebuilt = Scroll.from_records(scroll.to_records())
        assert len(rebuilt) == len(scroll)
        for original, copy in zip(scroll, rebuilt):
            assert original.pid == copy.pid
            assert original.kind == copy.kind
            assert original.detail == copy.detail

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(pids, st.sampled_from([ActionKind.SEND, ActionKind.RECEIVE, ActionKind.RANDOM])),
            max_size=20,
        )
    )
    def test_filters_partition_the_scroll(self, raw_entries):
        scroll = Scroll()
        for pid, kind in raw_entries:
            scroll.record(pid, kind, 0.0, {})
        by_process = sum(len(scroll.entries_for(pid)) for pid in scroll.pids())
        assert by_process == len(scroll)
        by_kind = sum(scroll.counts_by_kind().values())
        assert by_kind == len(scroll)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprintProperties:
    @settings(max_examples=80)
    @given(state_dicts)
    def test_fingerprint_is_deterministic(self, state):
        assert fingerprint(state) == fingerprint(dict(state))

    @settings(max_examples=80)
    @given(state_dicts)
    def test_model_state_round_trip(self, state):
        model_state = ModelState.from_dict(state)
        assert set(model_state.as_dict()) == set(state)
        assert model_state.fingerprint() == ModelState.from_dict(dict(state)).fingerprint()

    @settings(max_examples=80)
    @given(state_dicts, st.text(min_size=1, max_size=5), st.integers(-100, 100))
    def test_with_values_changes_fingerprint_when_value_new(self, state, key, value):
        model_state = ModelState.from_dict(state)
        updated = model_state.with_values(**{key: value})
        if model_state.get(key) != updated.get(key):
            assert model_state.fingerprint() != updated.fingerprint()
