"""Property: the delta-chunked COW store is observationally identical to the
whole-value oracle, and page-backed checkpoints to deep-copied ones.

A ``CowPageStore`` with chunking enabled must restore every checkpoint of a
random mutate/capture program byte-identically to a ``chunk_threshold=None``
store (the pre-chunking capture path) fed the same program — including dict
insertion order, which is part of state identity under deterministic replay.

The Time Machine keeps a checkpoint's state only as COW pages, so a
page-backed ``Process.restore_checkpoint`` must also match the deep-copy
oracle (``Process.capture_checkpoint`` without pages), within the aliasing
contract stated on ``ProcessCheckpoint``: sharing between top-level keys
survives, sharing nested across keys restores as independent copies.
"""

from __future__ import annotations

import copy
import pickle

from hypothesis import given, settings, strategies as st

from repro.dsim.process import Process
from repro.timemachine.checkpoint import CheckpointStore
from repro.timemachine.cow import CowPageStore
from repro.timemachine.time_machine import TimeMachine, TimeMachineConfig

from tests.conftest import make_cluster

# Scalar element pools: small enough to collide across steps (exercising
# chunk reuse), typed to cover the trusted-scalar comparisons.
element_values = st.one_of(
    st.integers(-50, 50),
    st.text(alphabet="abcdef", max_size=6),
    st.sampled_from([0.0, -0.0, 1.5, None, True, False]),
)

dict_keys = st.text(alphabet="klmnop", min_size=1, max_size=5)

# One mutation step against a state of the fixed shape below.
mutations = st.one_of(
    st.tuples(st.just("list_set"), st.integers(0, 10_000), element_values),
    st.tuples(st.just("list_append"), st.just(0), element_values),
    st.tuples(st.just("list_pop"), st.just(0), st.none()),
    st.tuples(st.just("dict_set"), dict_keys, element_values),
    st.tuples(st.just("dict_del"), dict_keys, st.none()),
    st.tuples(st.just("set_add"), st.just(0), element_values),
    st.tuples(st.just("set_discard"), st.just(0), element_values),
    st.tuples(st.just("scalar"), st.just(0), element_values),
)


def initial_state(n: int) -> dict:
    return {
        "items": [f"item-{i:03d}" for i in range(n)],
        "table": {f"k{i:03d}": i for i in range(n)},
        "members": {f"m{i:03d}" for i in range(n)},
        "epoch": 0,
    }


def apply_mutation(state: dict, mutation) -> None:
    op, arg, value = mutation
    if op == "list_set" and state["items"]:
        state["items"][arg % len(state["items"])] = value
    elif op == "list_append":
        state["items"].append(value)
    elif op == "list_pop" and state["items"]:
        state["items"].pop()
    elif op == "dict_set":
        state["table"][arg] = value
    elif op == "dict_del":
        state["table"].pop(arg, None)
    elif op == "set_add":
        state["members"].add(value)
    elif op == "set_discard" and state["members"]:
        state["members"].discard(next(iter(state["members"])))
    elif op == "scalar":
        state["epoch"] = value


def canonical(value):
    """Replace sets by sorted tuples so the pickle byte-compare ignores set
    iteration order (insertion-history-dependent, not part of state identity)
    while still catching 0.0/-0.0 and bool/int drift everywhere else.

    Strings are rebuilt as fresh objects: pickle memoizes repeated *objects*,
    and whether two equal strings are one interned object or two is an
    accident of how the program constructed them (the chunked store splits
    aliased elements across separately-pickled chunks), not state identity.
    """
    if isinstance(value, dict):
        return {canonical(k): canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(((repr(v), canonical(v)) for v in value)))
    if isinstance(value, str):
        return str(value.encode("utf-8"), "utf-8")
    return value


def run_program(store: CowPageStore, size: int, program) -> list:
    """Apply the program, capturing after every step; return restored states."""
    state = initial_state(size)
    checkpoints = [store.capture("p", state, 0.0)]
    for step, mutation in enumerate(program, start=1):
        apply_mutation(state, mutation)
        checkpoints.append(store.capture("p", state, float(step)))
    return [store.restore(checkpoint) for checkpoint in checkpoints]


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(0, 40),
    program=st.lists(mutations, max_size=12),
)
def test_chunked_restores_match_whole_value_oracle(size, program):
    chunked = CowPageStore(page_size=128, chunk_threshold=8, chunk_elems=4)
    oracle = CowPageStore(page_size=128, chunk_threshold=None)
    got = run_program(chunked, size, program)
    expected = run_program(oracle, size, program)
    assert len(got) == len(expected)
    for restored, reference in zip(got, expected):
        assert restored == reference
        # dict insertion order is part of state identity under replay
        assert list(restored["table"]) == list(reference["table"])
        # byte-identical, not merely equal (catches 0.0/-0.0, bool/int drift)
        assert pickle.dumps(
            canonical(restored), protocol=pickle.HIGHEST_PROTOCOL
        ) == pickle.dumps(canonical(reference), protocol=pickle.HIGHEST_PROTOCOL)


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(0, 40),
    program=st.lists(mutations, max_size=10),
)
def test_capture_does_not_alias_live_state(size, program):
    """Restored snapshots are frozen: later mutations never leak into them."""
    store = CowPageStore(page_size=128, chunk_threshold=8, chunk_elems=4)
    state = initial_state(size)
    store.capture("p", state, 0.0)
    frozen = copy.deepcopy(state)
    checkpoint_before = store.capture("p", state, 1.0)
    for mutation in program:
        apply_mutation(state, mutation)
    store.capture("p", state, 2.0)
    assert store.restore(checkpoint_before) == frozen


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(8, 40),
    program=st.lists(mutations, min_size=1, max_size=10),
)
def test_gc_to_newest_checkpoint_keeps_it_restorable(size, program):
    store = CowPageStore(page_size=128, chunk_threshold=8, chunk_elems=4)
    state = initial_state(size)
    store.capture("p", state, 0.0)
    last = None
    for step, mutation in enumerate(program, start=1):
        apply_mutation(state, mutation)
        last = store.capture("p", state, float(step))
    store.drop_before("p", last.sequence)
    restored = store.restore(last)
    assert restored == state
    assert list(restored["table"]) == list(state["table"])


# ----------------------------------------------------------------------
# page-backed process checkpoints against the deep-copy oracle
# ----------------------------------------------------------------------
class Holder(Process):
    """A process whose state the test writes directly."""


def bound_holder(state: dict):
    cluster = make_cluster({"p": Holder}, seed=1)
    cluster.start()
    process = cluster.process("p")
    process.state = state
    return cluster, process


def small_pages() -> CowPageStore:
    return CowPageStore(page_size=128, chunk_threshold=8, chunk_elems=4)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(0, 40),
    program=st.lists(mutations, max_size=12),
)
def test_page_restore_matches_deepcopy_oracle(size, program):
    _, process = bound_holder(initial_state(size))
    store = CheckpointStore(pages=small_pages())
    pairs = [(store.capture(process, 0.0), process.capture_checkpoint(0.0))]
    for step, mutation in enumerate(program, start=1):
        apply_mutation(process.state, mutation)
        pairs.append((store.capture(process, float(step)), process.capture_checkpoint(float(step))))
    for paged, oracle in pairs:
        assert paged.pages is not None and oracle.pages is None
        process.restore_checkpoint(oracle)
        expected = process.state
        process.restore_checkpoint(paged)
        restored = process.state
        assert restored == expected
        assert list(restored) == list(expected)
        assert list(restored["table"].items()) == list(expected["table"].items())
        assert restored["items"] == expected["items"]
        assert pickle.dumps(
            canonical(restored), protocol=pickle.HIGHEST_PROTOCOL
        ) == pickle.dumps(canonical(expected), protocol=pickle.HIGHEST_PROTOCOL)
        # restore and reads hand out fresh objects: the checkpoint stays frozen
        restored["items"].append("mutated after restore")
        process.restore_checkpoint(paged)
        assert process.state == expected
        assert paged.state is not paged.state
        assert paged.state == oracle.state


def test_top_level_sharing_survives_page_restore():
    shared = ["x", "y"]
    _, process = bound_holder({"a": shared, "b": shared, "n": 1})
    store = CheckpointStore(pages=small_pages())
    paged = store.capture(process, 0.0)
    oracle = process.capture_checkpoint(0.0)
    for checkpoint in (paged, oracle):
        process.restore_checkpoint(checkpoint)
        assert process.state["a"] is process.state["b"]
        assert process.state["a"] is not shared


def test_nested_sharing_across_keys_restores_as_independent_copies():
    inner = [1, 2]
    _, process = bound_holder({"a": [inner], "b": {"k": inner}})
    store = CheckpointStore(pages=small_pages())
    paged = store.capture(process, 0.0)
    oracle = process.capture_checkpoint(0.0)
    process.restore_checkpoint(oracle)
    assert process.state["a"][0] is process.state["b"]["k"]  # deepcopy keeps it
    process.restore_checkpoint(paged)
    assert process.state["a"][0] == process.state["b"]["k"]
    assert process.state["a"][0] is not process.state["b"]["k"]  # pages do not
    process.state["a"][0].append(3)
    assert process.state["b"]["k"] == [1, 2]


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(0, 40),
    program=st.lists(mutations, max_size=10),
    abort=st.booleans(),
)
def test_speculation_checkpoint_restores_after_it_resolves(size, program, abort):
    """The checkpoint store owns page lifetime, so resolving a speculation
    leaves its entry checkpoint restorable."""
    cluster, process = bound_holder(initial_state(size))
    time_machine = TimeMachine(TimeMachineConfig(chunk_threshold=8, chunk_elems=4))
    time_machine.attach(cluster)
    frozen = copy.deepcopy(process.state)
    speculation = time_machine.speculations.begin("p", "assumption")
    for mutation in program:
        apply_mutation(process.state, mutation)
    time_machine.checkpoint_process("p")
    resolve = time_machine.speculations.abort if abort else time_machine.speculations.commit
    resolve(speculation.spec_id)
    entry = speculation.checkpoints["p"]
    assert entry.state == frozen
    cluster.restore_checkpoints({"p": entry})
    assert process.state == frozen
    assert list(process.state["table"]) == list(frozen["table"])
