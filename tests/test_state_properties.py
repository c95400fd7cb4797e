"""Property-based tests (hypothesis) for keyed-state migrations.

Keyed state is one byte count per Zipf rank, and rank ``r`` lives in
partition ``digests[r] % parallelism``. The invariant the migration
protocol promises: rank→bytes content is *conserved* across any sequence
of planned migrations, whether each plan is applied (transfer completed)
or rolled back (transfer failed) — no byte is ever dropped, duplicated
or resized by repartitioning alone. Every step is checked against
``conftest.DictKeyedState``, the dict-per-partition layout with per-key
adds, a rebuild on every repartition and restore by key: key count,
total and per-partition bytes, moved bytes, lost bytes and checkpoints
must match.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DictKeyedState, assert_state_matches
from repro.engine.state import KeyedState

parallelisms = st.integers(min_value=1, max_value=12)
#: a migration step: target parallelism + whether the transfer succeeds
steps = st.lists(st.tuples(parallelisms, st.booleans()), max_size=8)


@st.composite
def layouts(draw):
    """``(digests, bytes per rank, parallelism)``; 0 bytes is no key."""
    digests = draw(st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                            min_size=1, max_size=50))
    content = draw(st.lists(st.integers(min_value=0, max_value=10_000),
                            min_size=len(digests), max_size=len(digests)))
    return digests, content, draw(parallelisms)


def make_state(layout):
    digests, content, p0 = layout
    state = KeyedState("v", p0, digests)
    reference = DictKeyedState(p0, digests.__getitem__)
    for rank, nbytes in enumerate(content):
        state.bytes[rank] += nbytes
        reference.add(rank, nbytes)
    assert_state_matches(state, reference)
    return state, reference


@settings(max_examples=200, deadline=None)
@given(layout=layouts(), migrations=steps)
def test_keys_are_conserved_across_any_migration_sequence(layout, migrations):
    state, reference = make_state(layout)
    content = list(state.bytes)
    for target, succeeds in migrations:
        plan = state.plan_migration(target)
        p_from = state.parallelism
        assert plan.moved_bytes == reference.moved_bytes(target)
        state.apply(plan)
        reference.repartition(target)
        assert state.parallelism == target
        if not succeeds:
            # the transfer dies mid-flight; rollback must be lossless
            state.rollback(plan)
            reference.repartition(p_from)
            assert state.parallelism == p_from
        assert state.bytes == content
        assert_state_matches(state, reference)


@settings(max_examples=200, deadline=None)
@given(layout=layouts(), target=parallelisms)
def test_plan_accounting_matches_actual_relocation(layout, target):
    state, reference = make_state(layout)
    digests, content, p0 = layout
    plan = state.plan_migration(target)
    relocating = [rank for rank, digest in enumerate(digests)
                  if digest % p0 != digest % target]
    assert plan.moved_bytes == sum(content[rank] for rank in relocating)
    assert plan.moved_bytes == reference.moved_bytes(target)
    # planning is pure: the state is untouched
    assert state.bytes == content
    assert state.parallelism == p0


@settings(max_examples=100, deadline=None)
@given(layout=layouts())
def test_same_parallelism_migration_moves_nothing(layout):
    state, _reference = make_state(layout)
    p0 = state.parallelism
    assert state.plan_migration(p0).moved_bytes == 0
    assert state.repartition(p0) == 0


#: one step of a stateful vertex's life: events grow a rank, a
#: checkpoint, a crash restores a partition, or a rescale moves state
events = st.tuples(st.just("grow"), st.integers(min_value=0, max_value=49),
                   st.integers(min_value=0, max_value=500))
lives = st.lists(st.one_of(
    events,
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("crash"), st.integers(min_value=0, max_value=11)),
    st.tuples(st.just("rescale"), parallelisms),
), max_size=30)


@settings(max_examples=200, deadline=None)
@given(layout=layouts(), life=lives)
def test_growth_checkpoints_crashes_and_rescales_match_the_dict_layout(layout, life):
    state, reference = make_state(layout)
    checkpoint, expected = [0] * len(state.bytes), {}
    for step in life:
        if step[0] == "grow":
            rank = step[1] % len(state.bytes)
            state.bytes[rank] += step[2]
            reference.add(rank, step[2])
        elif step[0] == "checkpoint":
            checkpoint, expected = state.snapshot(), reference.snapshot()
            assert {rank: b for rank, b in enumerate(checkpoint) if b} == expected
        elif step[0] == "crash":
            index = step[1] % state.parallelism
            lost = state.restore_partition(index, checkpoint)
            assert lost == reference.restore_partition(index, expected) >= 0
        else:
            assert state.repartition(step[1]) == reference.repartition(step[1])
        assert_state_matches(state, reference)
