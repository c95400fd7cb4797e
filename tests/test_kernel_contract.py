"""The kernel's contract, checked against a reference model (hypothesis).

A random program mixes every way of scheduling — ``schedule`` and
``schedule_at`` (with ``cancel`` of a held handle), ``schedule_fire``,
``every`` and ``schedule_batch`` (with ``stop``), and callbacks that
schedule at ``now`` — with ``run(until)`` calls at increasing horizons.
After every run, the firing order, ``now``, ``fired_events``,
``pending_events`` and ``max_heap_size`` must equal those of the
reference below: a plain list of ``(time, seq, action)`` entries in
which a cancelled handle is dropped as soon as it is the earliest entry,
and a stopped recurrence's step is dropped, uncounted, when its time is
reached.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.kernel import Simulator


class Reference:
    """The kernel's observable contract in a few lines, without a heap."""

    def __init__(self) -> None:
        self.entries = []  # [time, seq, kind, payload]
        self.seq = 0
        self.now = 0.0
        self.fired = []
        self.fired_events = 0
        self.max_heap = 0

    def push(self, time, kind, payload):
        self.entries.append((time, self.seq, kind, payload))
        self.seq += 1
        self.max_heap = max(self.max_heap, len(self.entries))

    def act(self, label, spawn):
        self.fired.append(label)
        if spawn:
            self.push(self.now, "fire", (label + "*", False))

    def run(self, until=None):
        while self.entries:
            entry = min(self.entries)
            time, _, kind, payload = entry
            if kind == "handle" and payload[0]["cancelled"]:
                self.entries.remove(entry)
                continue
            if until is not None and time > until:
                break
            self.entries.remove(entry)
            if kind == "handle":
                self.now = time
                self.fired_events += 1
                self.act(*payload[1:])
            elif kind == "fire":
                self.now = time
                self.fired_events += 1
                self.act(*payload)
            else:  # a recurrence step: ("every", proc) or ("batch", batch)
                self.now = time
                if payload["stopped"]:
                    continue
                self.fired_events += 1
                self.act(payload["label"], False)
                if kind == "every":
                    if not payload["stopped"]:
                        self.push(self.now + payload["interval"], kind, payload)
                else:
                    payload["index"] += 1
                    if payload["index"] < len(payload["times"]):
                        self.push(payload["times"][payload["index"]], kind, payload)
        if until is not None and self.now < until:
            self.now = until


DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # ties exercise the seq order
    st.floats(min_value=0.0, max_value=4.0),
)
OPS = st.one_of(
    st.tuples(st.sampled_from(["schedule", "schedule_at", "fire"]), DELAYS, st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("every"), st.sampled_from([0.5, 1.0, 1.5]),
              st.one_of(st.none(), DELAYS)),
    st.tuples(st.just("batch"), st.lists(DELAYS, max_size=4)),
    st.tuples(st.sampled_from(["stop_every", "stop_batch"]), st.integers(0, 40)),
    st.tuples(st.just("run"), DELAYS),
)


def check(sim, fired, ref):
    assert fired == ref.fired
    assert sim.now == ref.now
    assert sim.fired_events == ref.fired_events
    assert sim.pending_events == len(ref.entries)
    assert sim.max_heap_size == ref.max_heap


@given(program=st.lists(OPS, max_size=40))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_the_reference(program):
    sim = Simulator()
    ref = Reference()
    fired = []
    handles, procs, batches = [], [], []

    def act(label, spawn):
        fired.append(label)
        if spawn:
            sim.schedule_fire(0.0, act, label + "*", False)

    for n, op in enumerate(program):
        label = f"#{n}"
        kind = op[0]
        if kind in ("schedule", "schedule_at", "fire"):
            delay, spawn = op[1], op[2]
            if kind == "fire":
                sim.schedule_fire(delay, act, label, spawn)
                ref.push(ref.now + delay, "fire", (label, spawn))
                continue
            if kind == "schedule":
                event = sim.schedule(delay, act, label, spawn)
            else:
                event = sim.schedule_at(sim.now + delay, act, label, spawn)
            state = {"cancelled": False}
            handles.append((event, state))
            ref.push(ref.now + delay, "handle", (state, label, spawn))
        elif kind == "cancel" and handles:
            event, state = handles[op[1] % len(handles)]
            event.cancel()
            state["cancelled"] = True
        elif kind == "every":
            interval, start_delay = op[1], op[2]
            proc = sim.every(interval, fired.append, label, start_delay=start_delay)
            state = {"label": label, "interval": interval, "stopped": False}
            procs.append((proc, state))
            first = interval if start_delay is None else start_delay
            ref.push(ref.now + first, "every", state)
        elif kind == "batch":
            times = sorted(sim.now + offset for offset in op[1])
            batch = sim.schedule_batch(times, fired.append, label)
            state = {"label": label, "times": times, "index": 0, "stopped": not times}
            batches.append((batch, state))
            if times:
                ref.push(times[0], "batch", state)
        elif kind in ("stop_every", "stop_batch"):
            held = procs if kind == "stop_every" else batches
            if held:
                handle, state = held[op[1] % len(held)]
                handle.stop()
                state["stopped"] = True
        elif kind == "run":
            until = sim.now + op[1]
            sim.run(until=until)
            ref.run(until=until)
            check(sim, fired, ref)
    # Stop every recurrence, then drain: the clock rests at the last
    # popped plain entry, a withdrawn recurrence step included.
    for handle, state in procs + batches:
        handle.stop()
        state["stopped"] = True
    sim.run()
    ref.run()
    check(sim, fired, ref)
