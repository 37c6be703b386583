"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim import NEVER, Scheduler


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, fired.append, "c")
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(2.0, fired.append, "b")
    sched.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sched = Scheduler()
    fired = []
    for name in "abcde":
        sched.schedule(1.0, fired.append, name)
    sched.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sched = Scheduler()
    seen = []
    sched.schedule(2.5, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [2.5]
    assert sched.now == 2.5


def test_cancelled_events_do_not_fire():
    sched = Scheduler()
    fired = []
    event = sched.schedule(1.0, fired.append, "x")
    sched.schedule(2.0, fired.append, "y")
    event.cancel()
    sched.run()
    assert fired == ["y"]


def test_run_until_stops_at_deadline_and_advances_clock():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "early")
    sched.schedule(5.0, fired.append, "late")
    sched.run_until(3.0)
    assert fired == ["early"]
    assert sched.now == 3.0
    sched.run_until(10.0)
    assert fired == ["early", "late"]


def test_run_until_includes_events_exactly_at_deadline():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, fired.append, "edge")
    sched.run_until(3.0)
    assert fired == ["edge"]


def test_nested_scheduling_during_execution():
    sched = Scheduler()
    fired = []

    def outer():
        fired.append("outer")
        sched.schedule(1.0, fired.append, "inner")

    sched.schedule(1.0, outer)
    sched.run()
    assert fired == ["outer", "inner"]
    assert sched.now == 2.0


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.schedule_at(1.0, lambda: None)


def test_run_until_backwards_rejected():
    sched = Scheduler()
    sched.run_until(5.0)
    with pytest.raises(SimulationError):
        sched.run_until(1.0)


def test_peek_time_empty_queue():
    sched = Scheduler()
    assert sched.peek_time() == NEVER


def test_peek_time_skips_cancelled():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    assert sched.peek_time() == 2.0


def test_pending_counts_live_events():
    sched = Scheduler()
    e1 = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    assert sched.pending() == 2
    e1.cancel()
    assert sched.pending() == 1


def test_run_max_events():
    sched = Scheduler()
    fired = []
    for i in range(10):
        sched.schedule(float(i + 1), fired.append, i)
    sched.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_processed_counter():
    sched = Scheduler()
    for i in range(5):
        sched.schedule(float(i), lambda: None)
    sched.run()
    assert sched.events_processed == 5


def test_pending_counter_tracks_schedule_fire_cancel():
    sched = Scheduler()
    events = [sched.schedule(float(i + 1), lambda: None) for i in range(4)]
    assert sched.pending() == 4
    events[0].cancel()
    assert sched.pending() == 3
    sched.step()  # fires the event at t=2 (t=1 was cancelled)
    assert sched.pending() == 2
    sched.run()
    assert sched.pending() == 0


def test_cancel_after_fire_does_not_corrupt_pending():
    sched = Scheduler()
    fired = sched.schedule(1.0, lambda: None)
    keeper = sched.schedule(2.0, lambda: None)
    sched.step()
    assert sched.pending() == 1
    fired.cancel()  # no-op: already fired
    fired.cancel()
    assert sched.pending() == 1
    keeper.cancel()
    assert sched.pending() == 0


def test_double_cancel_decrements_once():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sched.pending() == 1


def test_mass_cancellation_compacts_heap_and_keeps_order():
    sched = Scheduler()
    fired = []
    keepers = []
    for i in range(500):
        event = sched.schedule(float(i), fired.append, i)
        if i % 10 == 0:
            keepers.append(i)
        else:
            event.cancel()
    # Lazy compaction kicked in: tombstones no longer dominate the heap.
    assert sched.pending() == len(keepers)
    assert len(sched._queue) < 500
    sched.run()
    assert fired == keepers
    assert sched.pending() == 0


def test_compaction_during_a_run_keeps_later_events():
    """Tombstones compacted mid-run: events scheduled afterwards still
    fire, in order, and the live count stays exact."""
    sched = Scheduler()
    fired = []
    doomed = [sched.schedule(2.0 + i / 1000, fired.append, i) for i in range(200)]

    def cancel_most():
        for event in doomed[:150]:
            event.cancel()
        sched.schedule(0.5, fired.append, "late")

    sched.schedule(1.0, cancel_most)
    sched.run()
    assert fired == ["late"] + list(range(150, 200))
    assert sched.pending() == 0


# ---------------------------------------------------------------------------
# run_soon: a 0.0 hand-off run inline when it would be dispatched next
# ---------------------------------------------------------------------------
def _tail_call(sched, log, before=None):
    """An event whose last act is run_soon(log.append, "soon")."""

    def event():
        if before is not None:
            before()
        log.append("event")
        sched.run_soon(log.append, "soon")
        log.append("returned")

    return event


def test_run_soon_runs_inline_when_nothing_else_is_due():
    sched = Scheduler()
    log = []
    sched.schedule(1.0, _tail_call(sched, log))
    sched.schedule(2.0, log.append, "later")
    sched.run()
    assert log == ["event", "soon", "returned", "later"]
    assert sched.events_processed == 2


def test_run_soon_queues_behind_the_run_queue():
    sched = Scheduler()
    log = []

    def queued():
        sched.schedule(0.0, log.append, "queued")

    sched.schedule(1.0, _tail_call(sched, log, before=queued))
    sched.run()
    assert log == ["event", "returned", "queued", "soon"]
    assert sched.events_processed == 3


def test_run_soon_queues_behind_a_heap_entry_at_now():
    sched = Scheduler()
    log = []
    sched.schedule(1.0, _tail_call(sched, log))
    sched.schedule(1.0, log.append, "tie")
    sched.run()
    assert log == ["event", "returned", "tie", "soon"]


def test_run_soon_nested_inline_call_queues():
    sched = Scheduler()
    log = []

    def hop(n):
        log.append(n)
        if n < 4:
            sched.run_soon(hop, n + 1)

    sched.schedule(1.0, hop, 0)
    sched.run()
    assert log == [0, 1, 2, 3, 4]
    # Every other hop ran inline: 0 (event) -> 1 inline -> 2 queued ...
    assert sched.events_processed == 3


def test_reserved_slot_sorts_where_it_was_claimed():
    """A callback queued under a reserved key fires where a timer set at
    the claim would have, ahead of later same-instant events."""
    sched = Scheduler()
    log = []
    slot = sched.reserve(2.0)
    sched.schedule(2.0, log.append, "scheduled-after-claim")
    sched.schedule(1.0, lambda: sched.schedule_reserved(slot, log.append, "reserved"))
    sched.run()
    assert slot == (2.0, 1)
    assert log == ["reserved", "scheduled-after-claim"]


def test_reserved_slot_at_now_precedes_the_run_queue():
    sched = Scheduler()
    log = []
    slot = sched.reserve(1.0)

    def at_one():
        sched.schedule(0.0, log.append, "queued")
        sched.schedule_reserved(slot, log.append, "reserved")

    sched.schedule(1.0, at_one)
    sched.run()
    assert log == ["reserved", "queued"]


def test_reserve_rejects_the_past():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.reserve(-1.0)
    slot = sched.reserve(0.5)
    sched.run_until(1.0)
    with pytest.raises(SimulationError):
        sched.schedule_reserved(slot, lambda: None)
