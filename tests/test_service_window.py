"""Property suite: window state is a pure function of the event multiset.

The sliding :class:`~repro.service.window.PredictionWindow` backs the
online predictor, and its correctness argument rests on three algebraic
properties Hypothesis probes here with random event multisets:

* **Order-freedom** — ``observe`` commutes: any arrival order (and any
  shard interleaving) of the same events reaches the same
  ``state_digest``.
* **Eviction batching** — advancing the window per event, per day, or
  once at the end leaves identical retained state; eviction drops whole
  days and never rewrites survivors.
* **Evicted events never influence predictions** — a window that held
  and then evicted old days predicts exactly like one that never saw
  them, and late stragglers for evicted days are counted but change
  nothing.

The same pure-function discipline is probed for the service's rolling
:class:`~repro.service.events.StreamDigest` (order-insensitive,
mergeable) and for the window's checkpoint round-trip.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MeasurementError
from repro.service import BeaconEvent, OnlinePredictor, StreamDigest
from repro.service.window import PredictionWindow

pytestmark = pytest.mark.service

CLIENTS = (
    ("10.0.1.0/24", "ldns-a"),
    ("10.0.2.0/24", "ldns-a"),
    ("10.0.3.0/24", "ldns-b"),
)
TARGETS = ("anycast", "fe-a", "fe-b")

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def beacon_events(min_day=0, max_day=3, max_size=60):
    """Strategy: a list of beacon events over a small day range."""

    def build(row):
        day, client_index, target_index, rtt = row
        client_key, ldns_id = CLIENTS[client_index]
        return BeaconEvent(
            day=day,
            client_key=client_key,
            ldns_id=ldns_id,
            target_id=TARGETS[target_index],
            rtt_ms=rtt,
        )

    row = st.tuples(
        st.integers(min_value=min_day, max_value=max_day),
        st.integers(min_value=0, max_value=len(CLIENTS) - 1),
        st.integers(min_value=0, max_value=len(TARGETS) - 1),
        st.floats(min_value=0.5, max_value=500.0,
                  allow_nan=False, allow_infinity=False),
    )
    return st.lists(row.map(build), max_size=max_size)


def fill(window, events):
    for event in events:
        window.observe(event)
    return window


class TestOrderFreedom:
    @SETTINGS
    @given(events=beacon_events(), data=st.data())
    def test_any_arrival_order_reaches_the_same_state(self, events, data):
        shuffled = data.draw(st.permutations(events))
        a = fill(PredictionWindow(window_days=4), events)
        b = fill(PredictionWindow(window_days=4), shuffled)
        assert a.state_digest() == b.state_digest()
        # Each beacon is held once; the LDNS plane is derived from it.
        assert a.sample_count() == b.sample_count() == len(events)

    @SETTINGS
    @given(events=beacon_events(), split=st.integers(0, 60))
    def test_shard_interleaving_is_invisible(self, events, split):
        """Round-robin interleaving of two shard streams == one stream."""
        split = min(split, len(events))
        left, right = events[:split], events[split:]
        interleaved = []
        for i in range(max(len(left), len(right))):
            if i < len(left):
                interleaved.append(left[i])
            if i < len(right):
                interleaved.append(right[i])
        a = fill(PredictionWindow(window_days=4), events)
        b = fill(PredictionWindow(window_days=4), interleaved)
        assert a.state_digest() == b.state_digest()

    @SETTINGS
    @given(events=beacon_events(), split=st.integers(0, 60))
    def test_stream_digest_is_order_free_and_mergeable(
        self, events, split
    ):
        split = min(split, len(events))
        whole = StreamDigest()
        for event in events:
            whole.update(event)
        left, right = StreamDigest(), StreamDigest()
        for event in events[:split]:
            left.update(event)
        for event in reversed(events[split:]):
            right.update(event)
        assert left.merge(right).hexdigest() == whole.hexdigest()
        assert left.count == whole.count == len(events)


class TestResolverMap:
    def test_a_second_resolver_for_a_24_on_one_day_raises(self):
        window = PredictionWindow(window_days=2)
        window.observe(BeaconEvent(0, "10.0.1.0/24", "ldns-a", "fe-a", 10.0))
        before = window.state_digest()
        with pytest.raises(MeasurementError, match="'ldns-b' after 'ldns-a'"):
            window.observe(
                BeaconEvent(0, "10.0.1.0/24", "ldns-b", "fe-a", 12.0)
            )
        assert window.state_digest() == before
        # Each day learns its own map.
        assert window.observe(
            BeaconEvent(1, "10.0.1.0/24", "ldns-b", "fe-a", 12.0)
        )

    @SETTINGS
    @given(events=beacon_events())
    def test_checkpoint_holds_each_beacon_once(self, events):
        days = fill(PredictionWindow(window_days=4), events).to_obj()["days"]
        assert all(
            set(bucket) == {"ecs", "resolvers"} for bucket in days.values()
        )
        # Each day block holds its exact samples in one float64 column.
        stored = sum(
            bucket["ecs"]["columns"][bucket["ecs"]["samples"]][1]
            for bucket in days.values()
        )
        assert stored == len(events)


class TestEvictionBatching:
    @SETTINGS
    @given(events=beacon_events())
    def test_advance_cadence_does_not_matter(self, events):
        ordered = sorted(events, key=lambda e: e.day)
        per_event = PredictionWindow(window_days=1)
        for event in ordered:
            per_event.advance_to(event.day)
            per_event.observe(event)
        at_end = PredictionWindow(window_days=1)
        for event in ordered:
            at_end.observe(event)
        if ordered:
            last = ordered[-1].day
            per_event.advance_to(last)
            at_end.advance_to(last)
        assert per_event.state_digest() == at_end.state_digest()
        assert per_event.days == at_end.days

    @SETTINGS
    @given(events=beacon_events())
    def test_advance_keeps_exactly_the_window(self, events):
        window = fill(PredictionWindow(window_days=2), events)
        horizon = 3
        evicted = window.advance_to(horizon)
        assert all(day <= horizon - 2 for day in evicted)
        assert all(
            horizon - 2 < day <= max(e.day for e in events)
            for day in window.days
        )


class TestEvictedEventsNeverInfluence:
    @SETTINGS
    @given(
        old=beacon_events(min_day=0, max_day=0, max_size=40),
        current=beacon_events(min_day=1, max_day=1, max_size=40),
    )
    def test_predictions_ignore_evicted_days(self, old, current):
        """A window that evicted day 0 predicts day 1 like one that
        never saw day 0 at all."""
        with_history = PredictionWindow(window_days=1)
        fill(with_history, old)
        with_history.advance_to(1)  # evicts day 0
        fill(with_history, current)
        fresh = fill(PredictionWindow(window_days=1), current)
        assert with_history.state_digest() == fresh.state_digest()
        a = OnlinePredictor(with_history).tick(1)
        b = OnlinePredictor(fresh).tick(1)
        assert a == b

    @SETTINGS
    @given(
        current=beacon_events(min_day=1, max_day=2, max_size=40),
        stragglers=beacon_events(min_day=0, max_day=0, max_size=10),
    )
    def test_late_stragglers_are_counted_but_change_nothing(
        self, current, stragglers
    ):
        window = PredictionWindow(window_days=2)
        fill(window, current)
        window.advance_to(2)  # day 0 now outside the window
        before = window.state_digest()
        for event in stragglers:
            assert window.observe(event) is False
        assert window.late_drops == len(stragglers)
        assert window.state_digest() == before


class TestCheckpointRoundTrip:
    @SETTINGS
    @given(events=beacon_events())
    def test_to_obj_from_obj_preserves_state(self, events):
        window = fill(PredictionWindow(window_days=2), events)
        restored = PredictionWindow.from_obj(window.to_obj())
        assert restored.state_digest() == window.state_digest()
        assert restored.days == window.days
        assert restored.sample_count() == window.sample_count()

    @SETTINGS
    @given(events=beacon_events(max_size=40))
    def test_sketched_window_round_trips(self, events):
        window = fill(
            PredictionWindow(window_days=4, exact_threshold=4), events
        )
        restored = PredictionWindow.from_obj(window.to_obj())
        assert restored.state_digest() == window.state_digest()
