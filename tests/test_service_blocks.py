"""Block ingest: the service's column blocks against the per-event definition.

The live service carries beacons as per-day column blocks
(:class:`~repro.service.events.EventStream`) and admits, windows and
hashes a block at a time.  These tests pin what that must not change:

* the service's three digests and quarantine totals on the chaos
  suite's dirty replay, recorded from the per-event loop;
* :meth:`StreamDigest.update_block` equals per-event
  :meth:`StreamDigest.update`, for every float shape ``repr`` renders;
* an :class:`EventStream` is the event sequence it was built from;
* kill points, resume cursors and mid-day spills stay event ordinals,
  even when they fall strictly inside a day block.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service.ingest as ingest
from repro.clients.population import ClientPopulationConfig
from repro.errors import MeasurementError, ValidationError
from repro.faults.inject import InjectedCrashError
from repro.faults.plan import FaultPlan
from repro.service import (
    BeaconBlock,
    BeaconEvent,
    EventStream,
    LiveService,
    PassiveEvent,
    ServiceConfig,
    StreamDigest,
    dirty_events,
    events_from_dataset,
)
from repro.service.faults import ServiceFaultInjector
from repro.service.window import PredictionWindow
from repro.simulation.campaign import CampaignRunner
from repro.simulation.clock import SimulationCalendar
from repro.simulation.scenario import Scenario, ScenarioConfig

pytestmark = [pytest.mark.service, pytest.mark.chaos]

#: The chaos suite's dirty replay (``tests/test_service_chaos.py``).
SEED = 47
NUM_DAYS = 3
RECORD_PLAN = "record-corrupt:4,record-clock-skew:3"

#: The digests and gate totals the per-event loop produced on that
#: replay, per validation policy.
GOLDEN = {
    "lenient": {
        "predictions": "b3a488c5a7e53777cc9d808451d104037d62157064ab9212d24c16acdf25ff68",
        "stream": "5127f0a6648f248385095d56ce64eab110c82d97dd5e288a36e4e2d4c791ddac",
        "quarantine": "50e497363d83ad9c0b459e2e2229b040cb841bf8f0f1ab9797ab208576447fce",
        "admitted": 23_525,
        "dropped": 7,
        "repaired": 0,
    },
    "repair": {
        "predictions": "b3a488c5a7e53777cc9d808451d104037d62157064ab9212d24c16acdf25ff68",
        "stream": "2acc0b4ca4fecb927a11f1f57cf0999aaee1eedc6c9d06c99c02cd9f989877bb",
        "quarantine": "2dabb39b88f6f691a73b2aa3e6c3ea3ae3b0e2da76d31a0079a06feec568a08c",
        "admitted": 23_528,
        "dropped": 4,
        "repaired": 3,
    },
}
STRICT_ERROR = (
    "invalid record (day 0, client 10.0.16.0/24, record -1): "
    "negative-rtt (value -9999966.0)"
)

#: Event ordinals at which each day of the dirty replay closes.
DAY_CLOSES = (7926, 15780, 23664)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def chaos_dataset():
    scenario = Scenario.build(
        ScenarioConfig(
            seed=SEED,
            population=ClientPopulationConfig(prefix_count=40),
            calendar=SimulationCalendar(num_days=NUM_DAYS),
        )
    )
    return CampaignRunner(scenario).run()


@pytest.fixture(scope="module")
def dirty_stream(chaos_dataset):
    return dirty_events(
        chaos_dataset,
        events_from_dataset(chaos_dataset),
        FaultPlan.from_spec(RECORD_PLAN),
        SEED,
    )


def run(stream, **overrides):
    return LiveService(
        ServiceConfig(seed=SEED, **overrides), num_days=NUM_DAYS
    ).run_stream(stream)


def block_ranges(stream):
    """``(start, stop)`` ordinals of every beacon block in a stream."""
    return [
        (start, stop)
        for start, stop, item in stream.items()
        if isinstance(item, BeaconBlock)
    ]


def strictly_inside_a_block(stream, ordinal):
    return any(start < ordinal < stop for start, stop in block_ranges(stream))


class TestGoldenDirtyReplay:
    def test_stream_shape(self, dirty_stream):
        assert len(dirty_stream) == 23_664
        # One beacon block per day, then that day's passive events.
        assert len(block_ranges(dirty_stream)) == NUM_DAYS

    @pytest.mark.parametrize("policy", sorted(GOLDEN))
    def test_digests_and_totals(self, dirty_stream, policy):
        result = run(dirty_stream, validation=policy)
        golden = GOLDEN[policy]
        assert result.predictions_digest == golden["predictions"]
        assert result.stream_digest == golden["stream"]
        assert result.quarantine_digest == golden["quarantine"]
        assert result.beacons_admitted == golden["admitted"]
        summary = result.quarantine_summary
        assert summary["dropped"] == golden["dropped"]
        assert summary["repaired"] == golden["repaired"]
        assert summary["reasons"] == {"negative-rtt": 3, "non-finite-rtt": 4}
        assert result.events_total == len(dirty_stream)

    def test_plain_event_list_takes_the_same_path(self, dirty_stream):
        """A list of event objects is grouped into the same blocks."""
        result = run(list(dirty_stream))
        assert result.stream_digest == GOLDEN["lenient"]["stream"]
        assert result.quarantine_digest == GOLDEN["lenient"]["quarantine"]

    def test_strict_names_the_first_bad_record(self, dirty_stream):
        with pytest.raises(ValidationError) as error:
            run(dirty_stream, validation="strict")
        assert str(error.value) == STRICT_ERROR


class TestSpillCursors:
    """Mid-day spills land at the per-event loop's cursors."""

    @staticmethod
    def spilled_cursors(monkeypatch, tmp_path, stream, every):
        cursors = []
        write = ingest.write_service_checkpoint

        def spy(directory, identity, state):
            cursors.append(state["cursor"])
            return write(directory, identity, state)

        monkeypatch.setattr(ingest, "write_service_checkpoint", spy)
        run(stream, checkpoint_dir=str(tmp_path), checkpoint_every_events=every)
        return cursors

    def test_every_500(self, monkeypatch, tmp_path, dirty_stream):
        expected = [0]
        opened = 0
        for close in DAY_CLOSES:
            expected += list(range(opened + 500, close, 500)) + [close]
            opened = close
        expected.append(DAY_CLOSES[-1])  # the run's final spill
        cursors = self.spilled_cursors(monkeypatch, tmp_path, dirty_stream, 500)
        assert cursors == expected
        assert len(cursors) == 50
        assert cursors[:3] == [0, 500, 1000]
        assert cursors[-4:] == [22780, 23280, 23664, 23664]
        assert strictly_inside_a_block(dirty_stream, 500)

    def test_every_7919(self, monkeypatch, tmp_path, dirty_stream):
        cursors = self.spilled_cursors(monkeypatch, tmp_path, dirty_stream, 7919)
        # 7919 falls among day 0's passive events, past its beacon block.
        assert cursors == [0, 7919, 7926, 15780, 23664, 23664]


class TestOrdinalsInsideBlocks:
    def test_kill_resume_and_spill_inside_a_block_are_bit_identical(
        self, dirty_stream, tmp_path
    ):
        baseline = run(dirty_stream)
        config = ServiceConfig(
            seed=SEED,
            fault_plan=FaultPlan.from_spec("crash:1"),
            checkpoint_dir=str(tmp_path),
            checkpoint_every_events=500,
        )
        with pytest.raises(InjectedCrashError) as crash:
            LiveService(config, num_days=NUM_DAYS).run_stream(dirty_stream)
        killed_at = int(str(crash.value).split(" at event ")[1].split()[0])
        assert strictly_inside_a_block(dirty_stream, killed_at)
        resumed = LiveService(
            dataclasses.replace(config, resume=True), num_days=NUM_DAYS
        ).run_stream(dirty_stream)
        assert strictly_inside_a_block(dirty_stream, resumed.resumed_from_cursor)
        assert resumed.resumed_from_cursor <= killed_at
        for attribute in (
            "predictions_digest",
            "stream_digest",
            "quarantine_digest",
            "predictions",
            "beacons_admitted",
            "days_closed",
            "events_total",
        ):
            assert getattr(resumed, attribute) == getattr(baseline, attribute)

    def test_kill_point_inside_a_skipped_prefix_fires_at_its_ordinal(
        self, tmp_path
    ):
        """Attempt 1's kill ordinal lies before the cursor attempt 0
        spilled: it fires there, during the skipped prefix."""
        events = [
            BeaconEvent(day, "10.0.1.0/24", "ldns-a", target, 10.0 + i)
            for day in range(3)
            for target in ("anycast", "fe-a")
            for i in range(25)
        ]
        stream = EventStream.of(events)
        config = ServiceConfig(
            seed=0,
            fault_plan=FaultPlan.from_spec("crash:2"),
            checkpoint_dir=str(tmp_path),
            checkpoint_every_events=7,
        )
        first, second = (
            ServiceFaultInjector(None, 0, attempt, len(stream)).fire_at
            for attempt in (0, 1)
        )
        # Seed 0 kills attempt 0 at 134 (its last spill is 128) and
        # attempt 1 at 41, inside the prefix the resume skips.
        assert (first, second) == (134, 41)
        messages = []
        for _ in range(2):
            with pytest.raises(InjectedCrashError) as crash:
                LiveService(
                    dataclasses.replace(config, resume=bool(messages)),
                    num_days=3,
                ).run_stream(stream)
            messages.append(str(crash.value))
        assert f"at event {first} " in messages[0]
        assert f"at event {second} " in messages[1]
        final = LiveService(
            dataclasses.replace(config, resume=True), num_days=3
        ).run_stream(stream)
        clean = LiveService(ServiceConfig(seed=0), num_days=3).run_stream(stream)
        assert final.stream_digest == clean.stream_digest
        assert final.predictions == clean.predictions


# ----------------------------------------------------------------------
# The block path against the per-event definition
# ----------------------------------------------------------------------

#: Float shapes whose ``repr`` a numpy round trip could disturb.
SPECIAL_RTTS = (
    0.0,
    -0.0,
    3.0,
    1e16,
    5e-324,
    2.2250738585072014e-308 / 3,
    0.30000000000000004,
    123456.78901234567,
    1e300,
    -1e300,
    float("inf"),
    float("-inf"),
    float("nan"),
)

CLIENTS = (("10.0.1.0/24", "ldns-a"), ("10.0.2.0/24", "ldns-b"))
TARGETS = ("anycast", "fe-a")

rtts = st.one_of(st.sampled_from(SPECIAL_RTTS), st.floats())


def beacons(day=st.integers(0, 2)):
    return st.builds(
        lambda day, client, target, rtt: BeaconEvent(
            day, CLIENTS[client][0], CLIENTS[client][1], TARGETS[target], rtt
        ),
        day,
        st.integers(0, len(CLIENTS) - 1),
        st.integers(0, len(TARGETS) - 1),
        rtts,
    )


passives = st.builds(
    PassiveEvent,
    st.integers(0, 2),
    st.sampled_from([key for key, _ in CLIENTS]),
    st.sampled_from(TARGETS[1:]),
    st.integers(-3, 50),
)


class TestBlockDefinition:
    @SETTINGS
    @given(events=st.lists(beacons(day=st.just(1)), max_size=60))
    def test_update_block_equals_per_event_update(self, events):
        per_event = StreamDigest()
        for event in events:
            per_event.update(event)
        block = StreamDigest()
        block.update_block(BeaconBlock.from_events(events))
        assert block.to_obj() == per_event.to_obj()
        assert block.hexdigest() == per_event.hexdigest()

    def test_update_block_covers_every_special_value(self):
        events = [
            BeaconEvent(0, "10.0.1.0/24", "ldns-a", "anycast", rtt)
            for rtt in SPECIAL_RTTS
        ]
        per_event = StreamDigest()
        for event in events:
            per_event.update(event)
        block = StreamDigest()
        block.update_block(BeaconBlock.from_events(events))
        assert block.hexdigest() == per_event.hexdigest()

    @SETTINGS
    @given(events=st.lists(st.one_of(beacons(), passives), max_size=60))
    def test_event_stream_round_trips(self, events):
        stream = EventStream.of(events)
        assert len(stream) == len(events)
        encoded = [event.encode() for event in events]
        assert [event.encode() for event in stream] == encoded
        assert [stream[i].encode() for i in range(len(events))] == encoded
        assert [event.encode() for event in stream[1::2]] == encoded[1::2]
        if events:
            assert stream[-1].encode() == encoded[-1]
        with pytest.raises(IndexError):
            stream[len(events)]
        assert EventStream.of(stream) is stream

    @SETTINGS
    @given(
        events=st.lists(beacons(day=st.just(0)), min_size=1, max_size=40),
        data=st.data(),
    )
    def test_slices_tile_the_block(self, events, data):
        block = BeaconBlock.from_events(events)
        cut = data.draw(st.integers(0, len(events)))
        left, right = block.slice(0, cut), block.slice(cut, len(events))
        pieces = list(left.events()) + list(right.events())
        assert [e.encode() for e in pieces] == [e.encode() for e in events]
        for piece in (left, right):
            assert all(start < stop for *_, start, stop in piece.runs())

    def test_a_block_holds_one_day(self):
        events = [
            BeaconEvent(day, "10.0.1.0/24", "ldns-a", "anycast", 1.0)
            for day in (0, 1)
        ]
        with pytest.raises(MeasurementError, match="one day"):
            BeaconBlock.from_events(events)


class TestWindowBlocks:
    def test_a_block_with_two_resolvers_for_one_24_changes_nothing(self):
        window = PredictionWindow(window_days=2)
        window.observe(BeaconEvent(0, "10.0.1.0/24", "ldns-a", "fe-a", 10.0))
        before = window.state_digest()
        block = BeaconBlock.from_events([
            BeaconEvent(0, "10.0.2.0/24", "ldns-b", "fe-a", 11.0),
            BeaconEvent(0, "10.0.2.0/24", "ldns-c", "fe-b", 12.0),
        ])
        with pytest.raises(MeasurementError, match="'ldns-c' after 'ldns-b'"):
            window.observe_block(block)
        assert window.state_digest() == before

    def test_a_late_block_counts_every_beacon(self):
        window = PredictionWindow(window_days=1)
        window.advance_to(2)
        block = BeaconBlock.from_events([
            BeaconEvent(0, "10.0.1.0/24", "ldns-a", target, 10.0)
            for target in ("anycast", "fe-a", "fe-a")
        ])
        assert window.observe_block(block) is False
        assert window.late_drops == 3
        assert window.days == ()


def test_spill_cadence_without_a_checkpoint_directory_is_inert():
    """``checkpoint_every_events`` with nowhere to spill changes nothing."""
    events = [
        BeaconEvent(day, "10.0.1.0/24", "ldns-a", "anycast", 10.0 + i)
        for day in range(2)
        for i in range(30)
    ]
    plain = LiveService(ServiceConfig(), num_days=2).run_stream(events)
    cadenced = LiveService(
        ServiceConfig(checkpoint_every_events=7), num_days=2
    ).run_stream(events)
    assert cadenced.stream_digest == plain.stream_digest
    assert cadenced.beacons_admitted == 60
    assert cadenced.checkpoints_written == 0
