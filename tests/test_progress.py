"""Live campaign progress: one listener, serial and sharded.

``CampaignConfig.progress_listener`` is the campaign's only progress
hook; these tests pin its contract:

* serial runs invoke it once per completed day, in order;
* sharded runs (single-worker inline pool and true multiprocess)
  aggregate the workers' own rows and report every day the same way —
  the distinct ``days_completed`` values are 1..N, in day order, each
  reported only once the day is complete across every shard;
* retries never double-report a day (progress never decreases);
* the rows carry rich :class:`CampaignProgress` state whose final row
  covers all days and shards.
"""

import functools

from repro.clients.population import ClientPopulationConfig
from repro.faults import FaultPlan
from repro.simulation.campaign import (
    CampaignConfig,
    CampaignProgress,
    CampaignRunner,
)
from repro.simulation.clock import SimulationCalendar
from repro.simulation.parallel import ParallelCampaignRunner
from repro.simulation.scenario import Scenario, ScenarioConfig

DAYS = 3


@functools.lru_cache(maxsize=None)
def _scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            seed=5,
            population=ClientPopulationConfig(prefix_count=40),
            calendar=SimulationCalendar(num_days=DAYS),
            engine="vectorized",
        )
    )


def _expected():
    return [(day, DAYS) for day in range(1, DAYS + 1)]


def _reports(rows):
    return [(row.days_completed, row.num_days) for row in rows]


def _days_reported(rows):
    """The distinct ``(days_completed, num_days)`` reports, in order."""
    reports = _reports(rows)
    assert reports == sorted(reports), f"progress went backwards: {reports}"
    return list(dict.fromkeys(reports))


def test_serial_progress_listener_fires_per_day():
    rows = []
    runner = CampaignRunner(
        _scenario(), CampaignConfig(progress_listener=rows.append)
    )
    runner.run()
    assert _reports(rows) == _expected()


def test_serial_progress_listener_observes_rich_rows():
    rows = []
    runner = CampaignRunner(
        _scenario(), CampaignConfig(progress_listener=rows.append)
    )
    runner.run()
    assert rows
    final = rows[-1]
    assert isinstance(final, CampaignProgress)
    assert final.days_completed == DAYS
    assert final.num_days == DAYS
    assert final.beacons > 0
    assert final.beacons_per_second > 0
    assert f"day {DAYS}/{DAYS}" in final.format()


def test_single_worker_sharded_progress():
    rows = []
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(progress_listener=rows.append),
        workers=1,
    )
    runner.run()
    assert _reports(rows) == _expected()


def test_multiprocess_sharded_progress():
    rows = []
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(progress_listener=rows.append),
        workers=2,
    )
    dataset = runner.run()
    assert _days_reported(rows) == _expected()
    assert rows
    final = rows[-1]
    assert final.days_completed == DAYS
    assert final.shards_done == final.shards_total == 2
    # The listener's final beacon total matches the merged dataset.
    assert final.beacons == dataset.beacon_count


def test_retry_never_double_reports_a_day():
    rows = []
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(
            progress_listener=rows.append,
            fault_plan=FaultPlan.from_spec("exception:1"),
            max_retries=3,
            retry_backoff_seconds=0.0,
        ),
        workers=2,
    )
    runner.run()
    # The crashed shard re-runs its days, but aggregation reports each
    # day once, in order, and never moves backwards.
    assert _days_reported(rows) == _expected()


def test_inline_pool_retry_progress():
    # One worker with a fault plan runs through the resilient
    # coordinator's in-process pool: the failed attempt's rows and its
    # retry's replay still report each day once, in order.
    rows = []
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(
            progress_listener=rows.append,
            fault_plan=FaultPlan.from_spec("exception:1"),
            max_retries=3,
            retry_backoff_seconds=0.0,
        ),
        workers=1,
    )
    runner.run()
    assert _days_reported(rows) == _expected()
    assert rows[-1].retries >= 1


def test_retries_surface_in_listener():
    rows = []
    runner = ParallelCampaignRunner(
        _scenario(),
        CampaignConfig(
            progress_listener=rows.append,
            fault_plan=FaultPlan.from_spec("exception:1"),
            max_retries=3,
            retry_backoff_seconds=0.0,
        ),
        workers=2,
    )
    runner.run()
    assert rows[-1].retries >= 1
    assert "retries" in rows[-1].format()


def test_progress_format_smoke():
    row = CampaignProgress(
        days_completed=2,
        num_days=7,
        beacons=12345,
        beacons_per_second=4567.0,
        elapsed_seconds=1.25,
        shards_done=1,
        shards_total=4,
        retries=2,
    )
    text = row.format()
    assert "day 2/7" in text
    assert "12,345" in text
    assert "shards 1/4" in text
    assert "retries 2" in text
