"""The overload drill's CLI contracts on 80 /24s x 4 days, seed 7.

One seeded drill (vectorized engine, front-end capacity at 1.25x the
expected peak, a flash crowd on day 1 and a drain on day 2) runs
through ``repro run`` three ways — fastroute on 4 workers, fastroute
serial, and withdraw on 4 workers — and ``repro analyze`` renders its
load figures:

* the sharded fastroute drill equals the serial one: dataset digest and
  load summary, across processes (the load summary is digest-covered,
  so a hash-order float sum in it would break this);
* fastroute sheds load and never withdraws a front end;
* the run manifest declares the load policy and its headroom;
* the same drill under withdraw hard-withdraws its target (the §2
  cascade).

Every file lands in one ``overload`` directory under pytest's base
temporary directory, so a run with ``--basetemp`` leaves the manifests
and telemetry where an artifact upload can find them.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.measurement.export import load_dataset

pytestmark = pytest.mark.overload

#: The seeded drill every leg runs.
DRILL = [
    "--prefixes", "80", "--days", "4", "--seed", "7",
    "--engine", "vectorized", "--frontend-capacity", "1.25",
    "--overload-plan", "flash-crowd:1@1,drain:1@2",
]


@pytest.fixture(scope="module")
def drill(tmp_path_factory):
    """The overload directory after the three runs and the figures; maps
    each leg to its export, plus the figures' exit code and output."""
    out_dir = tmp_path_factory.mktemp("overload", numbered=False)
    legs = {
        "fastroute": ["--workers", "4", "--load-policy", "fastroute",
                      "--telemetry-out",
                      str(out_dir / "overload-fastroute.telemetry.json")],
        "fastroute-serial": ["--workers", "1", "--load-policy", "fastroute"],
        "withdraw": ["--workers", "4", "--load-policy", "withdraw"],
    }
    paths = {}
    for name, flags in legs.items():
        paths[name] = out_dir / f"overload-{name}.json"
        assert main(["run", *DRILL, *flags, str(paths[name])]) == 0, name
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main([
            "analyze", str(paths["fastroute"]), "--figures", "load", "shed",
        ])
    return paths, code, printed.getvalue()


def test_sharded_drill_equals_serial(drill):
    paths, _, _ = drill
    sharded = load_dataset(str(paths["fastroute"]))
    serial = load_dataset(str(paths["fastroute-serial"]))
    assert sharded.digest() == serial.digest(), (
        "4-worker overload drill diverged from serial"
    )
    assert sharded.load_summary == serial.load_summary


def test_fastroute_sheds_and_never_withdraws(drill):
    paths, _, _ = drill
    days = load_dataset(str(paths["fastroute"])).load_summary["days"]
    # Bounded shed fractions, zero withdrawals.
    assert any(row["shedding_frontends"] > 0 for row in days), days
    assert all(not row["withdrawn"] for row in days)


def test_manifest_declares_the_load_policy(drill):
    paths, _, _ = drill
    manifest_path = paths["fastroute"].with_name(
        "overload-fastroute.manifest.json"
    )
    with open(manifest_path, encoding="utf-8") as handle:
        load_block = json.load(handle)["load"]
    assert load_block["policy"] == "fastroute"
    assert load_block["headroom"] == 1.25


def test_withdraw_cascade_detected(drill):
    paths, _, _ = drill
    summary = load_dataset(str(paths["withdraw"])).load_summary
    # The same seeded flash crowd must hard-withdraw its target under
    # the baseline policy.
    withdrawn_days = [row["day"] for row in summary["days"] if row["withdrawn"]]
    assert withdrawn_days, summary["days"]
    assert any(
        stats["withdrawn_day"] is not None
        for stats in summary["frontends"].values()
    )


def test_load_and_shed_figures_render(drill):
    _, code, printed = drill
    assert code == 0
    assert printed.strip()
