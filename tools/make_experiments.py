"""Regenerate EXPERIMENTS.md from a paper-scale study run.

``python tools/make_experiments.py`` runs the paper-scale study
(``paper_config()``: 1500 /24s x 28 days, seed 2015) on the default
engine and rewrites EXPERIMENTS.md.

``python tools/make_experiments.py --check`` is the paper-claims gate:
it runs the same study on the matrix engine, prints the comparison
table, writes nothing, and exits 1 when the set of banded claims outside
their band differs from ``EXPECTED_DEVIATIONS`` — a claim that leaves
its band fails, and so does a known deviation that starts to reproduce.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import FrozenSet, List, Optional, Sequence, Tuple

sys.path.insert(0, "benchmarks")
from conftest import PAPER_DAYS, PAPER_PREFIXES, paper_config  # noqa: E402

from repro.analysis.report import (
    ComparisonRow,
    build_comparison,
    format_markdown,
)
from repro.core.study import AnycastStudy
from repro.simulation.campaign import CampaignConfig

#: Banded claims known to sit outside their band at paper scale, keyed
#: by (experiment, metric); "Known deviations" in EXPERIMENTS.md says
#: why.
EXPECTED_DEVIATIONS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("Fig 5", "mean daily fraction of /24s with any improvement"),
        ("Fig 6", "ever-poor /24s poor on exactly one day"),
        ("Fig 6", "ever-poor /24s poor >=5 consecutive days"),
    }
)

HEADER = """# EXPERIMENTS — paper vs measured

Every figure and table of *Analyzing the Performance of an Anycast CDN*
(IMC 2015), regenerated by this reproduction at paper scale
({prefixes} client /24s over the {days} days of April 2015;
{beacons:,} beacon executions, {measurements:,} joined measurements;
seed {seed}).  Regenerate with ``python tools/make_experiments.py`` or run
``pytest benchmarks/ --benchmark-only`` for the full per-figure rows
(written to ``benchmarks/out/``).

**Reading the verdicts.**  Absolute latencies come from a simulator, not
Bing's production testbed, so the comparison targets are the paper's
*shapes*: orderings, rough factors, and crossover points.  "reproduced"
means the measured value sits in the tolerance band DESIGN.md assigns to
that claim; "deviates" means it does not, and the row's note plus the
discussion below explain why.

"""

DISCUSSION = """

## Known deviations and why they happen

* **Fig 5's "any improvement" line runs high** (~2x the paper's 19%).
  With integer-millisecond browser timing, "any improvement" means a
  >=1 ms gap between two daily medians; our per-/24 daily sample counts
  are far smaller than Bing's (a simulated beacon per handful of queries
  vs millions of real queries), so median noise crosses the 1 ms line
  more often.  The >=10/25/50/100 ms lines — which carry the paper's
  conclusions — land on the paper's values.

* **Fig 6 skews more persistent** (fewer one-day poor /24s, more
  multi-day).  The reproduction's poor set has a larger structural
  (route-geometry) component relative to transient episodes than Bing's
  did.  The orderings the paper argues from — most problems short-lived,
  consecutive persistence rarer than total-day persistence, a small
  always-poor minority — all hold.

* **Fig 8's median switch distance is larger** (front-ends live at metro
  granularity, so the smallest observable switch is a metro-to-metro
  hop; the paper's CDN had sub-metro alternatives).  The CDF's shape —
  mostly-local switches with a long tail, >=60% within 2000 km — holds.

* **Fig 3's United States line is more pessimistic than Europe's.**
  Continental-scale cold-potato ISPs (the paper's own Denver→Phoenix
  case) hurt more in a large country; the paper's headline numbers are
  world-level and reproduce.

## Per-figure data

``pytest benchmarks/ --benchmark-only`` regenerates every figure's full
rows/series into ``benchmarks/out/``:

| Experiment | Bench target | Output |
|---|---|---|
| Fig 1 | `bench_fig1_diminishing_returns.py` | `out/fig1_diminishing_returns.txt` |
| Fig 2 | `bench_fig2_client_distance.py` | `out/fig2_client_distance.txt` |
| Fig 3 | `bench_fig3_anycast_penalty.py` | `out/fig3_anycast_penalty.txt` |
| Fig 4 | `bench_fig4_anycast_distance.py` | `out/fig4_anycast_distance.txt` |
| Fig 5 | `bench_fig5_poor_path_prevalence.py` | `out/fig5_poor_path_prevalence.txt` |
| Fig 6 | `bench_fig6_poor_path_duration.py` | `out/fig6_poor_path_duration.txt` |
| Fig 7 | `bench_fig7_frontend_affinity.py` | `out/fig7_frontend_affinity.txt` |
| Fig 8 | `bench_fig8_switch_distance.py` | `out/fig8_switch_distance.txt` |
| Fig 9 | `bench_fig9_prediction.py` | `out/fig9_prediction.txt` |
| §4 table | `bench_table_cdn_sizes.py` | `out/table_cdn_sizes.txt` |
| Ablation: metric percentile | `bench_ablation_prediction_metric.py` | `out/ablation_prediction_metric.txt` |
| Ablation: min-samples cut | `bench_ablation_min_samples.py` | `out/ablation_min_samples.txt` |
| Ablation: hybrid threshold | `bench_ablation_hybrid.py` | `out/ablation_hybrid.txt` |
| Ablation: withdrawal cascade | `bench_ablation_failover.py` | `out/ablation_failover.txt` |
"""


def claim_drift(rows: Sequence[ComparisonRow]) -> List[str]:
    """How the out-of-band claims differ from the known deviations.

    One line per banded claim that left its band and per known
    deviation that is no longer out of band; empty when the two sets
    agree.
    """
    deviating = {
        (row.experiment, row.metric)
        for row in rows
        if row.within_band is False
    }
    return [
        f"claim left its band: {experiment} {metric!r}"
        for experiment, metric in sorted(deviating - EXPECTED_DEVIATIONS)
    ] + [
        f"known deviation no longer out of band: {experiment} {metric!r}"
        for experiment, metric in sorted(EXPECTED_DEVIATIONS - deviating)
    ]


def _summary(rows: Sequence[ComparisonRow]) -> Tuple[int, int]:
    reproduced = sum(1 for r in rows if r.within_band)
    banded = sum(1 for r in rows if r.within_band is not None)
    return reproduced, banded


def check() -> int:
    """Gate the paper claims on a matrix-engine paper-scale study."""
    study = AnycastStudy(paper_config(), CampaignConfig(engine="matrix"))
    started = time.time()
    study.dataset
    print(f"campaign: {time.time() - started:.1f}s", file=sys.stderr)
    started = time.time()
    rows = build_comparison(study)
    print(f"comparison: {time.time() - started:.1f}s", file=sys.stderr)
    print(format_markdown(rows))
    reproduced, banded = _summary(rows)
    print(f"\n{reproduced}/{banded} banded claims reproduced")
    drift = claim_drift(rows)
    for line in drift:
        print(f"FAIL: {line}")
    if drift:
        return 1
    print(f"ok: exactly the {len(EXPECTED_DEVIATIONS)} known deviations")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate EXPERIMENTS.md, or gate the paper claims."
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the study on the matrix engine, print the comparison "
        "and exit 1 unless exactly the known deviations are out of band; "
        "writes nothing",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    config = paper_config()
    study = AnycastStudy(config)
    started = time.time()
    dataset = study.dataset
    print(f"campaign: {time.time() - started:.0f}s", file=sys.stderr)
    rows = build_comparison(study)
    header = HEADER.format(
        prefixes=PAPER_PREFIXES,
        days=PAPER_DAYS,
        beacons=dataset.beacon_count,
        measurements=dataset.measurement_count,
        seed=config.seed,
    )
    body = format_markdown(rows)
    reproduced, banded = _summary(rows)
    summary = (
        f"\n**Summary: {reproduced}/{banded} banded claims reproduced.**\n"
    )
    with open("EXPERIMENTS.md", "w", encoding="utf-8") as handle:
        handle.write(header + body + summary + DISCUSSION)
    print(f"wrote EXPERIMENTS.md ({reproduced}/{banded} reproduced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
