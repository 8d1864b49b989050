"""Self-test of the benchmark harness at a tiny shape (40 /24s x 2 days).

    python3 perfbench/selftest.py

Run from the repository root.  It checks that

* every workload, untraced and traced, on recorded and unrecorded seeds,
  emits every metric BENCHMARK.json declares with its unit, passes its
  output checks with no failed operation, and when traced has child
  spans covering at least 95% of each pass and of each span under it;
* each output check trips on a perturbed output: a changed sample in the
  written export, a dropped figure section, a changed sample in the
  merged sharded dataset, a wrong day's prediction; the first three
  against both the recorded outputs and the vectorized-engine oracle;
* the coverage gate names a span whose time no child span owns.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import layers  # noqa: E402
from repro.measurement.export import load_dataset, save_dataset  # noqa: E402
from repro.telemetry import Telemetry, manifest_path_for, write_run_manifest  # noqa: E402

SEED = 2015
#: A seed with no recorded outputs: checks fall back to their oracles.
UNRECORDED = 7

failures = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def change_sample(dataset) -> None:
    """Add one sample to the first ECS digest of the first day."""
    aggregates = dataset.ecs_aggregates
    day = aggregates.days[0]
    group = aggregates.groups_on(day)[0]
    target, digest = sorted(aggregates.targets_for(day, group).items())[0]
    aggregates.observe(day, group, target, digest.maximum() + 1.0)


def check_runs() -> None:
    for workload in bench.WORKLOADS:
        for trace, seed in ((0, SEED), (1, 2016), (0, UNRECORDED)):
            label = f"{workload} trace={trace} seed={seed}"
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", "4" if trace else "1", "--trace", str(trace),
                    "--shape", "tiny",
                ],
                cwd=ROOT, capture_output=True, text=True, timeout=175,
            )
            expect(proc.returncode == 0, f"{label}: exits 0 {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])["info"]
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{label}: result has exactly the contract's keys",
            )
            expect(
                result["correct"] is True and result["failed"] == 0
                and result["attempted"] >= 1,
                f"{label}: outputs correct, {result['attempted']} attempted, "
                f"{result['failed']} failed {info['notes']}",
            )
            declared = bench.SPEC["per_layer" if trace else "end_to_end"]
            expect(
                {name: m["unit"] for name, m in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in declared},
                f"{label}: every declared metric emitted with its unit",
            )
            if trace:
                lowest = min(info["pass_coverage"].values())
                expect(
                    lowest >= bench.MIN_COVERAGE,
                    f"{label}: child spans cover >= 95% of each pass and "
                    f"of each span under it ({lowest:.3f})",
                )
            else:
                expect(
                    all(m["value"] > 0 for m in result["metrics"].values()),
                    f"{label}: every end-to-end metric is positive",
                )


def trips(workload, perturb, what: str) -> None:
    """A clean pass checks clean; the same pass perturbed does not."""
    workload.setup()
    _, product = workload.timed_pass()
    workload.summaries = [workload.summarize(product)]
    attempted, failed = workload.check()
    expect(failed == 0 and attempted > 0, f"{workload.name}: clean output passes its check")
    workload.summaries = [workload.summarize(perturb(product))]
    workload.notes = []
    _, failed = workload.check()
    expect(failed > 0, f"{workload.name}: check trips on {what} ({workload.notes})")


def check_coverage_gate() -> None:
    tracer = layers.SpanLog()
    with tracer.unit("pass"):
        with tracer.span("analysis"):
            with tracer.span("analysis.fig1"):
                time.sleep(0.02)
            gap_start = time.monotonic()
            time.sleep(0.02)
            gap_end = time.monotonic()
    gaps = bench.coverage_gaps(tracer.coverage(tracer.units))
    expect(
        len(gaps) == 1 and "of analysis " in gaps[0],
        f"coverage gate names a span with unowned time ({gaps})",
    )
    tracer.adopt("analysis", [("analysis/format", gap_start, gap_end)])
    gaps = bench.coverage_gaps(tracer.coverage(tracer.units))
    expect(not gaps, f"an adopted program slice owns that time ({gaps})")


def check_perturbations(work: Path) -> None:
    input_dir = work / "input"
    input_dir.mkdir(parents=True)
    shape = bench.TINY_SHAPE

    def changed_export(product):
        manifest, report = product
        path = manifest["artifact"]
        dataset = load_dataset(path)
        change_sample(dataset)
        save_dataset(dataset, path)
        manifest = write_run_manifest(
            manifest_path_for(path), Telemetry().snapshot(),
            dataset=dataset, extra={"artifact": path},
        )
        return manifest, report

    def dropped_section(product):
        manifest, report = product
        sections = bench.sections_of(report)
        return manifest, bench.SECTION_BREAK.join(sections[:4] + sections[5:])

    for seed in (SEED, UNRECORDED):
        study = bench.PaperStudy(seed, shape, input_dir, work)
        trips(study, changed_export, f"a changed sample in the export, seed {seed}")
        trips(study, dropped_section, f"a dropped figure section, seed {seed}")

    def changed_merge(product):
        dataset, snapshot = product
        change_sample(dataset)
        return dataset, snapshot

    for seed in (SEED, UNRECORDED):
        trips(bench.ShardedSketch(seed, shape, input_dir, work), changed_merge, f"a changed sample in the merge, seed {seed}")

    bench.ServiceReplay.generate(SEED, shape, input_dir)

    def wrong_day(product):
        service, result = product
        result.predictions[1] = result.predictions[0]
        return service, result

    trips(bench.ServiceReplay(SEED, shape, input_dir, work), wrong_day, "a wrong day's prediction")


def main() -> int:
    check_coverage_gate()
    check_runs()
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        check_perturbations(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-test checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
