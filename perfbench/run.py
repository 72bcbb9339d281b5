"""Benchmark of the `ifd-sim` CLI: end-to-end metrics, per-layer trace, checks.

    python3 perfbench/run.py --workload <random_n25|stretch_map|ideal_catalogue>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from `src/`.
A run repeats whole rounds of the workload's invocations, each a fresh
process and one at a time (a closed loop), until `--seconds` have passed
and at least two rounds are done. It then checks every output against
the references in `checks.py` and that every round wrote the same bytes,
and prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`. An invocation fails when it exits non-zero or its
outputs fail a check.

With `--trace 0` the metrics are the end-to-end ones, medians over the
rounds. With `--trace 1` rounds alternate untraced and traced; the
traced rounds give the per-layer metrics and the spans, written to
`perfbench/_work/trace-<workload>-seed<n>.json`, and the difference of
the two kinds of round gives `trace.overhead_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
INVOKE = os.path.join(HERE, "invoke.py")
CHILD_TIMEOUT_S = 150
# setup_s is the median of a run's set-ups. In an untraced run, a round
# of fewer invocations than this is preceded by set-up-only starts up to
# it, so the set-up samples spread over the run as the rounds do.
SETUP_PER_ROUND = 4

END_TO_END = {"setup_s": "s", "sweep_s": "s", "sweep_cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "config.load_s": "s",
    "scenarios.run_s": "s",
    "scenarios.emit_s": "s",
    "protocol.sweep_s": "s",
    "protocol.sweep_self_s": "s",
    "dynamics.segment_s": "s",
    "dynamics.segment_calls": "count",
    "dynamics.row_segments": "count",
    "dynamics.us_per_row_segment": "us",
    "pulses.area_calls": "count",
    "pulses.area_s": "s",
    "su3.calls": "count",
    "su3.s": "s",
    "protocol.ideal_s": "s",
    "metrics.s": "s",
    "majorana.s": "s",
    "quantized.s": "s",
    "trace.overhead_s": "s",
}


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def invoke(scenario, config_path, out_dir, record_path, traced=False, setup_only=False) -> dict:
    """Run one invocation in a fresh process and return its record."""
    cmd = [sys.executable, INVOKE, "--record", record_path]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    cmd += ["--", scenario, "--config", config_path, "--out", out_dir, "--threads", "1"]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    started = time.time()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "scenario": scenario, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"ok": False, "scenario": scenario, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-1500:]}"}
    with open(record_path, encoding="ascii") as fh:
        record = json.load(fh)
    record.update(ok=True, scenario=scenario, out_dir=out_dir, setup_s=record["setup_end"] - started)
    return record


def run_round(calls, round_dir, traced) -> list[dict]:
    os.makedirs(round_dir)
    records = []
    for i, (scenario, config_path) in enumerate(calls):
        out_dir = os.path.join(round_dir, f"{i}-{scenario}")
        records.append(invoke(scenario, config_path, out_dir, out_dir + ".json", traced=traced))
    return records


# Span name -> the per-layer metric that sums its duration.
SPAN_TIME = {
    "scenarios.run": "scenarios.run_s",
    "scenarios.emit": "scenarios.emit_s",
    "protocol.sweep": "protocol.sweep_s",
    "dynamics.segment": "dynamics.segment_s",
    "pulses.area": "pulses.area_s",
    "su3": "su3.s",
    "protocol.ideal": "protocol.ideal_s",
    "metrics": "metrics.s",
    "majorana": "majorana.s",
    "quantized": "quantized.s",
}
SPAN_COUNT = {"dynamics.segment": "dynamics.segment_calls", "pulses.area": "pulses.area_calls", "su3": "su3.calls"}


def layer_totals(records) -> dict:
    """Per-layer sums over one traced round's invocations."""
    total = {name: 0.0 for name in PER_LAYER}
    for rec in records:
        spans = rec["spans"]
        for idx, (name, _, start, end, rows) in enumerate(spans):
            if name in SPAN_TIME:
                total[SPAN_TIME[name]] += end - start
            if name in SPAN_COUNT:
                total[SPAN_COUNT[name]] += 1
            total["dynamics.row_segments"] += rows
            if name == "protocol.sweep":
                children = sum(s[3] - s[2] for s in spans if s[1] == idx)
                total["protocol.sweep_self_s"] += end - start - children
    rows = total["dynamics.row_segments"]
    total["dynamics.us_per_row_segment"] = 1e6 * total["dynamics.segment_s"] / rows if rows else 0.0
    return total


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _report(name, values, unit):
    q1, q2, q3 = _quartiles(values)
    print(f"  {name:30s} median {q2:.6g} {unit}  quartiles {q1:.6g}..{q3:.6g}  n={len(values)}")


def verify(workload, seed, rounds) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors): content checks on the first good output
    of each invocation, then byte identity of every other round with it."""
    attempted = failed = 0
    errors = []
    for i in range(len(rounds[0])):
        records = [rnd[i] for rnd in rounds]
        attempted += len(records)
        base = next((r for r in records if r["ok"]), None)
        for r in records:
            if not r["ok"]:
                errors.append(f"{r['scenario']}: {r['error']}")
        if base is None:
            failed += len(records)
            continue
        own = workloads.check_outputs(workload, seed, base["scenario"], base["out_dir"])
        errors += [f"{base['scenario']}: {e}" for e in own]
        for r in records:
            if not r["ok"]:
                failed += 1
                continue
            diffs = [] if r is base else [
                e for name in (workloads.CSV_NAMES[r["scenario"]], "summary.json")
                for e in checks.identical(os.path.join(base["out_dir"], name), os.path.join(r["out_dir"], name))
            ]
            errors += diffs
            failed += bool(own or diffs)
    return attempted, failed, errors


def run(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    calls = []
    for i, (scenario, text) in enumerate(workloads.invocations(workload, seed)):
        path = os.path.join(work, f"{i}-{scenario}.cfg")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        calls.append((scenario, path))

    probe_dir = os.path.join(work, "setup")
    os.makedirs(probe_dir)

    def probe(k):
        scenario, config_path = calls[0]
        return invoke(scenario, config_path, probe_dir, os.path.join(probe_dir, f"{k}.json"), setup_only=True)

    # The first start also compiles byte code in a fresh checkout; it is
    # not a set-up sample.
    first = probe(0)
    if not first["ok"]:
        raise Fatal(f"the program does not start here: {first['error']}")
    src = os.path.realpath(SRC)
    if os.path.commonpath([os.path.realpath(first["ifdsim_file"]), src]) != src:
        raise Fatal(f"imported ifdsim from {first['ifdsim_file']}, not from {SRC}")

    rounds, traced_flags, probes = [], [], []
    start = time.perf_counter()
    while True:
        if not trace:
            probes += [probe(len(probes) + k) for k in range(1, SETUP_PER_ROUND - len(calls) + 1)]
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(calls, os.path.join(work, f"round{len(rounds)}"), traced))
        traced_flags.append(traced)
        if len(rounds) >= 2 and time.perf_counter() - start >= seconds:
            break
    measured_s = time.perf_counter() - start

    good = [(rnd, t) for rnd, t in zip(rounds, traced_flags) if all(r["ok"] for r in rnd)]
    plain = [rnd for rnd, t in good if not t]
    attempted, failed, errors = verify(workload, seed, rounds)
    errors += [f"set-up probe {p['scenario']}: {p['error']}" for p in probes if not p["ok"]]
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    print(f"{workload} seed={seed}: {len(rounds)} rounds of {len(calls)} invocation(s) in {measured_s:.1f} s; "
          f"{attempted} attempted, {failed} failed")

    sweep = [sum(r["sweep_s"] for r in rnd) for rnd in plain]
    if not trace:
        series = {
            "setup_s": [r["setup_s"] for rnd in plain for r in rnd] + [p["setup_s"] for p in probes if p["ok"]],
            "sweep_s": sweep,
            "sweep_cpu_s": [sum(r["sweep_cpu_s"] for r in rnd) for rnd in plain],
            "peak_rss_mb": [max(r["peak_rss_mb"] for r in rnd) for rnd in plain],
        }
        units = END_TO_END
    else:
        traced_rounds = [rnd for rnd, t in good if t]
        totals = [layer_totals(rnd) for rnd in traced_rounds]
        series = {name: [t[name] for t in totals] for name in PER_LAYER}
        spans = [r["spans"] for rnd in traced_rounds for r in rnd]
        series["setup.import_s"] = [sp[0][3] - sp[0][2] for sp in spans]
        series["config.load_s"] = [sp[1][3] - sp[1][2] for sp in spans]
        traced_sweep = [sum(r["sweep_s"] for r in rnd) for rnd in traced_rounds]
        if traced_sweep and sweep:
            series["trace.overhead_s"] = [statistics.median(traced_sweep) - statistics.median(sweep)]
        units = PER_LAYER
        if traced_rounds:
            with open(os.path.join(WORK, f"trace-{workload}-seed{seed}.json"), "w", encoding="ascii") as fh:
                json.dump({"workload": workload, "seed": seed,
                           "span_fields": ["name", "parent", "start_s", "end_s", "rows"],
                           "invocations": [{"scenario": r["scenario"], "spans": r["spans"]}
                                           for r in traced_rounds[-1]]}, fh)
    metrics = {}
    for name, unit in units.items():
        values = series.get(name) or []
        if values:
            _report(name, values, unit)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    missing = sorted(set(units) - set(metrics))
    if missing:
        errors.append(f"no value for {missing}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ifdsim", "__init__.py")):
        print(f"error: no program to measure: {SRC}/ifdsim is missing", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
