"""One `ifd-sim` invocation in a fresh process, timed from the inside.

    python perfbench/invoke.py --record <file> [--trace] [--setup-only] \
        -- <scenario> --config <file> --out <dir> --threads 1

The arguments after `--` are those of `ifd-sim`. This script makes the
same public calls as `ifdsim.cli.main`: it parses them with the CLI's own
parser, loads the config, then runs the scenario and writes the CSV and
`summary.json`. It writes a JSON record with the wall-clock moment set-up
ended, the wall and CPU time of the scenario including emission, and the
peak resident memory of the process (`VmHWM`; `ru_maxrss` would also count
the parent's peak, which `execve` folds into the child's). Errors propagate, so a failed
invocation exits non-zero.

With `--trace` it wraps public functions where the calling module looks
them up (`scenarios.b_pulse`, `protocol.lindblad_segment_batch`, ...)
and adds every span to the record. Without it nothing is wrapped.
"""

import json
import math
import os
import sys
import time

# (module, attribute, span name): the lookups the traced run wraps.
TRACED = (
    ("scenarios", "dissipative_sweep", "protocol.sweep"),
    ("scenarios", "run_coherent_ideal", "protocol.ideal"),
    ("scenarios", "amplitude_recursion", "protocol.ideal"),
    ("scenarios", "run_projective", "protocol.ideal"),
    ("scenarios", "projective_closed_form", "protocol.ideal"),
    ("scenarios", "expansion_coefficients", "protocol.ideal"),
    ("scenarios", "b_pulse", "su3"),
    ("scenarios", "beam_splitter", "su3"),
    ("scenarios", "star_trajectory", "majorana"),
    ("scenarios", "pr_nr", "metrics"),
    ("scenarios", "efficiency", "metrics"),
    ("scenarios", "cumulative_absorption", "metrics"),
    ("scenarios", "sample_shots", "metrics"),
    ("scenarios", "run_single_mode", "quantized"),
    ("protocol", "lindblad_segment_batch", "dynamics.segment"),
    ("protocol", "effective_area", "pulses.area"),
    ("protocol", "b_pulse", "su3"),
    ("protocol", "beam_splitter", "su3"),
)


def peak_rss_mb() -> float:
    """The high-water resident memory of this process's own address space."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


class Tracer:
    """In-memory spans: [name, parent index, start s, end s, rows]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._origin = time.perf_counter()

    def open(self, name, rows=0):
        span = [name, self._stack[-1] if self._stack else -1, self._now(), 0.0, rows]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span[3] = self._now()
        self._stack.pop()

    def _now(self):
        return round(time.perf_counter() - self._origin, 7)

    def wrap(self, module, attr, name):
        fn = getattr(module, attr)
        counts_rows = name == "dynamics.segment"

        def wrapper(*args, **kwargs):
            span = self.open(name, math.prod(args[0].shape[:-2]) if counts_rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        setattr(module, attr, wrapper)


def main(argv):
    split = argv.index("--")
    own, ifd_args = argv[:split], argv[split + 1:]
    record_path = own[own.index("--record") + 1]
    tracer = Tracer() if "--trace" in own else None

    span = tracer.open("setup.import") if tracer else None
    from dataclasses import replace

    from ifdsim import cli, config as config_mod, protocol, scenarios

    if tracer:
        tracer.close(span)
        modules = {"scenarios": scenarios, "protocol": protocol}
        for module, attr, name in TRACED:
            tracer.wrap(modules[module], attr, name)
        span = tracer.open("config.load")

    args = cli.build_parser().parse_args(ifd_args)
    config = config_mod.load_config(args.config, scenario=args.scenario)
    config = replace(config, output_dir=args.out, threads=args.threads)
    record = {"ifdsim_file": os.path.abspath(cli.__file__), "setup_end": time.time()}
    if tracer:
        tracer.close(span)

    if "--setup-only" not in own:
        c0 = time.process_time()
        w0 = time.perf_counter()
        span = tracer.open("scenarios.run") if tracer else None
        result = scenarios.run_scenario(config)
        if tracer:
            tracer.close(span)
            span = tracer.open("scenarios.emit")
        os.makedirs(config.output_dir, exist_ok=True)
        scenarios.emit_csv(result, os.path.join(config.output_dir, scenarios.CSV_NAMES[config.scenario]))
        scenarios.emit_summary_json(result, os.path.join(config.output_dir, "summary.json"))
        if tracer:
            tracer.close(span)
        record["sweep_s"] = time.perf_counter() - w0
        record["sweep_cpu_s"] = time.process_time() - c0
        record["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        record["spans"] = tracer.spans
    with open(record_path, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
