"""Layered verification benchmark for skewgentle (standard library only).

    python3 bench/run.py --workload cover_ladder|random_skewgroup|random_cli \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; the package is imported from its
``src/``.  One process runs one workload, single-threaded:

1. set-up, repeated ``SETUP_REPS`` times: import skewgentle afresh and
   generate the seeded inputs (writing the input files of ``random_cli``);
2. the timed phase: whole rounds of verdicts until ``--seconds`` have
   passed (a round is the full ladder, or a fixed-histogram batch of
   random inputs), each verdict timed on its own;
3. the gates: every verdict is checked against an answer the benchmark
   computes without the library.

Time metrics are rescaled to a reference machine speed.  On a shared
machine other tenants slow every Python loop by up to about 2x for
seconds at a time, which no run length averages out.  So a fixed
calibration loop (stdlib only, independent of the library) is timed
around every verdict and set-up and every ``SAMPLE_INTERVAL_S`` during
them, and each duration is multiplied by ``CAL_REF_S`` over the loop's
mean time over it.  A change to the library moves these figures in full;
a change in the machine's load mostly cancels.  The raw wall-clock
figures are printed beside them and kept in the report.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same rounds untraced and then traced (spans around every public
function of each layer module, see ``bench_trace``), then one round under
tracemalloc, and prints the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object.  A full report
goes to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_trace import LAYERS, AlgebraPeak, Tracer  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_ABOVE = 10
# Seconds one calibration loop is taken to last; it only sets the unit of
# the scaled figures.  On a 2-vCPU Xeon VM shared with other tenants the
# loop took about 0.3 ms at quiet times and 0.4-0.57 ms at busy ones, so
# the scaled figures read as on the busy machine.
CAL_REF_S = 0.0005
SAMPLE_INTERVAL_S = 0.05

ALGEBRA_FUNCTIONS = (
    "skew_group_algebra",
    "verify_algebra_involution",
    "corner_algebra",
    "verify_morphism",
    "graded_path_algebra",
    "reduced_path_algebra",
    "algebra_from_products",
)
EQUIVARIANT_FUNCTIONS = (
    "verify_skew_group_reduction",
    "verify_dual_reduction",
    "verify_iterated_skew_group",
)
COUNTED_CALLS = (
    "presentations.extract_quiver",
    "presentations.split_presentation",
    "algebra.graded_path_algebra",
    "algebra.reduced_path_algebra",
    "surface.validate",
)
SELF_TIMED = (
    "surface.validate",
    "surface.surfaces_isomorphic",
    "surface.topology",
    "covering.double_cover",
    "covering.quotient",
    "covering.lift_curve",
    "linefield.invariant_tuple",
    "linefield.cover_invariant_tuple",
    "cli.parse_surface_file",
    "cli.format_surface_file",
) + tuple(
    f"cli.main.{sub}"
    for sub in (
        "validate", "cover", "quotient", "invariants", "winding",
        "compare_tilting", "compare_ghat",
    )
)


# Lines in the style of the surface file format, parsed by the loop below.
_CAL_LINES = tuple(f"poly p{i} sides=b:b{i},a:{i}:+,a:{i + 1}:-,a:{i + 2}:+" for i in range(40))


def calibration_loop() -> int:
    """Fixed work in the style of the library: Fractions summed into a
    dict keyed by small ints (the algebra kernel), then text split into
    tuple-keyed dicts and sorted (the surface and file code).  Different
    code slows by different amounts when the machine is contended; the mix
    keeps the loop between the two kinds the workloads run."""
    acc: dict[int, Fraction] = {}
    for i in range(1, 70):
        k = (i * 7919) % 97
        s = acc.get(k, 0) + Fraction(i % 13 + 1, i % 11 + 1)
        if s:
            acc[k] = s
        else:
            del acc[k]
    occ: dict[tuple[str, str], tuple[str, int]] = {}
    for line in _CAL_LINES:
        words = line.split()
        for slot, side in enumerate(words[2][len("sides="):].split(",")):
            parts = side.split(":")
            occ[(parts[1], parts[-1])] = (words[1], slot)
    return len(acc) + len(sorted(occ, key=lambda t: (t[1], t[0])))


def timed_loop() -> float:
    """Seconds for one calibration loop.  The collector stays off while it
    runs: a collection there would scan the library's heap and read as a
    slow machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """How fast this core runs Python now, as seconds per calibration loop.

    ``read`` takes the median of five loops; while ``sampling``, a SIGALRM
    handler also times one loop every ``SAMPLE_INTERVAL_S``, so a verdict
    lasting seconds is scaled by the speed during it, not only at its
    ends.  ``spent`` sums the handler's own time, which ``measure`` takes
    off the measured duration (and a tracer off its spans)."""

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.spent = 0.0
        self.tracer = tracer

    def read(self) -> None:
        self.samples.append(sorted(timed_loop() for _ in range(5))[2])

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(timed_loop())
        spent = time.perf_counter() - start
        self.spent += spent
        if self.tracer is not None:
            self.tracer.exclude(spent)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn):
        """Run ``fn`` after a ``read``; (result or the exception it raised,
        wall seconds net of sampling, speed factor over the call)."""
        first = len(self.samples) - 1
        spent = self.spent
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the caller decides what a raise means
            result = exc
        elapsed = time.perf_counter() - start - (self.spent - spent)
        self.read()
        window = self.samples[first:]
        return result, elapsed, CAL_REF_S * len(window) / sum(window)


def import_package():
    """Import skewgentle from the checkout's ``src/``, dropping any earlier
    import first; returns (package, seconds)."""
    for name in [n for n in sys.modules if n == "skewgentle" or n.startswith("skewgentle.")]:
        del sys.modules[name]
    start = time.perf_counter()
    sg = importlib.import_module("skewgentle")
    seconds = time.perf_counter() - start
    expected = (ROOT / "src" / "skewgentle").resolve()
    if Path(sg.__file__).resolve().parent != expected:
        raise SystemExit(f"error: skewgentle imported from {sg.__file__}, not {expected}")
    return sg, seconds


@dataclass
class Phase:
    """Verdicts of one timed phase: raw wall seconds, the speed factor
    around each verdict, and the (item, record) pairs for the gates."""

    raw: list[float] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)
    records: list = field(default_factory=list)
    rounds: int = 0

    @property
    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.raw, self.scale)]


def run_rounds(sg, workload, rounds, seconds=None, n_rounds=None, tracer=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed (or ``n_rounds``
    rounds), timing and speed-scaling each verdict."""
    phase = Phase()
    speed = Speedometer(tracer)
    start = time.perf_counter()
    speed.read()
    with speed.sampling():
        while True:
            for item in rounds[phase.rounds % len(rounds)]:
                if tracer is not None:
                    tracer.verdict = len(phase.raw)
                raw, elapsed, factor = speed.measure(lambda: workload.verdict(sg, item))
                phase.raw.append(elapsed)
                phase.scale.append(factor)
                if isinstance(raw, Exception):
                    phase.records.append((item, {"name": item.name, "error": repr(raw)}))
                else:
                    phase.records.append((item, workload.record(item, raw)))
                del raw
            phase.rounds += 1
            if n_rounds is not None:
                if phase.rounds >= n_rounds:
                    break
            elif time.perf_counter() - start >= seconds:
                break
    return phase


def check_all(sg, workload, records):
    """Failed gates per verdict, in order (an empty list is a pass)."""
    return [
        ["raised"] if "error" in rec else workload.check(sg, item, rec)
        for item, rec in records
    ]


def tail(times):
    """(ms, percentile, samples above) at the highest listed percentile
    with at least ``TAIL_MIN_ABOVE`` samples above it, or None."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100)
        if n - rank >= TAIL_MIN_ABOVE:
            return ordered[rank - 1] * 1e3, pct, n - rank
    return None


def by_item(pairs) -> dict:
    """Median milliseconds per key over (key, seconds) pairs; a key that
    is a (item, stage) pair nests as {item: {stage: ms}}."""
    samples: dict = {}
    for key, seconds in pairs:
        samples.setdefault(key, []).append(seconds)
    out: dict = {}
    for key, values in samples.items():
        ms = statistics.median(values) * 1e3
        if isinstance(key, tuple):
            out.setdefault(key[0], {})[key[1]] = ms
        else:
            out[key] = ms
    return out


def end_to_end(setup_s, times):
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced: Phase, ref: Phase, import_s, peak_bytes):
    agg = tracer.aggregate(traced.scale)
    verdicts = len(traced.raw)
    busy = sum(traced.scaled)

    def row(name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    out = {}
    for layer in LAYERS:
        self_s = sum(r["self_s"] for n, r in agg.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (self_s / verdicts, "s/verdict")
        out[f"{layer}.self_frac"] = (self_s / busy, "ratio")
    covered = sum(seconds for _, _, seconds in tracer.top_level(traced.scale))
    out["bench.self_frac"] = ((busy - covered) / busy, "ratio")
    for fn in ALGEBRA_FUNCTIONS:
        out[f"algebra.{fn}.self_s"] = (row(f"algebra.{fn}")["self_s"] / verdicts, "s/verdict")
    cells, nnz = tracer.tables
    out["algebra.table_cells"] = (cells / verdicts, "cells/verdict")
    out["algebra.table_nnz"] = (nnz / verdicts, "cells/verdict")
    out["algebra.table_density"] = (nnz / cells if cells else 0.0, "ratio")
    out["algebra.peak_alloc_mb"] = (peak_bytes / 2**20, "MB")
    for fn in EQUIVARIANT_FUNCTIONS:
        r = row(f"equivariant.{fn}")
        out[f"equivariant.{fn}.total_s"] = (r["total_s"] / verdicts, "s/verdict")
        out[f"equivariant.{fn}.self_s"] = (r["self_s"] / verdicts, "s/verdict")
    for name in COUNTED_CALLS:
        out[f"{name}.calls_per_verdict"] = (row(name)["calls"] / verdicts, "calls/verdict")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (row(name)["self_s"] / verdicts, "s/verdict")
    out["cli.import_s"] = (import_s, "s")
    out["trace.overhead_frac"] = (busy / sum(ref.scaled) - 1, "ratio")
    return out, agg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewgentle" / "__init__.py").is_file():
        print(f"error: no src/skewgentle under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    setup_raw, setup_scaled, import_scaled = [], [], []
    speed = Speedometer()
    speed.read()
    with speed.sampling():
        for _ in range(SETUP_REPS):
            import_s = []

            def set_up():
                spent = speed.spent
                sg, seconds = import_package()
                import_s.append(seconds - (speed.spent - spent))
                workload = WORKLOADS[args.workload]()
                return sg, workload, workload.generate(sg, args.seed, args.tiny, workdir)

            result, elapsed, factor = speed.measure(set_up)
            if isinstance(result, Exception):
                raise result
            sg, workload, rounds = result
            setup_raw.append(elapsed)
            setup_scaled.append(elapsed * factor)
            import_scaled.append(import_s[0] * factor)

    to_phase = time.perf_counter() - PROCESS_START
    # A traced run spends half its time untraced, as the overhead baseline.
    phase = run_rounds(sg, workload, rounds, seconds=args.seconds / (1 + args.trace))
    records = list(phase.records)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "process_start_to_phase_raw_s": to_phase,
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        "rounds": phase.rounds,
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "verdicts_per_s": len(phase.raw) / sum(phase.raw),
            "verdict_p50_ms": statistics.median(phase.raw) * 1e3,
            "speed_factor_median": statistics.median(phase.scale),
        },
    }
    if args.trace:
        ref = phase
        tracer = Tracer()
        tracer.install()
        try:
            phase = run_rounds(sg, workload, rounds, n_rounds=ref.rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        peak = AlgebraPeak()
        peak.install()
        tracemalloc.start()
        try:
            alloc = run_rounds(sg, workload, rounds, n_rounds=1)
        finally:
            tracemalloc.stop()
            peak.uninstall()
        records += phase.records + alloc.records
        metrics, agg = per_layer(
            tracer, phase, ref, statistics.median(import_scaled), peak.peak_bytes
        )
        report["functions"] = agg
        report["stage_ms_by_item"] = by_item(
            ((phase.records[v][0].name, name), seconds)
            for v, name, seconds in tracer.top_level(phase.scale)
        )
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}.spans.jsonl.gz")
    else:
        metrics = end_to_end(statistics.median(setup_scaled), phase.scaled)

    report["verdict_ms_by_item"] = by_item(
        (item.name, seconds) for (item, _), seconds in zip(phase.records, phase.scaled)
    )
    failures = [bad for bad in check_all(sg, workload, records) if bad]
    # The recorded CURVE_THROUGH_BRANCH defect counts as failed but not as
    # a wrong answer; any other failure makes the run incorrect.
    correct = all(all(g.startswith("defect:") for g in bad) for bad in failures)
    properties = workload.properties([rec for _, rec in records if "error" not in rec])
    result_tail = tail(phase.scaled)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {phase.rounds}  verdicts {len(phase.raw)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    if not args.trace:
        if result_tail is None:
            print(f"  {'verdict_tail_ms':<48} n/a ({len(phase.raw)} verdicts, too few)")
        else:
            ms, pct, above = result_tail
            print(f"  {'verdict_tail_ms':<48} {ms:.6g} ms "
                  f"(p{pct:g}, {above} of {len(phase.raw)} above)")
        print(f"  {'failed_frac':<48} {len(failures) / len(records):.6g} "
              f"({len(failures)} of {len(records)} verdicts)")
        print(f"  raw wall clock {json.dumps(report['raw'])}")
    print(f"  inputs {json.dumps(properties, default=str)}")
    gate_counts: dict[str, int] = {}
    for bad in failures:
        for gate in bad:
            gate_counts[gate] = gate_counts.get(gate, 0) + 1
    if gate_counts:
        print(f"  failed gates {json.dumps(gate_counts, sort_keys=True)}")

    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report.update(
        metrics=result_metrics,
        verdict_tail_ms=result_tail,
        properties=properties,
        failed_gates=gate_counts,
        verdicts=len(records),
        failed=len(failures),
        correct=correct,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
