"""One cold benchmark process: import ppforge, build the workload's fields,
then run the workload's CLI calls once through ``ppforge.cli.main``.

Started by run.py, never by hand. Prints one JSON line: the set-up interval,
each call's interval with its exit code and captured stdout, and peak RSS;
with ``--trace 1`` also the per-layer metrics, and the spans go to
``<workdir>/spans.jsonl``. CSV rows are written to ``<workdir>/<call>.csv``.
An interval is ``{"wall_s", "probe_s", "host_s"}``: its wall time, the part
of it HostSpeed's probes took, and the mean probe time over it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, fields

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_INTERVAL_S = 0.05


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: about 1 ms when the
    reference host runs at full speed."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(6_000):
        key = i % 997
        table[key] = table.get(key, 0) + i * 3
    return perf_counter() - start


class HostSpeed:
    """Samples host_probe every PROBE_INTERVAL_S from a SIGALRM timer, in
    the measured process itself: the host's speed changes within a single
    CLI call and differs between its CPUs, so only samples taken in between
    the measured work describe the speed that work ran at."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.samples.append((start, host_probe()))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def interval(self, start: float, end: float) -> dict:
        """The interval [start, end], with the samples inside it and the
        last one before and first one after it."""
        inside = [s for t, s in self.samples if start <= t <= end]
        before = [s for t, s in self.samples if t < start][-1:]
        after = [s for t, s in self.samples if t > end][:1]
        around = before + inside + after
        return {"wall_s": end - start, "probe_s": sum(inside),
                "host_s": sum(around) / len(around)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    calls = WORKLOADS[args.workload]

    speed = HostSpeed()
    speed.start()
    speed.sample()
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import ppforge
    import ppforge.cli

    if Path(ppforge.__file__).resolve().parent != SRC / "ppforge":
        print(f"imported ppforge from {ppforge.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer(args.run_id)
        layers.install(tracer)
    for spec in fields(calls):
        ppforge.parse_field_spec(spec)
    setup = (start, perf_counter())
    speed.sample()

    results = []
    for call in calls:
        argv = [a.replace("{csv}", str(args.workdir / f"{call.name}.csv"))
                for a in call.argv] + ["--seed", str(args.seed)]
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = ppforge.cli.main(argv)
        except Exception:
            # a crash is a wrong result for this call, not a benchmark failure
            traceback.print_exc()
            rc = None
        results.append({"name": call.name, "rc": rc, "span": (t0, perf_counter()),
                        "stdout": out.getvalue()})
        speed.sample()
    speed.stop()
    for result in results:
        result.update(speed.interval(*result.pop("span")))
    report = {
        "setup": speed.interval(*setup),
        "calls": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = layers.layer_metrics(tracer)
        report["self_s"] = layers.self_seconds_by_layer(tracer)
        tracer.write_spans(args.workdir / "spans.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
