"""One workload process of the benchmark.

Usage::

    python3 bench/child.py REPORT UNIT TRACE SPANS -- <latticefl CLI arguments>

Imports ``latticefl`` (timed), wraps the unit-of-work function UNIT
(``simulate.run_round``, ``bounds.empirical_mse`` or ``cli.cmd_sample``)
with a timestamp at each call, runs the real CLI entry point
``latticefl.cli.main`` on the given arguments, and writes a JSON report to
REPORT.  An untraced run also samples the host's speed as it works
(see ``HostSpeed``).  Cross-process timestamps use CLOCK_MONOTONIC, which is
system-wide on Linux, so the parent can measure set-up from the moment it
launched this process.

With TRACE = 1 every public function and method of every ``latticefl``
module is also wrapped, in every module namespace that binds it, so calls
made through names imported with ``from .x import y`` are seen too.  Each
call records a span (name, start, end, parent, unit id); spans stay in
memory and are written to SPANS when the run ends.  For a train run the
captured rounds are then replayed with ``use_masks=False`` and tracing
off, and the aggregates are compared bit for bit.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import random
import signal
import statistics
import sys
import time

MONOTONIC = time.CLOCK_MONOTONIC

# Counts derived from a traced call's result, in O(1) so that the harness
# adds no work that scales with the data.
COUNTERS = {
    "dgauss.sample_integer_gaussian": ("dgauss.draws", lambda args, result: result.size),
    "compress.quantize": ("compress.coords", lambda args, result: result.size),
    "secagg.derive_masks": (
        "secagg.mask_bytes",
        lambda args, result: len(result) * result[0].values.nbytes if result else 0,
    ),
}

# Calls whose arguments and result are kept for the masked/unmasked replay.
CAPTURE = ("simulate.run_training",)

# Constructors are not public names but the accountant's set-up cost is.
EXTRA_METHODS = ("accountant.AccountantState.__init__",)


def latticefl_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("latticefl.") and m]


def rebind(original, replacement) -> int:
    """Point every module-level name bound to ``original`` at ``replacement``.

    Returns how many bindings changed, so callers can assert the name was
    found where it is looked up.
    """
    changed = 0
    for module in latticefl_modules() + [sys.modules["latticefl"]]:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def resolve(name: str):
    """``"simulate.run_round"`` -> the function object in that module."""
    module, attr = name.split(".", 1)
    return getattr(sys.modules["latticefl." + module], attr)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover.

    ``spans`` are tuples ``(id, parent, unit, name, start, end, error)``.
    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        covered = 0
        run_start = run_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = end - start - covered
    return out


class Tracer:
    """In-memory span recorder wrapped around the ``latticefl`` functions."""

    def __init__(self, unit: str):
        self.unit = unit
        self.active = True
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.ids = itertools.count()
        self.unit_seq = 0
        self.current_unit = 0
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}
        self.captured: dict = {}

    def wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        is_unit = name == self.unit
        counter = COUNTERS.get(name)
        capture = name in CAPTURE
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else None
            if is_unit:
                self.unit_seq += 1
                self.current_unit = self.unit_seq
            unit = self.current_unit
            stack.append(sid)
            error = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                if is_unit:
                    self.current_unit = 0
                spans.append((sid, parent, unit, index, start, end, error))
            if counter is not None:
                self.counters[counter[0]] += int(counter[1](args, result))
            if capture:
                self.captured[name] = (args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method defined in ``latticefl``."""
        for module in latticefl_modules():
            layer = module.__name__.split(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    rebind(value, self.wrap(value, f"{layer}.{attr}"))
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        qual = f"{layer}.{attr}.{meth}"
                        if inspect.isfunction(fn) and (not meth.startswith("_") or qual in EXTRA_METHODS):
                            setattr(value, meth, self.wrap(fn, qual))

    def summary(self) -> dict:
        """Per-function calls and self time, per-layer self time and
        boundary errors, and the totals that must agree.

        A function's self time here is its duration minus the spans it
        calls in other layers: same-layer callees stay inside it (and are
        reported on their own too).  A layer's self time sums the plain
        self times of its spans, so the layers add up to the root span.
        """
        own = self_times(self.spans)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        index_of = {s[0]: s[3] for s in self.spans}
        within = dict(own)
        functions: dict = {}
        layers: dict = {}
        root_ns = 0
        for sid, parent, _, index, start, end, error in self.spans:  # children end first
            layer = layer_of[index]
            parent_layer = None if parent is None else layer_of[index_of[parent]]
            if parent_layer == layer:
                within[parent] += within[sid]
            calls_self = functions.setdefault(self.names[index], [0, 0])
            calls_self[0] += 1
            calls_self[1] += within[sid]
            totals = layers.setdefault(layer, [0, 0])
            totals[0] += own[sid]
            totals[1] += error and parent_layer != layer
            if parent is None:
                root_ns += end - start
        return {
            "functions": functions,
            "layers": layers,
            "counters": self.counters,
            "root_ns": root_ns,
            "self_sum_ns": sum(own.values()),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,unit,name,start_ns,end_ns,error\n")
            for sid, parent, unit, index, start, end, error in sorted(self.spans):
                fh.write(
                    f"{sid},{'' if parent is None else parent},{unit},{self.names[index]},"
                    f"{start},{end},{int(error)}\n"
                )


def replay_unmasked(captured) -> dict:
    """Rerun the captured masked rounds with ``use_masks=False``.

    Returns the unmasked round times and whether every recovered
    aggregate equals the masked one bit for bit.
    """
    from latticefl import simulate

    (cfg,), _, (_, transcripts, _) = captured
    plan = simulate.make_plan(cfg)
    model = simulate.GlobalModel(plan.task.init_weights(), 0)
    times, identical = [], True
    for tr in transcripts:
        start = time.perf_counter_ns()
        model, plain = simulate.run_round(model, plan, tr.round_index, use_masks=False)
        times.append(time.perf_counter_ns() - start)
        identical &= plain.aggregate.tobytes() == tr.aggregate.tobytes()
    return {"unmasked_ns": times, "identical": bool(identical)}


class _Record:
    __slots__ = ("sender", "value")

    def __init__(self, sender: int, value: int):
        self.sender, self.value = sender, value


class HostSpeed:
    """Samples of the host's current speed, taken while the program works.

    The shared host's speed drifts by up to about +-25% over minutes, and
    a longer run does not average that out.  So from the start of the
    first unit to the end of the run, every SPEED_EVERY_S (a SIGALRM
    timer; the handler runs between bytecodes of the main thread) and
    once more at the end, this times two fixed kernels that mirror the
    program's kinds of work: interpreter steps with small numpy calls, and
    a Python scan over 20k small objects scattered on the heap.  They
    touch none of the program's state and allocate about 1 MiB.  A
    sample's host factor is the mean over the kernels of (median of
    SPEED_REPS runs) / REF_NOMINAL_NS, the kernels' medians on the host of
    bench/baseline.json.  Work time is the time between samples; each
    stretch is also divided by the mean factor of the samples at its two
    ends, which gives work in reference seconds.
    """

    SPEED_EVERY_S = 0.25
    SPEED_REPS = 3
    REF_NOMINAL_NS = (1_550_000, 2_000_000)

    def __init__(self):
        self.samples: list[tuple[int, int, float]] = []  # start, end, factor
        self._inputs = None
        self._busy = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.SPEED_EVERY_S, self.SPEED_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def kernel_medians(self, reps: int) -> list[int]:
        import numpy as np

        if self._inputs is None:
            order = list(range(20_000))
            random.Random(0).shuffle(order)
            self._inputs = (np.arange(256, dtype=np.float64),
                            [_Record(i % 200, i) for i in order])
        small, records = self._inputs

        def interpreter():
            x, acc = small, {}
            for i in range(400):
                acc[i & 15] = acc.get(i & 15, 0) + i
                x = np.sqrt(x * 1.0001 + 1.0)

        def scan():
            for rank in range(4):
                [r.value for r in records if r.sender == rank]

        medians = []
        for kernel in (interpreter, scan):
            times = []
            for _ in range(reps):
                start = time.perf_counter_ns()
                kernel()
                times.append(time.perf_counter_ns() - start)
            medians.append(int(statistics.median(times)))
        return medians

    def sample(self) -> None:
        if self._busy:  # an alarm that fired during a sample
            return
        self._busy = True
        start = time.clock_gettime_ns(MONOTONIC)
        self.kernel_medians(1)  # builds the inputs and warms the kernels
        medians = self.kernel_medians(self.SPEED_REPS)
        factor = statistics.fmean(m / n for m, n in zip(medians, self.REF_NOMINAL_NS))
        self.samples.append((start, time.clock_gettime_ns(MONOTONIC), factor))
        self._busy = False

    def net(self, start: int, end: int) -> int:
        """Length of [start, end] less the samples that fall inside it."""
        return end - start - sum(max(0, min(end, b) - max(start, a)) for a, b, _ in self.samples)

    def work(self) -> tuple[int, float]:
        """Work time between the samples, in ns and in reference ns."""
        work = ref = 0
        for (_, end, f0), (start, _, f1) in zip(self.samples, self.samples[1:]):
            work += start - end
            ref += (start - end) / ((f0 + f1) / 2)
        return work, ref


def main(argv: list[str]) -> int:
    report_path, unit_name, trace, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py REPORT UNIT TRACE SPANS -- CLI-ARGS")
    import_start = time.clock_gettime_ns(MONOTONIC)
    import latticefl
    import latticefl.cli
    import_ns = time.clock_gettime_ns(MONOTONIC) - import_start

    tracer = None
    if trace == "1":
        tracer = Tracer(unit_name)
        tracer.install()

    units: list[tuple[int, int]] = []
    reached: list[int] = []
    speed = None if tracer is not None else HostSpeed()
    inner = resolve(unit_name)

    @functools.wraps(inner)
    def marked(*args, **kwargs):
        now = time.clock_gettime_ns(MONOTONIC)
        if not reached:
            reached.append(now)
            if speed is not None:
                speed.start()
        start = time.clock_gettime_ns(MONOTONIC)
        try:
            return inner(*args, **kwargs)
        finally:
            units.append((start, time.clock_gettime_ns(MONOTONIC)))

    if rebind(inner, marked) == 0:
        raise SystemExit(f"unit function {unit_name} is bound nowhere")
    rc = latticefl.cli.main(cli_args)
    end_ns = time.clock_gettime_ns(MONOTONIC)
    main_units = list(units)
    if speed is not None:
        speed.stop()
        work_ns, work_ref_ns = speed.work()
        host_factor = statistics.fmean(f for _, _, f in speed.samples)
        unit_ns = [speed.net(a, b) for a, b in main_units]
    else:  # a traced run: the kernels would land in the spans
        work_ns, work_ref_ns, host_factor = end_ns - main_units[0][0], None, None
        unit_ns = [b - a for a, b in main_units]

    import json
    import resource

    report = {
        "latticefl_file": latticefl.__file__,
        "import_ns": import_ns,
        "unit_ns": unit_ns,
        "end_ns": end_ns,
        "reached_ns": reached[0],
        "work_ns": work_ns,
        "work_ref_ns": work_ref_ns,
        "host_factor": host_factor,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.active = False
        report["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
        if "simulate.run_training" in tracer.captured:
            report["replay"] = replay_unmasked(tracer.captured["simulate.run_training"])
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
