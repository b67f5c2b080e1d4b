"""One benchmark operation: a `rydsag simulate` process with timestamps.

Run as ``python3 perfbench/op.py simulate <config> --output-dir D --seed S``.
It does what the ``rydsag`` console script does (import ``rydsag.cli`` and
call ``main``) and writes a small JSON record to the file named by the
``PERFBENCH_RECORD`` environment variable after ``main`` returns:

- ``validated``: CLOCK_MONOTONIC time at which ``load_config`` returned,
  which ends set-up (interpreter start, imports, config validation);
- ``returned``: CLOCK_MONOTONIC time at which ``main`` returned;
- ``import_s`` and ``modules``: the time taken by ``import rydsag.cli`` and
  the size of ``sys.modules`` after it;
- ``peak_rss_kb``: the peak resident set of the process.

With ``PERFBENCH_TRACE=1`` it also wraps every public rydsag function at
each binding where another module looks it up (for example
``rydsag.cli.susceptibility_spectrum``), and every callback one layer
hands to another, and records one span per call.  Calls inside a module
get no span, which keeps the tracing cost small.  Only public names are
wrapped, found by scanning module namespaces, so the program can rename
or delete private helpers without breaking the trace.
"""

import os
import sys
import time
import types

clock = time.monotonic


def layer_of(function):
    """'rydsag.eit_medium' -> 'eit_medium'; None outside the package."""
    module = getattr(function, "__module__", None) or ""
    if module.startswith("rydsag."):
        return module.split(".", 1)[1]
    return None


class Tracer:
    """Spans and work counts of one process, kept in memory."""

    def __init__(self, simulation_error):
        self.simulation_error = simulation_error
        self.spans = []  # [layer, function, start, end, parent index]
        self.stack = []
        self.failed = {}
        self.counts = {}
        self.emitted = []

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, function, layer):
        tracer = self

        def traced(*args, **kwargs):
            if any(type(a) is types.FunctionType for a in args):
                args = tuple(tracer.wrap_callback(a, layer) for a in args)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append([layer, function.__name__, clock(), None, parent])
            tracer.stack.append(index)
            try:
                result = function(*args, **kwargs)
            except tracer.simulation_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.failed[layer] = tracer.failed.get(layer, 0) + 1
                raise
            finally:
                tracer.spans[index][3] = clock()
                tracer.stack.pop()
            tracer.count(layer, function.__name__, args, result)
            return result

        traced.__name__ = function.__name__
        traced.__module__ = function.__module__
        return traced

    def wrap_callback(self, value, callee_layer):
        layer = layer_of(value) if type(value) is types.FunctionType else None
        if layer is None or layer == callee_layer:
            return value
        return self.wrap(value, layer)

    def count(self, layer, name, args, result):
        """Work counts read at the layer boundary from arguments and results."""
        if name == "susceptibility_spectrum":
            self.add("eit_medium.points", len(result))
            if getattr(args[0], "doppler_enabled", False):
                self.add("eit_medium.doppler_points", len(result))
        elif layer == "detector_chain" and hasattr(result, "samples"):
            self.add("detector_chain.samples", int(result.samples.size))
            self.add("heterodyne.records", 1)
        elif name == "psd":
            self.add("detector_chain.psd_calls", 1)
        elif layer == "stabilization" and hasattr(getattr(result, "ts", None), "samples"):
            self.add("stabilization.loop_samples", int(result.ts.samples.size))
        elif layer == "weak_pointer":
            sizes = [getattr(a, "size", 1) for a in args]
            self.add("weak_pointer.elements", int(max(sizes, default=1)))
        elif layer == "emit" and args and isinstance(args[0], str):
            self.emitted.append([name, args[0]])


def install(tracer):
    """Wrap public functions at every cross-module binding inside rydsag."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("rydsag."):
            continue
        for attr, value in list(vars(module).items()):
            if not isinstance(value, types.FunctionType):
                continue
            layer = layer_of(value)
            if (
                layer is None
                or value.__module__ == module_name
                or value.__name__.startswith("_")
            ):
                continue
            setattr(module, attr, tracer.wrap(value, layer))


def peak_rss_kb():
    """Peak resident set of this process since its exec, in KiB.

    getrusage and wait4 report the larger of that and the resident set of
    the parent at fork time, which Linux carries across exec, so a large
    run.py process would inflate every op; VmHWM of the exec'd image is
    not inherited."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    record_path = os.environ["PERFBENCH_RECORD"]
    traced = os.environ.get("PERFBENCH_TRACE") == "1"
    started = clock()
    import rydsag.cli as cli

    import_s = clock() - started
    modules = len(sys.modules)
    expected = os.path.join(os.environ["PERFBENCH_SRC"], "rydsag", "cli.py")
    if os.path.realpath(cli.__file__) != os.path.realpath(expected):
        sys.stderr.write(f"perfbench: imported {cli.__file__}, expected {expected}\n")
        return 3

    stamps = {}
    tracer = None
    if traced:
        from rydsag.errors import SimulationError

        tracer = Tracer(SimulationError)
        install(tracer)
    load_config = cli.load_config
    if tracer is not None:
        load_config = tracer.wrap(load_config, "cli")

    def timed_load_config(*args, **kwargs):
        config = load_config(*args, **kwargs)
        stamps["validated"] = clock()
        return config

    cli.load_config = timed_load_config
    try:
        status = cli.main(sys.argv[1:])
    finally:
        stamps["returned"] = clock()
        import json

        record = {
            "import_s": import_s,
            "modules": modules,
            "peak_rss_kb": peak_rss_kb(),
            **stamps,
        }
        if tracer is not None:
            record.update(
                spans=tracer.spans,
                failed=tracer.failed,
                counts=tracer.counts,
                emitted=tracer.emitted,
            )
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
