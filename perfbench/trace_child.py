"""Run one mvlmul CLI command with a span around every call into a layer.

Usage::

    PYTHONPATH=src python3 perfbench/trace_child.py OP_ID SPANS_PATH -- ARGS...

It times ``import mvlmul``, wraps the public functions listed below at every
``mvlmul`` module attribute that refers to them (so ``sim.topo_order`` and
``metrics.topo_order`` are both seen), then calls ``mvlmul.cli.main(ARGS)``
and exits with its return code.  Spans stay in memory and are written to
SPANS_PATH after ``main`` returns, as two JSON lines: the run record with
every span, then the time the write finished.

Each span is ``[id, name, start, end, parent, op, note]``, listed in the
order the spans end: times are ``time.perf_counter()`` seconds
(CLOCK_MONOTONIC, comparable with the parent process), ``parent`` is the id
of the enclosing span or -1, and ``note`` holds counts taken from the call's
result, or null.  Spans are stored as tuples of plain values, which the
cyclic garbage collector stops tracking, so the 65,536 oracle spans of an
exhaustive verify add no collector work.

Blind spot: ``verify_random`` worker processes inherit the wrappers but never
write their spans, so work done in workers shows only inside the parent's
``sim.verify_random`` span.
"""

import functools
import importlib
import itertools
import json
import sys
import time


def _net_of(args, kwargs):
    return args[0] if args else kwargs["net"]


def _verify_note(args, kwargs, report):
    return {"gates": len(_net_of(args, kwargs).gates),
            "vectors": report.vectors_tested,
            "mismatches": len(report.mismatches)}


def _gen_note(args, kwargs, net):
    return {"gates": len(net.gates)}


# (home module, function, span name, note taken from args and result)
FUNCTIONS = (
    ("mvlmul.netgen", "gen_multiplier", "netgen.gen_multiplier", _gen_note),
    ("mvlmul.netgen", "build_pp_binary", "netgen.pp", None),
    ("mvlmul.netgen", "build_pp_quaternary", "netgen.pp", None),
    ("mvlmul.netgen", "wallace_stage", "netgen.wallace_stage", None),
    ("mvlmul.netgen", "final_cpa", "netgen.final_cpa", None),
    ("mvlmul.netlist", "validate_netlist", "netlist.validate", None),
    ("mvlmul.netlist", "topo_order", "netlist.topo_order", None),
    ("mvlmul.sim", "verify_exhaustive", "sim.verify_exhaustive", _verify_note),
    ("mvlmul.sim", "verify_random", "sim.verify_random", _verify_note),
    ("mvlmul.sim", "oracle", "sim.oracle", None),
    ("mvlmul.metrics", "compare", "metrics.compare", None),
    ("mvlmul.metrics", "critical_path", "metrics.critical_path", None),
    ("mvlmul.metrics", "area_estimate", "metrics.area_estimate", None),
    ("mvlmul.spice", "export_spice", "spice.export_spice", None),
)

# (home module, class, method, span name)
METHODS = (
    ("mvlmul.netlist", "Netlist", "to_json", "netlist.to_json"),
    ("mvlmul.netlist", "Netlist", "from_json", "netlist.from_json"),
    ("mvlmul.metrics", "ComparisonReport", "to_json", "metrics.render"),
    ("mvlmul.metrics", "ComparisonReport", "to_markdown", "metrics.render"),
    ("mvlmul.metrics", "ComparisonReport", "to_csv", "metrics.render"),
)


class Tracer:
    """Records spans of wrapped calls, nested by a stack of open spans."""

    def __init__(self, op):
        self.op = op
        self.spans = []
        self.stack = []
        self.ids = itertools.count()
        self.missing = []

    def wrap(self, name, fn, note=None):
        spans, stack, op, ids = self.spans, self.stack, self.op, self.ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(ident)
            counts = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    counts = note(args, kwargs, result)
                return result
            finally:
                spans.append((ident, name, start, clock(), parent, op, counts))
                stack.pop()
        return traced

    def install(self):
        """Wrap every listed function at each module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "mvlmul" or n.startswith("mvlmul.")) and m]
        for home, attr, name, note in FUNCTIONS:
            fn = getattr(importlib.import_module(home), attr, None)
            if fn is None:
                self.missing.append(f"{home}.{attr}")
                continue
            traced = self.wrap(name, fn, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        for home, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(home), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                self.missing.append(f"{home}.{cls_name}.{attr}")
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    op, spans_path, cli_args = argv[0], argv[1], argv[3:]
    t_import = time.perf_counter()
    import mvlmul  # noqa: F401
    import mvlmul.cli
    t_imported = time.perf_counter()
    tracer = Tracer(op)
    tracer.install()
    try:
        rc = tracer.wrap("cli.main", mvlmul.cli.main)(cli_args)
    finally:
        t_main_end = time.perf_counter()
        with open(spans_path, "w") as f:
            f.write(json.dumps({
                "op": op, "t_import": t_import, "t_imported": t_imported,
                "t_main_end": t_main_end, "missing": tracer.missing,
                "spans": tracer.spans}))
            f.write("\n" + json.dumps({"t_written": time.perf_counter()})
                    + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
