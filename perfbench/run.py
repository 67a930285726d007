#!/usr/bin/env python3
"""Benchmark of the mvlmul command line, run as a user runs it.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command is a fresh interpreter, ``python -m mvlmul.cli ...`` with
``PYTHONPATH=src``, started one at a time from this process (a closed loop
with one client).  A run first sets the workload up ``SETUP_REPEATS`` times,
then runs passes over the workload's commands for about ``--seconds``.
Commands are timed in slices against a host-speed probe (``Runner._spawn``).
Each command is an op: it passes only if its exit code, its printed result
and the files it writes are the pinned ones, and its output repeats byte for
byte.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs each command of one set-up and one pass twice, untraced
and then through ``perfbench/trace_child.py``, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_CHILD = HERE / "trace_child.py"

SETUP_REPEATS = 3
PROBE_ROUNDS = 15_000
SLICE_S = 1.0
#: converts ref to seconds for setup_s, which must be in seconds: the
#: probe's median time on the 2-CPU host this benchmark was defined on
PROBE_NOMINAL_S = 0.035
HELP_REPEATS = 3
CMD_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0

# -- pinned results at the commit that defined this benchmark ---------------

INVENTORY = {
    (2, 8): ("{AND: 64, BIN_FA: 47, BIN_HA: 16}", 4),
    (4, 4): ("{QFAC2: 21, QFAC2WC: 1, QHA: 5, QM1: 16}", 4),
    (2, 32): ("{AND: 1024, BIN_FA: 959, BIN_HA: 162}", 8),
    (4, 16): ("{QFAC2: 473, QFAC2WC: 1, QHA: 68, QM1: 256}", 8),
    (2, 128): ("{AND: 16384, BIN_FA: 16124, BIN_HA: 1017}", 11),
    (4, 64): ("{QFAC2: 8017, QFAC2WC: 1, QHA: 499, QM1: 4096}", 11),
}
GATES = {(2, 8): 127, (4, 4): 43, (2, 32): 2145, (4, 16): 798,
         (2, 128): 33525, (4, 64): 12613}

#: q4 with gate g00000 (QM1 x0*y0) reading x1 instead of x0
FAULT_GATE, FAULT_FROM, FAULT_TO = "g00000", "x0", "x1"
FAULT_MISMATCHES = 36864

#: ``compare --design 4,64 --design 2,128 --format json``: label ->
#: (area_nm, delay_ps), matched to a relative 1e-9 so that only the
#: rounding of a reordered float sum may differ
COMPARE_JSON = {"radix4 64x64": (2402175.0, 11720.28571428571),
                "radix2 128x128": (680091.599999955, 5304.0000000000255)}
FLOAT_REL_TOL = 1e-9

#: ``compare --preset`` design rows as printed: label -> (gates, area ΣDi
#: nm, worst path ps).  4x4 quit and 8x8 bit are the README references.
COMPARE_PRESET = {
    "1x1 quit": ("QM1:1", "132", "0"),
    "2x2 bit": ("AND:4 BIN_HA:2", "71.6", "41.6"),
    "2x2 quit": ("QFAC2:2 QFAC2WC:1 QHA:2 QM1:4", "1375", "369.143"),
    "4x4 bit": ("AND:16 BIN_FA:8 BIN_HA:4", "470.4", "124.8"),
    "4x4 quit": ("QFAC2:21 QFAC2WC:1 QHA:5 QM1:16", "7521", "646"),
    "8x8 bit": ("AND:64 BIN_FA:47 BIN_HA:16", "2361.6", "312"),
}
PRESET_GATES = 1 + 6 + 9 + 28 + 43 + 127
SPICE_B128_HEADER = "* radix=2 width=128 gates=33525 wires=50922"


# -- ops ---------------------------------------------------------------------

Check = Callable[[str, Path], "str | None"]


@dataclass
class Op:
    """One CLI command and the test its result must pass."""

    name: str
    args: list[str]
    check: Check
    gates: int = 0         # gates in the designs the command handles
    vectors: int = 0       # vectors the command checks
    expect_rc: int = 0
    outputs: tuple[str, ...] = ()  # files written, hashed on every repeat


@dataclass
class Workload:
    name: str
    setup: list  # Ops and callables(work_dir) -> error or None
    ops: list[Op]


@dataclass
class Spawned:
    """One finished command process."""

    t_spawn: float
    t_end: float
    wall_s: float    # time the command ran, pauses excluded
    wall_ref: float  # the same in probe units; 0 when not sampled
    rss_mb: float    # max-RSS of the process and its workers
    rc: int


@dataclass
class Result(Spawned):
    op: str = ""
    phase: str = ""
    error: str | None = None
    gates: int = 0
    vectors: int = 0


def check_generate(radix: int, width: int, out: str | None) -> Check:
    inv, stages = INVENTORY[(radix, width)]
    want = [f"radix-{radix} {width}x{width} multiplier: {inv}",
            f"reduction stages: {stages}"]
    if out:
        want.append(f"wrote {out}")

    def check(stdout, work):
        got = stdout.splitlines()
        return None if got == want else f"printed {got!r}, want {want!r}"
    return check


VERIFY_LINE = re.compile(r"^(\S+) (exhaustive|random): (\d+) vectors, "
                         r"(\d+) mismatches -> (PASS|FAIL)$")


def check_verify(vectors: int, mismatches: int) -> Check:
    def check(stdout, work):
        lines = stdout.splitlines()
        m = VERIFY_LINE.match(lines[0]) if lines else None
        if m is None:
            return f"no verification summary in {lines[:1]!r}"
        got_v, got_m = int(m[3]), int(m[4])
        if got_v != vectors:
            return f"{got_v} vectors tested, want {vectors}"
        if got_m != mismatches:
            return f"{got_m} mismatches, want {mismatches}"
        if (m[5] == "PASS") != (mismatches == 0):
            return f"verdict {m[5]} with {got_m} mismatches"
        return None
    return check


def check_spice(out: str, header: str) -> Check:
    def check(stdout, work):
        if stdout.splitlines() != [f"wrote {out}"]:
            return f"printed {stdout!r}"
        with open(work / out) as f:
            got = [f.readline().rstrip("\n") for _ in range(2)][1]
        return None if got == header else f"deck header {got!r}"
    return check


def check_compare_json(stdout, work):
    try:
        designs = {d["label"]: d for d in json.loads(stdout)["designs"]}
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable comparison JSON: {e}"
    if sorted(designs) != sorted(COMPARE_JSON):
        return f"designs {sorted(designs)}"
    for label, (area, delay) in COMPARE_JSON.items():
        d = designs[label]
        for key, want in (("area_nm", area), ("delay_ps", delay)):
            if abs(d[key] - want) > FLOAT_REL_TOL * abs(want):
                return f"{label} {key} = {d[key]!r}, want {want!r}"
    return None


def check_compare_preset(stdout, work):
    rows = {}
    for line in stdout.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 7 and cells[0] in COMPARE_PRESET:
            rows[cells[0]] = (cells[3], cells[4], cells[5])
    return None if rows == COMPARE_PRESET else \
        f"design rows {rows!r}, want {COMPARE_PRESET!r}"


def check_help(stdout, work):
    return None if stdout.startswith("usage: mvlmul") else "no usage text"


def generate(radix: int, width: int, out: str | None = None) -> Op:
    args = ["generate", "--radix", str(radix), "--width", str(width)]
    if out:
        args += ["--out", out]
    return Op(f"generate-r{radix}w{width}", args,
              check_generate(radix, width, out), gates=GATES[(radix, width)],
              outputs=(out,) if out else ())


def verify(path: str, design: tuple[int, int], vectors: int,
           extra: list[str], mismatches: int = 0, name: str = "") -> Op:
    return Op(name or f"verify-{Path(path).stem}",
              ["verify", path] + extra, check_verify(vectors, mismatches),
              gates=GATES[design], vectors=vectors,
              expect_rc=1 if mismatches else 0)


def exhaustive(path, design, mismatches=0, name=""):
    radix, width = design
    return verify(path, design, radix ** (2 * width),
                  ["--mode", "exhaustive"], mismatches, name)


def random_mode(path, design, count, seed, workers):
    return verify(path, design, count,
                  ["--mode", "random", "--count", str(count),
                   "--seed", str(seed), "--workers", str(workers)])


def make_fault(src: str, dst: str) -> Callable[[Path], "str | None"]:
    """Copy a netlist with one gate input rewired (see FAULT_GATE)."""
    def build(work: Path):
        doc = json.loads((work / src).read_text())
        gate = next((g for g in doc["gates"] if g["id"] == FAULT_GATE), None)
        if gate is None or FAULT_FROM not in gate["inputs"]:
            return f"{src} has no gate {FAULT_GATE} reading {FAULT_FROM}"
        gate["inputs"][gate["inputs"].index(FAULT_FROM)] = FAULT_TO
        (work / dst).write_text(json.dumps(doc, indent=2) + "\n")
        return None
    build.__name__ = f"fault-{Path(dst).stem}"
    return build


def workloads(seed: int) -> dict[str, Workload]:
    """The workloads; only verify-random uses the seed."""
    return {w.name: w for w in (
        Workload("verify-exhaustive",
                 setup=[generate(2, 8, "b8.json"), generate(4, 4, "q4.json"),
                        make_fault("q4.json", "q4_fault.json"),
                        random_mode("q4.json", (4, 4), 1, 1, 1)],
                 ops=[exhaustive("b8.json", (2, 8)),
                      exhaustive("q4.json", (4, 4)),
                      exhaustive("q4_fault.json", (4, 4), FAULT_MISMATCHES,
                                 name="verify-q4-fault")]),
        Workload("verify-random",
                 setup=[generate(2, 32, "b32.json"),
                        generate(4, 16, "q16.json"),
                        random_mode("q16.json", (4, 16), 1, seed, 1)],
                 ops=[random_mode("b32.json", (2, 32), 2000, seed, 2),
                      random_mode("q16.json", (4, 16), 4000, seed, 2)]),
        Workload("build",
                 setup=[generate(4, 4)],
                 ops=[generate(2, 128, "b128.json"),
                      generate(4, 64, "q64.json"),
                      Op("export-spice-b128",
                         ["export-spice", "b128.json", "--out", "b128.sp"],
                         check_spice("b128.sp", SPICE_B128_HEADER),
                         gates=GATES[(2, 128)], outputs=("b128.sp",)),
                      Op("compare-q64-b128",
                         ["compare", "--design", "4,64", "--design", "2,128",
                          "--format", "json"], check_compare_json,
                         gates=GATES[(4, 64)] + GATES[(2, 128)]),
                      Op("compare-preset", ["compare", "--preset"],
                         check_compare_preset, gates=PRESET_GATES)]),
    )}


# -- running commands ------------------------------------------------------

def _adder(a, b):
    return (a + b) & 3, (a + b) >> 2


def probe() -> float:
    """Wall time of a fixed pure-Python task: the host-speed reference.

    Half of it mimics the simulator's inner loop (gather inputs, call a
    cell function, range-check and store its outputs), half the dict and
    string work of generating and serializing netlists.  The state stays
    small because a child's max-RSS counts this process's peak RSS, which
    the child shares until it execs.
    """
    t0 = time.perf_counter()
    values = [0] * 64
    for k in range(PROBE_ROUNDS):
        ins = (k & 63, (k * 5 + 1) & 63)
        for o, v in zip((k * 7 & 63, k * 11 & 63),
                        _adder(*(values[i] for i in ins))):
            if not 0 <= v <= 3:
                raise AssertionError(v)
            values[o] = v + (k & 1)
    table = {}
    for k in range(PROBE_ROUNDS):
        table[f"n{k & 4095:05d}"] = k
    return time.perf_counter() - t0


def probe_cpus(cpus: set[int]) -> float:
    """Mean probe time over each CPU this process may run on."""
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.append(probe())
    os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Starts one command at a time, checks it, and keeps its accounting."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("MVL_DEFAULT_LIBS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.hashes: dict[tuple[tuple, str], str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cpus = os.sched_getaffinity(0)
        self.last_probe: float | None = None
        self.probes: list[float] = []

    def _spawn(self, argv: list[str], tag: str, sample: bool) -> Spawned:
        """Run argv to completion in its own process group.

        With ``sample``, the command runs in slices of ``SLICE_S``.  Between
        slices its process group is stopped while the probe runs on each
        CPU, and each slice's time is divided by the mean of the probes
        around it.  This host's speed drifts by up to 2x within a minute,
        the same for wall and CPU time, so only a reference taken this
        close to the work cancels the drift (see README).
        """
        limit = min(CMD_TIMEOUT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            raise TimeoutError("run deadline passed")
        before = (self.last_probe or probe_cpus(self.cpus)) if sample else 0
        wall = ref = 0.0
        with open(self.work / f"{tag}.out", "wb") as out, \
                open(self.work / f"{tag}.err", "wb") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err,
                                    start_new_session=True)
            pidfd = os.pidfd_open(proc.pid)
            status = None
            try:
                while True:
                    t0 = time.perf_counter()
                    left = max(0.0, t_spawn + limit - t0)
                    ended = select.select([pidfd], [], [], min(left, SLICE_S)
                                          if sample else left)[0]
                    t1 = time.perf_counter()
                    wall += t1 - t0
                    if not ended and t1 - t_spawn >= limit:
                        os.killpg(proc.pid, signal.SIGKILL)
                        break
                    if not ended:
                        os.killpg(proc.pid, signal.SIGSTOP)
                        info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED
                                         | os.WEXITED | os.WNOWAIT)
                        ended = info.si_code != os.CLD_STOPPED
                    if sample:
                        after = probe_cpus(self.cpus)
                        self.probes.append(after)
                        ref += (t1 - t0) / ((before + after) / 2)
                        before = after
                    if ended:
                        break
                    os.killpg(proc.pid, signal.SIGCONT)
                # per-process rusage: RUSAGE_CHILDREN would be a running max
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
                if status is None:  # interrupted: leave nothing running
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
                    os.waitpid(proc.pid, 0)
                    proc.returncode = -signal.SIGKILL
            t_end = time.perf_counter()
        if sample:
            self.last_probe = before
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Spawned(t_spawn, t_end, wall, ref, usage.ru_maxrss / 1024,
                       proc.returncode)

    def _repeats(self, op: Op, label: str, digest: str) -> str | None:
        first = self.hashes.setdefault((tuple(op.args), label), digest)
        return None if first == digest else f"{label} differs from an " \
                                            "earlier repeat"

    def run(self, op: Op, phase: str, trace_path: Path | None = None,
            sample: bool = False) -> Result:
        """Run one op, untraced or through the tracing child."""
        tag = f"{phase}.{op.name}"
        if trace_path is None:
            argv = [sys.executable, "-m", "mvlmul.cli"] + op.args
        else:
            argv = [sys.executable, str(TRACE_CHILD), tag, str(trace_path),
                    "--"] + op.args
        self.attempted += 1
        proc = self._spawn(argv, tag, sample)
        stdout = (self.work / f"{tag}.out").read_text(errors="replace")
        error = None
        if proc.rc != op.expect_rc:
            stderr = (self.work / f"{tag}.err").read_text(errors="replace")
            error = f"exit code {proc.rc}, want {op.expect_rc}"
            if stderr.strip():
                error += f": {stderr.strip()[-300:]}"
        if error is None:
            try:
                error = op.check(stdout, self.work)
            except (OSError, ValueError, IndexError) as e:
                error = f"check failed: {e}"
        if error is None:
            error = self._repeats(op, "stdout", hashlib.sha256(
                stdout.encode()).hexdigest())
        for out in op.outputs:
            if error is None:
                error = self._repeats(op, out, _sha256(self.work / out))
        self._record(tag, error)
        return Result(**vars(proc), op=op.name, phase=phase, error=error,
                      gates=op.gates, vectors=op.vectors)

    def step(self, fn, phase: str) -> None:
        """Run a set-up step done in this process."""
        self.attempted += 1
        try:
            error = fn(self.work)
        except (OSError, ValueError, KeyError) as e:
            error = str(e)
        self._record(f"{phase}.{fn.__name__}", error)

    def _record(self, tag: str, error: str | None) -> None:
        if error is not None:
            self.failed += 1
            self.errors.append(f"{tag}: {error}")
            print(f"FAILED {tag}: {error}", file=sys.stderr)

    def setup(self, wl: Workload, phase: str) -> tuple[float, float]:
        """Run the workload's set-up once; returns its time in s and ref.

        Like the passes, the set-up is timed against the probe; the
        probes themselves are not counted.
        """
        wall = ref = 0.0
        for step in wl.setup:
            if isinstance(step, Op):
                r = self.run(step, phase, sample=True)
                wall, ref = wall + r.wall_s, ref + r.wall_ref
            else:
                t0 = time.perf_counter()
                self.step(step, phase)
                t = time.perf_counter() - t0
                wall, ref = wall + t, ref + t / self.last_probe
        return wall, ref

    def passes(self, wl: Workload, seconds: float) -> list[Result]:
        """Run whole passes while the next one should end within seconds."""
        results: list[Result] = []
        t0 = time.perf_counter()
        last = 0.0
        n = 0
        while n == 0 or time.perf_counter() - t0 + last <= seconds:
            start = time.perf_counter()
            results += [self.run(op, f"pass{n}", sample=True)
                        for op in wl.ops]
            last = time.perf_counter() - start
            n += 1
        return results


# -- metrics ---------------------------------------------------------------

def end_to_end(setups: list[tuple[float, float]], results: list[Result],
               probes: list[float]) -> dict:
    """Every end-to-end metric: name -> (value, unit, samples)."""
    n = f"{len(results)} commands"
    k = f"median of {len(setups)} set-ups"
    m = {"setup_s": (statistics.median(r for _, r in setups)
                     * PROBE_NOMINAL_S, "s", f"{k}, at nominal probe speed"),
         "setup_wall_s": (statistics.median(w for w, _ in setups), "s", k)}
    for suffix, unit, cost in (("s", "s", lambda r: r.wall_s),
                               ("ref", "ref", lambda r: r.wall_ref)):
        m[f"cmd_{suffix}.p50"] = (statistics.median(map(cost, results)),
                                  unit, f"median of {n}")
        by_op: dict[str, list[float]] = {}
        for r in results:
            by_op.setdefault(r.op, []).append(cost(r))
        m[f"cmd_{suffix}.gmean"] = (
            statistics.geometric_mean(map(statistics.median,
                                          by_op.values())),
            unit, f"geometric mean over {len(by_op)} commands of each "
            "one's median")
        m[f"gates_per_{suffix}"] = (
            sum(r.gates for r in results) / sum(map(cost, results)),
            f"gates/{unit}", n)
        verify = [r for r in results if r.vectors]
        if verify:
            m[f"vectors_per_{suffix}"] = (
                sum(r.vectors for r in verify) / sum(map(cost, verify)),
                f"vectors/{unit}", f"{len(verify)} verify commands")
    m["peak_rss_mb"] = (max(r.rss_mb for r in results), "MiB", f"max of {n}")
    m["probe_s"] = (statistics.median(probes), "s",
                    f"median of {len(probes)} probes")
    return m


#: per-layer metrics from span totals: metric -> (span names, which total)
SPAN_TOTALS = {
    "sim.verify_s": (("sim.verify_exhaustive", "sim.verify_random"), "dur"),
    "sim.verify_self_s": (("sim.verify_exhaustive", "sim.verify_random"),
                          "self"),
    "sim.oracle_s": (("sim.oracle",), "dur"),
    "sim.oracle.calls": (("sim.oracle",), "calls"),
    "netgen.gen_s": (("netgen.gen_multiplier",), "dur"),
    "netgen.gen_self_s": (("netgen.gen_multiplier",), "self"),
    "netgen.pp_s": (("netgen.pp",), "dur"),
    "netgen.wallace_stage_s": (("netgen.wallace_stage",), "dur"),
    "netgen.wallace_stage.calls": (("netgen.wallace_stage",), "calls"),
    "netgen.final_cpa_s": (("netgen.final_cpa",), "dur"),
    "netlist.to_json_s": (("netlist.to_json",), "dur"),
    "netlist.from_json_s": (("netlist.from_json",), "dur"),
    "netlist.from_json.calls": (("netlist.from_json",), "calls"),
    "netlist.validate_s": (("netlist.validate",), "dur"),
    "netlist.topo_order_s": (("netlist.topo_order",), "dur"),
    "netlist.topo_order.calls": (("netlist.topo_order",), "calls"),
    "metrics.compare_s": (("metrics.compare",), "dur"),
    "metrics.critical_path_s": (("metrics.critical_path",), "dur"),
    "metrics.critical_path.calls": (("metrics.critical_path",), "calls"),
    "metrics.area_s": (("metrics.area_estimate",), "dur"),
    "metrics.render_s": (("metrics.render",), "dur"),
    "spice.export_s": (("spice.export_spice",), "dur"),
    "cli.main_self_s": (("cli.main",), "self"),
}


def read_trace(path: Path) -> tuple[dict, float]:
    with open(path) as f:
        record = json.loads(f.readline())
        t_written = json.loads(f.readline())["t_written"]
    return record, t_written


def layer_metrics(pairs: list[tuple[Result, Result, Path]],
                  help_walls: list[float]) -> tuple[dict, list[tuple]]:
    """Per-layer metrics plus a per-command accounting table.

    ``pairs`` holds each command's untraced result, traced result and span
    file.  Span times are totals over all traced commands.
    """
    totals: dict[tuple[str, str], float] = {}
    notes = {"gates": 0, "vectors": 0, "mismatches": 0, "gen_gates": 0}
    imports, process, table = [], [], []
    missing: set[str] = set()
    n_spans = 0
    for base, r, spans_path in pairs:
        record, t_written = read_trace(spans_path)
        spans = record["spans"]
        n_spans += len(spans)
        missing.update(record["missing"])
        child: dict[int, float] = {}
        for _, _, start, end, parent, _, _ in spans:
            child[parent] = child.get(parent, 0.0) + end - start
        for ident, name, start, end, parent, _, note in spans:
            for what, v in (("dur", end - start),
                            ("self", end - start - child.get(ident, 0.0)),
                            ("calls", 1)):
                totals[(name, what)] = totals.get((name, what), 0) + v
            if note and name.startswith("sim.verify"):
                notes["vectors"] += note["vectors"]
                notes["mismatches"] += note["mismatches"]
                notes["gates"] += note["gates"] * note["vectors"]
            elif note and name == "netgen.gen_multiplier":
                notes["gen_gates"] += note["gates"]
        main = child.get(-1, 0.0)
        import_s = record["t_imported"] - record["t_import"]
        # process start (exec, interpreter, the tracing child's imports) and
        # interpreter exit: the time no span or import timer covers
        proc_s = (record["t_import"] - r.t_spawn) + (r.t_end - t_written)
        imports.append(import_s)
        process.append(proc_s)
        write_s = t_written - record["t_main_end"]
        table.append((f"{base.phase}.{r.op}", base.wall_s, r.wall_s,
                      proc_s, import_s, main, write_s,
                      base.wall_s - (proc_s + import_s + main)))
    m = {}
    for metric, (span_names, what) in SPAN_TOTALS.items():
        m[metric] = sum(totals.get((s, what), 0) for s in span_names)
    gate_evals = notes["gates"]
    m.update({
        "cli.startup_s": statistics.median(help_walls),
        "cli.import_s": statistics.median(imports),
        "cli.process_s": statistics.median(process),
        "sim.vectors": notes["vectors"],
        "sim.gate_evals": gate_evals,
        "sim.ns_per_gate_eval": (m["sim.verify_s"] / gate_evals * 1e9
                                 if gate_evals else 0.0),
        "sim.mismatches": notes["mismatches"],
        "sim.verify_peak_rss_mb": max((base.rss_mb for base, _, _ in pairs
                                       if base.vectors), default=0.0),
        "netgen.gates": notes["gen_gates"],
        "trace.overhead_s": sum(t[2] - t[1] for t in table),
        "trace.unaccounted_s": sum(t[7] for t in table),
        "trace.spans": n_spans,
    })
    if missing:
        print(f"# not traced, no longer in mvlmul: {sorted(missing)}")
    return m, table


# -- environment and output ------------------------------------------------

def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() if commit.returncode == 0 else \
            "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    src = hashlib.sha256()
    for path in sorted((SRC / "mvlmul").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "mvlmul_from": "src/ via PYTHONPATH (not installed)",
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_result(runner: Runner, metrics: dict) -> None:
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))


def declared(kind: str) -> dict[str, str]:
    """The BENCHMARK.json metrics of one kind: name -> unit, in order."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run_plain(wl: Workload, runner: Runner, seconds: float) -> dict:
    setups = [runner.setup(wl, f"setup{k}") for k in range(SETUP_REPEATS)]
    t0 = time.perf_counter()
    results = runner.passes(wl, seconds)
    elapsed = time.perf_counter() - t0
    m = end_to_end(setups, results, runner.probes)
    passes = len({r.phase for r in results})
    print(f"# {passes} pass(es) of {len(wl.ops)} commands in "
          f"{elapsed:.2f} s after {len(setups)} set-ups")
    print(f"# {'command':28} {'wall_s':>9} {'wall_ref':>9} {'rss_mb':>8} rc")
    for r in results:
        print(f"#   {r.phase + '.' + r.op:26} {r.wall_s:9.4f} "
              f"{r.wall_ref:9.3f} {r.rss_mb:8.1f} {r.rc}")
    print("# end-to-end metrics (untraced; *_ref: wall time in multiples of "
          "the probe time):")
    attempted = runner.attempted
    rows = list(m.items()) + [("fail_ratio", (
        runner.failed / attempted, "ratio",
        f"{runner.failed} of {attempted} ops failed"))]
    for name, (value, unit, samples) in rows:
        print(f"#   {name:15} {_fmt(value):>12} {unit:11} {samples}")
    return {name: m[name][:2] for name in declared("end_to_end")}


def run_traced(wl: Workload, runner: Runner) -> dict:
    help_op = Op("help", ["--help"], check_help)
    help_walls = [runner.run(help_op, f"help{k}").wall_s
                  for k in range(HELP_REPEATS)]
    # each command runs untraced and then traced, back to back, so that a
    # drift in machine speed hardly enters their difference
    pairs = []
    for phase, steps in (("setup", wl.setup), ("pass0", wl.ops)):
        for step in steps:
            if not isinstance(step, Op):
                runner.step(step, phase)
                continue
            spans = runner.work / f"{phase}.{step.name}.spans"
            pairs.append((runner.run(step, phase),
                          runner.run(step, f"traced-{phase}", spans), spans))
    m, table = layer_metrics(pairs, help_walls)
    print("# accounting per command (s): untraced = process + import + "
          "top-level spans + unacct; overhead = traced - untraced; write = "
          "writing the spans; gap = traced - process - import - spans - "
          "write")
    print(f"# {'command':28} {'untraced':>9} {'traced':>9} {'process':>8} "
          f"{'import':>8} {'spans':>9} {'write':>7} {'gap':>7} "
          f"{'unacct':>8} {'overhd':>8}")
    for tag, plain, trace, proc_s, import_s, main, write_s, rest in table:
        gap = trace - proc_s - import_s - main - write_s
        print(f"#   {tag:26} {plain:9.4f} {trace:9.4f} {proc_s:8.4f} "
              f"{import_s:8.4f} {main:9.4f} {write_s:7.4f} {gap:7.4f} "
              f"{rest:8.4f} {trace - plain:8.4f}")
    within = sum(abs(t[7]) <= abs(t[2] - t[1]) for t in table)
    print(f"# {within} of {len(table)} commands: |unacct| <= |overhead|; "
          "the rest is run-to-run noise between the two runs")
    print("# blind spot: verify --workers N runs vectors in worker "
          "processes; their work shows only inside sim.verify_s")
    units = declared("per_layer")
    print("# per-layer metrics (traced; times total over one set-up and one "
          "pass, cli.*_s per-command medians):")
    for name, value in m.items():
        print(f"#   {name:28} {_fmt(value):>14} {units.get(name, '?')}")
    return {name: (m[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-exhaustive", "verify-random", "build"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "mvlmul" / "cli.py").is_file():
        print(f"error: no mvlmul sources at {SRC / 'mvlmul'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # a terminated run still stops and reaps its command (see Runner._spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    wl = workloads(args.seed)[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    work = WORK / wl.name
    work.mkdir(parents=True)
    runner = Runner(work, deadline)
    print(f"# perfbench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(environment())}")
    try:
        if args.trace:
            metrics = run_traced(wl, runner)
        else:
            metrics = run_plain(wl, runner, args.seconds)
    except TimeoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print_result(runner, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
