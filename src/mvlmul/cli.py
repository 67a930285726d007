"""Command-line front end.

Commands: ``generate``, ``verify``, ``compare``, ``export-spice``.

Exit codes: 0 success, 1 verification found mismatches, 2 usage or
configuration error, 3 I/O error.  ``MVL_DEFAULT_LIBS`` may point at a
directory containing ``cost.json`` / ``timing-<preset>.json`` files that
replace the built-in libraries.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: the bundled head-to-head comparison, as groups of (label, radix,
#: width): equal-information designs side by side (an N-quit operand
#: carries the bits of a 2N-bit one).
COMPARE_PRESET = tuple(((f"{n}x{n} quit", 4, n),
                        (f"{2 * n}x{2 * n} bit", 2, 2 * n)) for n in (1, 2, 4))
DEFAULT_TIMING = {2: "binary-0.9v", 4: "quaternary-0.9v"}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:  # as UTF-8, JSON's encoding
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_IO) from None
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8: {e}", EXIT_USAGE) from None


def _write_text(path: str, pieces) -> None:
    """Write the strings of the iterable ``pieces`` to ``path``, in turn."""
    try:
        with open(path, "w") as f:
            f.writelines(pieces)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}", EXIT_IO) from None


def _on_netlist(path: str, run):
    """``run(net)`` for the netlist at ``path``.  ``run`` walks it first,
    and a fault of that walk is a usage error that names the first eight
    violations: the walk is the command's validation."""
    from .netlist import Netlist, NetlistError
    try:  # from_json holds the only reference to the text, and drops it
        net = Netlist.from_json(_read_text(path))
    except NetlistError as e:
        raise CliError(f"{path}: {e}", EXIT_USAGE) from None
    try:
        return run(net)
    except NetlistError as e:
        msgs = "; ".join(map(str, e.violations[:8]))
    raise CliError(f"{path}: invalid netlist: {msgs}", EXIT_USAGE)


def _cost_library(path: str | None):
    from .metrics import CostLibrary, default_cost_library
    if path:
        return CostLibrary.from_json(_read_text(path))
    env = os.environ.get("MVL_DEFAULT_LIBS")
    if env:
        cand = Path(env) / "cost.json"
        if cand.exists():
            return CostLibrary.from_json(_read_text(str(cand)))
    return default_cost_library()


def _timing_library(spec: str):
    from .metrics import TIMING_PRESETS, TimingLibrary, timing_preset
    env = os.environ.get("MVL_DEFAULT_LIBS")
    if env:
        cand = Path(env) / f"timing-{spec}.json"
        if cand.exists():
            return TimingLibrary.from_json(_read_text(str(cand)))
    if spec in TIMING_PRESETS:
        return timing_preset(spec)
    if Path(spec).exists():
        return TimingLibrary.from_json(_read_text(spec))
    raise CliError(f"unknown timing library {spec!r} "
                   f"(presets: {', '.join(TIMING_PRESETS)})", EXIT_USAGE)


def _digit_str(digits) -> str:
    return "".join(str(d) for d in reversed(list(digits)))


# ---------------------------------------------------------------------------
# commands: each imports only the modules it runs
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    from .netgen import NetgenError, gen_multiplier
    try:
        net = gen_multiplier(args.radix, args.width)
    except NetgenError as e:
        raise CliError(str(e), EXIT_USAGE) from None
    inv = ", ".join(f"{k}: {v}" for k, v in net.inventory().items())
    print(f"radix-{args.radix} {args.width}x{args.width} multiplier: "
          f"{{{inv}}}")
    print(f"reduction stages: {net.stats.get('stages')}")
    if args.out:
        _write_text(args.out, net.json_pieces())
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .sim import (DEFAULT_EXHAUSTIVE_CAP, VerificationSpaceError,
                      verify_exhaustive, verify_random)
    for flag, value in (("--show", args.show), ("--cap", args.cap)):
        if value is not None and value < 0:
            raise CliError(f"{flag} must be >= 0, got {value}", EXIT_USAGE)
    cap = DEFAULT_EXHAUSTIVE_CAP if args.cap is None else args.cap

    def run(net):  # each walks the netlist before any other check
        if args.mode == "exhaustive":
            return verify_exhaustive(net, cap=cap, keep=args.show)
        return verify_random(net, args.count, args.seed, keep=args.show)
    try:
        report = _on_netlist(args.netlist, run)
    except VerificationSpaceError as e:
        raise CliError(f"{e} (rerun with --mode random --count N)",
                       EXIT_USAGE) from None
    except ValueError as e:    # a bad --count
        raise CliError(str(e), EXIT_USAGE) from None
    if args.out:
        _write_text(args.out, [report.to_json()])
    status = "PASS" if report.passed else "FAIL"
    print(f"{report.design} {report.mode}: {report.vectors_tested} vectors, "
          f"{report.mismatch_count} mismatches -> {status}")
    for m in report.mismatches:
        print(f"  x={_digit_str(m['x'])} y={_digit_str(m['y'])} "
              f"expected={_digit_str(m['expected'])} "
              f"got={_digit_str(m['got'])}")
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _parse_design(spec: str) -> tuple[str, int, int]:
    try:
        radix, width = (int(v) for v in spec.split(","))
    except ValueError:
        raise CliError(f"bad --design {spec!r}, expected radix,width",
                       EXIT_USAGE) from None
    return f"radix{radix} {width}x{width}", radix, width


def cmd_compare(args) -> int:
    from .metrics import LibraryError, compare
    from .netgen import NetgenError, gen_multiplier
    try:
        cost = _cost_library(args.cost_lib)
        if not args.preset and len(args.design or ()) < 2:
            raise CliError("need --preset or at least two "
                           "--design radix,width", EXIT_USAGE)
        # --design parses lazily: errors surface in command-line order.
        # compare prices each design as it is generated, so one netlist
        # is held at a time
        groups = (COMPARE_PRESET if args.preset
                  else [map(_parse_design, args.design)])
        reports = [compare((label, gen_multiplier(radix, width), cost,
                            _timing_library(args.timing_lib
                                            or DEFAULT_TIMING[radix]))
                           for label, radix, width in group)
                   for group in groups]
    except (LibraryError, NetgenError) as e:
        raise CliError(str(e), EXIT_USAGE) from None
    if args.format == "json":
        docs = [r.to_dict() for r in reports]
        text = json.dumps(docs if args.preset else docs[0], indent=2) + "\n"
    else:
        text = "\n".join(r.to_markdown() if args.format == "md"
                         else r.to_csv() for r in reports)
    if args.out:
        _write_text(args.out, [text])
    else:
        print(text)
    return EXIT_OK


def cmd_export_spice(args) -> int:
    from .netlist import walk
    from .spice import deck_pieces

    def write(net):  # export_spice, with the deck written in pieces
        walk(net)
        if args.out:
            _write_text(args.out, deck_pieces(net))
            print(f"wrote {args.out}")
        else:
            sys.stdout.writelines(deck_pieces(net))
    _on_netlist(args.netlist, write)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mvlmul",
        description="Generate, verify and compare gate-level binary and "
                    "quaternary Wallace-tree multipliers.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a multiplier netlist")
    g.add_argument("--radix", type=int, required=True, choices=(2, 4))
    g.add_argument("--width", type=int, required=True,
                   help="operand width in digits")
    g.add_argument("--out", help="write netlist JSON here")
    g.set_defaults(fn=cmd_generate)

    v = sub.add_parser("verify", help="verify a netlist against integer "
                                      "multiplication")
    v.add_argument("netlist", help="netlist JSON file")
    v.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive")
    v.add_argument("--count", type=int, default=10000,
                   help="random vectors to run")
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: verification runs in one "
                        "process")
    v.add_argument("--cap", type=int, help="max exhaustive vectors")
    v.add_argument("--show", type=int, default=10,
                   help="mismatches to print/serialize")
    v.add_argument("--out", help="write a JSON report here")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("compare", help="compare generated designs")
    designs = c.add_mutually_exclusive_group()
    designs.add_argument("--preset", action="store_true",
                         help="run the bundled equal-information "
                              "head-to-heads")
    designs.add_argument("--design", action="append", metavar="RADIX,WIDTH",
                         help="add a design (repeatable)")
    c.add_argument("--cost-lib", help="cost library JSON")
    c.add_argument("--timing-lib",
                   help="timing preset name or JSON file")
    c.add_argument("--format", choices=("md", "csv", "json"), default="md")
    c.add_argument("--out", help="write the output to this file, "
                                 "overwriting it, instead of stdout")
    c.set_defaults(fn=cmd_compare)

    e = sub.add_parser("export-spice", help="write a structural SPICE-style "
                                            "deck")
    e.add_argument("netlist", help="netlist JSON file")
    e.add_argument("--out", help="deck file (stdout if omitted)")
    e.set_defaults(fn=cmd_export_spice)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    # no netlist record forms a cycle, so during a command the cyclic GC
    # would only rescan the parsed document and the netlist, many times
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            # argparse already printed a message; normalize its exit code
            code = EXIT_USAGE if e.code not in (0, None) else EXIT_OK
        else:
            code = args.fn(args)
        sys.stdout.flush()  # a closed stdout pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send the interpreter's exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> None:
    """The ``mvlmul`` command: :func:`main`, then exit with its code."""
    code = main()
    gc.freeze()  # what is left lives to the exit: its collections skip it
    sys.exit(code)


if __name__ == "__main__":
    run()
