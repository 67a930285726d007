"""Command-line behavior: exit codes, files, round trips."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from conftest import EVERY_VIOLATION, FIRST_FAULTS, scaled_timing, with_gate
from mvlmul import cli, netlist
from mvlmul.cli import main
from mvlmul.metrics import TimingLibrary, default_cost_library, timing_preset
from mvlmul.netlist import (GateInstance, Netlist, NetlistError,
                            validate_netlist)
from mvlmul.spice import export_spice


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_prints_inventory_and_writes(tmp_path, capsys):
    out = tmp_path / "b8.json"
    code, stdout, _ = run(["generate", "--radix", "2", "--width", "8",
                           "--out", str(out)], capsys)
    assert code == 0
    assert "AND: 64" in stdout and "BIN_FA: 47" in stdout \
        and "BIN_HA: 16" in stdout
    net = Netlist.from_json(out.read_text())
    assert validate_netlist(net) == []


def test_generate_round_trip_inventory(tmp_path, capsys):
    out = tmp_path / "q4.json"
    code, _, _ = run(["generate", "--radix", "4", "--width", "4",
                      "--out", str(out)], capsys)
    assert code == 0
    from mvlmul import gen_multiplier
    assert Netlist.from_json(out.read_text()).inventory() == \
        gen_multiplier(4, 4).inventory()


def test_generate_out_writes_to_json(tmp_path, capsys, all_designs):
    # the file is written in pieces, never as one string
    for (radix, width), net in all_designs.items():
        out = tmp_path / f"r{radix}w{width}.json"
        code, stdout, _ = run(["generate", "--radix", str(radix), "--width",
                               str(width), "--out", str(out)], capsys)
        assert code == 0 and stdout.endswith(f"wrote {out}\n")
        assert out.read_text() == net.to_json()


def test_generate_write_failure_is_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "x.json"
    code, stdout, err = run(["generate", "--radix", "2", "--width", "2",
                             "--out", str(out)], capsys)
    assert code == 3 and "wrote" not in stdout
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1 and not out.parent.exists()


def test_generate_rejects_bad_radix(capsys):
    code, _, _ = run(["generate", "--radix", "3", "--width", "2"], capsys)
    assert code == 2


def test_verify_pass_and_reference_vector(tmp_path, capsys):
    nl = tmp_path / "q2.json"
    run(["generate", "--radix", "4", "--width", "2", "--out", str(nl)],
        capsys)
    rep = tmp_path / "report.json"
    code, stdout, _ = run(["verify", str(nl), "--mode", "exhaustive",
                           "--out", str(rep)], capsys)
    assert code == 0
    assert "256 vectors" in stdout and "PASS" in stdout
    doc = json.loads(rep.read_text())
    assert doc["passed"] is True and doc["vectors_tested"] == 256


def test_verify_detects_corruption(tmp_path, capsys):
    nl = tmp_path / "b4.json"
    run(["generate", "--radix", "2", "--width", "4", "--out", str(nl)],
        capsys)
    doc = json.loads(nl.read_text())
    # cross two partial-product inputs: output stays structurally valid
    g0 = next(g for g in doc["gates"] if g["kind"] == "AND"
              and g["inputs"] == ["x0", "y0"])
    g1 = next(g for g in doc["gates"] if g["kind"] == "AND"
              and g["inputs"] == ["x1", "y1"])
    g0["inputs"], g1["inputs"] = ["x0", "y1"], ["x1", "y0"]
    nl.write_text(json.dumps(doc))
    code, stdout, _ = run(["verify", str(nl)], capsys)
    assert code == 1
    assert "FAIL" in stdout and "expected=" in stdout


def test_verify_one_fault_q4_lists_the_first_mismatches(tmp_path, capsys):
    # the benchmark's one-fault q4, gate g00000 reading x1 in place of x0:
    # its 65,536 vectors are one batch, and the records still begin at
    # the first failing vector
    nl = tmp_path / "q4.json"
    run(["generate", "--radix", "4", "--width", "4", "--out", str(nl)],
        capsys)
    doc = json.loads(nl.read_text())
    g = doc["gates"][0]
    assert g["id"] == "g00000"
    g["inputs"] = ["x1" if w == "x0" else w for w in g["inputs"]]
    nl.write_text(json.dumps(doc))
    code, stdout, _ = run(["verify", str(nl), "--mode", "exhaustive"], capsys)
    lines = stdout.splitlines()
    assert code == 1 and len(lines) == 11
    assert lines[:2] == [
        "radix4-w4 exhaustive: 65536 vectors, 36864 mismatches -> FAIL",
        "  x=0010 y=0001 expected=00000010 got=00000011"]


def _fault_b4(tmp_path, capsys):
    """A b4 netlist whose first half adder reads one wire twice."""
    nl = tmp_path / "b4.json"
    run(["generate", "--radix", "2", "--width", "4", "--out", str(nl)],
        capsys)
    doc = json.loads(nl.read_text())
    g = next(g for g in doc["gates"] if g["kind"] == "BIN_HA")
    g["inputs"] = [g["inputs"][0]] * 2
    nl.write_text(json.dumps(doc))
    return nl


def test_verify_rejects_negative_show(tmp_path, capsys):
    # --show -1 used to slice off the last mismatch of the fault b4
    nl = _fault_b4(tmp_path, capsys)
    rep = tmp_path / "report.json"
    code, stdout, err = run(["verify", str(nl), "--show", "-1",
                             "--out", str(rep)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "--show" in err
    assert not rep.exists()


def test_verify_rejects_negative_cap(tmp_path, capsys):
    # --cap -1 was taken as a cap that every design exceeds
    nl = tmp_path / "q1.json"
    run(["generate", "--radix", "4", "--width", "1", "--out", str(nl)],
        capsys)
    code, stdout, err = run(["verify", str(nl), "--cap", "-1"], capsys)
    assert code == 2 and stdout == ""
    assert err == "error: --cap must be >= 0, got -1\n"
    code, _, err = run(["verify", str(nl), "--cap", "0"], capsys)
    assert code == 2 and "16 vectors exceed the cap of 0" in err


def test_verify_missing_file_is_io_error(capsys):
    code, _, err = run(["verify", "/nonexistent/netlist.json"], capsys)
    assert code == 3


def test_verify_invalid_netlist_is_usage_error(tmp_path, capsys):
    # structural problems exit 2, distinct from functional mismatches (1)
    nl = tmp_path / "bad.json"
    run(["generate", "--radix", "2", "--width", "2", "--out", str(nl)],
        capsys)
    doc = json.loads(nl.read_text())
    doc["gates"][0]["inputs"] = ["x0", "ghost"]
    nl.write_text(json.dumps(doc))
    code, _, err = run(["verify", str(nl)], capsys)
    assert code == 2
    assert "invalid netlist" in err


def test_verify_oversized_exhaustive_guides_to_random(tmp_path, capsys):
    nl = tmp_path / "b8.json"
    run(["generate", "--radix", "2", "--width", "8", "--out", str(nl)],
        capsys)
    code, _, err = run(["verify", str(nl), "--cap", "1000"], capsys)
    assert code == 2
    assert "--mode random" in err


def test_verify_default_cap_guides_to_random(tmp_path, capsys):
    # r2 w11 has 4,194,304 vectors, over the cap --cap defaults to
    nl = tmp_path / "b11.json"
    run(["generate", "--radix", "2", "--width", "11", "--out", str(nl)],
        capsys)
    code, _, err = run(["verify", str(nl)], capsys)
    assert code == 2
    assert "exceed the cap of 1048576" in err and "--mode random" in err


@pytest.mark.parametrize("command", ["export-spice", "verify"])
def test_non_string_ids_are_usage_errors(tmp_path, capsys, q1, command):
    # integer wire ids pass validate_netlist; export-spice ended in a
    # TypeError traceback and verify passed the design
    doc = json.loads(q1.to_json())
    num = {w["id"]: i for i, w in enumerate(doc["wires"])}
    for w in doc["wires"]:
        w["id"] = num[w["id"]]
    for g in doc["gates"]:
        g["inputs"] = [num[w] for w in g["inputs"]]
        g["outputs"] = [num[w] for w in g["outputs"]]
    doc["inputs"] = [num[w] for w in doc["inputs"]]
    doc["outputs"] = [num[w] for w in doc["outputs"]]
    nl = tmp_path / "q1.json"
    nl.write_text(json.dumps(doc))
    code, stdout, err = run([command, str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "wire id 0 is not a string" in err


def _gate0(**fields):
    return lambda doc: doc["gates"][0].update(fields)


@pytest.mark.parametrize("command", ["export-spice", "verify"])
@pytest.mark.parametrize("field, corrupt", [
    ("gate 'g00000' inputs", _gate0(inputs={"x0": 0, "y0": 0})),
    ("gate 'g00000' outputs", _gate0(outputs={"n00000": 0, "n00001": 0})),
    ("outputs",
     lambda doc: doc.update(outputs=dict.fromkeys(doc["outputs"], 0))),
    ("inputs", lambda doc: doc.update(inputs="ab")),
    ("wires", lambda doc: doc.update(wires={})),
    ("gates", lambda doc: doc.update(gates={})),
], ids=["gate-inputs", "gate-outputs", "outputs", "inputs-str", "wires",
        "gates"])
def test_non_array_fields_are_usage_errors(tmp_path, capsys, q1, command,
                                           field, corrupt):
    # tuple() and list() took an object's keys or a string's characters:
    # each object case passed verify and exported a deck, and the others
    # ended in unrelated validation errors
    doc = json.loads(q1.to_json())
    corrupt(doc)
    nl = tmp_path / "q1.json"
    nl.write_text(json.dumps(doc))
    code, stdout, err = run([command, str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: {nl}: malformed netlist document: {field} is " \
                  "not an array\n"


@pytest.mark.parametrize("command", ["export-spice", "verify"])
def test_retired_gate_kind_is_usage_error(tmp_path, capsys, q1, command):
    doc = json.loads(q1.to_json())
    doc["gates"][0]["kind"] = "MUX4"
    nl = tmp_path / "q1.json"
    nl.write_text(json.dumps(doc))
    code, stdout, err = run([command, str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: {nl}: malformed netlist document: gate " \
                  "'g00000' kind 'MUX4' is not a gate kind\n"


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_non_integer_version_is_usage_error(tmp_path, capsys, q4, version):
    # true and 1.0 equal 1 in Python: such a q4 verified PASS, exit 0
    doc = json.loads(q4.to_json())
    doc["version"] = version
    nl = tmp_path / "q4.json"
    nl.write_text(json.dumps(doc))
    code, stdout, err = run(["verify", str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: {nl}: unsupported version {version!r}\n"


def _drop(entries, i, key):
    return lambda doc: doc[entries][i].pop(key)


@pytest.mark.parametrize("command", ["export-spice", "verify"])
@pytest.mark.parametrize("problem, corrupt", [
    ("wire 0 is not an object", lambda doc: doc["wires"].__setitem__(0, 1)),
    ("gate 0 is not an object",
     lambda doc: doc["gates"].__setitem__(0, "g")),
    ("wire id ['a'] is not a string",
     lambda doc: doc["wires"][1].update(id=["a"])),
    ("wire 0 has no id", _drop("wires", 0, "id")),
    ("wire 'y0' has no range_max", _drop("wires", 1, "range_max")),
    ("gate 0 has no id", _drop("gates", 0, "id")),
    ("gate 'g00000' has no kind", _drop("gates", 0, "kind")),
    ("gate 'g00000' has no outputs", _drop("gates", 0, "outputs")),
    ("the document has no radix", lambda doc: doc.pop("radix")),
    ("gate 'g00000' kind 'NAND' is not a gate kind", _gate0(kind="NAND")),
    ("gate 'g00000' kind 5 is not a gate kind", _gate0(kind=5)),
    ("gate 'g00000' kind ['AND'] is not a gate kind", _gate0(kind=["AND"])),
    ("meta is not an object", lambda doc: doc.update(meta=3)),
    # it loaded, and to_json then dropped the key
    ("meta is not an object", lambda doc: doc.update(meta=None)),
], ids=["wire-int", "gate-str", "wire-id-list", "wire-no-id",
        "wire-no-range", "gate-no-id", "gate-no-kind", "gate-no-outputs",
        "no-radix", "kind-name", "kind-int", "kind-list", "meta-int",
        "meta-null"])
def test_malformed_entries_are_named(tmp_path, capsys, q1, command, problem,
                                     corrupt):
    # Python's own words ("'int' object is not subscriptable", a bare
    # 'range_max') named no entry, and a non-object meta passed verify
    doc = json.loads(q1.to_json())
    corrupt(doc)
    nl = tmp_path / "q1.json"
    nl.write_text(json.dumps(doc))
    code, stdout, err = run([command, str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: {nl}: malformed netlist document: {problem}\n"


@pytest.mark.parametrize("command", ["export-spice", "verify"])
def test_gate_read_before_its_driver_is_usage_error(tmp_path, capsys,
                                                    b8_last_gate_first,
                                                    command):
    # the gates were re-sorted: verify passed and a deck was written
    nl = tmp_path / "b8.json"
    nl.write_text(b8_last_gate_first.to_json())
    code, stdout, err = run([command, str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: {nl}: invalid netlist: " + "; ".join(
        f"[order] gate g00126 reads wire {w} before the gate that drives it"
        for w in ("n00167", "n00187")) + "\n"


@pytest.mark.parametrize("command", ["export-spice", "verify"])
def test_invalid_netlist_names_its_first_eight_violations(tmp_path, capsys,
                                                          every_violation,
                                                          command):
    nl = tmp_path / "bad.json"
    nl.write_text(every_violation.to_json())
    code, stdout, err = run([command, str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err == (f"error: {nl}: invalid netlist: "
                   + "; ".join(EVERY_VIOLATION[:8]) + "\n")


#: each command that reads a file, and the name of the file it reads
#: (the file is ``{f}`` in the arguments, or found through MVL_DEFAULT_LIBS)
FILE_READERS = pytest.mark.parametrize("argv, name", [
    (["verify", "{f}"], "b8.json"),
    (["export-spice", "{f}"], "b8.json"),
    (["compare", "--preset", "--cost-lib", "{f}"], "cost.json"),
    (["compare", "--design", "4,2", "--design", "2,4", "--timing-lib",
      "{f}"], "timing.json"),
    # the default libraries, replaced through MVL_DEFAULT_LIBS
    (["compare", "--preset"], "cost.json"),
    (["compare", "--preset"], "timing-binary-0.9v.json"),
], ids=["verify", "export-spice", "cost-lib", "timing-lib", "env-cost",
        "env-timing"])


def _with_file(tmp_path, monkeypatch, argv, name, data: bytes):
    """``argv`` with its file, ``name``, holding ``data``."""
    f = tmp_path / name
    f.write_bytes(data)
    if "{f}" not in argv:
        monkeypatch.setenv("MVL_DEFAULT_LIBS", str(tmp_path))
    return [a.format(f=f) for a in argv], f


@FILE_READERS
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, monkeypatch,
                                           argv, name):
    # json.loads raised a RecursionError: a traceback and exit 1, which
    # is verify's code for mismatches
    argv, _ = _with_file(tmp_path, monkeypatch, argv, name, b"[" * 100_000)
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nested too deeply" in err or "RecursionError" in err


@FILE_READERS
def test_file_not_utf8_is_usage_error(tmp_path, capsys, monkeypatch, argv,
                                      name):
    # the UnicodeDecodeError was a traceback and exit 1, the mismatch code
    argv, f = _with_file(tmp_path, monkeypatch, argv, name, b"\xff\xfe\x00bad")
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err == (f"error: {f}: not UTF-8: 'utf-8' codec can't decode "
                   "byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("field", ["radix", "range_max"])
def test_integer_past_the_digit_limit_is_usage_error(tmp_path, capsys, b8,
                                                     field):
    # json.loads raised a ValueError past Python's int-digit limit: a
    # traceback and exit 1.  Where the int is read, it is no radix and no
    # range, so this also holds with no limit.
    nl = tmp_path / "b8.json"
    nl.write_text(re.sub(f'"{field}": \\d+', f'"{field}": 1{"0" * 4999}',
                         b8.to_json(), count=1))
    code, stdout, err = run(["verify", str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {nl}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["export-spice", "verify"])
def test_repeated_wire_id_is_usage_error(tmp_path, capsys, q4, command):
    # the last entry won: verify passed and export-spice printed wires=93
    doc = json.loads(q4.to_json())
    doc["wires"].insert(1, dict(doc["wires"][0]))
    nl = tmp_path / "q4.json"
    nl.write_text(json.dumps(doc))
    code, stdout, err = run([command, str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: {nl}: malformed netlist document: wire id 'x0' " \
                  "is repeated\n"


@pytest.mark.parametrize("field, value", [
    ("range_max", 3.7), ("range_max", "3"), ("radix", "4"), ("radix", 4.0),
    ("width", True), ("width", 1.0),
], ids=["range-float", "range-str", "radix-str", "radix-float",
        "width-bool", "width-float"])
def test_non_integer_numbers_are_rejected(tmp_path, capsys, q1, field,
                                          value):
    # int() coerced these, so verify passed the design
    doc = json.loads(q1.to_json())
    (doc["wires"][0] if field == "range_max" else doc)[field] = value
    with pytest.raises(NetlistError, match=f"{field} .* is not an integer"):
        Netlist.from_json(json.dumps(doc))
    nl = tmp_path / "q1.json"
    nl.write_text(json.dumps(doc))
    code, stdout, err = run(["verify", str(nl)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "is not an integer" in err


def test_verify_random_seeded(tmp_path, capsys):
    nl = tmp_path / "b8.json"
    run(["generate", "--radix", "2", "--width", "8", "--out", str(nl)],
        capsys)
    code, stdout, _ = run(["verify", str(nl), "--mode", "random",
                           "--count", "200", "--seed", "42"], capsys)
    assert code == 0 and "200 vectors" in stdout


def test_verify_ignores_workers(tmp_path, capsys):
    nl = _fault_b4(tmp_path, capsys)
    results = []
    for extra in ([], ["--workers", "3"]):
        rep = tmp_path / "r.json"
        code, stdout, _ = run(["verify", str(nl), "--mode", "random",
                               "--count", "500", "--seed", "7",
                               "--out", str(rep), *extra], capsys)
        results.append((code, stdout, rep.read_text()))
        rep.unlink()
    assert results[0][0] == 1
    assert results[1] == results[0]


def test_verify_range_overflow_is_usage_error(tmp_path, capsys):
    # a QHA whose sum wire is declared binary: exhaustive mode used to
    # print a traceback and exit 1, and then validate_netlist passed it
    # and the simulator named it; now validation names it
    wires = {"x0": 3, "y0": 3, "s": 1, "c": 1}
    net = Netlist(radix=4, width=1, wires=wires,
                  gates=[GateInstance("g0", "QHA", ("x0", "y0"),
                                      ("s", "c"))],
                  primary_inputs=["x0", "y0"], primary_outputs=["s", "c"])
    narrow = ("[narrow] wire s (gate g0, QHA) is declared 0..1 but can "
              "carry up to 3")
    assert [str(p) for p in validate_netlist(net)] == [narrow]
    nl = tmp_path / "narrow.json"
    nl.write_text(net.to_json())
    for mode in ("exhaustive", "random"):
        code, stdout, err = run(["verify", str(nl), "--mode", mode], capsys)
        assert code == 2 and stdout == "", mode
        assert err == f"error: {nl}: invalid netlist: {narrow}\n"


def test_verify_rejects_wrong_input_count(tmp_path, capsys):
    # an extra input z used to crash the simulator, which never assigned
    # it; a missing y0 used to pass against a y the netlist never reads
    def and_chain(inputs, pairs):
        wires = dict.fromkeys(inputs + ["t", "p"], 1)
        gates = [GateInstance(f"g{i}", "AND", ins, (out,))
                 for i, (ins, out) in enumerate(pairs)]
        return Netlist(radix=2, width=1, wires=wires, gates=gates,
                       primary_inputs=inputs, primary_outputs=["p"])
    nets = {"extra": and_chain(["x0", "y0", "z"], [(("x0", "y0"), "t"),
                                                   (("t", "z"), "p")]),
            "missing": and_chain(["x0"], [(("x0", "x0"), "t"),
                                          (("t", "t"), "p")])}
    for name, net in nets.items():
        nl = tmp_path / f"{name}.json"
        nl.write_text(net.to_json())
        for mode in ("exhaustive", "random"):
            code, stdout, err = run(["verify", str(nl), "--mode", mode],
                                    capsys)
            assert code == 2 and stdout == "", (name, mode)
            assert err.startswith(f"error: {nl}: invalid netlist: [inputs] "
                                  "expected 2 operand digits"), (name, mode)


def test_compare_zero_delay_ratio_is_null(capsys):
    # every 1x1 design has a 0 ps worst path: the ratio has no value
    def no_constants(name):
        raise ValueError(f"{name} is not JSON")
    code, stdout, _ = run(["compare", "--design", "4,1", "--design", "2,1",
                           "--format", "json"], capsys)
    assert code == 0
    ratio = json.loads(stdout, parse_constant=no_constants)["pair_ratios"][0]
    assert ratio["delay_ratio"] is None
    assert ratio["area_ratio"] == pytest.approx(132 / 8.9)
    for fmt, want in (("md", "| n/a |"), ("csv", ".delay_ratio,n/a\n")):
        code, stdout, _ = run(["compare", "--design", "4,1", "--design",
                               "2,1", "--format", fmt], capsys)
        assert code == 0 and want in stdout, fmt


def test_compare_preset_markdown(capsys):
    code, stdout, _ = run(["compare", "--preset"], capsys)
    assert code == 0
    assert "x1.84" in stdout   # 1x1 quit vs 2x2 bit area
    assert "x2.92" in stdout   # 2x2 quit vs 4x4 bit area
    assert "x3.18" in stdout   # 4x4 quit vs 8x8 bit area
    assert "ha_count_ratio" in stdout


def test_compare_explicit_designs_csv(capsys):
    code, stdout, _ = run(["compare", "--design", "4,4", "--design", "2,8",
                           "--format", "csv"], capsys)
    assert code == 0
    assert "pair,radix4 4x4 vs radix2 8x8.area_ratio,3.18471" in stdout


def test_compare_identical_designs_unity(capsys):
    code, stdout, _ = run(["compare", "--design", "2,4", "--design", "2,4",
                           "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["pair_ratios"][0]["area_ratio"] == pytest.approx(1.0)


# sha256 of the stdout of ``compare --preset --format FMT``
COMPARE_PRESET_SHA256 = {
    "md": "19d0cec8bc0506829351125d697cd9003c6d015d3c12dfe52ff6dd36ec7d4c50",
    "csv": "2e23daf11e2ce71fed17b9b44001d0cd767f5047468e98a68a46948b9f259e71",
    "json": "b56666dd92b2fff914535f54d83eae192199d15ca72e00df70d71dee43907dde",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fmt", sorted(COMPARE_PRESET_SHA256))
def test_compare_preset_bytes_pinned(capsys, fmt):
    code, stdout, err = run(["compare", "--preset", "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert _sha256(stdout) == COMPARE_PRESET_SHA256[fmt]


def test_compare_needs_designs(capsys):
    code, _, err = run(["compare"], capsys)
    assert code == 2


def test_compare_preset_json_is_one_array(capsys):
    code, stdout, _ = run(["compare", "--preset", "--format", "json"], capsys)
    assert code == 0
    reports = json.loads(stdout)
    assert isinstance(reports, list) and len(reports) == 3
    assert [[d["label"] for d in r["designs"]] for r in reports] == [
        ["1x1 quit", "2x2 bit"], ["2x2 quit", "4x4 bit"],
        ["4x4 quit", "8x8 bit"]]


def test_compare_preset_excludes_design(capsys):
    code, stdout, err = run(["compare", "--preset", "--design", "2,2"],
                            capsys)
    assert code == 2 and stdout == ""
    assert "not allowed with argument --preset" in err


# a timing library that serves both radices
_BOTH_TIMING = TimingLibrary("both", {
    **timing_preset("binary-0.9v").delays,
    **timing_preset("quaternary-0.9v").delays})


def _worst_paths(markdown):
    """(design label, worst path ps) rows of a compare markdown table."""
    rows = [line.split(" | ") for line in markdown.splitlines()]
    return [(r[0], float(r[5])) for r in rows if len(r) == 7
            and r[1] in ("2", "4")]


def test_compare_preset_honours_timing_lib(tmp_path, capsys):
    lib = tmp_path / "slow.json"
    lib.write_text(scaled_timing(_BOTH_TIMING, 2).to_json())
    code, default, _ = run(["compare", "--preset"], capsys)
    assert code == 0
    code, slow, _ = run(["compare", "--preset", "--timing-lib", str(lib)],
                        capsys)
    assert code == 0
    base = _worst_paths(default)
    assert len(base) == 6 and base[-1] == ("| 8x8 bit", 312.0)
    assert _worst_paths(slow) == [(d, 2 * ps) for d, ps in base]


def test_export_spice_counts_and_determinism(tmp_path, capsys):
    nl = tmp_path / "b2.json"
    run(["generate", "--radix", "2", "--width", "2", "--out", str(nl)],
        capsys)
    d1 = tmp_path / "a.sp"
    d2 = tmp_path / "b.sp"
    assert run(["export-spice", str(nl), "--out", str(d1)], capsys)[0] == 0
    assert run(["export-spice", str(nl), "--out", str(d2)], capsys)[0] == 0
    assert d1.read_bytes() == d2.read_bytes()
    deck = d1.read_text()
    lines = deck.splitlines()
    assert sum(1 for l in lines if l.startswith("X") and l.endswith(" AND")) == 4
    assert sum(1 for l in lines if l.startswith("X")
               and l.endswith(" BIN_HA")) == 2


@pytest.mark.parametrize("design, sha256", [
    ("b8", "eb6c81b804805f11534434801f35245dc2f9bb85a50b60c675e391f888818e18"),
    ("q4", "065c2f10e875f4e127c29231918ca6b58c98d9233b1b26daf2f05ad2ea2ed4ca"),
])
def test_export_spice_bytes_pinned(request, design, sha256):
    assert _sha256(export_spice(request.getfixturevalue(design))) == sha256


def test_export_spice_names_unknown_kind(q4):
    with pytest.raises(NetlistError,
                       match="^gate g00000 has unknown kind 'QFA2'$"):
        export_spice(with_gate(q4, "g00000", kind="QFA2"))


def test_export_spice_names_miscounted_gate(q2):
    # the deck held "Xg00008 n00007 n00016 QFAC2WC" under a three-input
    # .SUBCKT QFAC2WC, and no error was raised
    g = q2.gates[-1]
    with pytest.raises(NetlistError, match=r"^gate g00008 \(QFAC2WC\) "
                       r"has 1 in / 1 out, not 3 / 1$"):
        export_spice(with_gate(q2, g.id, inputs=g.inputs[:1]))


def test_export_spice_stdout_is_the_out_deck(tmp_path, capsys, q4):
    nl = tmp_path / "q4.json"
    nl.write_text(q4.to_json())
    out = tmp_path / "q4.sp"
    assert run(["export-spice", str(nl), "--out", str(out)], capsys)[0] == 0
    code, stdout, err = run(["export-spice", str(nl)], capsys)
    assert (code, err) == (0, "")
    assert stdout.encode() == out.read_bytes()


@pytest.mark.parametrize("to", ["stdout", "out"])
def test_export_spice_walks_once(tmp_path, capsys, monkeypatch, q4, to):
    # export-spice walked the netlist twice: in validate_netlist, then in
    # export_spice.  Each walk lists once, so the listings count the walks
    walks = []
    validate = netlist.validate_netlist
    monkeypatch.setattr(netlist, "validate_netlist",
                        lambda net: walks.append(1) or validate(net))
    nl, deck = tmp_path / "q4.json", tmp_path / "q4.sp"
    nl.write_text(q4.to_json())
    code, stdout, err = run(["export-spice", str(nl)]
                            + (["--out", str(deck)] if to == "out" else []),
                            capsys)
    assert (code, err, walks) == (0, "", [1])
    want = export_spice(q4)
    assert (deck.read_text() if to == "out" else stdout) == want


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_verify_walks_once(tmp_path, capsys, monkeypatch, q4, mode):
    # verify walked the netlist twice: in validate_netlist, then in the
    # simulator's set-up.  Each walk lists once, so the listings count them
    walks = []
    validate = netlist.validate_netlist
    monkeypatch.setattr(netlist, "validate_netlist",
                        lambda net: walks.append(1) or validate(net))
    nl = tmp_path / "q4.json"
    nl.write_text(q4.to_json())
    code, stdout, err = run(["verify", str(nl), "--mode", mode], capsys)
    assert (code, err, walks) == (0, "", [1])
    assert stdout.endswith(" 0 mismatches -> PASS\n")


def test_compare_walks_each_design_once(capsys, monkeypatch):
    # critical_path prices a design once its timing library's require has
    # walked it; nothing else in compare walks, and each walk lists once
    walks = []
    validate = netlist.validate_netlist
    monkeypatch.setattr(netlist, "validate_netlist",
                        lambda net: walks.append(1) or validate(net))
    code, _, err = run(["compare", "--preset"], capsys)
    assert (code, err, walks) == (0, "", [1] * 2 * len(cli.COMPARE_PRESET))


@pytest.mark.parametrize("command", ["verify", "export-spice"])
def test_a_bad_netlist_is_listed_once(tmp_path, capsys, monkeypatch, q2,
                                      command):
    # the walk's fault listed the violations to word its first one, then
    # the CLI listed them again for its first eight
    listings = []
    validate = netlist.validate_netlist
    monkeypatch.setattr(netlist, "validate_netlist",
                        lambda net: listings.append(1) or validate(net))
    doc = json.loads(q2.to_json())
    doc["outputs"][3] = doc["outputs"][2]
    nl = tmp_path / "q2-dup.json"
    nl.write_text(json.dumps(doc))
    code, stdout, err = run([command, str(nl)], capsys)
    assert (code, stdout, listings) == (2, "", [1])
    assert err == (f"error: {nl}: invalid netlist: [dup-output] wire n00014 "
                   "is listed as 2 product digits\n")


@pytest.mark.parametrize("case", list(FIRST_FAULTS))
def test_export_spice_writes_nothing_for_a_bad_netlist(request, tmp_path,
                                                       capsys, case):
    # the netlist is walked before the first byte of the deck
    design, edit, _ = FIRST_FAULTS[case]
    nl, deck = tmp_path / "bad.json", tmp_path / "bad.sp"
    nl.write_text(edit(request.getfixturevalue(design)).to_json())
    code, stdout, err = run(["export-spice", str(nl), "--out", str(deck)],
                            capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {nl}: ") and err.count("\n") == 1
    assert not deck.exists()


def test_export_spice_instances_match_inventory(tmp_path, capsys, q4):
    nl = tmp_path / "q4.json"
    nl.write_text(q4.to_json())
    out = tmp_path / "q4.sp"
    run(["export-spice", str(nl), "--out", str(out)], capsys)
    lines = out.read_text().splitlines()
    for kind, count in q4.inventory().items():
        assert sum(1 for l in lines
                   if l.startswith("X") and l.endswith(" " + kind)) == count


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mvlmul.cli", "generate", "--radix", "4",
         "--width", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "QM1: 1" in proc.stdout


def _run_python(code, *args):
    # sys.modules is per process, so each check runs in a fresh one
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code),
                           *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_numpy():
    _run_python("""
        import sys
        import mvlmul, mvlmul.cli
        assert "numpy" not in sys.modules
    """)


def test_build_commands_do_not_load_numpy(tmp_path):
    # nothing in mvlmul loads numpy: not the build commands, not verify
    # and not the timing presets
    _run_python("""
        import os, sys
        import mvlmul.cli
        os.chdir(sys.argv[1])
        for argv in (["generate", "--radix", "4", "--width", "4",
                      "--out", "q4.json"],
                     ["compare", "--preset"],
                     ["export-spice", "q4.json"],
                     ["verify", "q4.json", "--mode", "exhaustive"],
                     ["verify", "q4.json", "--mode", "random", "--count",
                      "100"]):
            assert mvlmul.cli.main(argv) == 0
            assert "numpy" not in sys.modules, argv

        from mvlmul import (SimulationError, evaluate, gen_multiplier,
                            timing_preset, verify_exhaustive)
        net = gen_multiplier(4, 1)
        assert verify_exhaustive(net).passed
        assert evaluate(net, {"x0": 3, "y0": 2}) == [2, 1]
        assert issubclass(SimulationError, ValueError)
        lib = timing_preset("quaternary-0.9v")
        assert lib.delays[("QM1", "product")] == 118.0
        assert "numpy" not in sys.modules
    """, str(tmp_path))


def test_package_loads_names_on_first_use():
    _run_python("""
        import sys
        import mvlmul
        assert not [m for m in sys.modules if m.startswith("mvlmul.")]
        for name in mvlmul.__all__:
            assert getattr(mvlmul, name) is not None, name
        namespace = {}
        exec("from mvlmul import *", namespace)
        assert set(mvlmul.__all__) <= set(namespace)
        try:
            mvlmul.no_such_name
        except AttributeError as e:
            assert "no_such_name" in str(e)
        else:
            raise AssertionError("mvlmul.no_such_name resolved")
    """)


def test_every_error_class_is_a_value_error():
    # one class per domain, and a caller catches any of them as ValueError
    import mvlmul
    errors = {name: cls for name in mvlmul.__all__
              if isinstance(cls := getattr(mvlmul, name), type)
              and issubclass(cls, BaseException)}
    assert sorted(errors) == ["LibraryError", "NetgenError", "NetlistError",
                              "SimulationError", "VerificationSpaceError"]
    for name, cls in errors.items():
        assert issubclass(cls, ValueError), name


def test_commands_load_only_their_modules(tmp_path, q4):
    (tmp_path / "q4.json").write_text(q4.to_json())
    loaded = """
        import os, sys
        import mvlmul.cli
        os.chdir(sys.argv[1])

        def run(*argv):
            assert mvlmul.cli.main(list(argv)) == 0, argv
            return {m for m in sys.modules if m.startswith("mvlmul")}
    """
    _run_python(loaded + """
        mods = run("verify", "q4.json", "--mode", "exhaustive")
        mods |= run("verify", "q4.json", "--mode", "random", "--count", "50")
        assert mods == {"mvlmul", "mvlmul.cli", "mvlmul.core",
                        "mvlmul.netlist", "mvlmul.sim"}, mods
        assert "dataclasses" not in sys.modules
        assert "inspect" not in sys.modules
    """, str(tmp_path))
    _run_python(loaded + """
        mods = run("export-spice", "q4.json", "--out", "q4.sp")
        assert not mods & {"mvlmul.sim", "mvlmul.netgen", "mvlmul.metrics"}
    """, str(tmp_path))
    _run_python(loaded + """
        for argv in (["generate", "--radix", "4", "--width", "4"],
                     ["compare", "--preset"]):
            run(*argv)
            assert not {"dataclasses", "inspect", "fractions"} & set(
                sys.modules), argv
    """, str(tmp_path))


@pytest.mark.parametrize("argv", [
    ["generate", "--radix", "2", "--width", "0"],
    ["compare", "--design", "3,4", "--design", "2,2"],
    ["compare", "--preset", "--cost-lib", "{lib}"],
], ids=["netgen", "radix", "cost-lib"])
def test_usage_errors_in_a_fresh_interpreter(tmp_path, argv):
    # in process every module is loaded already, so these catch a command
    # that does not import the error classes it must map to exit 2
    lib = tmp_path / "bad.json"
    lib.write_text('{"sigma_di": {"FOO": 1.0}}')
    proc = subprocess.run(
        [sys.executable, "-m", "mvlmul.cli", *(a.format(lib=lib) for a in argv)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, code", [
    (["generate", "--radix", "4", "--width", "1"], 0),
    (["compare", "--design", "3,1", "--design", "2,1"], 2),
    (["generate", "--radix", "5", "--width", "1"], 2),
], ids=["ok", "cli-error", "argparse-error"])
def test_main_leaves_gc_as_it_found_it(capsys, argv, code, enabled):
    # main turns the cyclic GC off for a command; in process, a GC left
    # off would leak into the caller, and one the caller turned off must
    # stay off.  Only the command's entry point freezes it
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_run_freezes_the_gc_after_main(monkeypatch):
    # the command's entry point freezes what main left, once and after
    # it, so the collections at interpreter exit scan nothing
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 7
    assert calls == ["main", "freeze"]


@pytest.mark.parametrize("argv, code", [
    (["generate", "--radix", "4", "--width", "1"], 0),
    (["verify", "{fault}"], 1),
    (["generate", "--radix", "5", "--width", "1"], 2),
], ids=["ok", "mismatch", "usage"])
def test_module_run_keeps_atexit_and_the_exit_code(tmp_path, capsys, argv,
                                                   code):
    # the entry point exits through sys.exit: an atexit handler, such as
    # the one in which coverage saves its data, still runs, where
    # os._exit would skip it, and main's code is the process's
    fault = _fault_b4(tmp_path, capsys)
    script = ("import atexit, runpy, sys\n"
              "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
              "runpy.run_module('mvlmul.cli', run_name='__main__')\n")
    proc = subprocess.run(
        [sys.executable, "-c", script,
         *(a.format(fault=fault) for a in argv)],
        capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.endswith("atexit ran\n")


def test_gc_is_off_while_a_command_runs(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_generate",
                        lambda args: seen.append(gc.isenabled()) or 0)
    assert main(["generate", "--radix", "4", "--width", "1"]) == 0
    assert seen == [False]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # a gate kind is a str, so a set of kinds iterates in PYTHONHASHSEED
    # order: no output may depend on that order
    nl, deck = tmp_path / "q8.json", tmp_path / "q8.sp"
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        out = [subprocess.run([sys.executable, "-m", "mvlmul.cli", *argv],
                              capture_output=True, env=env,
                              check=True).stdout
               for argv in (["generate", "--radix", "4", "--width", "8",
                             "--out", str(nl)],
                            ["export-spice", str(nl), "--out", str(deck)],
                            ["compare", "--design", "4,8", "--design", "2,16",
                             "--format", "json"])]
        runs.append(out + [nl.read_bytes(), deck.read_bytes()])
    assert runs[0] == runs[1]


def _write_to_closed_pipe(argv, unbuffered):
    """Run the CLI with ``argv`` into a pipe whose reader is gone."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "mvlmul.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered",
                                                      "buffered"])
def test_closed_stdout_pipe_is_io_error(unbuffered):
    # the reader is gone before the command writes: unbuffered, print
    # raised BrokenPipeError; buffered, the interpreter's exit flush did
    proc = _write_to_closed_pipe(
        ["compare", "--design", "4,1", "--design", "2,1", "--format", "json"],
        unbuffered)
    assert proc.returncode == 3
    assert proc.stderr == ""  # no traceback, no "Exception ignored"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered",
                                                      "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["generate", "--help"]],
                         ids=["help", "generate-help"])
def test_closed_stdout_pipe_after_help(unbuffered, argv):
    # buffered, the interpreter's exit flush after argparse's help raised
    # BrokenPipeError, which exited 120.  Unbuffered, argparse drops its
    # own failed write of the help, and the command succeeds
    proc = _write_to_closed_pipe(argv, unbuffered)
    assert proc.returncode == (0 if unbuffered else 3)
    assert proc.stderr == ""  # no traceback, no "Exception ignored"


def test_env_library_override(tmp_path, capsys, monkeypatch):
    from mvlmul.metrics import default_cost_library
    lib = default_cost_library()
    lib.sigma_di = dict(lib.sigma_di)
    lib.sigma_di[list(lib.sigma_di)[0]] = 1.0
    libdir = tmp_path / "libs"
    libdir.mkdir()
    (libdir / "cost.json").write_text(lib.to_json())
    monkeypatch.setenv("MVL_DEFAULT_LIBS", str(libdir))
    code, stdout, _ = run(["compare", "--design", "2,2", "--design", "2,2",
                           "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    # AND cost dropped from 8.9 to 1.0 -> area 4*1 + 2*18 = 40
    assert doc["designs"][0]["area_nm"] == pytest.approx(40.0)


def test_verify_non_object_netlist_is_usage_error(tmp_path, capsys):
    nl = tmp_path / "list.json"
    nl.write_text("[1, 2]")
    code, _, err = run(["verify", str(nl)], capsys)
    assert code == 2
    assert err.startswith("error:") and "not a netlist document" in err


def _complete_library(text, section, key, value):
    """A complete library document with one entry set to ``value``."""
    doc = json.loads(text)
    doc[section][key] = value
    return json.dumps(doc)

BAD_COST = ["{not json", '{"sigma_di": {"FOO": 1.0}}', '{"name": "x"}',
            '{"sigma_di": {"AND": "wide"}}'] + [
    pytest.param(_complete_library(default_cost_library().to_json(),
                                   "sigma_di", kind, value),
                 id=f"{kind}={value!r}")
    for kind, value in (("AND", float("nan")), ("QHA", float("inf")),
                        ("BIN_FA", -1.0), ("AND", "8.9"), ("QM1", True),
                        # a retired kind is as unknown as any other
                        ("MUX8", 0.0), ("MUX4", 0.0), ("DECODER", 0.0))]
BAD_TIMING = ["{not json", '{"delays": {"FOO.y": 1.0}}', '{"name": "x"}',
              '{"delays": {"AND.y": "slow"}}'] + [
    pytest.param(_complete_library(_BOTH_TIMING.to_json(), "delays", port,
                                   value), id=f"{port}={value!r}")
    for port, value in (("BIN_HA.sum", float("inf")),
                        ("QFAC2.cout", float("nan")),
                        ("QM1.carry", -float("inf")),
                        ("BIN_FA.cout", "20.8"), ("QM1.product", True),
                        # a retired kind is as unknown as any other
                        ("MUX8.y", 0.0), ("MUX4.y", 0.0),
                        ("DECODER.nqi", 0.0),
                        # a key must name an output port of its kind
                        ("QM1", 0), ("QM1.sum", 1.0), ("QHA.", 1.0))]


@pytest.mark.parametrize("text", BAD_COST)
def test_compare_bad_cost_library(tmp_path, capsys, text):
    lib = tmp_path / "bad.json"
    lib.write_text(text)
    code, _, err = run(["compare", "--preset", "--cost-lib", str(lib)],
                       capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("text", BAD_TIMING)
def test_compare_bad_timing_library(tmp_path, capsys, text):
    lib = tmp_path / "bad.json"
    lib.write_text(text)
    code, _, err = run(["compare", "--design", "4,2", "--design", "2,4",
                        "--timing-lib", str(lib)], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("flag, text", [
    ("--cost-lib", '{"sigma_di": {"QHA": 1%s}}' % ("0" * 400)),
    ("--timing-lib", '{"delays": {"QHA.sum": 1%s}}' % ("0" * 400)),
], ids=["cost-lib", "timing-lib"])
def test_library_int_too_large_for_a_float(tmp_path, flag, text):
    # math.isfinite raised an OverflowError: a traceback and exit 1
    lib = tmp_path / "big.json"
    lib.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "mvlmul.cli", "compare", "--design", "4,2",
         "--design", "2,4", flag, str(lib)], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "must be finite and >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def _legacy(lib, section, retired):
    """``lib`` as a library file written when MUX4 and DECODER were gate
    kinds: every document also priced them, at 0, after the other keys."""
    doc = json.loads(lib.to_json())
    doc[section].update(dict.fromkeys(retired, 0.0))
    return json.dumps(doc, indent=2) + "\n"


_LEGACY_TIMING_KEYS = ("MUX4.y", "DECODER.nqi", "DECODER.iqi", "DECODER.pqi")


@pytest.mark.parametrize("what, name, text", [
    ("cost", "cost.json", _legacy(default_cost_library(), "sigma_di",
                                  ("MUX4", "DECODER"))),
    ("timing", "timing-binary-0.9v.json", _legacy(
        timing_preset("binary-0.9v"), "delays", _LEGACY_TIMING_KEYS))],
    ids=["cost", "timing"])
def test_legacy_libraries_are_usage_errors(tmp_path, capsys, monkeypatch,
                                           what, name, text):
    # such files were read with the retired kinds skipped; now a retired
    # kind is named like any other unknown one
    libdir = tmp_path / "libs"
    libdir.mkdir()
    (libdir / name).write_text(text)
    monkeypatch.setenv("MVL_DEFAULT_LIBS", str(libdir))
    code, stdout, err = run(["compare", "--preset"], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: malformed {what} library: 'MUX4' is not a " \
                  "gate kind\n"


def test_compare_missing_library_entries_are_named(tmp_path, capsys):
    # kinds sorted by name, each kind's ports in port order
    thin = tmp_path / "thin.json"
    thin.write_text('{"name": "thin", "sigma_di": {"AND": 8.9, '
                    '"BIN_HA": 18.0}}')
    for extra, want in (
            (["--design", "4,1", "--timing-lib", "binary-0.9v"],
             "timing library 'binary-0.9v' missing entries for "
             "QM1.product, QM1.carry"),
            (["--design", "4,2", "--cost-lib", str(thin)],
             "cost library 'thin' missing entries for QFAC2, QFAC2WC, "
             "QHA, QM1")):
        code, stdout, err = run(["compare", "--design", "2,2"] + extra,
                                capsys)
        assert (code, stdout, err) == (2, "", f"error: {want}\n")


def test_compare_zero_cost_binary_adder_has_no_area_ratio(tmp_path,
                                                          capsys):
    # 0 nm is a legal cost; a ratio over it has no value and is left
    # out, as the count ratios are when the binary design has no adder
    lib = tmp_path / "zero_ha.json"
    lib.write_text(_complete_library(default_cost_library().to_json(),
                                     "sigma_di", "BIN_HA", 0.0))
    argv = ["compare", "--preset", "--cost-lib", str(lib)]
    code, stdout, err = run(argv + ["--format", "json"], capsys)
    assert code == 0 and err == ""
    for report in json.loads(stdout):
        ratios = report["component_ratios"]
        assert "fa_area_ratio" in ratios and "ha_area_ratio" not in ratios
    code, stdout, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert "| fa_area_ratio |" in stdout and "ha_area_ratio" not in stdout


def test_compare_without_quaternary_adder_costs_has_count_ratio_only(
        tmp_path, capsys):
    # the area ratios need QHA and QFAC2 prices; without them only the
    # count ratios are reported, and the 2x2 bit design has no full adder
    lib = tmp_path / "no_qadders.json"
    lib.write_text(json.dumps({"name": "no-qadders", "sigma_di": {
        "AND": 8.9, "BIN_HA": 18.0, "BIN_FA": 32.0, "QM1": 132.0}}))
    code, stdout, err = run(["compare", "--design", "4,1", "--design", "2,2",
                             "--format", "json", "--cost-lib", str(lib)],
                            capsys)
    assert (code, err) == (0, "")
    assert json.loads(stdout)["component_ratios"] == {"ha_count_ratio": 0.0}


def test_compare_preset_bad_env_cost_library(tmp_path, capsys, monkeypatch):
    libdir = tmp_path / "libs"
    libdir.mkdir()
    (libdir / "cost.json").write_text('{"sigma_di": {"FOO": 1.0}}')
    monkeypatch.setenv("MVL_DEFAULT_LIBS", str(libdir))
    code, _, err = run(["compare", "--preset"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["generate", "--radix", "2", "--width", "0"],
    ["compare", "--design", "2,x", "--design", "4,1"],
    ["compare", "--design", "3,4", "--design", "2,2"],
    ["compare", "--design", "2,2", "--design", "4,1", "--timing-lib",
     "nosuch"],
    ["verify", "{q4}", "--mode", "random", "--count", "0"],
])
def test_usage_errors(tmp_path, capsys, q4, argv):
    nl = tmp_path / "q4.json"
    nl.write_text(q4.to_json())
    code, _, err = run([a.format(q4=nl) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_compare_unwritable_out_is_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.md"
    code, _, err = run(["compare", "--preset", "--out", str(out)], capsys)
    assert code == 3
    assert err.startswith("error: ")


def test_compare_out_overwrites(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["compare", "--design", "2,2", "--design", "4,1",
            "--format", "csv", "--out", str(out)]
    code, stdout, _ = run(argv, capsys)
    assert code == 0 and stdout == ""
    once = out.read_text()
    assert run(argv, capsys)[0] == 0
    assert out.read_text() == once
    assert once.count(once.splitlines()[0]) == 1   # one header: one table


def test_library_error_message_is_not_quoted(tmp_path, capsys):
    lib = tmp_path / "bad.json"
    lib.write_text('{"sigma_di": {"FOO": 1.0}}')
    for argv in (["compare", "--preset", "--cost-lib", str(lib)],
                 ["compare", "--design", "2,2", "--design", "4,1",
                  "--timing-lib", "binary-0.9v"]):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and err[len("error: ")] not in "\"'"


def test_compare_component_ratios_independent_of_order(capsys):
    ratios = []
    for first, second in (("4,4", "2,8"), ("2,8", "4,4")):
        code, stdout, _ = run(["compare", "--design", first, "--design",
                               second, "--format", "json"], capsys)
        assert code == 0
        ratios.append(json.loads(stdout)["component_ratios"])
    assert ratios[0] and ratios[1] == ratios[0]
