"""Hostile input for the command line.

cli.main runs in-process over hypothesis mutations of the fixture JSON
and of every subcommand's flags.  Each run must end in an exit code of
0-3, print no traceback and at most one error line, and exit 2 exactly
when the input is refused: by load_instance for an instance file, by
argparse or the command's own bound for a flag, or by an --out path that
cannot be written.  Inputs no in-process run should read (/dev/zero, a
100 MB file) go to a child process under address-space and CPU limits.
"""

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from math import comb, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringcert import cli
from waringcert.errors import InstanceFormatError, WaringError
from waringcert.octic14 import (MODES, octic14_shape, point_stages, residual_family,
                                second_decomposition_system)
from waringcert.points import MAX_EVALUATION_ENTRIES
from waringcert.storage import MAX_INSTANCE_BYTES, canonical_json, load_instance

from conftest import FIXTURES

FIXTURE_TEXT = {path.stem: path.read_text() for path in sorted(FIXTURES.glob("*.json"))}
FIELDS = ("prime", "n", "degree", "points", "lambda", "metadata")
WRONG_TYPES = ("8", 8.0, 1e300, True, False, None, [], [8], {}, {"x": 8})
SPECIAL_LITERALS = ("NaN", "Infinity", "-Infinity")
NESTING = (2, 1000, 10**5)
# flag values: boundaries, huge values, and strings int() refuses or reads loosely
FLAG_INTS = ("0", "-1", "1", "2", "3", "5", str(2**18), str(2**18 + 1), str(2**31 - 1),
             str(2**31 + 1), str(2**63), str(10**4000), "1" * 5000, "x", "", "3.0", "0x10",
             " 3", "1_0")
CRITERIA = ("all", "range", "ranger", "kruskal", "octic14")
HOSTILE_WORDS = ("", "x", "FULL", "-1", "all " * 3, "é")


def either(valid, hostile):
    """A valid or a hostile value, about half and half."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(hostile))


def boundary_ints(p):
    return (0, -1, 1, 2, p - 1, p, 2**31 - 1, 2**31 + 1, 2**63, 10**4000)


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), run in-process; an
    exception other than SystemExit escapes, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, err, refused):
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) <= 1, err
    assert (code == 2) == refused, (code, err)


def assert_report(out):
    """A check report's digest recomputes from the report."""
    report = json.loads(out)
    digest = report.pop("digest")
    report.pop("timings")
    assert sha256(canonical_json(report).encode("utf-8")).hexdigest() == digest


def as_int(text):
    try:
        return int(text)
    except ValueError:
        return None


def is_prime(p):
    """Trial division, for the 2 < p < 2**31 that PrimeContext admits."""
    return 2 < p < 2**31 and all(p % q for q in range(2, isqrt(p) + 1))


MUTATIONS = ("type", "missing", "scalar", "entry", "entry_type", "length", "zero",
             "duplicate", "nest", "literal", "extra", "text")


@st.composite
def hostile_instance(draw, first):
    """Bytes of a fixture after one mutation of the kind first, then
    perhaps one more of any kind."""
    obj = json.loads(FIXTURE_TEXT[draw(st.sampled_from(sorted(FIXTURE_TEXT)))])
    p, literal, edit = obj["prime"], None, None
    for kind in (first, draw(st.sampled_from((None,) * len(MUTATIONS) + MUTATIONS))):
        if kind is None or not isinstance(obj, dict):
            break
        points, lam = obj.get("points"), obj.get("lambda")
        rows = points if isinstance(points, list) and points else [[]]
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        row = rows[i] if isinstance(rows[i], list) and rows[i] else [0]
        c = draw(st.integers(0, len(row) - 1))
        if kind == "type":
            obj[draw(st.sampled_from(FIELDS))] = draw(st.sampled_from(WRONG_TYPES))
        elif kind == "missing":
            obj.pop(draw(st.sampled_from(FIELDS)), None)
        elif kind == "scalar":
            obj[draw(st.sampled_from(("prime", "n", "degree")))] = draw(
                st.sampled_from(boundary_ints(p)))
        elif kind in ("entry", "entry_type"):
            value = draw(st.sampled_from(boundary_ints(p) if kind == "entry" else WRONG_TYPES))
            if draw(st.booleans()) or not isinstance(lam, list) or not lam:
                row[c] = value
            else:
                lam[min(i, len(lam) - 1)] = value
        elif kind == "length":
            how = draw(st.sampled_from(("grow_point", "shrink_point", "grow_lambda",
                                        "shrink_lambda", "drop_point", "add_point", "n")))
            if how == "grow_point":
                row.append(1)
            elif how == "shrink_point":
                row.pop()
            elif how == "grow_lambda" and isinstance(lam, list):
                lam.append(1)
            elif how == "shrink_lambda" and isinstance(lam, list) and lam:
                lam.pop()
            elif how == "drop_point":
                rows.pop(i)
            elif how == "add_point":
                rows.append(draw(st.lists(st.integers(-p, 2 * p), min_size=3, max_size=3)))
            elif type(obj.get("n")) is int:
                obj["n"] += draw(st.sampled_from((-1, 1)))
        elif kind == "zero":
            rows[i] = [0] * len(row)
        elif kind == "duplicate":
            scale = draw(st.sampled_from((1, 2, p - 1)))
            rows[j] = [x * scale if type(x) is int else x for x in row]
        elif kind in ("nest", "literal"):
            # a placeholder string, replaced in the text below
            if kind == "nest":
                depth = draw(st.sampled_from(NESTING))
                literal = "[" * depth + "]" * depth
            else:
                literal = draw(st.sampled_from(SPECIAL_LITERALS))
            where = draw(st.sampled_from(("field", "entry", "document")))
            if where == "document":
                obj = "@@"
            elif where == "entry":
                row[c] = "@@"
            else:
                obj[draw(st.sampled_from(FIELDS))] = "@@"
        elif kind == "extra":
            size = draw(st.sampled_from((1, 1000, 10**6)))
            extra = draw(st.sampled_from(("key", "metadata_str", "metadata_list")))
            if extra == "key":
                obj[f"extra_{size}"] = "x" * size
            elif extra == "metadata_str":
                obj["metadata"] = {"blob": "x" * size}
            else:
                obj["metadata"] = {"blob": list(range(min(size, 10**4)))}
        else:
            edit = draw(st.sampled_from(("bom", "bad_utf8", "truncate")))
    text = json.dumps(obj)
    if literal is not None:
        text = text.replace('"@@"', literal, 1)
    data = text.encode("utf-8")
    at = draw(st.integers(0, len(data)))
    if edit == "bom":
        data = b"\xef\xbb\xbf" + data
    elif edit == "bad_utf8":
        bad = draw(st.sampled_from((b"\xff", b"\xc3\x28", b"\xed\xa0\x80")))
        data = data[:at] + bad + data[at:]
    elif edit == "truncate":
        data = data[:at]
    return data


def load_refuses(path):
    try:
        load_instance(path)
    except InstanceFormatError:
        return True
    return False


def syzygy_refuses(path):
    """The syzygy command refuses what load_instance refuses, any shape but
    14 plane points in degree 8, and an instance its stages raise on."""
    try:
        inst = load_instance(path)[0]
        if not octic14_shape(inst):
            return True
        hb, _, fam = point_stages(inst.pointset)
        second_decomposition_system(inst, fam or residual_family(hb))
    except (InstanceFormatError, WaringError):
        return True
    return False


def kruskal_refuses(path, d):
    try:
        inst = load_instance(path)[0]
    except InstanceFormatError:
        return True
    n = inst.pointset.n
    return d < 0 or len(inst.pointset) * comb(n + d, n) > MAX_EVALUATION_ENTRIES


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@pytest.mark.parametrize("kind", MUTATIONS)
@given(st.data(), st.sampled_from(("check", "hilbert", "kruskal", "syzygy")))
@settings(max_examples=12)
def test_mutated_instances_end_in_a_documented_exit(workdir, kind, draws, command):
    data = draws.draw(hostile_instance(kind))
    path = workdir / "instance.json"
    path.write_bytes(data)
    argv = [command, str(path)] + (["--d=3"] if command == "kruskal" else [])
    code, out, err = run(argv)
    if command == "syzygy":
        refused = syzygy_refuses(path)
    elif command == "kruskal":
        refused = kruskal_refuses(path, 3)
    else:
        refused = load_refuses(path)
    assert_clean(code, err, refused)
    if command == "check" and not refused:
        assert code in (0, 1)
        assert_report(out)


@given(st.data())
@settings(max_examples=120)
def test_hostile_flags_end_in_a_documented_exit(workdir, data):
    draw = data.draw
    (workdir / "a_file").write_text("")
    paths = {"t1": (str(FIXTURES / "optics_T1.json"), False),
             "six": (str(FIXTURES / "six_five_aligned.json"), False),
             "missing": (str(workdir / "missing.json"), True),
             "directory": (str(workdir), True)}
    outs = {"none": (None, False), "file": (str(workdir / "out.json"), False),
            "missing_dir": (str(workdir / "missing" / "out.json"), True),
            "directory": (str(workdir), True),
            "under_a_file": (str(workdir / "a_file" / "out.json"), True)}
    command = draw(st.sampled_from(("check", "gen", "hilbert", "kruskal", "syzygy", "bogus")))
    path, bad_path = paths[draw(either(("t1", "six"), ("missing", "directory")))]
    out, bad_out = outs[draw(either(("none", "file"), ("missing_dir", "directory",
                                                        "under_a_file")))]
    out_flags = [f"--out={out}"] if out else []
    if command == "check":
        mode, criteria = draw(either(MODES, HOSTILE_WORDS)), draw(either(CRITERIA, HOSTILE_WORDS))
        argv = ["check", path, f"--mode={mode}", f"--criteria={criteria}"] + out_flags
        refused = mode not in MODES or criteria not in CRITERIA or bad_path or bad_out
    elif command == "gen":
        kind = draw(either(("identifiable", "unidentifiable"), HOSTILE_WORDS))
        seed = draw(either(("0", "1", str(2**63)), FLAG_INTS))
        prime = draw(either(("5", "31991", str(2**31 - 1)), FLAG_INTS))
        rational = draw(st.booleans())
        argv = (["gen", kind, f"--seed={seed}", f"--prime={prime}"] + out_flags
                + ["--rational-residual"] * rational)
        s, q = as_int(seed), as_int(prime)
        refused = (kind not in ("identifiable", "unidentifiable") or s is None or q is None
                   or s < 0 or (rational and kind == "unidentifiable" and q > 2**14)
                   or not is_prime(q)
                   or q * q + q + 1 < 14)
    elif command == "hilbert":
        value = draw(either(("0", "2", "8"), FLAG_INTS))
        argv = ["hilbert", path, f"--max-degree={value}"]
        j = as_int(value)
        refused = j is None or not 0 <= j <= MAX_EVALUATION_ENTRIES or bad_path
    elif command == "kruskal":
        value = draw(either(("0", "2", "3", "8"), FLAG_INTS + ("missing",)))
        argv = ["kruskal", path] + ([f"--d={value}"] if value != "missing" else [])
        d = as_int(value)
        refused = d is None or bad_path or kruskal_refuses(path, d)
    elif command == "syzygy":
        mode = draw(either(MODES, HOSTILE_WORDS))
        argv = ["syzygy", path, f"--mode={mode}"]
        refused = mode not in MODES or bad_path or syzygy_refuses(path)
    else:
        argv = draw(st.sampled_from(([], ["bogus", path], ["--bogus"])))
        refused = True
    code, stdout, err = run(argv)
    if command == "gen":
        # a run that exhausts its draws (expected only in small fields)
        # exits 3 before it would write to --out
        assert code != 3 or as_int(prime) < 257
        refused = refused or (bad_out and code != 3)
    assert_clean(code, err, refused)
    if command == "check" and not refused:
        assert_report(stdout)
        if out:
            assert_report(Path(out).read_text())


def limited_child():
    """Runs in the child between fork and exec: the limits bind it alone."""
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
    resource.setrlimit(resource.RLIMIT_CPU, (20, 20))


def test_endless_and_oversized_inputs_are_refused_under_limits(tmp_path):
    big = tmp_path / "big.json"
    with open(big, "wb") as f:
        f.truncate(100 * 10**6)  # sparse: 100 MB of zero bytes, no disk blocks
    assert big.stat().st_size > MAX_INSTANCE_BYTES
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    children = [subprocess.Popen([sys.executable, "-m", "waringcert.cli", "check", path],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                 env=env, preexec_fn=limited_child)
                for path in ("/dev/zero", str(big))]
    for child in children:
        out, err = child.communicate(timeout=60)
        assert_clean(child.returncode, err, refused=True)
        assert f"longer than {MAX_INSTANCE_BYTES} bytes" in err and not out
