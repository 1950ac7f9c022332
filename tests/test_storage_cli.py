import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from waringcert import cli, storage
from waringcert.errors import InstanceFormatError
from waringcert.storage import (
    canonical_json,
    instance_to_obj,
    load_instance,
    parse_instance,
    save_instance,
    sha256_hex,
)

from conftest import FIXTURES

# regression pins for the shipped reference instances
T1_SHA256 = "c4a604ed079f0a0d56b9724202f1295feb60367e4040138d56f4f24e25b61b52"
T2_SHA256 = "2c6828a19a572bea7a1775def3b1bb92ffad7ae5c42888204317f0da07543c48"


def run_cli(*args):
    """cli.main(args) run in-process, its stdout, stderr and SystemExit code
    caught as a finished process would report them."""
    out, err, code = io.StringIO(), io.StringIO(), None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as e:
            code = e.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args):
    """The same command in a fresh Python process."""
    return subprocess.run([sys.executable, "-m", "waringcert.cli", *args],
                          capture_output=True, text=True)


# --------------------------------------------------------------------- storage

def test_fixture_digests_pinned():
    assert sha256_hex((FIXTURES / "optics_T1.json").read_bytes()) == T1_SHA256
    assert sha256_hex((FIXTURES / "optics_T2.json").read_bytes()) == T2_SHA256


def test_load_reference_instance():
    inst, metadata, digest = load_instance(FIXTURES / "optics_T1.json")
    assert inst.length == 14 and inst.degree == 8
    assert metadata["ground_truth"] == "expected_identifiable"
    assert digest == T1_SHA256


def test_round_trip_byte_identical(tmp_path):
    inst, metadata, _ = load_instance(FIXTURES / "optics_T2.json")
    out = tmp_path / "copy.json"
    text = save_instance(inst, out, metadata)
    inst2, metadata2, _ = load_instance(out)
    assert save_instance(inst2, tmp_path / "copy2.json", metadata2) == text
    assert (FIXTURES / "optics_T2.json").read_text() == text


def test_negative_coordinates_reduced():
    obj = {
        "prime": 31991, "n": 2, "degree": 8,
        "points": [[42, -4, 17]] + [[i + 1, 2 * i + 3, (i * i + 5)] for i in range(13)],
        "lambda": [-1, 10**30] + [1] * 12,
    }
    inst, _ = parse_instance(json.dumps(obj))
    assert inst.pointset.points[0] == (42, 31987, 17)
    assert inst.lam[:2].tolist() == [31990, 10**30 % 31991]


@pytest.mark.parametrize("n, degree", [(8, 40), (30, 10**9)])
def test_parse_rejects_oversized_evaluation_quickly(n, degree):
    # 3 * C(48, 8) is about 1.1e9 entries; C(n+d, n) >= 2**30 in the second
    obj = {
        "prime": 31991, "n": n, "degree": degree,
        "points": [[1] + [0] * n, [0, 1] + [0] * (n - 1), [1] * (n + 1)],
        "lambda": [1, 1, 1],
    }
    t0 = time.perf_counter()
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps(obj))
    assert time.perf_counter() - t0 < 1.0
    assert "evaluation entries" in str(err.value)


def test_parsed_instance_starts_without_cached_ranks():
    # echelon forms (and so ranks) are memoised per point set, so a new parse
    # must not inherit any from an earlier one
    from waringcert.driver import run_criteria

    text = (FIXTURES / "optics_T1.json").read_text()
    first, _ = parse_instance(text)
    run_criteria(first, "all")
    assert any(value._echelon is not None for (kind, *_), value
               in first.pointset._facts.items() if kind == "ev")
    inst, _ = parse_instance(text)
    # a parse computes nothing; reading T builds ev(A, 8) alone
    assert not inst.pointset._facts
    inst.coeff_vector
    assert list(inst.pointset._facts) == [("ev", 8)]
    assert inst.pointset._facts[("ev", 8)]._echelon is None


@pytest.mark.parametrize("mutate, message", [
    (lambda o: o.pop("points"), "missing field 'points'"),
    (lambda o: o.__setitem__("prime", 32000), "not prime"),
    (lambda o: o.__setitem__("points", [[1, 2]] * 3), "list of 3 integers"),
    (lambda o: o.__setitem__("lambda", [1]), "one integer per point"),
    (lambda o: o.__setitem__("points", [[1, 2, "x"], [1, 1, 1], [1, 2, 3]]),
     "only integers"),
])
def test_parse_errors_have_diagnostics(mutate, message):
    obj = {
        "prime": 31991, "n": 2, "degree": 4,
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "lambda": [1, 1, 1],
    }
    mutate(obj)
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps(obj))
    assert message in str(err.value)


@pytest.mark.parametrize("field, value, message", [
    ("prime", True, "field 'prime' must be an integer"),
    ("n", True, "field 'n' must be an integer >= 1"),
    ("degree", True, "field 'degree' must be an integer >= 1"),
    ("points", [[1, 0, 0], [0, True, 0], [0, 0, 1]], "points[1] must contain only integers"),
    ("lambda", [1, False, 1], "field 'lambda' must contain only integers"),
])
def test_parse_rejects_json_booleans(field, value, message):
    # bool is a subclass of int, so true and false would pass an isinstance check
    obj = {
        "prime": 31991, "n": 2, "degree": 4,
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "lambda": [1, 1, 1],
    }
    obj[field] = value
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps(obj))
    assert message in str(err.value)


def test_parse_rejects_boolean_p1_instance():
    text = ('{"prime": 31991, "degree": 2, "n": true, '
            '"points": [[true, false], [false, true], [1, 1]], "lambda": [1, true, 3]}')
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert "field 'n' must be an integer >= 1" in str(err.value)


def test_parse_bad_json_reports_position():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("{\n  \"prime\": 31991,,\n}")
    assert "line 2" in str(err.value)


# ------------------------------------------------------------------------- cli

def test_check_identifiable_exit_and_verdict():
    res = run_cli("check", str(FIXTURES / "optics_T1.json"))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["verdict"] == "IdentifiableOfRank(14)"
    evidence = dict(report["evidence"])
    assert evidence["system_rank"] == 12
    # the rank claimed by the verdict is backed by evidence entries
    assert report["rank"] == 14
    assert evidence["rank_ev8"] == 14 and evidence["hilbert_4"] == 14


def test_check_unidentifiable_has_witness_evidence():
    res = run_cli("check", str(FIXTURES / "optics_T2.json"))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["verdict"] == "NotIdentifiable"
    evidence = dict(report["evidence"])
    assert evidence["system_rank"] == 11
    assert report["witness"]["a"]


def test_check_report_deterministic(tmp_path):
    # two fresh processes, so no memo or hash seed is shared
    a = run_process("check", str(FIXTURES / "optics_T1.json"))
    b = run_process("check", str(FIXTURES / "optics_T1.json"))
    ra, rb = json.loads(a.stdout), json.loads(b.stdout)
    assert ra["digest"] == rb["digest"]
    payload = {k: v for k, v in ra.items() if k not in ("digest", "timings")}
    assert payload == {k: v for k, v in rb.items() if k not in ("digest", "timings")}
    recomputed = sha256_hex(canonical_json(payload).encode("utf-8"))
    assert recomputed == ra["digest"]


def test_check_out_file_holds_the_stdout_bytes(tmp_path):
    out = tmp_path / "r.json"
    res = subprocess.run(
        [sys.executable, "-m", "waringcert.cli", "check",
         str(FIXTURES / "optics_T2.json"), "--out", str(out)],
        capture_output=True,
    )
    assert res.returncode == 0
    assert out.read_bytes() == res.stdout


def test_check_malformed_instance_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"prime": 31991, "n": 2, "degree": 8, "points": "zzz", "lambda": []}')
    res = run_cli("check", str(bad))
    assert res.returncode == 2
    assert "points" in res.stderr


def test_check_inconclusive_exit_1():
    # 14 points in degree 8 exceed every split bound of the reshaped
    # Kruskal criterion, so that criterion alone leaves T1 inconclusive
    res = run_cli("check", str(FIXTURES / "optics_T1.json"), "--criteria", "kruskal")
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["verdict"].startswith("Inconclusive")


def test_check_degree_two_fixture_exit_1():
    # the reshaped criterion is not stated below degree 3 and is skipped
    res = run_cli("check", str(FIXTURES / "six_general.json"))
    assert res.returncode == 1
    assert json.loads(res.stdout)["verdict"].startswith("Inconclusive(")


def test_check_paper13_mode_agrees():
    res = run_cli("check", str(FIXTURES / "optics_T2.json"), "--mode", "paper13",
                  "--criteria", "octic14")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["verdict"] == "NotIdentifiable"
    assert dict(report["evidence"])["system_rank"] == 11


def test_gen_roundtrip_through_check(tmp_path):
    out = tmp_path / "gen.json"
    res = run_cli("gen", "unidentifiable", "--seed", "7", "--out", str(out))
    assert res.returncode == 0
    check = run_cli("check", str(out))
    assert check.returncode == 0
    assert json.loads(check.stdout)["verdict"] == "NotIdentifiable"
    meta = json.loads(out.read_text())["metadata"]
    assert meta["ground_truth"] == "known_unidentifiable"


def test_gen_deterministic_bytes(tmp_path):
    a = run_process("gen", "identifiable", "--seed", "9")
    b = run_process("gen", "identifiable", "--seed", "9")
    assert a.stdout == b.stdout and a.returncode == 0


def test_gen_composite_prime_exit_2():
    res = run_cli("gen", "identifiable", "--seed", "1", "--prime", "32000")
    assert res.returncode == 2


def test_gen_prime_flag():
    # over p=101 the full admissibility gate is unreachable: budget exhausts
    res = run_cli("gen", "identifiable", "--seed", "4", "--prime", "101")
    assert res.returncode == 3
    assert "no admissible point set in 1000 attempts" in res.stderr
    res2 = run_cli("gen", "identifiable", "--seed", "4", "--prime", "1009")
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["prime"] == 1009


def test_hilbert_table_conic_fixture():
    res = run_cli("hilbert", str(FIXTURES / "six_on_conic.json"))
    assert res.returncode == 0
    lines = [" ".join(line.split()) for line in res.stdout.strip().splitlines()]
    assert lines[1] == "h 1 3 5 6 6"
    assert lines[2] == "Dh 1 2 2 1 0"


def test_hilbert_table_five_aligned():
    res = run_cli("hilbert", str(FIXTURES / "six_five_aligned.json"))
    lines = [" ".join(line.split()) for line in res.stdout.strip().splitlines()]
    assert lines[1] == "h 1 3 4 5 6 6"
    assert lines[2] == "Dh 1 2 1 1 1 0"


@pytest.mark.parametrize("command, option", (("hilbert", "--max-degree"),
                                             ("kruskal", "--d")))
def test_negative_degree_is_an_input_error(command, option):
    res = run_cli(command, str(FIXTURES / "six_on_conic.json"), option, "-1")
    assert res.returncode == 2
    assert res.stderr.strip() == f"error: {option} must be >= 0"


@pytest.mark.parametrize("j, code", ((2**18, 0), (2**18 + 1, 2), (10**9, 2)))
def test_hilbert_command_bounds_its_table(j, code):
    # one column per degree: 2**18 columns still print, more are refused
    # before any profile is computed
    t0 = time.perf_counter()
    res = run_cli("hilbert", str(FIXTURES / "six_on_conic.json"), "--max-degree", str(j))
    assert res.returncode == code
    if code:
        assert res.stderr.strip() == "error: --max-degree must be <= 262144"
    else:
        assert res.stdout.split()[-1] == "0" and len(res.stdout.splitlines()) == 3
    assert time.perf_counter() - t0 < 10


def test_kruskal_command_reference():
    res = run_cli("kruskal", str(FIXTURES / "optics_T1.json"), "--d", "3")
    assert res.returncode == 0
    assert "k_3 = 10" in res.stdout and "1001 subsets" in res.stdout


@pytest.mark.parametrize("d", (193, 10**5))
def test_kruskal_command_refuses_oversized_degree(d):
    # T1 needs 14 * C(d+2, 2) entries: 262,094 at d = 192 fit the bound
    # and 264,810 at d = 193 do not; no degree-d basis is built to refuse
    t0 = time.perf_counter()
    res = run_cli("kruskal", str(FIXTURES / "optics_T1.json"), "--d", str(d))
    assert res.returncode == 2
    assert "evaluation entries" in res.stderr
    assert time.perf_counter() - t0 < 10


def test_kruskal_command_empty_points(tmp_path):
    bad = tmp_path / "empty.json"
    bad.write_text('{"prime": 31991, "n": 2, "degree": 3, "points": [], "lambda": []}')
    res = run_cli("kruskal", str(bad), "--d", "1")
    assert res.returncode == 2


def test_syzygy_dump():
    res = run_cli("syzygy", str(FIXTURES / "optics_T1.json"))
    assert res.returncode == 0
    dump = json.loads(res.stdout)
    assert dump["normalization_rank"] == 12
    assert dump["system_rank"] == 12
    assert len(dump["syzygy_matrix"]) == 5
    assert len(dump["syzygy_matrix"][0]) == 4


@pytest.mark.parametrize("degree", (6, 9))
def test_syzygy_refuses_other_shapes(tmp_path, degree):
    # T1's fourteen points in another degree: the pipeline is stated for 8
    obj = json.loads((FIXTURES / "optics_T1.json").read_text())
    obj["degree"] = degree
    path = tmp_path / f"t1_degree{degree}.json"
    path.write_text(json.dumps(obj))
    res = run_cli("syzygy", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and res.stdout == ""


@pytest.mark.parametrize("args, message", (
    (("gen", "identifiable", "--seed", "-1"), "--seed must be >= 0"),
    (("check", "{dir}"), "Is a directory"),
    (("hilbert", "{dir}"), "Is a directory"),
    (("kruskal", "{dir}", "--d", "1"), "Is a directory"),
    (("syzygy", "{dir}"), "Is a directory"),
    (("check", "{latin1}"), "not UTF-8 text"),
    (("hilbert", "{latin1}"), "not UTF-8 text"),
    (("kruskal", "{latin1}", "--d", "1"), "not UTF-8 text"),
    (("syzygy", "{latin1}"), "not UTF-8 text"),
    (("check", "{t1}", "--out", "{dir}/missing/r.json"), "No such file or directory"),
    (("gen", "identifiable", "--out", "{dir}/missing/g.json"), "No such file or directory"),
    (("check", "{nested}"), "recursion"),
    (("check", "{long_lambda}"), "digits"),
    (("gen", "identifiable", "--prime", "3"), "fewer than 14"),
))
def test_cli_io_errors_exit_2_with_one_error_line(tmp_path, args, message):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"prime": 31991, "n": 2, "degree": 3, "note": "\u00e9"}'
                       .encode("latin-1"))
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 1000 + "]" * 1000)
    long_lambda = tmp_path / "long_lambda.json"
    long_lambda.write_text(t1_with_long_lambda())
    paths = {"dir": tmp_path, "latin1": latin1, "t1": FIXTURES / "optics_T1.json",
             "nested": nested, "long_lambda": long_lambda}
    res = run_cli(*(a.format(**paths) for a in args))
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
    assert not (tmp_path / "missing").exists()


def test_load_instance_refuses_non_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"prime": 7}\xff')
    with pytest.raises(InstanceFormatError, match="not UTF-8"):
        load_instance(path)


def t1_with_long_lambda(digits=5001) -> str:
    """T1's text with its first coefficient replaced by a literal of the
    given number of digits."""
    text = (FIXTURES / "optics_T1.json").read_text()
    lam0 = str(json.loads(text)["lambda"][0])
    head, tail = text.split('"lambda": [', 1)
    first, rest = tail.split(lam0, 1)
    return head + '"lambda": [' + first + "7" * digits + rest


@pytest.mark.parametrize("text, message", (
    ("[" * 1000 + "]" * 1000, "recursion"),
    ('{"a": ' * 100000 + "1" + "}" * 100000, "recursion"),
    (t1_with_long_lambda(), "4300 digits"),
))
def test_parse_refuses_deep_nesting_and_long_integers(text, message):
    with pytest.raises(InstanceFormatError, match=message):
        parse_instance(text)


def test_parse_accepts_a_long_integer_within_the_digit_limit():
    inst, _ = parse_instance(t1_with_long_lambda(4000))
    assert inst.lam[0] == int("7" * 4000) % inst.ctx.p


def test_load_instance_refuses_input_past_the_byte_bound(monkeypatch):
    path = FIXTURES / "optics_T1.json"
    size = len(path.read_bytes())
    monkeypatch.setattr(storage, "MAX_INSTANCE_BYTES", size)
    assert load_instance(path)[2] == T1_SHA256
    monkeypatch.setattr(storage, "MAX_INSTANCE_BYTES", size - 1)
    with pytest.raises(InstanceFormatError, match=f"longer than {size - 1} bytes"):
        load_instance(path)


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
def test_load_instance_stops_reading_an_endless_input():
    with pytest.raises(InstanceFormatError, match="longer than"):
        load_instance("/dev/zero")


def test_instance_obj_is_canonical(t1):
    text = canonical_json(instance_to_obj(t1))
    assert text == canonical_json(json.loads(text))
