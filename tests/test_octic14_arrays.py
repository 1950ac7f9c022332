"""The octic14 stages on coefficient arrays, pinned against the wrapper
pipeline they replace.

The stages take and return int64 arrays; GradedPoly, ParamPoly and
DenseMatrix are built only when a caller outside them reads one.  These
tests pin the values of every stage (computed with the wrapper pipeline,
before the stages moved to arrays), the bytes of `waringcert syzygy`,
how many wrappers a cold check builds, and that a cold check still runs
each stage through its module binding, where a tracer finds it.
"""

import hashlib

import numpy as np
import pytest

from waringcert import gen_identifiable, gen_unidentifiable, run_criteria
from waringcert import ffield, octic14, polys
from waringcert.errors import WaringError
from waringcert.octic14 import MODES, point_stages, residual_family, second_decomposition_system

from conftest import FIXTURES, fixture_instance
from test_storage_cli import run_cli


def pin_instances():
    """T1, T2 and generator seeds 0-4 of each kind, rational p = 101 included."""
    yield "T1", fixture_instance("optics_T1")
    yield "T2", fixture_instance("optics_T2")
    for s in range(5):
        yield f"id-{s}", gen_identifiable(s).instance
        yield f"un-{s}", gen_unidentifiable(s).instance
        yield f"r101-{s}", gen_unidentifiable(s, prime=101, rational_residual=True).instance


def cofactor_array(hb) -> np.ndarray:
    """The eight cubic cofactors as a (2, 4, 10) coefficient array."""
    return np.asarray(hb.cofactors, dtype=np.int64)


def stage_values(inst):
    """Every value the point stages and the decision system compute on inst,
    in a fixed order: strings and int64 arrays."""
    try:
        hb, Cm, fam = point_stages(inst.pointset)
    except WaringError as e:
        yield type(e).__name__
        return
    yield np.array([q.coeffs for q in hb.quintics])
    yield np.array([[e.coeffs for e in row] for row in hb.M[:1]])
    yield np.array([[e.coeffs for e in row] for row in hb.M[1:]])
    yield cofactor_array(hb)
    yield str(hb.quartic_scale)
    yield Cm.a
    fam = fam or residual_family(hb)
    yield np.array([pm.mat for pm in fam.param_minors])
    for mode in MODES:
        try:
            report = second_decomposition_system(inst, fam, mode=mode)
        except WaringError as e:
            yield type(e).__name__
            continue
        yield report.system_matrix.a
        yield str(report.system_rank)
        yield str(report.selected_columns)
        yield "none" if report.witness is None else report.witness


def stage_digest() -> str:
    h = hashlib.sha256()
    for what, inst in pin_instances():
        h.update(what.encode())
        for value in stage_values(inst):
            if isinstance(value, str):
                h.update(value.encode())
            else:
                h.update(str(value.shape).encode())
                h.update(np.ascontiguousarray(value, dtype=np.int64).tobytes())
    return h.hexdigest()


# Taken with the wrapper pipeline: GradedPoly entries of M, cofactors from
# two maximal_minors calls, C and the family from mult_map stacks.
STAGE_SHA256 = "ea19bc6c37e75636794d5d9272560e2a37bd305eb20a08c9ce7ebf1b39324bad"


def test_stage_values_are_pinned():
    assert stage_digest() == STAGE_SHA256


# sha256 of the stdout of `waringcert syzygy` on each fixture and mode,
# taken with the wrapper pipeline.
SYZYGY_SHA256 = {
    ("optics_T1", "full"):
        "8b2e8b9c27db40bf2dbdccb43cb315cec76d9bbbf32b515a404d0fd08ca95f8e",
    ("optics_T1", "paper13"):
        "23701978a675bd1727e8ded84063c0ac7bd98f77f266e978e48594a0a4e69b35",
    ("optics_T2", "full"):
        "0c3f29a34d84a7ca0f020642faabaf45661c1af6562eaa27eecc5aea9635d7d0",
    ("optics_T2", "paper13"):
        "e66285ab9345efe9ed7d858f69df55c20982b209c4397a23b4b062f1b41a36d5",
}


@pytest.mark.parametrize("name, mode", sorted(SYZYGY_SHA256))
def test_syzygy_dump_bytes_are_pinned(name, mode):
    out = run_cli("syzygy", str(FIXTURES / f"{name}.json"), "--mode", mode)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == SYZYGY_SHA256[name, mode]


# Wrapper constructions in a cold check (run_criteria on a fresh load):
# the evaluation matrices ev(A, 3), ev(A, 4), ev(A, 5) and ev(A, 8) and
# the normalization matrix C.  Built eagerly by the stages, they were 38
# GradedPoly, 4 ParamPoly and 6 DenseMatrix on T1, and 46, 4 and 6 on T2.
COLD_CHECK_WRAPPERS = {"GradedPoly": 0, "ParamPoly": 0, "DenseMatrix": 5}


@pytest.mark.parametrize("name", ("optics_T1", "optics_T2"))
@pytest.mark.parametrize("mode", MODES)
def test_cold_check_builds_wrappers_only_at_the_boundary(monkeypatch, name, mode):
    inst = fixture_instance(name)
    built = dict.fromkeys(COLD_CHECK_WRAPPERS, 0)
    for cls in (polys.GradedPoly, polys.ParamPoly, ffield.DenseMatrix):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    run_criteria(inst, mode=mode)
    assert built == COLD_CHECK_WRAPPERS
    # the wrappers a caller reads are built then, once
    hb, _, fam = point_stages(inst.pointset)
    assert hb.Q is hb.Q and hb.M is hb.M and len(hb.quintics) == 4
    assert fam.param_minors is fam.param_minors
    assert built["GradedPoly"] == 1 + 4 + 20 and built["ParamPoly"] == 4


STAGES = ("hilbert_burch", "normalization_check", "residual_family",
          "second_decomposition_system", "verify_witness")


def test_cold_t2_check_runs_each_stage_once_through_its_module_binding(monkeypatch):
    # a tracer wraps the names bound in octic14; a stage reached another
    # way would leave its span empty
    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        def counted(*args, _f=getattr(octic14, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(octic14, name, counted)
    _, results = run_criteria(fixture_instance("optics_T2"))
    assert dict(results)["octic14"].display() == "NotIdentifiable"
    assert calls == dict.fromkeys(STAGES, 1)


def test_stage_outputs_are_read_only(t2):
    hb, _, fam = point_stages(t2.pointset)
    for a in (hb.q, hb.g, hb.syz, fam.minors):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] += 1
