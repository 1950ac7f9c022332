"""Instance and report files.

Instances are JSON objects with integer coordinates (negative values
are accepted and reduced mod p on load).  Files written by save_instance
are canonical: sorted keys, two-space indent, trailing newline, so a
load/save round trip is byte-identical.

Reports carry the verdict, the full evidence list, an input digest and
a report digest; timings are excluded from the digest so the digest is
reproducible run to run.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

from . import __version__
from .criteria import Certificate, Instance
from .errors import InstanceFormatError, NotPrime, WaringError
from .ffield import PrimeContext
from .points import MAX_EVALUATION_ENTRIES, PointSet

INSTANCE_FIELDS = ("prime", "n", "degree", "points", "lambda")

# Longest file load_instance reads: a valid instance has at most 1.5x
# MAX_EVALUATION_ENTRIES integers, under 20 bytes each in canonical JSON
# plus about 14 per point for brackets, which leaves megabytes for metadata.
MAX_INSTANCE_BYTES = 64 * MAX_EVALUATION_ENTRIES


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _expect(cond: bool, msg: str):
    if not cond:
        raise InstanceFormatError(msg)


def check_evaluation_size(ell: int, n: int, d: int) -> None:
    """Refuse ell points in degree d when ev(Z, d) would exceed the bound;
    C(n+d, n) >= 2**min(n, d), so the first test keeps math.comb small."""
    _expect(min(n, d) < MAX_EVALUATION_ENTRIES.bit_length()
            and ell * comb(n + d, n) <= MAX_EVALUATION_ENTRIES,
            f"{ell} points in degree {d} need more than "
            f"{MAX_EVALUATION_ENTRIES} evaluation entries (ell * C(n+d, n))")


def parse_instance(text: str) -> tuple[Instance, dict]:
    """Parse instance JSON; returns (instance, metadata).

    Raises InstanceFormatError with field diagnostics on anything
    malformed, including a composite modulus.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except (RecursionError, ValueError) as e:  # too deep, or too many digits
        raise InstanceFormatError(f"JSON refused: {e}") from e
    _expect(isinstance(obj, dict), "top level must be an object")
    for key in INSTANCE_FIELDS:
        _expect(key in obj, f"missing field {key!r}")
    # type() rather than isinstance: JSON true and false are bools, and
    # bool is a subclass of int
    _expect(type(obj["prime"]) is int, "field 'prime' must be an integer")
    try:
        ctx = PrimeContext(obj["prime"])
    except NotPrime as e:
        raise InstanceFormatError(f"field 'prime': {e}") from e
    n = obj["n"]
    _expect(type(n) is int and n >= 1, "field 'n' must be an integer >= 1")
    degree = obj["degree"]
    _expect(type(degree) is int and degree >= 1,
            "field 'degree' must be an integer >= 1")
    points = obj["points"]
    _expect(isinstance(points, list) and points, "field 'points' must be a nonempty list")
    for i, row in enumerate(points):
        _expect(isinstance(row, list) and len(row) == n + 1,
                f"points[{i}] must be a list of {n + 1} integers")
        _expect(all(type(c) is int for c in row),
                f"points[{i}] must contain only integers")
    lam = obj["lambda"]
    _expect(isinstance(lam, list) and len(lam) == len(points),
            "field 'lambda' must list one integer per point")
    _expect(all(type(c) is int for c in lam),
            "field 'lambda' must contain only integers")
    metadata = obj.get("metadata", {})
    _expect(isinstance(metadata, dict), "field 'metadata' must be an object")
    check_evaluation_size(len(points), n, degree)
    try:
        ps = PointSet(ctx, points)
        inst = Instance(ps, degree, [c % ctx.p for c in lam])
    except (WaringError, ValueError) as e:
        raise InstanceFormatError(f"invalid instance data: {e}") from e
    return inst, metadata


def load_instance(path) -> tuple[Instance, dict, str]:
    """(instance, metadata, sha256 of the file bytes)."""
    with open(path, "rb") as f:
        data = f.read(MAX_INSTANCE_BYTES + 1)
    _expect(len(data) <= MAX_INSTANCE_BYTES,
            f"input is longer than {MAX_INSTANCE_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InstanceFormatError(f"not UTF-8 text: {e.reason} at byte {e.start}") from e
    inst, metadata = parse_instance(text)
    return inst, metadata, sha256_hex(data)


def instance_to_obj(inst: Instance, metadata: dict | None = None) -> dict:
    obj = {
        "prime": inst.ctx.p,
        "n": inst.pointset.n,
        "degree": inst.degree,
        "points": [[int(c) for c in pt] for pt in inst.pointset.points],
        "lambda": [int(c) for c in inst.lam],
    }
    if metadata:
        obj["metadata"] = metadata
    return obj


def save_instance(inst: Instance, path, metadata: dict | None = None) -> str:
    text = canonical_json(instance_to_obj(inst, metadata))
    Path(path).write_text(text)
    return text


def build_report(final: Certificate, per_criterion, flags: dict,
                 input_digest: str, timings: dict | None = None,
                 input_metadata: dict | None = None) -> dict:
    """Assemble a report; the digest covers everything except timings."""
    def evidence_obj(cert: Certificate):
        return [[label, _plain(value)] for label, value in cert.evidence]

    report = {
        "tool": {"name": "waringcert", "version": __version__},
        "input_digest": input_digest,
        "input_metadata": input_metadata or {},
        "flags": flags,
        "verdict": final.display(),
        "rank": final.rank,
        "reason": final.reason,
        "witness": _plain(final.witness),
        "evidence": evidence_obj(final),
        "criteria": [
            {
                "name": name,
                "verdict": cert.display(),
                "evidence": evidence_obj(cert),
            }
            for name, cert in per_criterion
        ],
    }
    report["digest"] = sha256_hex(canonical_json(report).encode("utf-8"))
    report["timings"] = timings or {}
    return report


def _plain(value):
    """Make evidence values JSON-clean (numpy scalars/arrays to ints/lists)."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "tolist"):
        return _plain(value.tolist())
    return str(value)


def save_report(report: dict, path) -> str:
    text = canonical_json(report)
    Path(path).write_text(text)
    return text
