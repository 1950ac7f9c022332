"""Run the certification criteria on one instance, cheapest first.

Order: the two rank/Hilbert criteria, then the reshaped Kruskal bound
(subset enumeration dominates cost), then the fourteen-point octic
pipeline when its shape applies.  The run stops at the first criterion
that settles identifiability either way; a minimality-only verdict is
kept as a fallback.  Criterion-level errors (redundant instance, wrong
ambient dimension) become degenerate results instead of propagating, so
a batch run always produces a certificate per instance.
"""

from __future__ import annotations

from .criteria import (
    COMPUTES_RANK,
    Certificate,
    DEGENERATE,
    IDENTIFIABLE,
    INCONCLUSIVE,
    Instance,
    NOT_IDENTIFIABLE,
    range_certify,
    ranger_certify,
    reshaped_kruskal_certify,
)
from .errors import WaringError
from .octic14 import FULL, certify_octic14

CRITERIA_ORDER = ("range", "ranger", "kruskal", "octic14")

_STRENGTH = {
    IDENTIFIABLE: 4,
    NOT_IDENTIFIABLE: 3,
    COMPUTES_RANK: 2,
    DEGENERATE: 1,
    INCONCLUSIVE: 0,
}


def _octic14_applicable(inst: Instance) -> bool:
    return inst.pointset.n == 2 and inst.degree == 8 and inst.length == 14


def run_criteria(inst: Instance, criteria: str = "all",
                 mode: str = FULL) -> tuple[Certificate, list[tuple[str, Certificate]]]:
    """(final certificate, per-criterion results)."""
    if criteria == "all":
        names = [n for n in CRITERIA_ORDER
                 if n != "octic14" or _octic14_applicable(inst)]
    elif criteria in CRITERIA_ORDER:
        names = [criteria]
    else:
        raise ValueError(f"unknown criteria selector {criteria!r}")
    results: list[tuple[str, Certificate]] = []
    for name in names:
        try:
            if name == "range":
                cert = range_certify(inst)
            elif name == "ranger":
                cert = ranger_certify(inst)
            elif name == "kruskal":
                cert = reshaped_kruskal_certify(inst)
            else:
                cert = certify_octic14(inst, mode=mode)
        except WaringError as e:
            cert = Certificate(DEGENERATE, reason=f"{type(e).__name__}: {e}")
        except ValueError as e:
            cert = Certificate(DEGENERATE, reason=str(e))
        results.append((name, cert))
        if cert.verdict in (IDENTIFIABLE, NOT_IDENTIFIABLE):
            break
    final = max((c for _, c in results), key=lambda c: _STRENGTH[c.verdict])
    return final, results
