"""Run the certification criteria on one instance, cheapest first.

Order: the two rank/Hilbert criteria, then the reshaped Kruskal bound
(subset enumeration dominates cost), then the fourteen-point octic
pipeline when its shape applies.  The run stops at the first criterion
that settles identifiability either way; a minimality-only verdict is
kept as a fallback.  A selected criterion that is not stated for the
instance's shape (range and ranger outside the plane, reshaped Kruskal
below degree 3, octic14 when named for another shape) is skipped and
recorded as inconclusive.  Library errors about the instance (redundant
decomposition, failed pipeline checks) become degenerate results, so a
batch run always produces a certificate per instance; any other
exception is a bug and propagates.
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
from .octic14 import FULL, certify_octic14, octic14_shape

CRITERIA_ORDER = ("range", "ranger", "kruskal", "octic14")

_STRENGTH = {
    IDENTIFIABLE: 4,
    NOT_IDENTIFIABLE: 3,
    COMPUTES_RANK: 2,
    DEGENERATE: 1,
    INCONCLUSIVE: 0,
}


def _not_applicable(name: str, inst: Instance) -> str | None:
    """Why the criterion is not stated for this instance, or None."""
    if name in ("range", "ranger") and inst.pointset.n != 2:
        return f"stated for plane point sets, got n = {inst.pointset.n}"
    if name == "kruskal" and inst.degree < 3:
        return f"stated for degree >= 3, got d = {inst.degree}"
    if name == "octic14" and not octic14_shape(inst):
        return "stated for 14 plane points in degree 8"
    return None


def run_criteria(inst: Instance, criteria: str = "all",
                 mode: str = FULL) -> tuple[Certificate, list[tuple[str, Certificate]]]:
    """(final certificate, per-criterion results)."""
    if criteria == "all":
        names = [n for n in CRITERIA_ORDER
                 if n != "octic14" or octic14_shape(inst)]
    elif criteria in CRITERIA_ORDER:
        names = [criteria]
    else:
        raise ValueError(f"unknown criteria selector {criteria!r}")
    results: list[tuple[str, Certificate]] = []
    for name in names:
        why = _not_applicable(name, inst)
        if why is not None:
            skipped = Certificate(INCONCLUSIVE, reason=f"not applicable: {why}",
                                  evidence=(("skipped", why),))
            results.append((name, skipped))
            continue
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
        results.append((name, cert))
        if cert.verdict in (IDENTIFIABLE, NOT_IDENTIFIABLE):
            break
    final = max((c for _, c in results), key=lambda c: _STRENGTH[c.verdict])
    return final, results
