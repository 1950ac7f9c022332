"""Two degree-8 forms on the same fourteen points, opposite verdicts.

The span of the degree-8 Veronese images of a fixed general fourteen-point
set contains both identifiable and unidentifiable forms; which one you get
depends only on the coefficients.  This walks the reference point set
through the full pipeline with the all-ones coefficients (unique
decomposition) and with the special coefficient vector that admits a
second decomposition.  Both forms are built on the same PointSet object,
so everything up to the residual family is computed once, for the first
form, and the second pays only for its own decision system and witness.

Run from the repository root:

    python3 demos/certify_reference_octics.py
"""

from pathlib import Path

from waringcert import (
    Instance,
    certify_octic14,
    check_preconditions,
    point_stages,
)
from waringcert.storage import load_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    t1 = load_instance(FIXTURES / "optics_T1.json")[0]
    print("Admissibility of the fourteen points (shared by both forms):")
    for label, value in check_preconditions(t1):
        print(f"  {label} = {value}")

    hb, C, _ = point_stages(t1.pointset)
    print(f"\nUnique quartic through the points: {str(hb.Q)[:60]}...")
    print(f"Syzygy matrix: conic row + 4x4 linear block; "
          f"normalization matrix rank = {C.rank()}")

    print("\n--- all-ones coefficients ---")
    cert = certify_octic14(t1)
    ev = cert.evidence_dict()
    print(f"decision system rank = {ev['system_rank']} (12 means only the")
    print(f"zero parameter vector works) -> {cert.display()}")

    print("\n--- the special coefficient vector ---")
    t2_lam = load_instance(FIXTURES / "optics_T2.json")[0].lam
    t2 = Instance(t1.pointset, 8, t2_lam)
    cert2 = certify_octic14(t2)
    ev2 = cert2.evidence_dict()
    print(f"decision system rank = {ev2['system_rank']}: a one-dimensional")
    print("family of candidate second decompositions survives.")
    print(f"witness checks: degree-5 piece dim {ev2['residual_dim_5']}, "
          f"degree-8 piece dim {ev2['residual_dim_8']},")
    print(f"ideal sum dim {ev2['ideal_sum_dim_8']}, "
          f"orthogonal generators {ev2['orthogonal_generators']}/55")
    print(f"-> {cert2.display()}")
    print(f"witness parameters a* = {cert2.witness['a']}")


if __name__ == "__main__":
    main()
