"""Seeing the second decomposition: rational residual points over Z_101.

Over the default prime the second decomposition of an unidentifiable
form exists as an ideal but its points are almost never rational.  Over
a field small enough to enumerate, the generator can instead choose the
residual points directly on the quartic curve; the two fourteen-point
sets then form a visible 28-point complete intersection of the quartic
with a septic, and the exhaustive plane scan recovers the second set
from the witness parameters alone.

Run from the repository root:

    python3 demos/residual_points.py
"""

import numpy as np

from waringcert import (
    PointSet,
    cb_check,
    gen_unidentifiable,
    h1_defect,
    hilbert_profile,
    point_stages,
    recover_residual_points,
    span_intersection_dim,
)


def main():
    g = gen_unidentifiable(3, prime=101, rational_residual=True)
    inst = g.instance
    a_points = inst.pointset
    print(f"first decomposition A: {len(a_points)} points over Z_101")

    # the generator already built A's residual family; point_stages reads
    # it from the point set instead of building it again
    fam = point_stages(a_points)[2]
    astar = np.array(g.witness_data["a"], dtype=np.int64)
    quintics = [pm.specialize(astar) for pm in fam.param_minors]
    found = recover_residual_points(fam.base.Q, quintics, a_points)
    print(f"plane scan at the witness parameters: {len(found)} residual points")
    b_points = PointSet(inst.ctx, found)

    union = a_points.union(b_points)
    prof = hilbert_profile(union, 10)
    print(f"\nunion A u B: {len(union)} points")
    print("  j  " + " ".join(f"{j:2d}" for j in range(11)))
    print("  Dh " + " ".join(f"{v:2d}" for v in prof.differences))
    print("the difference row climbs 1,2,3,4, plateaus at 4, then steps down")
    print("4,3,2,1: the signature of a complete intersection of a quartic")
    print("and a septic (28 points).")

    print(f"\nCB(8) for the union: {cb_check(union, 8)}")
    print(f"h^1 of the union in degree 8: {h1_defect(union, 8)}")
    dim = span_intersection_dim(a_points, b_points, 8)
    print(f"span(v8(A)) meets span(v8(B)) in dimension {dim}: a single")
    print("point of the space of octics - the generated form itself.")


if __name__ == "__main__":
    main()
