"""Hilbert functions and the Cayley-Bacharach property for small plane sets.

Three classic six-point configurations distinguish themselves purely by
their Hilbert function tables, and the tables decide which degrees have
the Cayley-Bacharach property (every curve of that degree through all
but one point is forced through the last one).

Run from the repository root:

    python3 demos/hilbert_tables.py
"""

from pathlib import Path

from waringcert import cb_check, h1_defect, hilbert_profile
from waringcert.storage import load_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show(name, z, j_max, cb_degrees):
    prof = hilbert_profile(z, j_max)
    print(f"\n{name}  (ell = {len(z)})")
    print("  j  " + "  ".join(f"{j}" for j in range(j_max + 1)))
    print("  h  " + "  ".join(f"{v}" for v in prof.values))
    print("  Dh " + "  ".join(f"{v}" for v in prof.differences))
    for d in cb_degrees:
        print(f"  CB({d}) = {cb_check(z, d)},  h^1({d}) = {h1_defect(z, d)}")


def main():
    sets = {key: load_instance(FIXTURES / f"six_{key}.json")[0].pointset
            for key in ("general", "on_conic", "five_aligned")}
    print("The Hilbert function h(j) is the rank of the degree-j evaluation")
    print("matrix; its first difference encodes the geometry of the points.")
    show("six general points", sets["general"], 3, (1, 2))
    show("six points on an irreducible conic", sets["on_conic"], 4, (1, 2))
    show("six points, five on a line", sets["five_aligned"], 5, (1,))
    print("\nGeneral points fail CB(2): removing the point off a conic frees")
    print("a conic through the other five.  On a conic, the sixth point is")
    print("forced, so CB(2) holds.  With five aligned, dropping the isolated")
    print("point lets the line absorb a linear form, so even CB(1) fails.")


if __name__ == "__main__":
    main()
