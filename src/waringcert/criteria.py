"""Identifiability and rank certificates for a decomposed form.

An Instance is a point set A, a degree d and a coefficient vector
lambda; the form itself is T = sum_i lambda_i * v_d(P_i), carried as the
coefficient vector of T in the degree-d monomial-evaluation basis.

Each criterion checks its hypotheses by explicit rank computations and
returns a Certificate whose evidence lists every number that went into
the decision, so a report can be audited without re-running anything.
A certificate never claims identifiability unless all hypothesis checks
passed; anything else degrades to inconclusive (bound not met) or an
error (malformed instance, redundant decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import BadSplit, NotConcise, RedundancyDetected
from .ffield import PrimeContext, as_residues, matmul_mod
from .points import PointSet, evaluation_matrix, kruskal_rank_at_least

IDENTIFIABLE = "identifiable"
COMPUTES_RANK = "computes_rank"
NOT_IDENTIFIABLE = "not_identifiable"
DEGENERATE = "degenerate"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a criterion, with all computed evidence attached."""

    verdict: str
    rank: int | None = None
    reason: str | None = None
    witness: dict | None = None
    evidence: tuple = ()

    def display(self) -> str:
        if self.verdict == IDENTIFIABLE:
            return f"IdentifiableOfRank({self.rank})"
        if self.verdict == COMPUTES_RANK:
            return f"ComputesRank({self.rank})"
        if self.verdict == NOT_IDENTIFIABLE:
            return "NotIdentifiable"
        if self.verdict == DEGENERATE:
            return f"Degenerate({self.reason})"
        return f"Inconclusive({self.reason})"

    def evidence_dict(self) -> dict:
        return dict(self.evidence)


class Instance:
    """A decomposition A together with the coefficients of the form.

    The derived coefficient vector of T is V_A . lambda where V_A has the
    degree-d monomial vectors of the points as columns.
    """

    __slots__ = ("pointset", "degree", "lam", "coeff_vector")

    def __init__(self, pointset: PointSet, degree: int, lam):
        if degree < 1:
            raise ValueError("degree must be positive")
        lam_arr = as_residues(lam, pointset.ctx.p).reshape(-1)
        if lam_arr.shape[0] != len(pointset):
            raise ValueError("lambda length must equal the number of points")
        lam_arr.setflags(write=False)
        ev = evaluation_matrix(pointset, degree).a
        t = matmul_mod(lam_arr[None, :], ev, pointset.ctx.p)[0]
        t.setflags(write=False)
        object.__setattr__(self, "pointset", pointset)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "lam", lam_arr)
        object.__setattr__(self, "coeff_vector", t)

    def __setattr__(self, *_):
        raise AttributeError("Instance is immutable")

    @property
    def ctx(self) -> PrimeContext:
        return self.pointset.ctx

    @property
    def length(self) -> int:
        return len(self.pointset)

    def __repr__(self):
        return (f"Instance(d={self.degree}, {self.length} points in "
                f"P^{self.pointset.n} over Z_{self.ctx.p})")


def check_nonredundant(inst: Instance) -> int:
    """Verify A is non-redundant for T; return rank(ev(A, d)).

    Requires both linearly independent Veronese images and no zero
    coefficient: a zero lambda_i makes A redundant for T even when the
    images are independent.
    """
    r = evaluation_matrix(inst.pointset, inst.degree).rank()
    if r != inst.length:
        raise RedundancyDetected(
            f"rank(ev(A,{inst.degree})) = {r} < {inst.length}: dependent Veronese images"
        )
    zeros = np.nonzero(inst.lam == 0)[0]
    if zeros.size:
        raise RedundancyDetected(f"lambda[{int(zeros[0])}] = 0: redundant for T")
    return r


def admissible_splits(d: int) -> list[tuple[int, int, int]]:
    """All splits d1 >= d2 >= d3 >= 1 of d, most balanced first."""
    out = []
    for d1 in range((d + 2) // 3, d - 1):
        for d2 in range((d - d1 + 1) // 2, min(d1, d - d1 - 1) + 1):
            d3 = d - d1 - d2
            if 1 <= d3 <= d2:
                out.append((d1, d2, d3))
    return out


def reshaped_kruskal_certify(inst: Instance,
                             split: tuple[int, int, int] | None = None) -> Certificate:
    """Kruskal-type certificate from three reshaping degrees.

    With 2*ell(A) <= k_{d1} + k_{d2} + k_{d3} - 2 the form has rank
    ell(A) and the decomposition is unique.  With split=None all splits
    are tried (most balanced first) and the first success wins.  A split
    whose bound is below ell(A) even with every k_{di} at its cap
    min(C(n+di, n), ell(A)) is skipped, and that cap bound recorded.
    Otherwise the ranks are found in order, each by descending from its
    cap to the floor f_i = 2*ell(A) + 2 - (the ranks already found) -
    (the caps still to come); a rank below its floor ends the split with
    evidence "<f_i" and the upper bound (2*ell(A) - 1)/2.
    """
    d = inst.degree
    if d < 3:
        raise BadSplit(f"degree {d} < 3 admits no split")
    splits = [split] if split is not None else admissible_splits(d)
    for s in splits:
        if len(s) != 3 or sum(s) != d or not (s[0] >= s[1] >= s[2] >= 1):
            raise BadSplit(f"bad split {s} for degree {d}")
    rk = check_nonredundant(inst)
    ell = inst.length
    n = inst.pointset.n
    evidence = [("rank_ev_d", rk), ("lambda_nonzero", True)]
    found: dict[int, int] = {}  # degree -> exact Kruskal rank
    best = None
    for s in splits:
        name = "_".join(map(str, s))
        caps = [min(comb(n + di, n), ell) for di in s]
        bound = Fraction(sum(caps) - 2, 2)
        if bound < ell:
            evidence.append((f"kruskal_cap_bound_{name}",
                             f"({'+'.join(map(str, caps))}-2)/2 = {bound}"))
        else:
            ks: list[int] = []
            for i, di in enumerate(s):
                floor = 2 * ell + 2 - sum(ks) - sum(caps[i + 1:])
                k = found.get(di) or next(
                    (k for k in range(caps[i], max(floor, 1) - 1, -1)
                     if kruskal_rank_at_least(inst.pointset, di, k)), None)
                if k is None or k < floor:
                    break
                found[di] = k
                ks.append(k)
            if len(ks) == 3:
                # each rank met its floor, so the sum reaches 2*ell(A) + 2
                bound = Fraction(sum(ks) - 2, 2)
                evidence += [(f"kruskal_bound_{name}",
                              f"({'+'.join(map(str, ks))}-2)/2 = {bound}"),
                             ("certifying_split", f"{s[0]}+{s[1]}+{s[2]}")]
                return Certificate(IDENTIFIABLE, rank=ell, evidence=tuple(evidence))
            bound = Fraction(2 * ell - 1, 2)
            terms = ks + [f"<{floor}"] + caps[len(ks) + 1:]
            evidence.append((f"kruskal_bound_{name}",
                             f"({'+'.join(map(str, terms))}-2)/2 < {ell}"))
        best = max(best, bound) if best is not None else bound
    return Certificate(
        INCONCLUSIVE,
        reason=f"ell(A) = {ell} exceeds every split bound (best {best})",
        evidence=tuple(evidence),
    )


def _over_rank_cap(evidence: list, r: int, r_cap: int, d: int,
                   kruskal_degree: int) -> Certificate:
    """Inconclusive from r > rank_cap alone, before any Kruskal rank."""
    evidence += [("rank_cap", r_cap),
                 ("skipped", f"kruskal_{kruskal_degree}: r = {r} > rank_cap = {r_cap}")]
    return Certificate(
        INCONCLUSIVE,
        reason=f"r = {r} exceeds the rank cap {r_cap} at degree {d}",
        evidence=tuple(evidence),
    )


def _floor_evidence(reached: bool, floor: int) -> int | str:
    """Evidence for a Kruskal rank asked only whether it reaches its cap:
    the cap itself when it does, "< cap" when it does not."""
    return floor if reached else f"< {floor}"


def range_certify(inst: Instance) -> Certificate:
    """Identifiability certificate for plane decompositions from one
    Kruskal rank and one Hilbert value.

    Even degree 2m: k_{m-1}(A) and h_A(m) maximal with
    r <= C(m+2,2) - 2.  Odd degree 2m+1: k_m(A) and h_A(m+1) maximal
    with r <= C(m+2,2) + floor(m/2).
    """
    if inst.pointset.n != 2:
        raise ValueError("this criterion is stated for plane point sets")
    rk = check_nonredundant(inst)
    r = inst.length
    d = inst.degree
    m = d // 2
    evidence = [("rank_ev_d", rk), ("lambda_nonzero", True)]
    if d % 2 == 0:
        r_cap = comb(m + 2, 2) - 2
        e, k_need = m - 1, min(comb(m + 1, 2), r)
    else:
        r_cap = comb(m + 2, 2) + m // 2
        e, k_need = m, min(comb(m + 2, 2), r)
    if r > r_cap:
        return _over_rank_cap(evidence, r, r_cap, d, e)
    k_ok = kruskal_rank_at_least(inst.pointset, e, k_need)
    h = evaluation_matrix(inst.pointset, e + 1).rank()
    evidence += [(f"kruskal_{e}", _floor_evidence(k_ok, k_need)),
                 (f"hilbert_{e + 1}", h), ("rank_cap", r_cap)]
    if k_ok and h == r:
        return Certificate(IDENTIFIABLE, rank=r, evidence=tuple(evidence))
    return Certificate(
        INCONCLUSIVE,
        reason=f"hypotheses not met for r = {r} at degree {d}",
        evidence=tuple(evidence),
    )


def ranger_certify(inst: Instance) -> Certificate:
    """Minimality certificate: A computes the rank of T.

    Even degree 2m: h_A(m) = r <= C(m+2,2).  Odd degree 2m+1: k_m(A)
    maximal and h_A(m+1) = r <= C(m+2,2) + ceil(m/2).
    """
    if inst.pointset.n != 2:
        raise ValueError("this criterion is stated for plane point sets")
    rk = check_nonredundant(inst)
    r = inst.length
    d = inst.degree
    m = d // 2
    evidence = [("rank_ev_d", rk), ("lambda_nonzero", True)]
    if d % 2 == 0:
        r_cap = comb(m + 2, 2)
        h = evaluation_matrix(inst.pointset, m).rank()
        evidence += [(f"hilbert_{m}", h), ("rank_cap", r_cap)]
        ok = h == r and r <= r_cap
    else:
        r_cap = comb(m + 2, 2) + (m + 1) // 2
        if r > r_cap:
            return _over_rank_cap(evidence, r, r_cap, d, m)
        k_need = min(comb(m + 2, 2), r)
        k_ok = kruskal_rank_at_least(inst.pointset, m, k_need)
        h = evaluation_matrix(inst.pointset, m + 1).rank()
        evidence += [(f"kruskal_{m}", _floor_evidence(k_ok, k_need)),
                     (f"hilbert_{m + 1}", h), ("rank_cap", r_cap)]
        ok = k_ok and h == r
    if ok:
        return Certificate(COMPUTES_RANK, rank=r, evidence=tuple(evidence))
    return Certificate(
        INCONCLUSIVE,
        reason=f"hypotheses not met for r = {r} at degree {d}",
        evidence=tuple(evidence),
    )


def mo_certify(inst: Instance) -> Certificate:
    """Identifiability in any number of variables from a near-maximal
    Hilbert value one degree below the middle.

    Requires conciseness h_A(1) = min(n+1, r); then for degree 2m or
    2m+1 it needs h_A(m-1) >= r - min((n-1)/2, (m-1)/2), with the odd
    case additionally requiring k_m(A) = r.  The bound is evaluated
    exactly over the rationals; when its fractional part could change
    the outcome under rounding the evidence flags the boundary.
    """
    n = inst.pointset.n
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")
    if inst.degree < 3:
        raise ValueError("degree must be at least 3")
    rk = check_nonredundant(inst)
    r = inst.length
    d = inst.degree
    m = d // 2
    h1 = evaluation_matrix(inst.pointset, 1).rank()
    if h1 != min(n + 1, r):
        raise NotConcise(f"h_A(1) = {h1} < min(n+1, r) = {min(n + 1, r)}")
    bound = min(Fraction(n - 1, 2), Fraction(m - 1, 2))
    h = evaluation_matrix(inst.pointset, m - 1).rank()
    evidence = [("rank_ev_d", rk), ("lambda_nonzero", True),
                ("hilbert_1", h1), (f"hilbert_{m - 1}", h),
                ("defect_bound", str(bound))]
    deficit = r - h
    if bound.denominator != 1 and deficit == int(bound) + 1:
        # a floor reading of the bound would flip this case
        evidence.append(("bound_boundary_case", True))
    ok = Fraction(deficit) <= bound
    if ok and d % 2 == 1:
        ok = kruskal_rank_at_least(inst.pointset, m, r)
        evidence.append((f"kruskal_{m}", _floor_evidence(ok, r)))
    if ok:
        return Certificate(IDENTIFIABLE, rank=r, evidence=tuple(evidence))
    return Certificate(
        INCONCLUSIVE,
        reason=f"h_A({m - 1}) = {h} leaves defect {deficit} > {bound}",
        evidence=tuple(evidence),
    )
