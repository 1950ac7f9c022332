"""Command-line front end.

Subcommands: check (run criteria, write a report), gen (ground-truth
instances), hilbert (h/Dh table), kruskal (one Kruskal rank), syzygy
(debug dump of the octic pipeline's matrices).

Exit codes for check: 0 a verdict was reached (either way), 1 the run
stayed inconclusive, 2 input error (a bad option, or an instance file
that is missing, unreadable, not UTF-8 or malformed, or an --out path
that cannot be written).  gen adds 3 for an exhausted attempt budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .criteria import INCONCLUSIVE
from .driver import run_criteria
from .errors import (
    FieldTooSmall,
    GenerationExhausted,
    InstanceFormatError,
    NotPrime,
    ScanBudgetExceeded,
    WaringError,
)
from .ffield import DEFAULT_PRIME
from .generate import gen_identifiable, gen_unidentifiable
from .octic14 import (
    FULL,
    MODES,
    octic14_shape,
    point_stages,
    residual_family,
    second_decomposition_system,
)
from .points import MAX_EVALUATION_ENTRIES, hilbert_profile, kruskal_rank_detail
from .storage import (
    build_report,
    canonical_json,
    check_evaluation_size,
    instance_to_obj,
    load_instance,
    save_instance,
)

EXIT_VERDICT = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3


def _load(path):
    try:
        return load_instance(path)
    except InstanceFormatError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        sys.exit(EXIT_INPUT)


def cmd_check(args) -> int:
    inst, metadata, digest = _load(args.path)
    t0 = time.perf_counter()
    final, results = run_criteria(inst, criteria=args.criteria, mode=args.mode)
    elapsed = time.perf_counter() - t0
    report = build_report(
        final, results,
        flags={"mode": args.mode, "criteria": args.criteria},
        input_digest=digest,
        timings={"total_seconds": round(elapsed, 6)},
        input_metadata=metadata,
    )
    text = canonical_json(report)
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return EXIT_INCONCLUSIVE if final.verdict == INCONCLUSIVE else EXIT_VERDICT


def cmd_gen(args) -> int:
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.kind == "identifiable":
            gen = gen_identifiable(args.seed, args.prime)
        else:
            gen = gen_unidentifiable(args.seed, args.prime,
                                     rational_residual=args.rational_residual)
    except (NotPrime, FieldTooSmall, ScanBudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except GenerationExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_EXHAUSTED
    metadata = {"seed": gen.seed, "ground_truth": gen.ground_truth,
                "attempts": gen.attempts}
    if gen.witness_data and gen.witness_data.get("residual_points"):
        metadata["residual_points"] = gen.witness_data["residual_points"]
    if args.out:
        save_instance(gen.instance, args.out, metadata)
    else:
        sys.stdout.write(canonical_json(instance_to_obj(gen.instance, metadata)))
    return EXIT_VERDICT


def cmd_hilbert(args) -> int:
    j_max = args.max_degree
    # the table has j_max + 1 columns, though h_Z is constant from ell - 1
    if j_max is not None and not 0 <= j_max <= MAX_EVALUATION_ENTRIES:
        bound = ">= 0" if j_max < 0 else f"<= {MAX_EVALUATION_ENTRIES}"
        print(f"error: --max-degree must be {bound}", file=sys.stderr)
        return EXIT_INPUT
    inst, _, _ = _load(args.path)
    ps = inst.pointset
    prof = hilbert_profile(ps, len(ps) if j_max is None else j_max)
    if j_max is None:
        # up to stabilization plus one degree so the zero difference shows
        j_max = prof.values.index(len(ps)) + 1
    values, diffs = prof.values[:j_max + 1], prof.differences[:j_max + 1]
    width = max(len(str(v)) for v in values) + 2
    print("j  " + "".join(f"{j:>{width}}" for j in range(j_max + 1)))
    print("h  " + "".join(f"{v:>{width}}" for v in values))
    print("Dh " + "".join(f"{v:>{width}}" for v in diffs))
    return EXIT_VERDICT


def cmd_kruskal(args) -> int:
    if args.d < 0:
        print("error: --d must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    inst, _, _ = _load(args.path)
    try:
        check_evaluation_size(inst.length, inst.pointset.n, args.d)
    except InstanceFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    k, examined = kruskal_rank_detail(inst.pointset, args.d)
    print(f"k_{args.d} = {k} ({examined} subsets examined)")
    return EXIT_VERDICT


def cmd_syzygy(args) -> int:
    inst, _, _ = _load(args.path)
    if not octic14_shape(inst):
        print("error: syzygy is stated for 14 plane points in degree 8", file=sys.stderr)
        return EXIT_INPUT
    try:
        hb, Cm, fam = point_stages(inst.pointset)
        fam = fam or residual_family(hb)  # dumped even at normalization rank < 12
        report = second_decomposition_system(inst, fam, mode=args.mode)
    except WaringError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT
    out = {
        "quartic": str(hb.Q),
        "quintics": [str(q) for q in hb.quintics],
        "syzygy_matrix": [[str(e) for e in row] for row in hb.M],
        "normalization_matrix": Cm.a.tolist(),
        "normalization_rank": Cm.rank(),
        "system_mode": report.mode,
        "system_matrix": report.system_matrix.a.tolist(),
        "system_rank": report.system_rank,
    }
    if report.selected_columns is not None:
        out["selected_columns"] = list(report.selected_columns)
    sys.stdout.write(canonical_json(out))
    return EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="waringcert",
        description="Exact certificates of minimality and uniqueness for "
                    "Waring decompositions of ternary forms.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify an instance file")
    p.add_argument("path")
    p.add_argument("--mode", choices=MODES, default=FULL,
                   help="decision system: full 40x12 or reduced 13x12")
    p.add_argument("--criteria", default="all",
                   choices=("all", "range", "ranger", "kruskal", "octic14"))
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a ground-truth instance")
    p.add_argument("kind", choices=("identifiable", "unidentifiable"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--rational-residual", action="store_true",
                   help="small fields: make the second decomposition's "
                        "points rational")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("hilbert", help="print the Hilbert function table")
    p.add_argument("path")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("kruskal", help="print one Kruskal rank")
    p.add_argument("path")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_kruskal)

    p = sub.add_parser("syzygy", help="dump the octic pipeline's matrices")
    p.add_argument("path")
    p.add_argument("--mode", choices=MODES, default=FULL)
    p.set_defaults(func=cmd_syzygy)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (NotPrime, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
