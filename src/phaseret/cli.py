"""Command-line surface: exact checks, falsifier searches, generators, survey.

Exit codes: 0 property holds / witness valid, 1 property fails or a
witness was found, 2 usage or input error, 3 search exhausted without a
witness (inconclusive).  All subcommands accept --seed, falling back to
the PHASERET_SEED environment variable, then 0, read before the command
runs; identical command plus seed reproduces identical output byte for
byte (wall time aside).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import time

from . import __version__
from .certify import (
    SearchConfig,
    Status,
    complex_counterexample,
    decide_real_rank1,
    gen_full_spark,
    gen_random_projections,
    pr_falsifier,
    spanning_falsifier,
    verify_pr_witness,
)
from .errors import CapacityError, FieldError
from .frames import _SUBSET_BUDGET, Frame, ProjectionFamily, complement_property, full_spark
from .linalg import Field, Tolerances, gaussian_matrix
from .seeding import spawn_rng
from . import serialize

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3

_STREAM_SURVEY = 7


def _tolerances(args) -> Tolerances:
    given = {"rank_rtol": args.tol_rank, "witness_tol": args.tol_witness,
             "phase_tol": args.tol_phase}
    return Tolerances(**{name: value for name, value in given.items() if value is not None})


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PHASERET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"PHASERET_SEED must be an integer, got {env!r}") from None
    return 0


def _search_config(args, tol: Tolerances, seed: int) -> SearchConfig:
    return SearchConfig(restarts=args.restarts, max_iters=args.iters, seed=seed, tol=tol)


def _config_echo(tol: Tolerances, seed: int, args) -> dict:
    cfg = {
        "seed": seed,
        "rank_rtol": tol.rank_rtol,
        "witness_tol": tol.witness_tol,
        "phase_tol": tol.phase_tol,
    }
    for name in ("restarts", "iters", "cap", "mode", "trials", "field", "kind"):
        if hasattr(args, name) and getattr(args, name) is not None:
            cfg[name] = getattr(args, name)
    return cfg


def _fmt_indices(idx) -> str:
    return "{" + ", ".join(str(i) for i in idx) + "}"


def _cmd_check_cp(args, tol: Tolerances, seed: int):
    f = serialize.load_frame(args.input)
    w = complement_property(f, tol)
    if w is None:
        print("complement property: holds")
        return EXIT_HOLDS, {"holds": True, "witness": None}
    d = serialize.partition_to_dict(w)
    print(f"complement property: fails, I = {_fmt_indices(d['side_I'])} "
          f"(rank {w.rank_I}) vs I^c = {_fmt_indices(d['side_Ic'])} (rank {w.rank_Ic})")
    return EXIT_FAILS, {"holds": False, "witness": d}


def _cmd_check_spark(args, tol: Tolerances, seed: int):
    f = serialize.load_frame(args.input)
    bad = full_spark(f, tol, cap=args.cap)
    if bad is None:
        print("full spark: holds")
        return EXIT_HOLDS, {"holds": True, "failing_subset": None}
    shown = serialize.one_based(bad)
    print(f"full spark: fails, subset {_fmt_indices(shown)} is rank deficient")
    return EXIT_FAILS, {"holds": False, "failing_subset": shown}


_STATUS_EXIT = {
    Status.CERTIFIED_HOLDS: EXIT_HOLDS,
    Status.CERTIFIED_FAILS: EXIT_FAILS,
    Status.FALSIFIED: EXIT_FAILS,
    Status.NO_WITNESS_FOUND: EXIT_INCONCLUSIVE,
}


def _print_verdict(verdict) -> None:
    print(f"verdict: {verdict.status.value} (method: {verdict.method})")
    if verdict.partition is not None:
        d = serialize.partition_to_dict(verdict.partition)
        print(f"  failing bipartition: I = {_fmt_indices(d['side_I'])} vs "
              f"I^c = {_fmt_indices(d['side_Ic'])}")
    if verdict.witness is not None:
        w = verdict.witness
        print(f"  witness pair: max_mismatch = {w.max_mismatch:.3e}, "
              f"phase_gap = {w.phase_gap:.3e}")


def _cmd_falsify(args, tol: Tolerances, seed: int):
    p = serialize.load_family(args.input, tol)
    cfg = _search_config(args, tol, seed)
    verdict = spanning_falsifier(p, cfg) if args.mode == "spanning" else pr_falsifier(p, cfg)
    _print_verdict(verdict)
    return _STATUS_EXIT[verdict.status], serialize.verdict_to_dict(verdict, p.field)


def _parse_ranks(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--ranks must be comma-separated integers, got {text!r}") from None


def _cmd_gen(args, tol: Tolerances, seed: int):
    field = Field.parse(args.field)
    code = EXIT_HOLDS
    if args.kind == "full-spark":
        if args.m is None:
            raise ValueError("--kind full-spark needs --m")
        f = gen_full_spark(args.n, args.m, field, tol)
        obj = serialize.frame_to_dict(f)
        how = ("Vandermonde on the m-th roots of unity" if field is Field.COMPLEX
               else "harmonic frame at angles 2 pi j / m")
        print(f"generated full-spark frame: n = {f.dim}, m = {f.size}, "
              f"field = {field.value}; full spark by construction ({how})")
    elif args.kind == "counterexample":
        cfg = _search_config(args, tol, seed)
        rep = complex_counterexample(args.n, cfg)
        obj = serialize.frame_to_dict(rep.frame)
        print(f"generated counterexample frame: n = {rep.frame.dim}, "
              f"m = {rep.frame.size}, field = complex")
        why = ("full spark at m = 2n-1" if rep.spanning_certified
               else "no exact full-spark certificate")
        print(f"  spanning certified: {rep.spanning_certified} ({why})")
        if rep.witness is not None:
            print(f"  witness: max_mismatch = {rep.witness.max_mismatch:.3e}, "
                  f"phase_gap = {rep.witness.phase_gap:.3e} (method: {rep.method})")
        else:
            print("  witness: none found (inconclusive)")
            code = EXIT_INCONCLUSIVE
    elif args.kind == "random-proj":
        if args.ranks is None:
            raise ValueError("--kind random-proj needs --ranks")
        p = gen_random_projections(args.n, _parse_ranks(args.ranks), field, seed, tol)
        obj = serialize.family_to_dict(p)
        print(f"generated projection family: n = {p.dim}, ranks = {list(p.ranks)}, "
              f"field = {field.value}, seed = {seed}")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind!r}")
    if args.out is not None:
        serialize.save_json(args.out, obj)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))
    return code, None


def _parse_range(text: str, name: str) -> range:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"{name} must be N or LO:HI, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"{name}: empty range {text!r}")
    return range(lo, hi + 1)


def _survey_cell(n: int, m: int, field: Field, trials: int, seed: int,
                 cfg: SearchConfig, tol: Tolerances) -> dict:
    successes = 0
    elapsed = 0.0
    for t in range(trials):
        rng = spawn_rng(seed, _STREAM_SURVEY, n, m, t)
        f = Frame(gaussian_matrix(rng, n, m, field), field)
        t0 = time.perf_counter()
        try:
            if field is Field.REAL:
                verdict = decide_real_rank1(f, tol)
                success = verdict.status is Status.CERTIFIED_HOLDS
            else:
                p = ProjectionFamily.from_frame(f, tol)
                verdict = pr_falsifier(p, dataclasses.replace(cfg, seed=seed * 1_000_003 + t))
                success = verdict.status is Status.FALSIFIED
        except CapacityError as exc:
            return {"n": n, "m": m, "field": field.value, "trials": trials,
                    "rate": "NA", "mean_runtime": "NA", "note": str(exc)}
        elapsed += time.perf_counter() - t0
        successes += int(success)
    return {"n": n, "m": m, "field": field.value, "trials": trials,
            "rate": f"{successes / trials:.6f}",
            "mean_runtime": f"{elapsed / trials:.6f}", "note": ""}


def _cmd_survey(args, tol: Tolerances, seed: int):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    field = Field.parse(args.field)
    cfg = _search_config(args, tol, seed)
    rows = []
    for n in _parse_range(args.n_range, "--n-range"):
        for m in _parse_range(args.m_range, "--m-range"):
            if m < 1:
                continue
            rows.append(_survey_cell(n, m, field, args.trials, seed, cfg, tol))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["n", "m", "field", "trials", "rate",
                                             "mean_runtime", "note"])
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(rows)} cells)")
    else:
        sys.stdout.write(text)
    return EXIT_HOLDS, None


def _cmd_verify_witness(args, tol: Tolerances, seed: int):
    p = serialize.load_family(args.input, tol)
    u, v, field = serialize.pair_from_dict(serialize.load_json(args.witness))
    if field is not p.field:
        raise FieldError(f"witness field {field.value} does not match "
                         f"family field {p.field.value}")
    check = verify_pr_witness(p, u, v, tol)
    word = "valid" if check.valid else "invalid"
    print(f"witness: {word}, max_mismatch = {check.max_mismatch:.3e}, "
          f"phase_gap = {check.phase_gap:.3e}")
    results = {"valid": check.valid, "max_mismatch": check.max_mismatch,
               "phase_gap": check.phase_gap}
    return EXIT_HOLDS if check.valid else EXIT_FAILS, results


def _add_tol_flags(sp) -> None:
    sp.add_argument("--tol-rank", type=float, default=None,
                    help="relative singular value threshold for rank decisions")
    sp.add_argument("--tol-witness", type=float, default=None,
                    help="max allowed measurement mismatch for a valid witness")
    sp.add_argument("--tol-phase", type=float, default=None,
                    help="min phase gap separating a pair from phase equivalence")
    sp.add_argument("--seed", type=int, default=None,
                    help="root seed (fallback: PHASERET_SEED, then 0)")
    sp.add_argument("--out", default=None, help="output file path")


def _add_search_flags(sp) -> None:
    sp.add_argument("--restarts", type=int, default=SearchConfig.restarts,
                    help="multi-start restarts")
    sp.add_argument("--iters", type=int, default=SearchConfig.max_iters,
                    help="upper bound on Gauss-Newton rounds; the search tries a "
                         "restart's point as soon as it fails to span, and a "
                         "restart stops once no damped step shrinks its residual")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseret",
        description="Certify or falsify phase-retrieval properties of frames "
                    "and orthogonal projection families.")
    parser.add_argument("--version", action="version", version=f"phaseret {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check-cp", help="exact complement-property check on a frame")
    sp.add_argument("input", help="frame file (JSON, or CSV for real frames)")
    _add_tol_flags(sp)
    sp.set_defaults(func=_cmd_check_cp)

    sp = sub.add_parser("check-spark", help="exact full-spark check on a frame")
    sp.add_argument("input", help="frame file (JSON, or CSV for real frames)")
    sp.add_argument("--cap", type=int, default=_SUBSET_BUDGET, help="max subset count")
    _add_tol_flags(sp)
    sp.set_defaults(func=_cmd_check_spark)

    sp = sub.add_parser("falsify", help="search for a phase-retrieval failure witness")
    sp.add_argument("input", help="projection family file (a frame file means "
                                  "its rank-1 projections)")
    sp.add_argument("--mode", choices=["spanning", "pr"], default="pr",
                    help="falsify the pointwise spanning condition or phase retrieval itself")
    _add_tol_flags(sp)
    _add_search_flags(sp)
    sp.set_defaults(func=_cmd_falsify)

    sp = sub.add_parser("gen", help="generate frames and projection families",
                        description="Generate frames and projection families.  For "
                                    "--kind counterexample, --restarts and --iters size "
                                    "the witness search.")
    sp.add_argument("--kind", choices=["full-spark", "counterexample", "random-proj"],
                    required=True)
    sp.add_argument("--n", type=int, required=True, help="ambient dimension")
    sp.add_argument("--m", type=int, default=None, help="number of vectors (full-spark)")
    sp.add_argument("--ranks", default=None, help="comma-separated ranks (random-proj)")
    sp.add_argument("--field", choices=["real", "complex"], default="real")
    _add_tol_flags(sp)
    _add_search_flags(sp)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("survey", help="Monte-Carlo success-rate table over (n, m)")
    sp.add_argument("--n-range", required=True, help="N or LO:HI")
    sp.add_argument("--m-range", required=True, help="N or LO:HI")
    sp.add_argument("--field", choices=["real", "complex"], default="real")
    sp.add_argument("--trials", type=int, default=20)
    _add_tol_flags(sp)
    _add_search_flags(sp)
    sp.set_defaults(func=_cmd_survey)

    sp = sub.add_parser("verify-witness", help="recheck a stored witness pair")
    sp.add_argument("input", help="projection family or frame file")
    sp.add_argument("--witness", required=True, help="witness pair file (JSON)")
    _add_tol_flags(sp)
    sp.set_defaults(func=_cmd_verify_witness)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args fills a fresh namespace on every
    # call and leaves the parser as it was
    return build_parser()


def main(argv=None) -> int:
    """Resolve tolerances and seed, run one command, and write its results
    to --out as a report (gen and survey write their own --out)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        tol, seed = _tolerances(args), _seed(args)
        code, results = args.func(args, tol, seed)
        if results is not None and args.out is not None:
            serialize.save_json(args.out, {
                "command": ["phaseret"] + argv,
                "config": _config_echo(tol, seed, args),
                "results": results,
                "version": __version__,
                "wall_time_s": time.perf_counter() - started,
            })
    except (ValueError, FieldError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
