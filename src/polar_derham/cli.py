"""Command-line front end: build, verify, sample and export subcommands.

Exit-code contract: 0 on success (verify: all checks pass), 1 when a
verification check fails, 2 on usage or configuration errors.
"""

import os


def _cap_threads():
    # Honored only if set before the numeric libraries initialize their
    # thread pools, hence before any numpy import below.
    cap = os.environ.get("POLAR_DERHAM_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_threads()

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .geometry import SingularityProximityError
from .iotools import ComplexConfig, load_raw_config, write_bundle, write_triplet
from .torus import build_complex
from .verification import Tolerances, inject_row_drop, run_verification

__all__ = ["main"]


class UsageError(Exception):
    pass


def _triple(text, kind=int):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected a comma-separated triple, got {text!r}")
    try:
        return tuple(kind(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad triple {text!r}: {exc}") from None


def _resolve_config(args):
    raw = {}
    source = getattr(args, "config", None) or getattr(args, "bundle", None)
    if source:
        raw = {k: v for k, v in load_raw_config(source).items() if v is not None}
    if getattr(args, "degrees", None):
        raw["degrees"] = _triple(args.degrees)
        if "dims" in raw:
            # reinterpret the sizes as reduced dims under the new degrees
            raw.pop("distinct_knots", None)
    elif "degrees" not in raw:
        raw["degrees"] = (2, 2, 2)
    if getattr(args, "sizes", None):
        raw.pop("distinct_knots", None)
        raw["dims"] = _triple(args.sizes)
    elif "distinct_knots" not in raw:
        raw.setdefault("dims", (4, 4, 3))
    if getattr(args, "rho_bar", None) is not None:
        raw["rho_bar"] = args.rho_bar
    if getattr(args, "lengths", None):
        raw["lengths"] = _triple(args.lengths, float)
    return ComplexConfig.from_dict(raw)


def _build_from_config(config, perturb_ebar=0.0):
    return build_complex(config.to_spec(), ebar_perturbation=perturb_ebar)


# ------------------------------- subcommands ---------------------------------

def cmd_build(args):
    config = _resolve_config(args)
    out = Path(args.out or config.out_dir or "polar_derham_bundle")
    cx = _build_from_config(config)
    write_bundle(out, cx, config)
    record = cx.dims_record()
    print(f"bundle written to {out}")
    print(f"reduced dims (n0..n3): {record['reduced_dims']}")
    if config.applied_defaults:
        print(f"defaults applied for: {', '.join(config.applied_defaults)}")
    return 0


def cmd_verify(args):
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol}")
    config = _resolve_config(args)
    cx = _build_from_config(config, perturb_ebar=args.perturb_ebar)
    if args.drop_row:
        name, _, row = args.drop_row.partition(":")
        if not row:
            raise UsageError("--drop-row expects MATRIX:ROW, e.g. D1:5")
        cx = inject_row_drop(cx, name, int(row))
    tolerances = Tolerances() if args.tol is None else Tolerances(residual=args.tol)
    report = run_verification(cx, tolerances=tolerances, rank_tol=config.rank_tol,
                              config_echo=config.to_dict())
    payload = report.to_dict()
    payload["negative_controls"] = {
        "perturb_ebar": args.perturb_ebar,
        "drop_row": args.drop_row,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    if not report.passed:
        for failure in report.failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_sample(args):
    config = _resolve_config(args)
    cx = _build_from_config(config)
    level = args.level
    n_level = cx.counts.level_dim(level)
    if (args.basis is None) == (args.coeffs is None):
        raise UsageError("give exactly one of --basis or --coeffs")
    if args.basis is not None:
        if not 1 <= args.basis <= n_level:
            raise UsageError(f"--basis index {args.basis} out of range 1..{n_level}")
        coeffs = np.zeros(n_level)
        coeffs[args.basis - 1] = 1.0
    else:
        coeffs = np.loadtxt(args.coeffs, ndmin=1)
        if coeffs.shape != (n_level,):
            raise UsageError(
                f"coefficient file has {coeffs.size} values, level {level} needs {n_level}"
            )
    counts = _triple(args.grid)
    if min(counts) < 1:
        raise UsageError(f"grid counts must be positive, got {args.grid!r}")
    R, S, T = (sp.interval[1] for sp in cx.tensor.spaces)
    if not 0.0 <= args.smin < S:
        raise UsageError(f"--smin must lie in [0, {S}), got {args.smin}")
    rs = np.linspace(0.0, R, counts[0])
    ss = np.linspace(args.smin, S, counts[1])
    ts = np.linspace(0.0, T, counts[2])
    t, s, r = np.meshgrid(ts, ss, rs, indexing="ij")
    points = np.column_stack([r.ravel(), s.ravel(), t.ravel()])
    xyz, values = cx.pushforward(coeffs, points, level=level)
    table = np.column_stack([points, xyz, values])
    header = "r,s,t,x,y,z," + ("v1,v2,v3" if level in (1, 2) else "v1")
    lines = [header] + [",".join(map(repr, row)) for row in table.tolist()]
    text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"{len(lines) - 1} samples written to {args.out}")
    else:
        print(text)
    return 0


def cmd_export(args):
    config = _resolve_config(args)
    cx = _build_from_config(config)
    available = cx.named_matrices()
    names = list(args.names)
    if any(n.upper() == "ALL" for n in names):
        names = sorted(available)
    unknown = [n for n in names if n not in available]
    if unknown:
        raise UsageError(
            f"unknown matrix name(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(available))}"
        )
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        write_triplet(out / f"{name}.txt", available[name])
    print(f"exported {len(names)} matrices to {out}")
    return 0


# --------------------------------- parser ------------------------------------

def _add_config_options(sub, bundle=False):
    sub.add_argument("--config", help="JSON config file")
    if bundle:
        sub.add_argument("--bundle", help="bundle directory written by 'build'")
    sub.add_argument("--degrees", help="degree triple, e.g. 2,2,2")
    sub.add_argument("--sizes", help="reduced dimension triple (nr,ns,nt), e.g. 4,4,3")
    sub.add_argument("--rho-bar", dest="rho_bar", type=float,
                     help="major-radius offset (> 2, default 3)")
    sub.add_argument("--lengths", help="parametric interval lengths, e.g. 1,1,1")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polar-derham",
        description="Polar spline de Rham complexes on solid toroidal domains",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="build a complex and persist the bundle")
    _add_config_options(b)
    b.add_argument("--out", help="bundle output directory")
    b.set_defaults(func=cmd_build)

    v = subs.add_parser("verify", help="run all verification suites")
    _add_config_options(v, bundle=True)
    v.add_argument("--out", help="write the JSON report here instead of stdout")
    v.add_argument("--tol", type=float,
                   help="override the residual tolerance (default 1e-12)")
    v.add_argument("--perturb-ebar", dest="perturb_ebar", type=float, default=0.0,
                   help="negative control: shift one center-block entry")
    v.add_argument("--drop-row", dest="drop_row",
                   help="negative control: zero a matrix row, e.g. D1:5")
    v.set_defaults(func=cmd_verify)

    s = subs.add_parser("sample", help="sample a pushforward field on a grid")
    _add_config_options(s, bundle=True)
    s.add_argument("--level", type=int, required=True, choices=(0, 1, 2, 3))
    s.add_argument("--basis", type=int, help="1-based reduced basis index")
    s.add_argument("--coeffs", help="text file with one coefficient per line")
    s.add_argument("--grid", required=True, help="grid counts, e.g. 5,5,5")
    s.add_argument("--smin", type=float, default=0.0,
                   help="start of the s-grid (levels 1-3 must stay above "
                        "the singularity floor)")
    s.add_argument("--out", help="CSV output file (default stdout)")
    s.set_defaults(func=cmd_sample)

    e = subs.add_parser("export", help="export named matrices as triplet files")
    _add_config_options(e, bundle=True)
    e.add_argument("--out", help="output directory (default current)")
    e.add_argument("names", nargs="+", help="matrix names or ALL")
    e.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, SingularityProximityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
