"""Command-line front end.

Subcommands: decompose, eigen, ceigen, scan, separatrix, trace, lc, grid.
Angles are radians unless --chi-degrees is given; CSV output uses '.' as
the decimal separator, LF line endings, and 17 significant digits.  Exit
status is 0 on success, 2 on validation errors, 1 on numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import eigen, lc, separatrix, tensors, topology, trace
from .potential import OrientedParams, SphereGrid, from_rho_chi_K, sample_grid, write_grid_csv


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", newline="\n") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _chi(args) -> float:
    """--chi in radians, converted from degrees under --chi-degrees."""
    return np.deg2rad(args.chi) if args.chi_degrees else args.chi


def _params(args) -> OrientedParams:
    return OrientedParams(rho=args.rho, chi=_chi(args), bigk=args.K)


def _cmd_decompose(args) -> int:
    t = tensors.Tensor3.from_json(_load_json(args.input))
    sym = tensors.symmetry_decompose(t)
    har = tensors.harmonic_decompose(t)
    out = {
        "symmetry": {
            "a1": sym.a1.to_json(), "a21": sym.a21.to_json(),
            "a22": sym.a22.to_json(), "a3": sym.a3.to_json(),
        },
        "harmonic": {
            "a_scalar": har.a_scalar,
            "v1": har.v1.tolist(), "v2": har.v2.tolist(), "v3": har.v3.tolist(),
            "d1": har.d1.tolist(), "d2": har.d2.tolist(),
            "d3": har.d3.to_json(),
            "mean_vector": har.mean_vector.tolist(),
        },
    }
    _write(args.output, json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_eigen(args) -> int:
    p = _params(args)
    rep = topology.full_topology(p)
    payload = eigen.solve_oriented(p).to_report()
    # the report lists each solved pair followed by its antipode
    for entry, pt in zip(payload["pairs"], rep.points[::2], strict=True):
        entry["kind"] = pt.kind
        entry["index"] = pt.index
    payload["critical_point_total"] = rep.total if not rep.continuum else payload["critical_point_total"]
    payload["index_sum"] = rep.index_sum
    payload["counts"] = rep.counts
    _write(args.output, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_ceigen(args) -> int:
    t = tensors.Tensor3.from_json(_load_json(args.input))
    triples = eigen.c_eigenpairs(t, starts=args.starts)
    terms, residuals = eigen.incremental_rank_one(t, max_terms=args.terms, starts=args.starts)
    out = {
        "triples": [{"lambda": tr.lam, "x": tr.x.tolist(), "y": tr.y.tolist()}
                    for tr in triples],
        "rank_one_terms": [{"lambda": l, "x": x.tolist(), "y": y.tolist()}
                           for l, x, y in terms],
        "rank_one_residuals": residuals,
    }
    _write(args.output, json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_scan(args) -> int:
    samples = separatrix.region_scan(_chi(args), args.rho_steps, args.k_max, args.k_steps,
                                     on_separatrix=args.on_separatrix)
    _write(args.output, "\n".join(separatrix.scan_csv_lines(samples)) + "\n")
    return 0


def _cmd_separatrix(args) -> int:
    rhos = np.linspace(args.rho_min, args.rho_max, args.rho_steps)
    _write(args.output, "\n".join(separatrix.separatrix_csv_lines(_chi(args), rhos)) + "\n")
    return 0


def _cmd_trace(args) -> int:
    if args.mu is not None:
        params = trace.TraceParams(a1=0.0, a2=args.a2, a3=args.mu * args.a2)
    else:
        params = trace.TraceParams(a1=args.a1, a2=args.a2, a3=args.a3)
    rep = trace.trace_critical_points(params)
    _write(args.output, json.dumps(rep.to_report(), indent=2, sort_keys=True))
    return 0


def _cmd_lc(args) -> int:
    dg = lc.DirectorGradient.from_json(_load_json(args.input))
    dc = lc.decompose_gradient(dg)
    out = dc.to_report()
    if args.k11 is not None:
        k = lc.FrankConstants(k11=args.k11, k22=args.k22, k33=args.k33, k24=args.k24)
        w_classic, w_modes, ok = lc.oseen_frank(dc, k)
        out["energy"] = {"classic": w_classic, "modes": w_modes, "ericksen_ok": ok}
    _write(args.output, json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    p = _params(args)
    rows = sample_grid(from_rho_chi_K(p), SphereGrid(args.theta_steps, args.phi_steps),
                       mode=args.mode)
    write_grid_csv(rows, sys.stdout if args.output in (None, "-") else args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse that reads a token such as -1e-05 as a negative number.

    Stock argparse recognizes only -1 and -1.5 as numbers and takes -1e-05
    for an option, so ``--K -1e-05`` would fail with "expected one argument".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_param_flags(sp, with_k_default=False):
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--chi", type=float, default=-np.pi / 2)
    sp.add_argument("--K", type=float, default=0.0 if with_k_default else None,
                    required=not with_k_default)
    sp.add_argument("--chi-degrees", action="store_true",
                    help="interpret --chi in degrees")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="octupolar",
                 description="third-rank tensor analysis toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("decompose", help="symmetry and harmonic decomposition of a tensor")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("eigen", help="eigenpairs and topology at (rho, chi, K)")
    _add_param_flags(sp, with_k_default=True)
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=_cmd_eigen)

    sp = sub.add_parser("ceigen", help="stationary triples and rank-one terms")
    sp.add_argument("--input", required=True)
    sp.add_argument("--starts", type=int, default=64)
    sp.add_argument("--terms", type=int, default=13)
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=_cmd_ceigen)

    sp = sub.add_parser("scan", help="critical-point counts over a parameter grid")
    sp.add_argument("--chi", type=float, required=True)
    sp.add_argument("--chi-degrees", action="store_true")
    sp.add_argument("--rho-steps", type=int, required=True)
    sp.add_argument("--k-max", type=float, required=True)
    sp.add_argument("--k-steps", type=int, required=True)
    sp.add_argument("--on-separatrix", action="store_true",
                    help="sample exactly on the separatrix instead of the grid")
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("separatrix", help="sample the separatrix K*(rho) at fixed chi")
    sp.add_argument("--chi", type=float, required=True)
    sp.add_argument("--chi-degrees", action="store_true")
    sp.add_argument("--rho-min", type=float, default=0.05)
    sp.add_argument("--rho-max", type=float, default=2.0)
    sp.add_argument("--rho-steps", type=int, default=40)
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=_cmd_separatrix)

    sp = sub.add_parser("trace", help="critical points of the trace-type form")
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--a1", type=float, default=0.0)
    sp.add_argument("--a2", type=float, default=1.0)
    sp.add_argument("--a3", type=float, default=0.0)
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=_cmd_trace)

    sp = sub.add_parser("lc", help="director-gradient decomposition and energies")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k11", type=float, default=None)
    sp.add_argument("--k22", type=float, default=0.0)
    sp.add_argument("--k33", type=float, default=0.0)
    sp.add_argument("--k24", type=float, default=0.0)
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=_cmd_lc)

    sp = sub.add_parser("grid", help="tabulate the potential over a sphere grid")
    _add_param_flags(sp, with_k_default=True)
    sp.add_argument("--theta-steps", type=int, default=181)
    sp.add_argument("--phi-steps", type=int, default=91)
    sp.add_argument("--mode", choices=("sphere", "north", "south", "contour"),
                    default="sphere")
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=_cmd_grid)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use and kept for the process.

    parse_args reads the parser and writes only its own namespace, so one
    call leaves nothing behind for the next.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
