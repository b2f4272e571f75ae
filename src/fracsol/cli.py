"""Command-line surface.

Subcommands:
  eval wright | eval foxh | eval ml   evaluate special functions
  solve ode | solve pde               construct and sample solutions
  verify                              residual verification with PASS/FAIL
  identities                          randomized identity suites

Exit codes: 0 success/PASS, 1 input error, 2 verification FAIL.
Output is CSV (comma separator, '.' decimal point, LF endings) or JSON;
numbers are emitted as shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, foxh, fracseries, ode, pde, verify, wright
from .errors import FracsolError, InputError


def _parse_grid(text: str, log_grid: bool = False):
    """Parse 'name=start:stop:count[,name=start:stop:count]' (inclusive ends)."""
    axes = {}
    for part in text.split(","):
        try:
            name, rng = part.split("=")
            s_start, s_stop, s_count = rng.split(":")
            start, stop, count = float(s_start), float(s_stop), int(s_count)
        except ValueError as exc:
            raise InputError(f"bad grid component {part!r}") from exc
        if count < 1:
            raise InputError(f"grid count must be >= 1 in {part!r}")
        if log_grid:
            if start <= 0 or stop <= 0:
                raise InputError("--log-grid requires positive endpoints")
            vals = np.geomspace(start, stop, count)
        else:
            vals = np.linspace(start, stop, count)
        axes[name.strip()] = [float(v) for v in vals]
    return axes


def _load_json(args) -> dict:
    if getattr(args, "json", None):
        text = args.json
    elif getattr(args, "input", None):
        with open(args.input) as fh:
            text = fh.read()
    else:
        raise InputError("provide --json or --input")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("problem JSON must be an object")
    return obj


def _out_stream(args):
    if getattr(args, "out", None):
        return open(args.out, "w", newline="\n")
    return sys.stdout


def _write(args, text: str):
    stream = _out_stream(args)
    try:
        stream.write(text)
        if not text.endswith("\n"):
            stream.write("\n")
    finally:
        if stream is not sys.stdout:
            stream.close()


def _fmt(v) -> str:
    if isinstance(v, complex):
        if v.imag == 0:
            return repr(v.real)
        return repr(v)
    return repr(float(v))


def emit_report(report: verify.ResidualReport, fmt: str, tol: float = None) -> str:
    """Serialize a ResidualReport as JSON or CSV."""
    if fmt == "json":
        obj = {
            "method": report.method,
            "points": [
                {
                    "x": p.point[0],
                    "t": p.point[1] if len(p.point) > 1 else None,
                    "lhs": _complex_json(p.lhs),
                    "rhs": _complex_json(p.rhs),
                    "abs_err": p.abs_err,
                    "rel_err": p.rel_err,
                    "counted": p.counted,
                }
                for p in report.points
            ],
            "max_rel_err": report.max_rel_err,
        }
        if tol is not None:
            obj["pass"] = report.passes(tol)
        return json.dumps(obj, indent=2)
    lines = ["x,t,lhs,rhs,abs_err,rel_err"]
    for p in report.points:
        coords = list(p.point) + [""] * (2 - len(p.point))
        lines.append(
            ",".join(
                [_fmt(c) if c != "" else "" for c in coords[:2]]
                + [_fmt(complex(p.lhs).real), _fmt(complex(p.rhs).real)]
                + [_fmt(p.abs_err), _fmt(p.rel_err)]
            )
        )
    return "\n".join(lines)


def _complex_json(v):
    v = complex(v)
    if v.imag == 0:
        return v.real
    return {"re": v.real, "im": v.imag}


def _parse_pairs(obj, key):
    pairs = obj.get(key, [])
    try:
        return tuple((float(a), float(b)) for a, b in pairs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{key} must be a list of [value, weight] pairs") from exc


def cmd_eval_wright(args) -> int:
    spec_obj = _load_json(args)
    spec = wright.WrightSpec(
        upper=_parse_pairs(spec_obj, "upper"), lower=_parse_pairs(spec_obj, "lower")
    )
    zs = [float(z) for z in args.z.split(",")]
    rows = [(z, complex(wright.evaluate(spec, z)).real) for z in zs]
    _emit_value_rows(args, "z,value", rows)
    return 0


def cmd_eval_foxh(args) -> int:
    spec_obj = _load_json(args)
    spec = foxh.HFunctionSpec(
        m=int(spec_obj.get("m", 0)),
        l=int(spec_obj.get("l", 0)),
        upper=_parse_pairs(spec_obj, "upper"),
        lower=_parse_pairs(spec_obj, "lower"),
    )
    zs = [float(z) for z in args.z.split(",")]
    rows = list(zip(zs, foxh.eval_mellin_barnes(spec, np.array(zs)).tolist()))
    _emit_value_rows(args, "z,value", rows)
    return 0


def cmd_eval_ml(args) -> int:
    zs = [float(z) for z in args.z.split(",")]
    rows = [
        (z, complex(wright.mittag_leffler(args.alpha, args.beta, z)).real) for z in zs
    ]
    _emit_value_rows(args, "z,value", rows)
    return 0


def _emit_value_rows(args, header, rows):
    if args.format == "json":
        cols = header.split(",")
        _write(args, json.dumps([dict(zip(cols, r)) for r in rows], indent=2))
    else:
        lines = [header] + [",".join(_fmt(v) for v in r) for r in rows]
        _write(args, "\n".join(lines))


def cmd_solve_ode(args) -> int:
    obj = _load_json(args)
    try:
        problem = ode.OdeProblem(
            alpha=float(obj["alpha"]),
            m=int(obj.get("m", 0)),
            a_coeffs=tuple(float(a) for a in obj["a_coeffs"]),
        )
    except KeyError as exc:
        raise InputError(f"missing field {exc} in ODE problem JSON") from exc
    sol = ode.solve(problem)
    descriptor = {
        "branch": sol.branch,
        "alpha": problem.alpha,
        "m": problem.m,
        "a_coeffs": list(problem.a_coeffs),
        "roots": [_complex_json(s) for s in sol.roots],
    }
    if sol.small is not None:
        descriptor["h_spec"] = _h_spec_json(sol.small.spec)
        descriptor["argument_coefficient"] = sol.small.arg_coef
    else:
        descriptor["members"] = [
            {
                "k": mem.k,
                "leading_exponent": mem.leading_exponent,
                "argument_coefficient": mem.lam,
                "wright_upper": [[_complex_json(a), al] for a, al in mem.spec.upper],
                "wright_lower": [[_complex_json(b), be] for b, be in mem.spec.lower],
            }
            for mem in sol.members
        ]
    print(json.dumps(descriptor, indent=2))
    if args.grid:
        axes = _parse_grid(args.grid, args.log_grid)
        if "z" not in axes:
            raise InputError("ODE sampling grid must define z=start:stop:count")
        rows = [(z, complex(sol.evaluate(z)).real) for z in axes["z"]]
        _emit_value_rows(args, "z,y", rows)
    return 0


def _h_spec_json(spec: foxh.HFunctionSpec) -> dict:
    return {
        "m": spec.m,
        "l": spec.l,
        "upper": [list(e) for e in spec.upper],
        "lower": [list(e) for e in spec.lower],
    }


def _diffusion_problem(obj) -> pde.DiffusionProblem:
    try:
        return pde.DiffusionProblem(
            alpha=float(obj["alpha"]),
            m=int(obj.get("m", 0)),
            d=float(obj["d"]),
            A=float(obj["A"]),
            B=float(obj.get("B", 0.0)),
            C=float(obj.get("C", 0.0)),
            a=float(obj.get("a", 0.0)),
            constants=tuple(obj["constants"]) if "constants" in obj else None,
        )
    except KeyError as exc:
        raise InputError(f"missing field {exc} in PDE problem JSON") from exc


def _build_pde_solution(problem, form, sign):
    signv = +1 if sign == "plus" else -1
    if form == "exp" or (
        form == "auto" and problem.alpha == 1 and problem.d != 2
    ):
        try:
            return pde.exp_closed_form(problem, sign=signv)
        except FracsolError:
            if form == "exp":
                raise
    if form == "h" and not (problem.alpha < 2 and problem.d != 2):
        raise InputError("--form h requires 0 < alpha < 2 and d != 2")
    if form == "series" and problem.d != 2 and problem.alpha < 2:
        raise InputError("--form series requires alpha > 2 or d = 2")
    return pde.solve(problem)


def cmd_solve_pde(args) -> int:
    problem = _diffusion_problem(_load_json(args))
    sol = _build_pde_solution(problem, args.form, args.sign)
    s1, s2 = pde.s_roots(problem) if problem.d != 2 else (None, None)
    descriptor = {
        "branch": type(sol.form).__name__,
        "K": problem.K,
        "s1": None if s1 is None else _complex_json(s1),
        "s2": None if s2 is None else _complex_json(s2),
        "alpha": problem.alpha,
        "m": problem.m,
        "d": problem.d,
        "A": problem.A,
        "B": problem.B,
        "C": problem.C,
        "a": problem.a,
    }
    if isinstance(sol.form, pde.FoxHForm):
        descriptor["h_spec"] = _h_spec_json(sol.form.spec)
        descriptor["argument_coefficient"] = sol.form.arg_coef
    if isinstance(sol.form, pde.ClosedFormExp):
        descriptor["x_exponent"] = sol.form.x_exponent
        descriptor["t_exponent"] = sol.form.t_exponent
        descriptor["exp_coefficient"] = sol.form.exp_coef
    if isinstance(sol.form, pde.WrightSeriesForm):
        smap = sol.form.smap
        descriptor["members"] = [
            {
                "k": mem.k,
                "x_exponent": smap.a + smap.z_exponent * mem.leading_exponent,
                "t_exponent": mem.leading_exponent,
                "argument_coefficient": mem.lam,
            }
            for mem in sol.form.members
        ]
    print(json.dumps(descriptor, indent=2))
    if args.grid:
        axes = _parse_grid(args.grid, args.log_grid)
        if "x" not in axes or "t" not in axes:
            raise InputError("PDE grid must define x= and t= axes")
        if any(v <= 0 for v in axes["x"] + axes["t"]):
            raise InputError("PDE grid ranges must be strictly positive")
        rows = []
        for x in axes["x"]:
            for t in axes["t"]:
                rows.append((x, t, complex(pde.evaluate(sol, x, t)).real))
        if args.format == "json":
            _write(
                args,
                json.dumps([{"x": x, "t": t, "u": u} for x, t, u in rows], indent=2),
            )
        else:
            lines = ["x,t,u"] + [",".join(_fmt(v) for v in r) for r in rows]
            _write(args, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    problem = _diffusion_problem(_load_json(args))
    sol = _build_pde_solution(problem, args.form, args.sign)
    if isinstance(sol.form, pde.WrightSeriesForm) and args.mode == "coefficients":
        reports = [
            verify.residual_ode_coefficients(series, op, problem.alpha, args.n_coeffs)
            for series, op in pde.series_members(sol, order=args.n_coeffs + 8)
        ]
        report = verify.ResidualReport(
            method=verify.METHOD_TERMWISE,
            points=tuple(p for r in reports for p in r.points),
        )
    else:
        axes = _parse_grid(args.grid, args.log_grid)
        grid = [(x, t) for x in axes["x"] for t in axes["t"]]
        report = verify.residual_pde(sol, problem, grid, h=args.h)
    _write(args, emit_report(report, args.format, tol=args.tol))
    ok = report.passes(args.tol)
    print(f"{'PASS' if ok else 'FAIL'} max_rel_err={report.max_rel_err:.3e} tol={args.tol:g}")
    return 0 if ok else 2


def cmd_identities(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    if args.suite == "lemma1":
        checked = 0
        while checked < args.n:
            a = float(rng.uniform(1e-3, 5.0))
            m = int(rng.integers(1, 6))
            b = float(rng.uniform(-3.0, 3.0))
            try:
                lhs, rhs = fracseries.gamma_product_identity_check(a, m, b)
            except FracsolError:
                continue
            denom = max(abs(lhs), abs(rhs), 1e-300)
            if denom < 1e-6:  # stay off near-pole cancellation
                continue
            worst = max(worst, abs(lhs - rhs) / denom)
            checked += 1
    elif args.suite == "wright":
        for _ in range(args.n):
            x = float(rng.uniform(-5.0, 5.0))
            got = complex(wright.mittag_leffler(1.0, 1.0, x)).real
            worst = max(worst, abs(got - math.exp(x)) / math.exp(x))
    else:
        raise InputError(f"unknown suite {args.suite!r}")
    ok = worst < args.tol
    print(f"{'PASS' if ok else 'FAIL'} suite={args.suite} n={args.n} "
          f"max_rel_err={worst:.3e} tol={args.tol:g}")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsol",
        description="Evaluate and verify explicit solutions of time-fractional "
        "anomalous diffusion equations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, grid=True):
        p.add_argument("--out", help="write results to this path instead of stdout")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if grid:
            p.add_argument("--grid", help="axis grid, e.g. x=0.5:2:4,t=0.5:2:4")
            p.add_argument(
                "--log-grid", action="store_true", help="geometric axis spacing"
            )

    p_eval = sub.add_parser("eval", help="evaluate a special function")
    eval_sub = p_eval.add_subparsers(dest="function", required=True)

    p_w = eval_sub.add_parser("wright", help="generalized Wright function")
    p_w.add_argument("--json", help="spec JSON {upper:[[a,alpha]..], lower:[[b,beta]..]}")
    p_w.add_argument("--input", help="path to spec JSON file")
    p_w.add_argument("--z", required=True, help="comma-separated arguments")
    add_io(p_w, grid=False)
    p_w.set_defaults(func=cmd_eval_wright)

    p_h = eval_sub.add_parser("foxh", help="Fox H-function (Mellin-Barnes)")
    p_h.add_argument("--json", help="spec JSON {m,l,upper:[[A,alpha]..],lower:[[B,beta]..]}")
    p_h.add_argument("--input", help="path to spec JSON file")
    p_h.add_argument("--z", required=True, help="comma-separated arguments (z > 0)")
    add_io(p_h, grid=False)
    p_h.set_defaults(func=cmd_eval_foxh)

    p_ml = eval_sub.add_parser("ml", help="Mittag-Leffler function")
    p_ml.add_argument("--alpha", type=float, required=True)
    p_ml.add_argument("--beta", type=float, required=True)
    p_ml.add_argument("--z", required=True, help="comma-separated arguments")
    add_io(p_ml, grid=False)
    p_ml.set_defaults(func=cmd_eval_ml)

    p_solve = sub.add_parser("solve", help="construct an explicit solution")
    solve_sub = p_solve.add_subparsers(dest="target", required=True)

    p_so = solve_sub.add_parser("ode", help="model fractional ODE")
    p_so.add_argument("--json", help='problem JSON {"alpha":..,"m":..,"a_coeffs":[a0..an]}')
    p_so.add_argument("--input", help="path to problem JSON file")
    add_io(p_so)
    p_so.set_defaults(func=cmd_solve_ode)

    p_sp = solve_sub.add_parser("pde", help="anomalous diffusion PDE")
    p_sp.add_argument("--json", help='problem JSON {"alpha":..,"m":..,"d":..,"A":..,...}')
    p_sp.add_argument("--input", help="path to problem JSON file")
    p_sp.add_argument(
        "--form",
        choices=["auto", "exp", "h", "series"],
        default="auto",
        help="solution representation (auto: exp closed form when alpha=1, else branch)",
    )
    p_sp.add_argument("--sign", choices=["plus", "minus"], default="plus")
    add_io(p_sp)
    p_sp.set_defaults(func=cmd_solve_pde)

    p_v = sub.add_parser("verify", help="residual verification of a PDE solution")
    p_v.add_argument("--json", help="problem JSON as for solve pde")
    p_v.add_argument("--input", help="path to problem JSON file")
    p_v.add_argument("--form", choices=["auto", "exp", "h", "series"], default="auto")
    p_v.add_argument("--sign", choices=["plus", "minus"], default="plus")
    p_v.add_argument(
        "--mode",
        choices=["grid", "coefficients"],
        default="grid",
        help="grid: pointwise residual; coefficients: termwise series residual",
    )
    p_v.add_argument("--h", type=float, default=1e-4, help="GL time step")
    p_v.add_argument("--n-coeffs", type=int, default=20)
    p_v.add_argument("--tol", type=float, required=True)
    add_io(p_v)
    p_v.set_defaults(func=cmd_verify)

    p_i = sub.add_parser("identities", help="randomized identity suites")
    p_i.add_argument("--suite", choices=["lemma1", "wright"], required=True)
    p_i.add_argument("--n", type=int, default=1000)
    p_i.add_argument("--seed", type=int, default=0)
    p_i.add_argument("--tol", type=float, required=True)
    p_i.set_defaults(func=cmd_identities)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except FracsolError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
