"""Command-line surface.

Subcommands:
  eval wright | eval foxh | eval ml   evaluate special functions
  solve ode | solve pde               construct and sample solutions
  verify                              residual verification with PASS/FAIL
  identities                          randomized identity suites

Exit codes: 0 success/PASS, 1 input error, 2 verification FAIL.
Output is CSV (comma separator, '.' decimal point, LF endings) or JSON;
numbers are emitted as shortest round-trip decimals.  Input is checked before
anything is written, so a failing command leaves stdout and --out untouched.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import itertools
import json
import math
import sys

import numpy as np

from . import __version__, foxh, fracseries, ode, pde, verify, wright
from .errors import FracsolError, InputError


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as an InputError,
    not as a usage message with exit code 2, which means verification FAIL."""

    def error(self, message):
        raise InputError(message)


def _finite(value, kind=float):
    """kind(value), refusing NaN and the infinities, which float(), complex()
    and json.loads accept."""
    number = kind(value)
    if not cmath.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


# argparse names the type in its message for a rejected flag value
_finite.__name__ = "finite"


def _parse_z(text: str) -> list:
    """Parse --z 'z1,z2,...' into floats."""
    try:
        return [_finite(z) for z in text.split(",")]
    except ValueError as exc:
        raise InputError(f"--z must be comma-separated finite numbers, got {text!r}") from exc


def _parse_grid(args, names) -> list:
    """Parse --grid 'name=start:stop:count[,...]' (inclusive ends) into the
    points of the product of the named axes, each named once and strictly positive."""
    if not args.grid:
        raise InputError(f"this command needs --grid with axes {', '.join(names)}")
    axes = {}
    for part in args.grid.split(","):
        try:
            name, rng = part.split("=")
            s_start, s_stop, s_count = rng.split(":")
            start, stop, count = _finite(s_start), _finite(s_stop), int(s_count)
        except ValueError as exc:
            raise InputError(f"bad grid component {part!r}") from exc
        if count < 1:
            raise InputError(f"grid count must be >= 1 in {part!r}")
        if args.log_grid and (start <= 0 or stop <= 0):
            raise InputError("--log-grid requires positive endpoints")
        if name.strip() in axes:
            raise InputError(f"grid axis {name.strip()!r} is given twice")
        spacing = np.geomspace if args.log_grid else np.linspace
        axes[name.strip()] = [float(v) for v in spacing(start, stop, count)]
    if any(n not in axes for n in names):
        raise InputError(f"grid must define the axes {', '.join(names)}")
    if any(v <= 0 for n in names for v in axes[n]):
        raise InputError("grid ranges must be strictly positive")
    return list(itertools.product(*(axes[n] for n in names)))


def _load_json(args) -> dict:
    if args.json:
        text = args.json
    elif args.input:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read --input {args.input!r}: {exc.strerror}") from exc
    else:
        raise InputError("provide --json or --input")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("problem JSON must be an object")
    return obj


def _write(args, text: str, head: str = None, tail: str = None):
    """Write text to --out (or stdout), with head and tail on stdout around
    it.  --out is opened first, so a path that cannot be written fails before
    stdout is touched."""
    try:
        out = open(args.out, "w", newline="\n") if args.out else None
    except OSError as exc:
        raise InputError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    with out or contextlib.nullcontext(sys.stdout) as stream:
        if head is not None:
            print(head)
        print(text, file=stream)
        if tail is not None:
            print(tail)


def _fmt(v) -> str:
    return repr(float(v))


def _complex_json(v):
    v = complex(v)
    return v.real if v.imag == 0 else {"re": v.real, "im": v.imag}


def _rows(args, header: str, rows) -> str:
    """Serialize value rows as CSV (with the header line) or as JSON records,
    which write a complex value as {"re","im"}."""
    if args.format == "json":
        cols = header.split(",")
        return json.dumps([dict(zip(cols, map(_complex_json, r))) for r in rows], indent=2)
    return "\n".join([header] + [",".join(_fmt(v) for v in r) for r in rows])


def emit_report(report: verify.ResidualReport, fmt: str, tol: float) -> str:
    """Serialize a ResidualReport, with its verdict at tol, as JSON or CSV."""
    if fmt == "json":
        return json.dumps({
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
            "pass": report.passes(tol),
        }, indent=2)
    # the imaginary parts, when one is nonzero, in two last columns
    im = any(complex(v).imag for p in report.points for v in (p.lhs, p.rhs))
    lines = ["x,t,lhs,rhs,abs_err,rel_err" + ",lhs_im,rhs_im" * im]
    for p in report.points:
        coords = [_fmt(c) for c in p.point[:2]] + [""] * (2 - len(p.point))
        values = [complex(p.lhs).real, complex(p.rhs).real, p.abs_err, p.rel_err]
        values += [complex(p.lhs).imag, complex(p.rhs).imag] * im
        lines.append(",".join(coords + [_fmt(v) for v in values]))
    return "\n".join(lines)


_REQUIRED = object()


def _field(obj, key, convert, default=_REQUIRED):
    """convert(obj[key]), or default when the field is absent.  A missing
    required field, or a value convert rejects, is an InputError naming it."""
    if key not in obj:
        if default is _REQUIRED:
            raise InputError(f"missing field {key!r}")
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad field {key!r}: {json.dumps(obj[key])}") from exc


def _integer(value) -> int:
    """value as an int; a fractional value is refused, not truncated."""
    n = int(value)
    if n != value:
        raise ValueError(value)
    return n


def _pairs(values) -> tuple:
    """[[value, weight], ...] as float pairs."""
    return tuple((_finite(a), _finite(b)) for a, b in values)


def _emit_values(args, values) -> int:
    """Write the rows z,value of values(zs) over the --z arguments."""
    zs = _parse_z(args.z)
    _write(args, _rows(args, "z,value", list(zip(zs, values(zs)))))
    return 0


def cmd_eval_wright(args) -> int:
    spec_obj = _load_json(args)
    spec = wright.WrightSpec(
        upper=_field(spec_obj, "upper", _pairs, ()), lower=_field(spec_obj, "lower", _pairs, ())
    )
    return _emit_values(args, lambda zs: [complex(wright.evaluate(spec, z)).real for z in zs])


def cmd_eval_foxh(args) -> int:
    spec_obj = _load_json(args)
    spec = foxh.HFunctionSpec(
        m=_field(spec_obj, "m", _integer, 0),
        l=_field(spec_obj, "l", _integer, 0),
        upper=_field(spec_obj, "upper", _pairs, ()),
        lower=_field(spec_obj, "lower", _pairs, ()),
    )
    return _emit_values(args, lambda zs: foxh.eval_mellin_barnes(spec, np.array(zs)).tolist())


def cmd_eval_ml(args) -> int:
    ml = wright.mittag_leffler
    return _emit_values(args, lambda zs: [complex(ml(args.alpha, args.beta, z)).real for z in zs])


def _emit_solution(args, descriptor: dict, header: str, sample):
    """Print the descriptor; with --grid, also write the rows of header: the
    grid axes it names, then sample(*point), a float or a complex, whose
    imaginary part CSV writes in a last column <value>_im.  The grid is
    parsed and sampled before anything is written."""
    head = json.dumps(descriptor, indent=2)
    if not args.grid:
        print(head)
        return
    points = _parse_grid(args, header.split(",")[:-1])
    rows = [p + (sample(*p),) for p in points]
    if args.format == "csv" and any(isinstance(r[-1], complex) for r in rows):
        header += f",{header.split(',')[-1]}_im"
        rows = [r[:-1] + (r[-1].real, r[-1].imag) for r in rows]
    _write(args, _rows(args, header, rows), head=head)


def cmd_solve_ode(args) -> int:
    obj = _load_json(args)
    problem = ode.OdeProblem(
        alpha=_field(obj, "alpha", _finite), m=_field(obj, "m", _integer, 0),
        a_coeffs=_field(obj, "a_coeffs", lambda cs: tuple(map(_finite, cs))),
    )
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
    _emit_solution(args, descriptor, "z,y", lambda z: complex(sol.evaluate(z)).real)
    return 0


def _h_spec_json(spec: foxh.HFunctionSpec) -> dict:
    return {
        "m": spec.m,
        "l": spec.l,
        "upper": [list(e) for e in spec.upper],
        "lower": [list(e) for e in spec.lower],
    }


def _pde_solution(args) -> pde.PdeSolution:
    """Parse the PDE problem and build the solution --form and --sign ask
    for.  --form h or series is checked against the branch pde.solve took."""
    obj = _load_json(args)
    problem = pde.DiffusionProblem(
        alpha=_field(obj, "alpha", _finite),
        m=_field(obj, "m", _integer, 0),
        d=_field(obj, "d", _finite),
        A=_field(obj, "A", _finite),
        B=_field(obj, "B", _finite, 0.0),
        C=_field(obj, "C", _finite, 0.0),
        a=_field(obj, "a", _finite, 0.0),
        constants=_field(
            obj, "constants", lambda cs: tuple(_finite(c, complex) for c in cs), None
        ),
    )
    if args.form == "exp" or (args.form == "auto" and problem.alpha == 1 and problem.d != 2):
        try:
            return pde.exp_closed_form(problem, sign=+1 if args.sign == "plus" else -1)
        except FracsolError:
            if args.form == "exp":
                raise
    sol = pde.solve(problem)
    wanted = {"h": "small-alpha", "series": "large-alpha"}.get(args.form)
    if wanted not in (None, sol.form.branch):
        raise InputError(
            f"--form {args.form} does not match the problem's solution branch, {sol.form.branch}"
        )
    return sol


def cmd_solve_pde(args) -> int:
    sol = _pde_solution(args)
    problem, form = sol.problem, sol.form
    closed = isinstance(form, pde.ClosedFormExp)
    s1, s2 = pde.s_roots(problem) if problem.d != 2 else (None, None)
    descriptor = {
        "branch": "ClosedFormExp" if closed else "FoxHForm" if form.small else "WrightSeriesForm",
        "K": problem.K,
        "s1": None if s1 is None else _complex_json(s1),
        "s2": None if s2 is None else _complex_json(s2),
        **{key: getattr(problem, key) for key in ("alpha", "m", "d", "A", "B", "C", "a")},
    }
    if closed:
        descriptor["x_exponent"] = form.x_exponent
        descriptor["t_exponent"] = form.t_exponent
        descriptor["exp_coefficient"] = form.exp_coef
    elif form.small is not None:
        descriptor["h_spec"] = _h_spec_json(form.small.spec)
        descriptor["argument_coefficient"] = form.small.arg_coef
    else:
        # member k is x^a z^(alpha-k) times a series, z = x^((d-2)/rho) t
        z_exponent = (problem.d - 2.0) / problem.rho
        descriptor["members"] = [
            {
                "k": mem.k,
                "x_exponent": problem.a + z_exponent * mem.leading_exponent,
                "t_exponent": mem.leading_exponent,
                "argument_coefficient": mem.lam,
            }
            for mem in form.members
        ]
    _emit_solution(args, descriptor, "x,t,u", lambda *p: problem.reported(pde.evaluate(sol, *p)))
    return 0


def cmd_verify(args) -> int:
    sol = _pde_solution(args)
    if args.mode == "coefficients":
        reports = [
            verify.residual_ode_coefficients(series, op, sol.problem.alpha, args.n_coeffs)
            for series, op in pde.series_members(sol, order=args.n_coeffs + 8)
        ]
        points = tuple(p for r in reports for p in r.points)
        report = verify.ResidualReport(method=verify.METHOD_TERMWISE, points=points)
    else:
        report = verify.residual_pde(sol, sol.problem, _parse_grid(args, ["x", "t"]), h=args.h)
    ok = report.passes(args.tol)
    verdict = f"{'PASS' if ok else 'FAIL'} max_rel_err={report.max_rel_err:.3e} tol={args.tol:g}"
    _write(args, emit_report(report, args.format, tol=args.tol), tail=verdict)
    return 0 if ok else 2


def cmd_identities(args) -> int:
    if args.n < 1:
        raise InputError(f"--n must be at least 1, got {args.n}")
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
    else:  # wright
        for _ in range(args.n):
            x = float(rng.uniform(-5.0, 5.0))
            got = complex(wright.mittag_leffler(1.0, 1.0, x)).real
            worst = max(worst, abs(got - math.exp(x)) / math.exp(x))
    ok = worst < args.tol
    print(f"{'PASS' if ok else 'FAIL'} suite={args.suite} n={args.n} "
          f"max_rel_err={worst:.3e} tol={args.tol:g}")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracsol", description="Evaluate and verify explicit "
                                     "solutions of time-fractional anomalous diffusion equations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # shared option groups, attached to subcommands as parent parsers
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write results to this path instead of stdout")
    out.add_argument("--format", choices=["csv", "json"], default="csv")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--json", help="spec or problem JSON (fields as listed with the command)")
    source.add_argument("--input", help="path to a file holding that JSON")
    zs = argparse.ArgumentParser(add_help=False)
    zs.add_argument("--z", required=True, help="comma-separated arguments")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", help="axis grid, e.g. x=0.5:2:4,t=0.5:2:4")
    grid.add_argument("--log-grid", action="store_true", help="geometric axis spacing")
    form = argparse.ArgumentParser(add_help=False)
    form.add_argument(
        "--form", choices=["auto", "exp", "h", "series"], default="auto",
        help="solution representation (auto: exp closed form when alpha=1, else branch)",
    )
    form.add_argument("--sign", choices=["plus", "minus"], default="plus")

    eval_sub = sub.add_parser("eval", help="evaluate a special function").add_subparsers(
        dest="function", required=True)
    eval_sub.add_parser(
        "wright", parents=[source, zs, out],
        help="generalized Wright function; JSON {upper:[[a,alpha]..], lower:[[b,beta]..]}",
    ).set_defaults(func=cmd_eval_wright)
    eval_sub.add_parser(
        "foxh", parents=[source, zs, out],
        help="Fox H-function (Mellin-Barnes), z > 0; "
        "JSON {m,l,upper:[[A,alpha]..],lower:[[B,beta]..]}",
    ).set_defaults(func=cmd_eval_foxh)
    p_ml = eval_sub.add_parser("ml", parents=[zs, out], help="Mittag-Leffler function")
    p_ml.add_argument("--alpha", type=_finite, required=True)
    p_ml.add_argument("--beta", type=_finite, required=True)
    p_ml.set_defaults(func=cmd_eval_ml)

    solve_sub = sub.add_parser("solve", help="construct an explicit solution").add_subparsers(
        dest="target", required=True)
    solve_sub.add_parser(
        "ode", parents=[source, out, grid],
        help='model fractional ODE; JSON {"alpha":..,"m":..,"a_coeffs":[a0..an]}',
    ).set_defaults(func=cmd_solve_ode)
    solve_sub.add_parser(
        "pde", parents=[source, form, out, grid],
        help='anomalous diffusion PDE; JSON {"alpha":..,"m":..,"d":..,"A":..,...}',
    ).set_defaults(func=cmd_solve_pde)

    p_v = sub.add_parser(
        "verify", parents=[source, form, out, grid],
        help="residual verification of a PDE solution; JSON as for solve pde",
    )
    p_v.add_argument(
        "--mode", choices=["grid", "coefficients"], default="grid",
        help="grid: pointwise residual; coefficients: termwise residual of a Wright series",
    )
    p_v.add_argument("--h", type=_finite, default=1e-4, help="GL time step")
    p_v.add_argument("--n-coeffs", type=int, default=20)
    p_v.add_argument("--tol", type=_finite, required=True)
    p_v.set_defaults(func=cmd_verify)

    p_i = sub.add_parser("identities", help="randomized identity suites")
    p_i.add_argument("--suite", choices=["lemma1", "wright"], required=True)
    p_i.add_argument("--n", type=int, default=1000)
    p_i.add_argument("--seed", type=int, default=0)
    p_i.add_argument("--tol", type=_finite, required=True)
    p_i.set_defaults(func=cmd_identities)

    return parser


def run(argv=None) -> int:
    """Run one command.  Malformed input, a bad argument value (the library's
    ValueError) and an unreadable --input or unwritable --out print
    'input error: ...'; other library errors print their class name."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except FracsolError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
