"""End-to-end tests of the command-line interface: argument parsing, grid
syntax, output formats, exit codes, and determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracsol import fracseries, ode
from fracsol.cli import build_parser, run
from fracsol.errors import InputError, PoleError


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_ml_at_zero(self, capsys):
        code, out = run_capture(capsys, ["eval", "ml", "--alpha", "1", "--beta", "1", "--z", "0"])
        assert code == 0
        row = out.strip().splitlines()[-1]
        assert float(row.split(",")[1]) == pytest.approx(1.0)

    def test_ml_exp(self, capsys):
        code, out = run_capture(capsys, ["eval", "ml", "--alpha", "1", "--beta", "1", "--z", "1"])
        assert code == 0
        assert float(out.strip().splitlines()[-1].split(",")[1]) == pytest.approx(
            math.e, rel=1e-12
        )

    def test_wright_json_spec(self, capsys):
        spec = json.dumps({"upper": [[1, 1]], "lower": [[1, 1]]})
        code, out = run_capture(capsys, ["eval", "wright", "--json", spec, "--z", "2"])
        assert code == 0
        assert float(out.strip().splitlines()[-1].split(",")[1]) == pytest.approx(
            math.exp(2), rel=1e-12
        )

    def test_foxh_exp_reduction(self, capsys):
        spec = json.dumps({"m": 1, "l": 0, "upper": [], "lower": [[0, 1]]})
        code, out = run_capture(capsys, ["eval", "foxh", "--json", spec, "--z", "1.5"])
        assert code == 0
        assert float(out.strip().splitlines()[-1].split(",")[1]) == pytest.approx(
            math.exp(-1.5), rel=1e-9
        )

    def test_foxh_inverted_exp(self, capsys):
        # H^{0,1}_{1,0}[z | (1, 1); -] = exp(-1/z), the inverse of exp(-z)
        spec = json.dumps({"m": 0, "l": 1, "upper": [[1, 1]]})
        code, out = run_capture(capsys, ["eval", "foxh", "--json", spec, "--z", "0.5,1.5"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[-2:]]
        for z, value in rows:
            assert float(value) == pytest.approx(math.exp(-1.0 / float(z)), rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_foxh_large_weight_is_a_library_error(self, capsys):
        # the line sum's scale passes the double range; this used to print inf
        spec = json.dumps({"m": 1, "l": 0, "upper": [], "lower": [[0, 1000]]})
        code = run(["eval", "foxh", "--json", spec, "--z", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("QuadratureFailureError: ")
        assert "inf" not in captured.err

    def test_malformed_json_is_input_error(self, capsys):
        argv = ["eval", "wright", "--json", "{not json", "--z", "1"]
        code = run(argv)
        assert code == 1
        assert capsys.readouterr().err.startswith("input error: malformed JSON")
        args = build_parser().parse_args(argv)
        with pytest.raises(InputError):
            args.func(args)


class TestSolve:
    def test_ode_descriptor(self, capsys):
        prob = json.dumps({"alpha": 0.5, "m": 0, "a_coeffs": [0, 1]})
        code, out = run_capture(capsys, ["solve", "ode", "--json", prob])
        assert code == 0
        doc = json.loads(out)
        assert doc["branch"] == "small-alpha"

    def test_ode_wright_members_and_grid(self, capsys, tmp_path):
        prob = {"alpha": 2.5, "m": 0, "a_coeffs": [0.1, 0, 1]}
        out_path = tmp_path / "y.csv"
        code, out = run_capture(capsys, [
            "solve", "ode", "--json", json.dumps(prob), "--grid", "z=0.5:2:3",
            "--out", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["branch"] == "large-alpha"
        assert [mem["k"] for mem in doc["members"]] == [1, 2, 3]
        assert [mem["leading_exponent"] for mem in doc["members"]] == [1.5, 0.5, -0.5]
        assert doc["members"][0]["wright_lower"] == [[2.5, 2.5]]
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "z,y"
        sol = ode.solve(ode.OdeProblem(prob["alpha"], prob["m"], prob["a_coeffs"]))
        for row in rows[1:]:
            z, y = map(float, row.split(","))
            assert y == complex(sol.evaluate(z)).real

    def test_input_read_from_file(self, capsys, tmp_path):
        prob = json.dumps({"alpha": 0.5, "m": 0, "a_coeffs": [0, 1]})
        path = tmp_path / "problem.json"
        path.write_text(prob)
        code, out = run_capture(capsys, ["solve", "ode", "--input", str(path)])
        assert code == 0
        assert out == run_capture(capsys, ["solve", "ode", "--json", prob])[1]

    def test_pde_heat_kernel_csv(self, capsys, tmp_path):
        prob = json.dumps(
            {"alpha": 1, "m": 0, "d": 0, "A": 1, "B": 0, "C": 0, "a": 0}
        )
        out_path = tmp_path / "u.csv"
        code, _ = run_capture(
            capsys,
            [
                "solve", "pde", "--json", prob,
                "--grid", "x=0.5:2:4,t=0.5:2:4",
                "--out", str(out_path),
            ],
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "x,t,u"
        assert len(rows) == 17  # header + 16 grid points
        values = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows[1:]}
        assert values[("1.0", "1.0")] == pytest.approx(math.exp(-0.25), rel=1e-7)

    def test_missing_field_is_input_error(self, capsys):
        code, _ = run_capture(
            capsys, ["solve", "pde", "--json", json.dumps({"alpha": 1})]
        )
        assert code == 1


def solve_pde(capsys, tmp_path, problem):
    """Run `solve pde` on a 2 x 2 grid; return (descriptor, {(x, t): u})."""
    out_path = tmp_path / "u.csv"
    code, out = run_capture(
        capsys,
        [
            "solve", "pde", "--json", json.dumps(problem),
            "--grid", "x=0.8:1.2:2,t=0.9:1.3:2", "--out", str(out_path),
        ],
    )
    assert code == 0
    rows = [r.split(",") for r in out_path.read_text().strip().splitlines()[1:]]
    return json.loads(out), {(float(x), float(t)): float(u) for x, t, u in rows}


def assert_samples(samples, want):
    assert sorted(samples) == sorted(want)
    for point, u in want.items():
        assert samples[point] == pytest.approx(u, rel=1e-12), point


class TestSolvePdeDescriptors:
    """Descriptors and samples of the three solution branches, pinned to the
    values of the construction that built each branch on its own."""

    def test_h_form(self, capsys, tmp_path):
        problem = {"alpha": 0.8, "m": 1, "d": 0.5, "A": 1.2, "B": 0.3, "C": -0.1, "a": 0.2}
        doc, samples = solve_pde(capsys, tmp_path, problem)
        assert doc["branch"] == "small-alpha"
        assert doc["K"] == pytest.approx(-0.232, rel=1e-12)
        assert doc["s1"] == pytest.approx(0.35789083458002735, rel=1e-12)
        assert doc["s2"] == pytest.approx(-0.7778908345800274, rel=1e-12)
        spec = doc["h_spec"]
        assert (spec["m"], spec["l"]) == (3, 0)
        assert spec["upper"] == [[1.0, pytest.approx(1.8, rel=1e-12)]]
        # the lower entries form a set: their order follows the root solver
        assert sorted(spec["lower"]) == [
            [pytest.approx(-0.1988282414333485, rel=1e-12), 1.0],
            [pytest.approx(0.4321615747666819, rel=1e-12), 1.0],
            [pytest.approx(0.5555555555555556, rel=1e-12), 1.0],
        ]
        assert doc["argument_coefficient"] == pytest.approx(0.20576131687242802, rel=1e-12)
        assert_samples(samples, {
            (0.8, 0.9): 0.8152528578704549,
            (0.8, 1.3): 1.4011930381622122,
            (1.2, 0.9): 0.43627258206820735,
            (1.2, 1.3): 0.9306891537705635,
        })

    def test_wright_form_complex_roots(self, capsys, tmp_path):
        # alpha > 2 keeps complex roots: they enter the Wright parameters
        problem = {"alpha": 3.4, "m": 0, "d": -1, "A": 1, "B": 0.1, "C": 0.8, "a": 0.3}
        doc, samples = solve_pde(capsys, tmp_path, problem)
        assert doc["branch"] == "large-alpha"
        assert doc["K"] == pytest.approx(0.62, rel=1e-12)
        for key, im in (("s1", 0.876045407245284), ("s2", -0.876045407245284)):
            assert doc[key] == {
                "re": pytest.approx(-0.17, rel=1e-12), "im": pytest.approx(im, rel=1e-12)
            }
        want = [
            (1, -1.8176470588235294, 2.4),
            (2, -0.9352941176470586, 1.4),
            (3, -0.05294117647058816, 0.4),
            (4, 0.8294117647058825, -0.6),
        ]
        assert doc["members"] == [
            {
                "k": k,
                "x_exponent": pytest.approx(xe, rel=1e-12),
                "t_exponent": pytest.approx(te, rel=1e-12),
                "argument_coefficient": pytest.approx(9.0, rel=1e-12),
            }
            for k, xe, te in want
        ]
        assert_samples(samples, {
            (0.8, 0.9): 20.167655519481862,
            (0.8, 1.3): 31.04022882389465,
            (1.2, 0.9): 19.002870173097712,
            (1.2, 1.3): 22.95147198037469,
        })

    def test_d2_negative_K(self, capsys, tmp_path):
        problem = {"alpha": 2.5, "m": 1, "d": 2, "A": 1, "B": 0, "C": -0.2, "a": 0.5}
        doc, samples = solve_pde(capsys, tmp_path, problem)
        assert doc["branch"] == "large-alpha"
        assert doc["K"] == pytest.approx(-0.45, rel=1e-12)
        assert doc["s1"] is None and doc["s2"] is None
        assert doc["members"] == [
            {
                "k": k,
                "x_exponent": pytest.approx(0.5, rel=1e-12),
                "t_exponent": pytest.approx(te, rel=1e-12),
                "argument_coefficient": pytest.approx(-1.575, rel=1e-12),
            }
            for k, te in ((1, 1.5), (2, 0.5), (3, -0.5))
        ]
        assert_samples(samples, {
            (0.8, 0.9): 5.99584661382964,
            (0.8, 1.3): 5.8876118310159455,
            (1.2, 0.9): 7.343382389938478,
            (1.2, 1.3): 7.210822394781222,
        })

    def test_complex_roots_below_alpha_2_rejected(self, capsys):
        problem = {"alpha": 0.8, "m": 0, "d": 0, "A": 1, "B": 0, "C": 1, "a": 0}
        code = run(["solve", "pde", "--json", json.dumps(problem)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("ComplexRootsError")
        assert captured.out == ""

    def test_alpha_2_rejected(self, capsys):
        # d != 2 reduces alpha = 2 to an ODE with alpha = n = 2
        code = run(["solve", "pde", "--json", json.dumps({"alpha": 2, "d": 1, "A": 1})])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("BranchMismatchError")
        assert captured.out == ""


class TestFormAndSign:
    """--form picks the representation and --sign the exp branch; the
    descriptors are pinned to the values the solvers gave when these tests
    were written."""

    HEAT_FIELDS = {
        "K": 0.0, "s1": 0.0, "s2": -0.5,
        "alpha": 1.0, "m": 0, "d": 0.0, "A": 1.0, "B": 0.0, "C": 0.0, "a": 0.0,
    }

    def test_exp_minus_branch(self, capsys):
        code, out = run_capture(
            capsys, ["solve", "pde", "--json", HEAT, "--form", "exp", "--sign", "minus"]
        )
        assert code == 0
        assert json.loads(out) == {
            "branch": "closed-form", **self.HEAT_FIELDS,
            "x_exponent": 1.0, "t_exponent": -1.5, "exp_coefficient": 0.25,
        }

    def test_h_form_at_alpha_1(self, capsys):
        code, out = run_capture(capsys, ["solve", "pde", "--json", HEAT, "--form", "h"])
        assert code == 0
        assert json.loads(out) == {
            "branch": "small-alpha", **self.HEAT_FIELDS,
            "h_spec": {"m": 2, "l": 0, "upper": [[1.0, 1.0]], "lower": [[0.5, 1.0], [0.0, 1.0]]},
            "argument_coefficient": 0.25,
        }

    def test_exp_form_off_alpha_1_rejected(self, capsys):
        problem = json.dumps({"alpha": 0.8, "m": 1, "d": 0, "A": 1})
        code = run(["solve", "pde", "--json", problem, "--form", "exp"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "BranchMismatchError: exp closed form requires alpha = 1\n"
        assert captured.out == ""


class TestVerify:
    def test_heat_kernel_pass(self, capsys):
        prob = json.dumps({"alpha": 1, "m": 0, "d": 0, "A": 1, "B": 0, "C": 0, "a": 0})
        code, out = run_capture(
            capsys,
            ["verify", "--json", prob, "--grid", "x=0.5:2:3,t=0.5:2:3", "--tol", "1e-8"],
        )
        assert code == 0
        assert "PASS" in out

    def test_unreachable_tolerance_fails(self, capsys):
        prob = json.dumps({"alpha": 1, "m": 0, "d": 0, "A": 1, "B": 0, "C": 0, "a": 0})
        code, out = run_capture(
            capsys,
            ["verify", "--json", prob, "--grid", "x=0.5:2:5,t=0.5:2:5", "--tol", "1e-300"],
        )
        assert code == 2
        assert "FAIL" in out


class TestIdentities:
    def test_lemma_suite_pass(self, capsys):
        code, out = run_capture(
            capsys,
            ["identities", "--suite", "lemma1", "--n", "200", "--seed", "7", "--tol", "1e-11"],
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_lemma_suite_skips_a_pole(self, capsys, monkeypatch):
        # a draw that lands on a pole is skipped, and the suite still
        # checks --n draws
        check, results = fracseries.gamma_product_identity_check, []

        def first_on_a_pole(a, m, b):
            if not results:
                results.append(None)
                raise PoleError(f"Gamma({a}) lands on a pole")
            results.append(check(a, m, b))
            return results[-1]

        monkeypatch.setattr(fracseries, "gamma_product_identity_check", first_on_a_pole)
        code, out = run_capture(
            capsys, ["identities", "--suite", "lemma1", "--n", "3", "--tol", "1e-11"]
        )
        assert code == 0
        assert out.startswith("PASS suite=lemma1 n=3")
        assert results[0] is None and len(results) == 4

    def test_deterministic_given_seed(self, capsys):
        argv = ["identities", "--suite", "lemma1", "--n", "50", "--seed", "3", "--tol", "1e-11"]
        _, out1 = run_capture(capsys, argv)
        _, out2 = run_capture(capsys, argv)
        assert out1 == out2

    def test_wright_suite(self, capsys):
        code, out = run_capture(
            capsys, ["identities", "--suite", "wright", "--tol", "1e-10"]
        )
        assert code == 0
        assert out.startswith("PASS")


class TestReportFormats:
    PROB = json.dumps({"alpha": 1, "m": 0, "d": 0, "A": 1, "B": 0, "C": 0, "a": 0})

    def test_json_report_round_trips(self, capsys):
        code, out = run_capture(
            capsys,
            [
                "verify", "--json", self.PROB,
                "--grid", "x=1:2:2,t=1:2:2",
                "--tol", "1e-8", "--format", "json",
            ],
        )
        assert code == 0
        body = out[: out.rfind("PASS")]
        doc = json.loads(body)
        assert doc["pass"] is True
        assert len(doc["points"]) == 4
        assert doc["max_rel_err"] <= 1e-8
        for p in doc["points"]:
            assert set(p) >= {"x", "t", "lhs", "rhs", "rel_err"}

    def test_gl_json_report_round_trips(self, capsys):
        # a Grunwald-Letnikov report: its error and verdict are computed
        # from numpy values and must still be written as JSON
        prob = json.dumps(
            {"alpha": 0.8, "m": 1, "d": 0.5, "A": 1.2, "B": 0.3, "C": -0.1, "a": 0.2}
        )
        code, out = run_capture(
            capsys,
            [
                "verify", "--json", prob,
                "--grid", "x=1:1.2:2,t=1:1.2:2",
                "--tol", "1e-3", "--format", "json",
            ],
        )
        assert code == 0
        doc = json.loads(out[: out.rfind("PASS")])
        assert doc["method"] == "grunwald-letnikov"
        assert doc["pass"] is True
        assert len(doc["points"]) == 4
        assert 0.0 < doc["max_rel_err"] <= 1e-3
        assert all(p["counted"] is True for p in doc["points"])

    def test_csv_header(self, capsys):
        code, out = run_capture(
            capsys,
            [
                "verify", "--json", self.PROB,
                "--grid", "x=1:1:1,t=1:1:1",
                "--tol", "1e-8", "--format", "csv",
            ],
        )
        assert code == 0
        assert out.splitlines()[0] == "x,t,lhs,rhs,abs_err,rel_err"


class TestComplexConstants:
    """A non-real constant is written and verified, not dropped with .imag."""

    PROB = json.dumps({"alpha": 0.8, "m": 1, "d": 0, "A": 1, "constants": ["1j"]})

    def test_solve_csv_writes_u_im(self, capsys, tmp_path):
        out_path = tmp_path / "u.csv"
        code, _ = run_capture(
            capsys,
            ["solve", "pde", "--json", self.PROB, "--grid", "x=1:1:1,t=1:1:1",
             "--out", str(out_path)],
        )
        assert code == 0
        header, row = out_path.read_text().strip().splitlines()
        assert header == "x,t,u,u_im"
        x, t, re, im = map(float, row.split(","))
        assert (x, t, re) == (1.0, 1.0, 0.0)
        assert im == pytest.approx(0.9504248291308582, rel=1e-12)

    def test_solve_json_writes_re_im(self, capsys, tmp_path):
        out_path = tmp_path / "u.json"
        code, _ = run_capture(
            capsys,
            ["solve", "pde", "--json", self.PROB, "--grid", "x=1:1:1,t=1:1:1",
             "--format", "json", "--out", str(out_path)],
        )
        assert code == 0
        (row,) = json.loads(out_path.read_text())
        assert row["u"]["re"] == 0.0
        assert row["u"]["im"] == pytest.approx(0.9504248291308582, rel=1e-12)

    def test_real_constants_keep_one_column(self, capsys, tmp_path):
        out_path = tmp_path / "u.csv"
        prob = json.dumps({"alpha": 0.8, "m": 1, "d": 0, "A": 1, "constants": [2.0]})
        code, _ = run_capture(
            capsys,
            ["solve", "pde", "--json", prob, "--grid", "x=1:1:1,t=1:1:1", "--out", str(out_path)],
        )
        assert code == 0
        assert out_path.read_text().splitlines()[0] == "x,t,u"

    def test_verify_compares_the_complex_u(self, capsys):
        code, out = run_capture(
            capsys,
            ["verify", "--json", self.PROB, "--grid", "x=1:1:1,t=1:1.2:2", "--tol", "1e-3",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out[: out.rfind("PASS")])
        for p in doc["points"]:
            assert p["lhs"]["re"] == 0.0 and p["lhs"]["im"] > 1.0
            assert p["rhs"]["im"] == pytest.approx(p["lhs"]["im"], rel=1e-3)
        assert 0.0 < doc["max_rel_err"] < 1e-3


    def test_verify_csv_writes_the_imaginary_parts(self, capsys):
        code, out = run_capture(
            capsys,
            ["verify", "--json", self.PROB, "--grid", "x=1:1:1,t=1:1:1", "--tol", "1e-3"],
        )
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header == "x,t,lhs,rhs,abs_err,rel_err,lhs_im,rhs_im"
        cols = dict(zip(header.split(","), map(float, row.split(","))))
        assert cols["lhs"] == cols["rhs"] == 0.0
        assert cols["lhs_im"] == pytest.approx(cols["rhs_im"], rel=1e-3)
        assert cols["abs_err"] == pytest.approx(abs(cols["lhs_im"] - cols["rhs_im"]), rel=1e-6)


class TestGridSyntax:
    def test_log_grid(self, capsys, tmp_path):
        prob = json.dumps({"alpha": 1, "m": 0, "d": 0, "A": 1, "B": 0, "C": 0, "a": 0})
        out_path = tmp_path / "u.csv"
        code, _ = run_capture(
            capsys,
            [
                "solve", "pde", "--json", prob,
                "--grid", "x=0.1:10:3,t=1:1:1", "--log-grid",
                "--out", str(out_path),
            ],
        )
        assert code == 0
        xs = [float(r.split(",")[0]) for r in out_path.read_text().strip().splitlines()[1:]]
        assert xs == pytest.approx([0.1, 1.0, 10.0])

    def test_bad_grid_rejected(self, capsys):
        prob = json.dumps({"alpha": 1, "m": 0, "d": 0, "A": 1, "B": 0, "C": 0, "a": 0})
        code, _ = run_capture(capsys, ["solve", "pde", "--json", prob, "--grid", "x=1:2"])
        assert code == 1


HEAT = json.dumps({"alpha": 1, "m": 0, "d": 0, "A": 1, "B": 0, "C": 0, "a": 0})
H_FORM = json.dumps({"alpha": 0.8, "m": 1, "d": 0.5, "A": 1.2, "B": 0.3, "C": -0.1, "a": 0.2})
EXP_SPEC = json.dumps({"m": 1, "l": 0, "upper": [], "lower": [[0, 1]]})
# d = 2, solved as the n = 0 reduced ODE; its member argument is -1.575 t^3.5
D2 = json.dumps({"alpha": 2.5, "m": 1, "d": 2, "A": 1, "C": -0.2, "a": 0.5})


def test_import_loads_no_scipy():
    # nothing in fracsol imports scipy, so neither the CLI's cold start nor
    # a GL profile, which is a numpy spline, pays for it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = (
        "import json, sys, fracsol.cli\n"
        "from fracsol import pde, verify\n"
        "p = pde.DiffusionProblem(**json.loads(sys.argv[1]))\n"
        "verify.residual_pde(pde.solve(p), p, [(1.0, 1.0)], h=1e-3)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, H_FORM], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "foxh", "--json", EXP_SPEC, "--z", "1,abc"],
        ["eval", "ml", "--alpha", "1", "--beta", "1", "--z", "1,"],
        ["eval", "foxh", "--json", EXP_SPEC, "--z", "0"],
        ["eval", "ml", "--alpha", "0", "--beta", "1", "--z", "1"],
        ["eval", "foxh", "--json", json.dumps({"m": 2, "l": 0, "lower": [[0, 1]]}), "--z", "1"],
        ["solve", "pde", "--json", json.dumps({"alpha": 1, "d": 0, "A": -1})],
        ["solve", "pde", "--input", str(Path(__file__).with_name("no-such-problem.json"))],
        ["verify", "--json", HEAT, "--tol", "1e-8"],
        ["verify", "--json", HEAT, "--tol", "1e-8", "--mode", "coefficients"],
        ["verify", "--json", H_FORM, "--tol", "1e-8", "--mode", "coefficients",
         "--grid", "x=1:1:1,t=1:1:1"],
        ["solve", "pde", "--json", HEAT, "--grid", "x=1:2:2"],
        ["solve", "ode", "--json", json.dumps({"alpha": 0.5, "a_coeffs": [0, 1]}),
         "--grid", "z=0:1:2"],
        ["solve", "pde", "--json", H_FORM, "--form", "series"],
        ["solve", "pde", "--json", json.dumps({"alpha": 2.5, "d": 1, "A": 1}), "--form", "h"],
        ["eval", "ml", "--alpha", "abc", "--beta", "1", "--z", "1"],
        ["verify", "--json", HEAT, "--grid", "x=1:1:1,t=1:1:1"],
        ["solve", "pde", "--json", '{"alpha":NaN,"m":0,"d":0,"A":1}'],
        ["solve", "pde", "--json", '{"alpha":0.8,"d":NaN,"A":1}', "--grid", "x=1:1:1,t=1:1:1"],
        ["solve", "pde", "--json", '{"alpha":0.8,"d":0,"A":1,"C":NaN}'],
        ["solve", "pde", "--json", '{"alpha":0.8,"d":2,"A":1,"a":NaN}',
         "--grid", "x=1:1:1,t=1:1:1"],
        ["solve", "ode", "--json", '{"alpha":0.5,"a_coeffs":[0,Infinity]}'],
        ["eval", "ml", "--alpha", "nan", "--beta", "1", "--z", "1"],
        ["eval", "ml", "--alpha", "1", "--beta", "1", "--z", "nan"],
        ["solve", "pde", "--json", HEAT, "--grid", "x=1:inf:2,t=1:1:1"],
        ["verify", "--json", HEAT, "--grid", "x=1:1:1,t=1:1:1", "--tol", "nan"],
        ["verify", "--json", D2, "--mode", "coefficients", "--n-coeffs", "0", "--tol", "1e-10"],
        ["verify", "--json", D2, "--mode", "coefficients", "--n-coeffs", "-3", "--tol", "1e-10"],
        ["identities", "--suite", "lemma1", "--n", "0", "--tol", "1e-11"],
        ["identities", "--suite", "lemma1", "--n", "-5", "--tol", "1e-11"],
        ["solve", "pde", "--json", HEAT, "--grid", "x=1:2:2,x=3:4:2,t=1:1:1"],
        ["solve", "pde", "--json", HEAT, "--grid", "x=1:2:0,t=1:1:1"],
        ["solve", "pde", "--json", HEAT, "--grid", "x=0:2:3,t=1:1:1", "--log-grid"],
        ["solve", "pde"],
        ["solve", "pde", "--json", "[1, 2]"],
        ["solve", "pde", "--json", HEAT, "--grid", "x=1:1:1,t=1:1:1",
         "--out", str(Path(__file__).with_name("no-such-dir") / "u.csv")],
    ],
    ids=[
        "z-not-a-number", "z-trailing-comma", "foxh-z-zero", "ml-alpha-zero", "foxh-m-above-q",
        "pde-negative-A", "missing-input", "verify-without-grid", "coefficients-on-closed-form",
        "coefficients-on-h-form", "pde-grid-without-t", "ode-grid-at-zero",
        "series-form-below-alpha-2", "h-form-above-alpha-2", "ml-alpha-not-a-number",
        "verify-without-tol", "pde-alpha-nan", "pde-d-nan", "pde-C-nan", "pde-a-nan",
        "ode-a-coeff-infinity", "ml-alpha-nan", "z-nan", "grid-infinity", "verify-tol-nan",
        "verify-no-coefficient", "verify-negative-coefficients", "identities-n-zero",
        "identities-n-negative", "grid-axis-twice", "grid-count-zero", "log-grid-at-zero",
        "no-json-or-input", "json-array", "out-unwritable",
    ],
)
def test_bad_input_is_one_line_input_error(capsys, argv):
    # every input is checked before output, so a failing command writes nothing to stdout
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, field",
    [
        (["solve", "pde", "--json", json.dumps({"alpha": None, "d": 0, "A": 1})], "alpha"),
        (["eval", "foxh", "--json", json.dumps({"m": [1], "lower": [[0, 1]]}), "--z", "1"], "m"),
        (["solve", "ode", "--json", json.dumps({"alpha": 0.5, "a_coeffs": 5})], "a_coeffs"),
        (["solve", "pde", "--json", json.dumps({"alpha": 0.8, "m": 1.5, "d": 0, "A": 1})], "m"),
    ],
    ids=["pde-alpha-null", "foxh-m-list", "ode-a-coeffs-number", "pde-m-fractional"],
)
def test_mistyped_field_is_input_error_naming_it(capsys, argv, field):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"input error: bad field {field!r}")


@pytest.mark.parametrize(
    "argv, error",
    [
        # the reduced ODE's coefficients sit near underflow, and a
        # characteristic root fails its residual check
        (["solve", "pde", "--json", '{"alpha":0.8,"m":1,"d":0,"A":1e-300}'],
         "DegenerateLeadingError: characteristic root"),
        # H = e^(-z^1e-300) / 1e300 stays on gamma0, whose line sum is out of scale
        (["eval", "foxh", "--json", '{"m":1,"l":0,"upper":[],"lower":[[0,1e300]]}', "--z", "2"],
         "QuadratureFailureError: contour sum at z = 2.0 passes the double range"),
        # --form is compared with the branch pde.solve takes, which raises first
        (["solve", "pde", "--json", '{"alpha":2,"d":0.5,"A":1}', "--form", "h"],
         "BranchMismatchError: alpha = n = 2"),
        (["solve", "pde", "--json", '{"alpha":1.5,"d":0,"A":1,"C":1}', "--form", "series"],
         "ComplexRootsError: characteristic roots are complex"),
        # mu = 200^200 passes the double range; omega = -199 refuses the spec
        (["eval", "foxh", "--json", '{"m":1,"l":0,"upper":[[0.5,200]],"lower":[[0,1]]}',
          "--z", "2"], "DivergentInputError: omega = -199"),
        # (alpha + m)^(m + n) passes the double range on either branch
        (["solve", "pde", "--json", '{"alpha":0.8,"m":150,"d":0,"A":1}'],
         "UnsupportedClassError: a_n (alpha + m)^(m + n) = "),
        (["solve", "pde", "--json", '{"alpha":2.5,"m":150,"d":0,"A":1}'],
         "UnsupportedClassError: a_n (alpha + m)^(m + n) = "),
        (["solve", "ode", "--json", '{"alpha":0.5,"m":300,"a_coeffs":[0,1]}'],
         "UnsupportedClassError: a_n (alpha + m)^(m + n) = "),
        # z^(alpha - k) and z^-(alpha + m) pass the double range; each used
        # to end in a bare OverflowError traceback
        (["solve", "ode", "--json", '{"alpha":2.5,"m":0,"a_coeffs":[0.1,0,1]}',
          "--grid", "z=1e300:1e300:1"], "DomainError: the solution at z = 1e+300"),
        (["solve", "ode", "--json", '{"alpha":0.5,"m":2,"a_coeffs":[0,1]}',
          "--grid", "z=1e-300:1e-300:1"], "DomainError: the solution at z = 1e-300"),
    ],
    ids=["pde-A-near-underflow", "foxh-huge-weight", "h-form-at-alpha-2",
         "series-form-complex-roots", "foxh-mu-overflow", "pde-h-form-m-150",
         "pde-series-m-150", "ode-m-300", "ode-wright-z-1e300", "ode-h-form-z-1e-300"],
)
def test_library_error_is_one_line(capsys, argv, error):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(error)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("form, branch", [("series", "small-alpha"), ("h", "large-alpha")])
def test_form_mismatch_names_the_branch(capsys, form, branch):
    problem = H_FORM if branch == "small-alpha" else D2
    code = run(["solve", "pde", "--json", problem, "--form", form])
    assert code == 1
    assert capsys.readouterr().err == (
        f"input error: --form {form} does not match the problem's solution branch, {branch}\n"
    )


def test_coefficients_past_the_double_range_pass(capsys):
    # lam^j passed the double range at order 1608 and raised OverflowError;
    # the true coefficients underflow to 0
    code, out = run_capture(capsys, [
        "verify", "--json", D2, "--mode", "coefficients", "--n-coeffs", "1600", "--tol", "1e-10",
    ])
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS max_rel_err=")
