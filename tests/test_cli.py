"""End-to-end checks of the command line: formats, exit codes, determinism."""
import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flag_reference
from qlinalg_reference import dual_basis
from steinpoly.cli import (
    _COMMANDS,
    _COMMON_ARGS,
    _SUITES,
    MAX_DIM,
    MAX_FOURIER_POINTS,
    MAX_FOURIER_WEIGHT,
    MAX_WEIGHT,
    _build_parser,
    _parse,
    _plain_parse,
    main,
)
from steinpoly.qlinalg import frac_to_str, qv, vec_to_json
from steinpoly.st2 import dualize, make_I, make_L, st2_product

FIXTURE = str(resources.files("steinpoly").joinpath("data/weight4_depth2.json"))


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def run_json(tmp_path, *argv):
    code, text = run(tmp_path, *argv)
    return code, json.loads(text) if text else None


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestReduce:
    def test_boundary_relation_is_zero(self, tmp_path):
        path = write(tmp_path, "rel.json", {
            "dim": 2,
            "terms": [
                {"apartment": [[0, 1], [1, 2]], "coeff": "1"},
                {"apartment": [[1, 0], [1, 2]], "coeff": "-1"},
                {"apartment": [[1, 0], [0, 1]], "coeff": "1"},
            ],
        })
        code, report = run_json(tmp_path, "reduce", path)
        assert code == 0
        assert report["zero"] is True and report["terms"] == []

    def test_two_term_expansion(self, tmp_path):
        path = write(tmp_path, "el.json", {
            "dim": 2,
            "terms": [{"apartment": [[0, 1], [1, 1]], "coeff": "1"}],
        })
        code, report = run_json(tmp_path, "reduce", path)
        assert code == 0
        assert report["zero"] is False
        assert len(report["terms"]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 2, "terms": [')
        code, _ = run(tmp_path, "reduce", str(p))
        assert code == 2

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python reads integers of any length",
    )
    @pytest.mark.parametrize("command", [["reduce"], ["verify", "dihedral"], ["st"], ["fourier"]])
    def test_integer_above_the_digit_limit_exits_2(self, tmp_path, command):
        # json.load refuses it with a ValueError that is not a JSONDecodeError
        p = tmp_path / "long.json"
        p.write_text('{"dim": ' + "1" * (sys.get_int_max_str_digits() + 1) + "}")
        code, text = run(tmp_path, *command, str(p))
        assert code == 2 and text == ""

    @pytest.mark.parametrize("terms", [5, None])
    def test_non_list_terms_exit_2(self, tmp_path, terms):
        path = write(tmp_path, "el.json", {"dim": 2, "terms": terms})
        code, text = run(tmp_path, "reduce", path)
        assert code == 2 and text == ""

    def test_short_vector_exits_2(self, tmp_path):
        path = write(tmp_path, "short.json", {
            "dim": 2,
            "terms": [{"apartment": [[1, 0], [1]], "coeff": "1"}],
        })
        code, _ = run(tmp_path, "reduce", path)
        assert code == 2

    @pytest.mark.parametrize("dim", [0, MAX_DIM + 1])
    def test_dimension_out_of_range_exits_2(self, tmp_path, dim):
        path = write(tmp_path, "big.json", {
            "dim": dim,
            "terms": [{"apartment": [[int(i == j) for j in range(dim)] for i in range(dim)]}],
        })
        code, _ = run(tmp_path, "reduce", path)
        assert code == 2

    @pytest.mark.parametrize("dim", [2.7, True, "5/2", "two"])
    def test_non_integral_dimension_exits_2(self, tmp_path, dim):
        path = write(tmp_path, "frac.json", {
            "dim": dim,
            "terms": [{"apartment": [[0, 1], [1, 1]], "coeff": "1"}],
        })
        code, text = run(tmp_path, "reduce", path)
        assert code == 2 and text == ""

    def test_integral_string_dimension_accepted(self, tmp_path):
        path = write(tmp_path, "str.json", {
            "dim": "2",
            "terms": [{"apartment": [[0, 1], [1, 1]], "coeff": "1"}],
        })
        code, report = run_json(tmp_path, "reduce", path)
        assert code == 0 and report["dim"] == 2

    def test_degenerate_apartment_exits_2(self, tmp_path):
        path = write(tmp_path, "deg.json", {
            "dim": 2,
            "terms": [{"apartment": [[1, 1], [2, 2]], "coeff": "1"}],
        })
        code, _ = run(tmp_path, "reduce", path)
        assert code == 2


class TestSymbol:
    def test_L_pair_three_terms(self, tmp_path):
        code, report = run_json(tmp_path, "symbol", "--kind", "L", "1,0", "0,1")
        assert code == 0
        terms = {
            (tuple(tuple(r) for r in t["word"]), t["coeff"]) for t in report["terms"]
        }
        assert terms == {
            ((("1", "1"), ("0", "1")), "1"),
            ((("0", "1"), ("1", "0")), "1"),
            ((("1", "1"), ("1", "0")), "-1"),
        }

    def test_I_triple_term_count(self, tmp_path):
        code, report = run_json(
            tmp_path, "symbol", "--kind", "I", "1,0,0", "0,1,0", "0,0,1"
        )
        assert code == 0
        assert len(report["terms"]) == 15
        assert all(t["coeff"] in ("1", "-1") for t in report["terms"])

    def test_single_vector(self, tmp_path):
        code, report = run_json(tmp_path, "symbol", "--kind", "L", "3,6")
        assert code == 0
        assert report["terms"] == [{"coeff": "1", "exp": [0, 0], "word": [["1", "2"]]}]

    def test_mixed_lengths_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "symbol", "--kind", "L", "1,0", "0,1,0")
        assert code == 2

    def test_dependent_vectors_exit_2(self, tmp_path):
        code, text = run(tmp_path, "symbol", "--kind", "L", "1,0", "2,0")
        assert code == 2 and text == ""

    @pytest.mark.parametrize("dim_args, length", [
        ((), MAX_DIM + 1),
        (("--dim", str(MAX_DIM + 1)), MAX_DIM + 1),
        (("--dim", "2"), 3),
    ])
    def test_ambient_bound_exit_2(self, tmp_path, dim_args, length):
        # a single vector keeps the case cheap should the bound ever be missing
        vec = ",".join(["1"] + ["0"] * (length - 1))
        code, text = run(tmp_path, "symbol", "--kind", "L", *dim_args, vec)
        assert code == 2 and text == ""


    def test_negative_first_coordinate_needs_double_dash(self, capsys):
        # "-1,0" reads as an unknown option; after "--" it is a vector
        with pytest.raises(SystemExit) as exc:
            main(["symbol", "--kind", "L", "-1,0", "0,1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "steinpoly: error: unrecognized arguments: -1,0"
        )
        # --out would read as a vector after "--", so the report goes to stdout
        assert main(["symbol", "--kind", "L", "--", "-1,0", "0,1"]) == 0
        assert json.loads(capsys.readouterr().out)["terms"]


class TestVerify:
    def test_random_suites_pass(self, tmp_path):
        for suite, dim in [("shuffle", 2), ("dihedral", 2), ("cobracket", 2),
                           ("duality", 2), ("ashrudolph", 2)]:
            code, report = run_json(
                tmp_path, "verify", suite, "--dim", str(dim),
                "--cases", "3", "--seed", "7",
            )
            assert code == 0, suite
            assert report["verdict"] == "PASS"
            assert report["seed"] == 7

    def test_corrupted_fixture_reports_witness(self, tmp_path):
        path = write(tmp_path, "fix.json", {
            "cases": [
                {"basis": [[1, 0], [0, 1]]},
                {
                    "basis": [[2, 1], [1, 1]],
                    "perturb": {"vectors": [[1, 0], [1, 1]], "coeff": "1"},
                },
            ]
        })
        code, report = run_json(tmp_path, "verify", "dihedral", path, "--seed", "2")
        assert code == 1
        assert report["verdict"] == "FAIL"
        (fail,) = report["failures"]
        assert fail["case"] == 1
        assert fail["witness"]["relation"]

    def test_fixture_without_cases_exits_2(self, tmp_path):
        path = write(tmp_path, "fix.json", {"wrong": []})
        code, _ = run(tmp_path, "verify", "shuffle", path)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "shuffle", "--dim", "0"],
        ["verify", "duality", "--dim", "0"],
        ["verify", "dihedral", "--dim", "-1"],
        ["verify", "shuffle", "--dim", str(MAX_DIM + 1)],
        ["verify", "shuffle", "--dim", "2", "--cases", "0"],
        ["verify", "duality", "--dim", "2", "--cases", "-3"],
    ])
    def test_bounds_exit_2(self, tmp_path, argv):
        code, text = run(tmp_path, *argv)
        assert code == 2 and text == ""

    @pytest.mark.parametrize("cases", [
        [],
        [{"perturb": {"vectors": [[1, 0], [0, 1]]}}],
        [{"basis": []}],
        [{"basis": 5}],
        [{"basis": [[1, 0], [1]]}],
        [[[1, 0], [0, 1]]],
        [{"basis": [[int(i == j) for j in range(MAX_DIM + 1)] for i in range(MAX_DIM + 1)]}],
        [{"basis": [[1, 0], [0, 1]], "perturb": {"vectors": [[0, 1], [1]]}}],
        [{"basis": [[1, 0], [0, 1]], "perturb": {"vectors": 5}}],
    ])
    def test_malformed_fixture_exits_2(self, tmp_path, cases):
        path = write(tmp_path, "fix.json", {"cases": cases})
        code, text = run(tmp_path, "verify", "duality", path)
        assert code == 2 and text == ""

    @pytest.mark.parametrize("suite", ["shuffle", "dihedral", "duality"])
    def test_mixed_dimension_fixture_exits_2(self, tmp_path, capsys, suite):
        # the report has one "dim" field, which would name the first case's size only
        path = write(tmp_path, "fix.json", {"cases": [
            {"basis": [[1, 0], [0, 1]]},
            {"basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        ]})
        code, text = run(tmp_path, "verify", suite, path)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: fixture mixes case dimensions [2, 3]")

    def test_perturbed_cobracket_fixture_exits_2(self, tmp_path):
        # the cobracket suite takes no perturbation: bad input, not a FAIL
        path = write(tmp_path, "fix.json", {"cases": [
            {"basis": [[1, 0], [0, 1]]},
            {"basis": [[2, 1], [1, 1]], "perturb": {"vectors": [[1, 0], [1, 1]], "coeff": "1"}},
        ]})
        code, text = run(tmp_path, "verify", "cobracket", path)
        assert code == 2 and text == ""

    def test_non_integral_ashrudolph_basis_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "fix.json", {"cases": [
            {"basis": [[1, 0], [0, 1]]},
            {"basis": [["1/2", 2], [3, 4]]},
        ]})
        code, text = run(tmp_path, "verify", "ashrudolph", path)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ashrudolph needs an integral basis")

    def test_rational_duality_basis_passes(self, tmp_path):
        # rows with different denominators: the dual basis read off the
        # adjugate of the basis cleared row by row would scale its vectors
        # apart, which changes the differences in I, and exit 1
        path = write(tmp_path, "fix.json", {"cases": [
            {"basis": [["1/2", 1, 0], [0, "2/3", 1], [1, 0, "3/4"]]},
            {"basis": [[1, "1/3", 2], ["-2/5", 1, 0], [0, "7/2", 1]]},
        ]})
        code, report = run_json(tmp_path, "verify", "duality", path)
        assert code == 0 and report["verdict"] == "PASS" and report["cases"] == 2

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_oracle_points_below_one_exits_2(self, tmp_path, points):
        # the verdict is exact, so `verify` has no evaluation oracle and no
        # --oracle-points: any value is an unknown option, exit 2 with no
        # report, and the perturbed case still FAILs without it
        path = write(tmp_path, "fix.json", {"cases": [{
            "basis": [[2, 1], [1, 3]],
            "perturb": {"vectors": [[1, 0], [0, 1]], "coeff": "1"},
        }]})
        for value in (points, "5"):
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, "verify", "ashrudolph", path, "--oracle-points", value)
            assert exc.value.code == 2
            assert not (tmp_path / "out.txt").exists()
        code, report = run_json(tmp_path, "verify", "ashrudolph", path)
        assert code == 1
        assert report["failures"][0]["witness"]["relation"] == "evaluation mismatch"

    def test_ashrudolph_verdict_evaluates_nothing(self, tmp_path):
        # the verdict comes from the reduction's pivot table and the flag
        # test, so it stands with the evaluation oracle's kernel broken
        basis = [[3, 1, 2], [1, -2, 1], [2, 1, -3]]
        passing = write(tmp_path, "pass.json", {"cases": [{"basis": basis}]})
        perturbed = write(tmp_path, "bad.json", {"cases": [{
            "basis": basis,
            "perturb": {"vectors": [[1, 0, 0], [0, 1, 0], [1, 1, 1]], "coeff": "1/2"},
        }]})
        with mock.patch("steinpoly.cones.rho_term", side_effect=AssertionError("evaluated")):
            code, report = run_json(tmp_path, "verify", "ashrudolph", passing)
            assert code == 0 and report["verdict"] == "PASS"
            code, report = run_json(tmp_path, "verify", "ashrudolph", perturbed)
            assert code == 1
            assert report["failures"][0]["witness"]["relation"] == "evaluation mismatch"

    @pytest.mark.parametrize("suite", ["shuffle", "cobracket"])
    def test_dimension_one_checks_nothing_exits_2(self, tmp_path, suite):
        # both suites split the basis into two nonempty parts, which one
        # vector does not have: a PASS would verify nothing
        code, text = run(tmp_path, "verify", suite, "--dim", "1")
        assert code == 2 and text == ""
        path = write(tmp_path, "fix.json", {"cases": [{"basis": [[2]]}]})
        code, text = run(tmp_path, "verify", suite, path)
        assert code == 2 and text == ""

    @pytest.mark.parametrize("suite", ["dihedral", "duality", "ashrudolph"])
    def test_dimension_one_still_checked(self, tmp_path, suite):
        code, report = run_json(tmp_path, "verify", suite, "--dim", "1", "--cases", "2")
        assert code == 0 and report["verdict"] == "PASS"

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2


class TestWitness:
    """A FAIL residual lists the 8 least terms of the residual's normal form.

    Each residual is rebuilt as its suite builds it and expanded by the
    Fraction reference, which computes every term.
    """

    @staticmethod
    def witness(tmp_path, suite, basis, perturb, coeff):
        entry = {"basis": basis, "perturb": {"vectors": perturb, "coeff": coeff}}
        code, report = run_json(tmp_path, "verify", suite, write(tmp_path, "fix.json", {"cases": [entry]}))
        assert code == 1
        return report["failures"][0]["witness"]

    @staticmethod
    def least_rows(residual):
        nf = flag_reference.st2_normal_form(residual)
        assert len(nf) > 8
        return [
            {
                "coeff": frac_to_str(c),
                "exp": list(exps),
                "pair": [[vec_to_json(p) for p in key_a], [vec_to_json(p) for p in key_b]],
            }
            for (key_a, key_b, exps), c in sorted(nf.items())[:8]
        ]

    def test_perturbed_duality_dim5(self, tmp_path):
        basis = [[2, 1, 0, 0, 1], [1, -1, 1, 0, 0], [0, 1, 2, 1, 0], [0, 0, 1, -1, 1], [1, 0, 0, 1, 2]]
        perturb = [[1, 2, 0, 1, -1], [0, 1, 1, 0, 2], [1, 0, -1, 1, 0], [2, 1, 0, 0, 1], [0, 0, 1, 1, 1]]
        witness = self.witness(tmp_path, "duality", basis, perturb, "-2/3")
        assert witness["relation"] == "L to I"
        # the suite's first check: dual(L(v)) = (-1)^n I(reversed dual basis of v)
        vecs = [qv(v) for v in basis]
        residual = dualize(make_L(vecs, 5)) - make_I(list(reversed(dual_basis(vecs))), 5, c=-1)
        residual += Fraction(-2, 3) * make_L(perturb, 5)
        assert witness["residual"] == self.least_rows(residual)

    def test_perturbed_shuffle_dim4(self, tmp_path):
        basis = [[1, 2, 0, -1], [0, 1, 1, 2], [2, -1, 1, 0], [1, 0, -1, 1]]
        perturb = [[1, 1, 0, 0], [0, 1, 2, 0], [1, 0, 0, 1], [0, 0, 1, 3]]
        witness = self.witness(tmp_path, "shuffle", basis, perturb, "5")
        assert witness["relation"] == "make_L split 1"
        # the suite's first check: L(v_1) L(v_2..v_4) minus the shuffles of v_1 into v_2..v_4
        vecs = [qv(v) for v in basis]
        residual = st2_product(make_L(vecs[:1], 4), make_L(vecs[1:], 4))
        for pos in range(4):
            residual -= make_L(vecs[1 : pos + 1] + vecs[:1] + vecs[pos + 1 :], 4)
        residual += 5 * make_L(perturb, 4)
        assert witness["residual"] == self.least_rows(residual)


class TestSt:
    def test_shipped_fixture_passes(self, tmp_path):
        code, report = run_json(tmp_path, "st", FIXTURE)
        assert code == 0
        assert report["verdict"] == "PASS"
        assert report["weight"] == 4 and report["terms"] == 8

    def test_perturbed_fixture_fails_with_residual(self, tmp_path):
        data = json.load(open(FIXTURE))
        data[2]["coeff"] = "3/2"
        path = write(tmp_path, "bad.json", data)
        code, report = run_json(tmp_path, "st", path)
        assert code == 1
        assert report["verdict"] == "FAIL"
        assert report["residual"]

    @pytest.mark.parametrize("coeff", [True, False])
    def test_bool_coefficient_exits_2(self, tmp_path, coeff):
        # JSON true and false are no rationals; read as 1 and 0 they would
        # PASS and FAIL
        data = json.load(open(FIXTURE))
        data[0]["coeff"] = coeff
        code, text = run(tmp_path, "st", write(tmp_path, "bool.json", data))
        assert code == 2 and text == ""

    def test_empty_identity_exits_2(self, tmp_path):
        # nothing is checked, so there is no verdict to report
        for data in ([], [{"coeff": "1", "product": [2, 2]}]):
            code, text = run(tmp_path, "st", write(tmp_path, "empty.json", data))
            assert code == 2 and text == ""

    @pytest.mark.parametrize("coeff", ["1", "5/7"])
    def test_no_full_depth_generator_exits_2(self, tmp_path, coeff):
        # a depth-1 generator in Q^2 dies in the stable quotient, so no
        # coefficient could make this file FAIL: there is nothing to check
        data = [{"coeff": coeff, "matrix": [["1", "0"], ["0", "1"]], "exponents": [2]}]
        code, text = run(tmp_path, "st", write(tmp_path, "shallow.json", data))
        assert code == 2 and text == ""

    def test_matrix_above_max_dim_exits_2(self, tmp_path):
        # depth 1 keeps the case cheap should the bound ever be missing
        m = [[str(int(i == j)) for j in range(MAX_DIM + 1)] for i in range(MAX_DIM + 1)]
        path = write(tmp_path, "big.json", [{"coeff": "1", "matrix": m, "exponents": [2]}])
        code, text = run(tmp_path, "st", path)
        assert code == 2 and text == ""

    def test_weight_above_max_weight_exits_2(self, tmp_path):
        # one term of weight 90 expands into C(89, 2) = 3916 tail monomials
        m = [["1", "0", "0"], ["1", "1", "0"], ["0", "1", "1"]]
        path = write(tmp_path, "heavy.json", [{"coeff": "1", "matrix": m, "exponents": [30, 30, 30]}])
        code, text = run(tmp_path, "st", path)
        assert code == 2 and text == ""
        assert 4 <= MAX_WEIGHT < 90

    @pytest.mark.parametrize("matrix, exponents", [
        ([[str(int(i == j)) for j in range(MAX_DIM + 1)] for i in range(MAX_DIM + 1)], [2]),
        # a generator would raise its scale 2 to the power 10**8 on construction
        ([["2", "0"], ["0", "2"]], [10**8, 1]),
    ], ids=["matrix", "weight"])
    def test_bounds_come_before_any_generator(self, tmp_path, matrix, exponents):
        path = write(tmp_path, "big.json", [{"coeff": "1", "matrix": matrix, "exponents": exponents}])
        with mock.patch("steinpoly.mpl.PushedLi.__init__", side_effect=AssertionError("generator built")):
            code, text = run(tmp_path, "st", path)
        assert code == 2 and text == ""

    def test_mixed_weight_file_exits_2(self, tmp_path):
        path = write(tmp_path, "mixed.json", [
            {"coeff": "1", "matrix": [["1"]], "exponents": [2]},
            {"coeff": "1", "matrix": [["1"]], "exponents": [3]},
        ])
        code, _ = run(tmp_path, "st", path)
        assert code == 2

    @pytest.mark.parametrize("field, value", [
        ("exponents", [3.9, 1]),
        ("exponents", "31"),
        ("exponents", [True, 3]),
        ("exponents", ["3/2", 1]),
        ("product", [2.5, 2]),
        ("product", "22"),
    ], ids=["float", "string", "bool", "rational", "product-float", "product-string"])
    def test_non_integral_exponents_exit_2(self, tmp_path, field, value):
        # none is a list of positive integers; int() would read most of
        # them as a plausible weight-4 term
        data = json.load(open(FIXTURE))
        next(entry for entry in data if field in entry)[field] = value
        code, text = run(tmp_path, "st", write(tmp_path, "bad.json", data))
        assert code == 2 and text == ""

    def test_integral_strings_accepted(self, tmp_path):
        data = json.load(open(FIXTURE))
        data[1]["exponents"] = ["3", "2/2"]
        code, report = run_json(tmp_path, "st", write(tmp_path, "str.json", data))
        assert code == 0 and report["verdict"] == "PASS"

    def test_zero_denominator_coeff_exits_2(self, tmp_path):
        data = json.load(open(FIXTURE))
        data[0]["coeff"] = "1/0"
        code, _ = run(tmp_path, "st", write(tmp_path, "zero.json", data))
        assert code == 2


class TestFourier:
    def test_bernoulli_study_format(self, tmp_path):
        path = write(tmp_path, "b.json", {
            "study": "bernoulli", "weights": [1, 2], "points": ["1/3"],
            "m_max": 400, "tolerance": 1e-2,
        })
        code, text = run(tmp_path, "fourier", path, "--seed", "3")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "# seed=3"
        assert lines[1].startswith("n,x,m_max,")
        assert len(lines) == 4 and all(r.endswith("pass") for r in lines[2:])

    def test_shuffle_study(self, tmp_path):
        path = write(tmp_path, "s.json", {"study": "shuffle"})
        code, text = run(tmp_path, "fourier", path, "--box", "10")
        assert code == 0
        assert text.splitlines()[-1] == "10,pass"

    def test_cone_study_emits_rows(self, tmp_path):
        path = write(tmp_path, "c.json", {
            "study": "cone",
            "generators": [[1, 0], [1, 1]],
            "forms": [[1, 0], [0, 1]],
            "exponents": [1, 1],
            "points": [["1/3", "1/7"]],
            "m_max": 20,
        })
        code, text = run(tmp_path, "fourier", path)
        assert code == 0
        assert len(text.splitlines()) == 3

    def test_unknown_study_exits_2(self, tmp_path):
        path = write(tmp_path, "u.json", {"study": "sandpile"})
        code, _ = run(tmp_path, "fourier", path)
        assert code == 2

    @pytest.mark.parametrize("study", [["bernoulli"], {"study": "cone"}])
    def test_unhashable_study_exits_2(self, tmp_path, study):
        code, text = run(tmp_path, "fourier", write(tmp_path, "u.json", {"study": study}))
        assert code == 2 and text == ""

    def test_exponent_above_max_fourier_weight_exits_2(self, tmp_path):
        # a term's integers grow with the exponent: unbounded, 10**6 over 10 points takes seconds
        cone = {"study": "cone", "generators": [[1]], "forms": [[1]], "points": [["1/3"]]}
        path = write(tmp_path, "c.json", {**cone, "exponents": [10**6]})
        code, text = run(tmp_path, "fourier", path, "--box", "10")
        assert code == 2 and text == ""
        # the bound is on the cone's total weight, and 60 stays allowed
        assert MAX_FOURIER_WEIGHT >= 60
        path = write(tmp_path, "c.json", {**cone, "forms": [[1], [2]], "exponents": [MAX_FOURIER_WEIGHT, 1]})
        code, text = run(tmp_path, "fourier", path, "--box", "10")
        assert code == 2 and text == ""
        bernoulli = {"study": "bernoulli", "weights": [2, MAX_FOURIER_WEIGHT + 1], "points": ["1/3"]}
        code, text = run(tmp_path, "fourier", write(tmp_path, "b.json", bernoulli), "--box", "10")
        assert code == 2 and text == ""
        path = write(tmp_path, "c.json", {**cone, "exponents": [MAX_FOURIER_WEIGHT]})
        code, _ = run(tmp_path, "fourier", path, "--box", "10")
        assert code == 0

    @pytest.mark.parametrize("weight", ["3/2", 0])
    def test_bad_weight_exits_2(self, tmp_path, weight):
        path = write(tmp_path, "w.json", {
            "study": "bernoulli", "weights": [weight], "points": ["1/3"], "m_max": 10,
        })
        code, _ = run(tmp_path, "fourier", path)
        assert code == 2

    @pytest.mark.parametrize("change", [
        pytest.param({"weights": 3}, id="weights-not-a-list"),
        pytest.param({"weights": []}, id="weights-empty"),
        pytest.param({"points": "1/3"}, id="points-not-a-list"),
        pytest.param({"tolerance": "x"}, id="tolerance-word"),
        pytest.param({"tolerance": [1]}, id="tolerance-list"),
        pytest.param({"tolerance": "nan"}, id="tolerance-nan-string"),
        pytest.param({"tolerance": float("nan")}, id="tolerance-nan"),
        pytest.param({"tolerance": float("inf")}, id="tolerance-inf"),
        pytest.param({"tolerance": -1e-3}, id="tolerance-negative"),
        pytest.param({"tolerance": "1e400"}, id="tolerance-out-of-range"),
    ])
    def test_malformed_bernoulli_study_exits_2(self, tmp_path, change):
        cfg = {"study": "bernoulli", "weights": [1], "points": ["1/3"], "m_max": 10}
        path = write(tmp_path, "b.json", {**cfg, **change})
        code, text = run(tmp_path, "fourier", path)
        assert code == 2
        assert text == ""

    def test_rational_string_tolerance_accepted(self, tmp_path):
        path = write(tmp_path, "b.json", {
            "study": "bernoulli", "weights": [2], "points": ["1/3"],
            "m_max": 400, "tolerance": "1/100",
        })
        code, text = run(tmp_path, "fourier", path)
        assert code == 0
        assert text.splitlines()[-1].endswith("pass")

    def test_form_vanishing_on_lattice_exits_2(self, tmp_path):
        path = write(tmp_path, "pole.json", {
            "study": "cone",
            "generators": [[1, 0], [0, 1]],
            "forms": [[1, -1], [0, 1]],
            "exponents": [1, 1],
            "points": [["1/3", "1/7"]],
            "m_max": 5,
        })
        code, _ = run(tmp_path, "fourier", path)
        assert code == 2

    def test_coefficient_overflowing_a_float_exits_2(self, tmp_path, capsys):
        # at lam = 1 the coefficient is 10^360, which int / int true
        # division refuses with OverflowError: bad input, not a traceback
        path = write(tmp_path, "big.json", {
            "study": "cone", "generators": [[1]], "forms": [["1/1000000"]],
            "exponents": [60], "points": [["1/3"]],
        })
        code, text = run(tmp_path, "fourier", path, "--box", "5")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("change", [
        pytest.param({"generators": [[1, 0, 7], [0, 1]]}, id="ragged-generators"),
        pytest.param({"forms": [[1, 0], [0, 1, 1]]}, id="form-length"),
        pytest.param({"points": [["1/3", "1/7"], ["1/5"]]}, id="point-length"),
        pytest.param({"exponents": [1, 1, 2]}, id="more-exponents-than-forms"),
        pytest.param({"forms": [[1, 0]]}, id="fewer-forms-than-exponents"),
        pytest.param({"m_max": 1001}, id="points-above-cap"),  # 1001 ** 2 lattice points
        # each lattice point would be counted once per way of writing it
        pytest.param({"generators": [[1, 0], [1, 0]]}, id="dependent-generators"),
        # a string is not read as the list of its characters
        pytest.param({"exponents": "11"}, id="exponents-string"),
        pytest.param({"generators": "10"}, id="generators-string"),
        pytest.param({"forms": {"a": [1, 0]}}, id="forms-dict"),
        pytest.param({"points": "12"}, id="points-string"),
        pytest.param({"points": ["12"]}, id="point-string"),
        pytest.param({"exponents": None}, id="exponents-null"),
    ])
    def test_malformed_cone_study_exits_2(self, tmp_path, change):
        cfg = {
            "study": "cone",
            "generators": [[1, 0], [1, 1]],
            "forms": [[1, 0], [0, 1]],
            "exponents": [1, 1],
            "points": [["1/3", "1/7"]],
            "m_max": 20,
            **change,
        }
        code, text = run(tmp_path, "fourier", write(tmp_path, "c.json", cfg))
        assert code == 2 and text == ""

    def test_bernoulli_box_above_point_cap_exits_2(self, tmp_path):
        path = write(tmp_path, "b.json", {"study": "bernoulli", "weights": [2], "points": ["1/3"]})
        code, text = run(tmp_path, "fourier", path, "--box", str(MAX_FOURIER_POINTS + 1))
        assert code == 2 and text == ""
        code, _ = run(tmp_path, "fourier", path, "--box", "1000")
        assert code == 0

    def test_shuffle_box_above_point_cap_exits_2(self, tmp_path):
        path = write(tmp_path, "s.json", {"study": "shuffle"})
        code, text = run(tmp_path, "fourier", path, "--box", "1001")
        assert code == 2 and text == ""

    def test_nonpositive_box_exits_2(self, tmp_path):
        path = write(tmp_path, "s.json", {"study": "shuffle"})
        code, _ = run(tmp_path, "fourier", path, "--box", "0")
        assert code == 2


class TestOut:
    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    @pytest.mark.parametrize("command", ["reduce", "symbol", "verify", "st", "fourier"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command, target):
        # a missing directory or a directory is bad input, not a traceback
        element = write(tmp_path, "e.json", {
            "dim": 2, "terms": [{"apartment": [["0", "1"], ["1", "1"]]}],
        })
        study = write(tmp_path, "s.json", {"study": "shuffle", "box": 3})
        argv = {
            "reduce": ["reduce", element],
            "symbol": ["symbol", "1,0", "0,1", "--kind", "L"],
            "verify": ["verify", "shuffle", "--dim", "2", "--cases", "1"],
            "st": ["st", FIXTURE],
            "fourier": ["fourier", study],
        }[command]
        out = str(tmp_path / target)
        assert main([*argv, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_refused_before_any_work(self, tmp_path, capsys, target):
        # the path is checked before the command runs: no case is drawn and
        # nothing is created
        out = str(tmp_path / target)
        with mock.patch("steinpoly.cli._rand_basis", side_effect=AssertionError("work began")):
            assert main(["verify", "dihedral", "--dim", "6", "--cases", "50", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == []


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        _, a = run(tmp_path, "verify", "shuffle", "--dim", "2", "--cases", "3",
                   "--seed", "5")
        _, b = run(tmp_path, "verify", "shuffle", "--dim", "2", "--cases", "3",
                   "--seed", "5")
        assert a == b

    def test_fourier_byte_identical(self, tmp_path):
        path = write(tmp_path, "b.json", {
            "study": "bernoulli", "weights": [2], "points": ["1/5"], "m_max": 200,
        })
        _, a = run(tmp_path, "fourier", path, "--seed", "1")
        _, b = run(tmp_path, "fourier", path, "--seed", "1")
        assert a == b

    def test_st_byte_identical(self, tmp_path):
        _, a = run(tmp_path, "st", FIXTURE, "--seed", "4")
        _, b = run(tmp_path, "st", FIXTURE, "--seed", "4")
        assert a == b


# help, usage errors and leftovers, each decided by argparse before any command runs
PARSER_ERRORS = [
    [], ["-h"], ["nonsense"], ["-x", "verify"],
    *([name, "-h"] for name in ("reduce", "symbol", "verify", "st", "fourier")),
    ["verify", "nonsense"],
    ["verify", "shuffle", "--dim", "x"],
    ["symbol", "1,0"],
    ["fourier", "f", "--box"],
    # leftover positional arguments
    ["reduce", "f", "g"],
    ["symbol", "--kind", "L", "1,0", "--dim", "2", "0,1"],
    ["verify", "shuffle", "f", "g"],
    ["st", "f", "g"],
    ["fourier", "f", "g"],
    ["verify", "--", "shuffle", "--cases", "1"],
    # leftover options
    ["reduce", "f", "--bogus"],
    ["symbol", "--kind", "L", "1,0", "--bogus=1"],
    ["verify", "shuffle", "--dim", "3", "--bogus"],
    ["st", "f", "-x"],
    ["fourier", "f", "--box", "3", "--bogus", "1"],
    ["verify", "shuffle", "--bogus", "-h"],
]

# spellings the plain parse leaves to argparse
UNUSUAL = [
    ["verify", "shuffle", "--seed=7"],
    ["verify", "shuffle", "--di", "4"],
    ["verify", "--dim", "4", "shuffle", "f"],
    ["symbol", "--kind", "L", "--dim", "2", "1,0", "0,1"],
    ["symbol", "--kind", "L", "--", "-1,0", "0,1"],
    ["verify", "shuffle", "--seed", "-3"],
]

PARSED = [
    ["reduce", "f"],
    ["symbol", "--kind", "I", "1,0", "0,1", "--dim", "2"],
    ["verify", "shuffle", "f", "--dim", "4", "--cases", "2", "--seed", "3", "--out", "o"],
    ["verify", "--", "shuffle"],
    ["st", "f", "--seed=7"],
    ["fourier", "f", "--box", "5"],
    *UNUSUAL,
]

# spellings the plain parse reads without argparse
PLAIN = [
    ["reduce", "f"],
    ["symbol", "1,0", "0,1", "--kind", "I", "--dim", "2"],
    ["symbol", "", "--kind", "L", "--kind", "I"],
    ["verify", "shuffle", "f", "--dim", "4", "--cases", "2", "--seed", "3", "--out", "o"],
    ["verify", "dihedral", "--dim", "4", "--dim", " 5", "--out", ""],
    ["st", "f", "--seed", "7"],
    ["fourier", "f", "--box", "5"],
]


def _echo(args):
    """A stand-in handler: prints what it was given instead of running a command."""
    print(sorted((k, v) for k, v in vars(args).items() if k != "func"))
    return 0


def _outcome(call, argv):
    """call(argv)'s return value, or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _full_tree_main(argv):
    args = _build_parser().parse_args(argv)
    return args.func(args)


# argv drawn from every command and declared option, and the spellings
# argparse alone reads: help, "--", "=", an abbreviation, a value that
# starts with "-", bad ints and choices
_DECLARED = sorted({arg for _h, _f, own in _COMMANDS.values() for arg, _kw in own + _COMMON_ARGS})
_VALUES = [
    "x", "", "f", "0", "3", "12", " 4", "3.5", "-2", "-1,0", "1,0", "0,1", "L", "I",
    *sorted(_SUITES), "nonsense",
]
_TOKENS = [*_COMMANDS, *_DECLARED, *_VALUES, "--dim=4", "--di", "--", "-h"]


@st.composite
def _argvs(draw):
    shape = draw(st.sampled_from(["any", "named", "plain"]))
    if shape == "any":
        return draw(st.lists(st.sampled_from(_TOKENS), max_size=8))
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    if shape == "named":
        # anything after the command, in any order, with repeats
        return [name, *draw(st.lists(st.sampled_from(_TOKENS), max_size=7))]
    # the plain shape, whose values mostly meet the declarations but may
    # break a rule
    _help, _func, own = _COMMANDS[name]

    def value(kwargs):
        good = kwargs.get("choices") or (["0", "3", " 4"] if kwargs.get("type") is int else ["f", "1,0"])
        return draw(st.sampled_from(good if draw(st.integers(0, 3)) else _VALUES))

    run = [value(kw) for arg, kw in own if not arg.startswith("-") for _ in range(draw(st.integers(0, 2)))]
    options = [(arg, kw) for arg, kw in own + _COMMON_ARGS if arg.startswith("-")]
    picked = draw(st.lists(st.sampled_from(options), max_size=4))
    return [name, *run, *(t for arg, kw in picked for t in (arg, value(kw)))]


class TestParser:
    """main parses as the full parser tree does, building no parser for a plain spelling."""

    @staticmethod
    def outcome(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("argv", PARSER_ERRORS, ids=lambda argv: " ".join(argv) or "no arguments")
    def test_help_and_errors_match_the_full_tree(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        expected = self.outcome(capsys, _build_parser().parse_args, argv)
        assert self.outcome(capsys, main, argv) == expected
        assert expected[0] in (0, 2) and (expected[1] or expected[2])

    @pytest.mark.parametrize("argv", PARSED, ids=" ".join)
    def test_namespace_matches_the_full_tree(self, capsys, argv):
        args = _parse(argv)
        assert args == _build_parser().parse_args(argv)
        assert args.command == argv[0]
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", PLAIN, ids=lambda argv: " ".join(map(repr, argv)))
    def test_plain_spellings_need_no_parser(self, argv):
        assert _plain_parse(argv) == _build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", UNUSUAL, ids=" ".join)
    def test_unusual_spellings_go_to_argparse(self, argv):
        assert _plain_parse(argv) is None

    @settings(max_examples=300, deadline=None)
    @given(argv=_argvs())
    @example(argv=["symbol", "-1,0", "--kind", "L"])
    @example(argv=["verify", "shuffle", "f", "g"])
    @example(argv=["verify", "shuffle", "--dim", "3", "f"])
    @example(argv=["symbol", "1,0", "--dim", "x", "--kind", "L"])
    @example(argv=["verify", "shuffle", "--cases", "3.5"])
    @example(argv=["fourier", "f", "--box"])
    def test_plain_parse_agrees_with_the_full_tree(self, argv):
        # both routes read the handlers from _COMMANDS, so no command runs
        echoing = {name: (h, _echo, own) for name, (h, _f, own) in _COMMANDS.items()}
        with mock.patch.dict(_COMMANDS, echoing), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            expected = _outcome(_full_tree_main, argv)
            assert _outcome(main, argv) == expected
            plain = _plain_parse(argv)
            if plain is not None:
                assert plain == _build_parser().parse_args(argv)
                assert expected[0] == 0 and expected[2] == ""

    def test_a_command_builds_one_parser(self, tmp_path, capsys, monkeypatch):
        # a plain spelling builds none; only a leftover builds the whole tree
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        fixture = write(tmp_path, "fix.json", {"cases": [{"basis": [[1, 2], [0, 3]]}]})
        code, report = run_json(tmp_path, "verify", "shuffle", fixture)
        assert code == 0 and report["verdict"] == "PASS"
        assert built == []
        # a leftover argument is reported under the top-level usage
        with pytest.raises(SystemExit) as exc:
            main(["verify", "shuffle", fixture, "--bogus"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[0].startswith("usage: steinpoly [-h]")
