import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nabla_radius
from nabla_radius import curves, newton
from nabla_radius.cli import EXIT_CODES, main
from nabla_radius.corpus import (
    exponential_module,
    exponential_two_var_module,
    power_module,
    trivial_module,
)
from nabla_radius.descriptor import (
    ModuleDescriptor,
    parse_module_descriptor,
    save_module_descriptor,
)
from nabla_radius.laurent import LaurentPoly
from nabla_radius.connection import ConnectionModule, PolyMatrix
from nabla_radius.radius import ProbeOutcome, Verdict


@pytest.fixture
def dwork_path(tmp_path):
    path = tmp_path / "dwork.json"
    save_module_descriptor(
        ModuleDescriptor(module=exponential_module(3), label="dwork-p3"), str(path)
    )
    return str(path)


@pytest.fixture
def two_var_path(tmp_path):
    path = tmp_path / "twovar.json"
    save_module_descriptor(
        ModuleDescriptor(module=exponential_two_var_module(3), label="exp-two-var"),
        str(path),
    )
    return str(path)


@pytest.fixture
def trivial_path(tmp_path):
    path = tmp_path / "trivial.json"
    save_module_descriptor(ModuleDescriptor(module=trivial_module(3, 1, 0, 1)), str(path))
    return str(path)


@pytest.fixture
def curved_path(tmp_path):
    # N1 = [t2], N2 = [0] is not integrable.
    p = 3
    t2 = LaurentPoly.variable(p, 2, 0, 1)
    module = ConnectionModule(
        prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
        matrices=(PolyMatrix([[t2]]), PolyMatrix([[LaurentPoly.zero(p, 2, 0)]])),
    )
    path = tmp_path / "curved.json"
    save_module_descriptor(ModuleDescriptor(module=module), str(path))
    return str(path)


@pytest.fixture
def poly_path(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(
        json.dumps(
            {"prime": 2, "label": "p-plus-t",
             "terms": [{"exps": [0], "coeff": "2"}, {"exps": [1], "coeff": "1"}]}
        ),
        encoding="utf-8",
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


class TestValidate:
    def test_ok(self, capsys, dwork_path):
        code, doc, _ = run_json(capsys, ["validate", dwork_path])
        assert code == 0
        assert doc["schema"] == "nabla-radius/1"
        assert doc["status"] == "ok"
        assert doc["label"] == "dwork-p3"
        assert len(doc["descriptor_sha256"]) == 64

    def test_non_integrable(self, capsys, curved_path):
        code, doc, _ = run_json(capsys, ["validate", curved_path])
        assert code == 2
        assert doc["status"] == "non-integrable"
        assert doc["violation"]["i"] == 0 and doc["violation"]["j"] == 1

    def test_schema_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"prime": 4}', encoding="utf-8")
        code, doc, _ = run_json(capsys, ["validate", str(bad)])
        assert code == 1
        assert doc["status"] == "schema-error"

    def test_missing_file(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, ["validate", str(tmp_path / "nope.json")])
        assert code == 1
        assert doc["status"] == "schema-error"

    @pytest.mark.parametrize(
        "term",
        [
            {"exps": [True], "coeff": "1"},
            {"exps": [-1], "coeff": "1", "zzz": 5},
            {"exps": [-1], "coeff": "1e3"},
            {"exps": [-1], "coeff": "1_000"},
            {"exps": [-1], "coeff": "0.5"},
        ],
        ids=["bool-exponent", "unknown-key", "1e3", "1_000", "0.5"],
    )
    def test_non_canonical_term_refused(self, capsys, tmp_path, term):
        bad = tmp_path / "bad.json"
        doc = {"prime": 3, "n": 1, "m": 0, "rank": 1, "matrices": [[[[term]]]]}
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, report, _ = run_json(capsys, ["validate", str(bad)])
        assert code == 1
        assert report["status"] == "schema-error"
        assert report["descriptor_sha256"] is None

    def test_prime_beyond_bound_refused(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        doc = {"prime": 2**89 - 1, "n": 1, "m": 0, "rank": 1, "matrices": [[[[]]]]}
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, report, _ = run_json(capsys, ["validate", str(bad)])
        assert code == 1
        assert report["status"] == "schema-error"
        assert "bound" in report["error"]



BIG = "7" * 5001  # past the interpreter's default 4300-digit int/str limit
OVERSIZED = {
    "prime": '{"prime": %s, "n": 1, "m": 0, "rank": 1, "matrices": [[[[]]]]}' % BIG,
    "exponent": '{"prime": 3, "n": 1, "m": 0, "rank": 1,'
                ' "matrices": [[[[{"exps": [%s], "coeff": "1"}]]]]}' % BIG,
    "coefficient": '{"prime": 3, "n": 1, "m": 0, "rank": 1,'
                   ' "matrices": [[[[{"exps": [-1], "coeff": "1/%s"}]]]]}' % BIG,
}


class TestOversizedIntegers:
    @pytest.mark.parametrize("where", sorted(OVERSIZED))
    def test_validate_reports_schema_error(self, capsys, tmp_path, where):
        bad = tmp_path / "big.json"
        bad.write_text(OVERSIZED[where], encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(bad)])
        assert code == 1 and err == ""
        assert report["status"] == "schema-error"
        assert report["descriptor_sha256"] is None
        assert "digits" in report["error"]
        assert "7" * 30 not in report["error"]  # the literal is not echoed back

    @pytest.mark.parametrize("where", sorted(OVERSIZED))
    def test_analysis_exits_with_one_line(self, capsys, tmp_path, where):
        bad = tmp_path / "big.json"
        bad.write_text(OVERSIZED[where], encoding="utf-8")
        code, out, err = run(capsys, ["oc", "--depth", "16", str(bad)])
        assert code == 1 and out == ""
        assert err.startswith("nabla-radius: ") and err.count("\n") == 1
        assert "digits" in err and "7" * 30 not in err

    def test_poly_descriptor(self, capsys, tmp_path):
        bad = tmp_path / "big.json"
        bad.write_text('{"prime": %s, "terms": []}' % BIG, encoding="utf-8")
        code, _, err = run(capsys, ["techlemma", str(bad), "--alpha", "1", "--beta", "1/2"])
        assert code == 1 and "digits" in err and "7" * 30 not in err

    def test_non_integrable_curvature_too_long_to_print(self, capsys, tmp_path):
        # [N_1, N_2] holds c**2, a 6000-digit coefficient that str() refuses.
        c = [{"exps": [0, 0], "coeff": "7" * 3000}]
        doc = {"prime": 3, "n": 2, "m": 0, "rank": 2,
               "matrices": [[[[], c], [[], []]], [[[], []], [c, []]]]}
        path = tmp_path / "curved.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(path)])
        assert code == 2 and err == ""
        assert report["status"] == "non-integrable"
        assert report["violation"] == {"i": 0, "j": 1, "curvature": None}
        code, out, err = run(capsys, ["oc", "--depth", "16", str(path)])
        assert code == 2 and out == ""
        assert err == "nabla-radius: curvature in directions (0, 1) is nonzero\n"

    def test_specialized_curve_too_long_to_print(self, capsys, tmp_path):
        # Potential t0 * t1**15000: at t1 = 2 the curve's N_0 is 2**15000,
        # an integer of 4516 digits that str() refuses.
        p, e = 3, 15000
        module = ConnectionModule(p, 2, 0, 1, (
            PolyMatrix([[LaurentPoly(p, 2, 0, {(0, e): 1})]]),
            PolyMatrix([[LaurentPoly(p, 2, 0, {(1, e - 1): e})]]),
        ))
        path = tmp_path / "steep.json"
        save_module_descriptor(ModuleDescriptor(module=module, label="steep"), str(path))
        code, out, err = run(capsys, ["specialize", "--direction", "0", "--point", "2", str(path)])
        assert code == 1 and out == ""
        limit = sys.get_int_max_str_digits()
        assert err == (
            "nabla-radius: specialize: a coefficient of the curve has more digits"
            f" than the limit of {limit}\n"
        )
        # the other curve, N_1 = e * 2 * t1**(e-1), still prints
        code, report, err = run_json(capsys, ["specialize", "--direction", "1", "--point", "2", str(path)])
        assert code == 0 and err == ""
        assert report["module"]["matrices"] == [[[[{"exps": [e - 1], "coeff": str(2 * e)}]]]]

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"label": "\xe9"}')
        code, report, _ = run_json(capsys, ["validate", str(bad)])
        assert code == 1
        assert report["status"] == "schema-error" and "UTF-8" in report["error"]


class TestNonJsonConstants:
    """json.load accepts NaN and +-Infinity; a descriptor may not hold them."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_validate_reports_schema_error(self, capsys, tmp_path, token):
        bad = tmp_path / "nan.json"
        bad.write_text('{"prime": 3, "n": 1, "m": 0, "rank": 1, "matrices": [[[[]]]],'
                       ' "expected": {"ir": %s}}' % token, encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(bad)])
        assert code == 1 and err == ""
        assert report["status"] == "schema-error"
        assert report["descriptor_sha256"] is None
        assert f"{token} is not a JSON value" in report["error"]
        code, out, err = run(capsys, ["oc", "--depth", "16", str(bad)])
        assert code == 1 and out == ""
        assert err.startswith("nabla-radius: ") and err.count("\n") == 1
        assert token in err

    def test_poly_descriptor(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"prime": 3, "terms": [{"exps": [0], "coeff": "1"}], "label": NaN}',
                       encoding="utf-8")
        code, out, err = run(capsys, ["techlemma", str(bad), "--alpha", "1", "--beta", "1/2"])
        assert code == 1 and out == ""
        assert err.startswith("nabla-radius: ") and "NaN is not a JSON value" in err


class TestIr:
    def test_report(self, capsys, dwork_path):
        code, doc, _ = run_json(capsys, ["ir", dwork_path, "--depth", "16"])
        assert code == 0
        assert doc["command"] == "ir"
        assert doc["ir_exponent"] == "1/2"
        assert doc["exact"] is False
        assert doc["parameters"]["depth"] == 16
        assert doc["directions"][0]["window_start"] == 12

    def test_radius_broadcast_and_exit_codes(self, capsys, two_var_path):
        code, doc, _ = run_json(
            capsys, ["ir", two_var_path, "--depth", "16", "--radius", "1/3"]
        )
        assert code == 0
        assert doc["parameters"]["radius"] == ["1/3", "1/3"]
        code, _, err = run(
            capsys,
            ["ir", two_var_path, "--depth", "16", "--radius", "1/3", "--radius",
             "1/2", "--radius", "1"],
        )
        assert code == 1 and "radius" in err

    def test_center_radius_rejected(self, capsys, dwork_path):
        code, _, err = run(capsys, ["ir", dwork_path, "--depth", "16",
                                    "--radius", "center"])
        assert code == 1
        assert "positive" in err

    def test_non_integrable_exit(self, capsys, curved_path):
        code, _, err = run(capsys, ["ir", curved_path, "--depth", "16"])
        assert code == 2

    def test_bad_fraction(self, capsys, dwork_path):
        code, _, err = run(capsys, ["ir", dwork_path, "--window", "huge"])
        assert code == 1


class TestOc:
    def test_negative(self, capsys, dwork_path):
        code, doc, _ = run_json(capsys, ["oc", dwork_path, "--depth", "16"])
        assert code == 3
        assert doc["verdict"] == "NOT_OVERCONVERGENT_EVIDENCE"
        assert doc["witness_direction"] == 0
        assert doc["radius_report"]["ir_exponent"] == "1/2"

    def test_positive(self, capsys, trivial_path):
        code, doc, _ = run_json(capsys, ["oc", trivial_path, "--depth", "8"])
        assert code == 0
        assert doc["verdict"] == "OVERCONVERGENT_EVIDENCE"

    def test_inconclusive(self, capsys, tmp_path):
        path = tmp_path / "kummer.json"
        save_module_descriptor(
            ModuleDescriptor(module=power_module(3, Fraction(1, 2))), str(path)
        )
        code, doc, _ = run_json(capsys, ["oc", str(path), "--depth", "16"])
        assert code == 4
        assert doc["verdict"] == "INCONCLUSIVE"

    def test_depth_over_cap_is_refused(self, capsys, dwork_path):
        code, out, err = run(capsys, ["oc", dwork_path, "--depth", "600"])
        assert code == 1 and out == ""
        assert err == "nabla-radius: depth 600 exceeds cap 512\n"


class TestTaylor:
    def test_fail(self, capsys, dwork_path):
        code, doc, _ = run_json(
            capsys, ["taylor", dwork_path, "--eta", "1/4", "--depth", "12"]
        )
        assert code == 3
        assert doc["outcome"] == "fail"
        assert doc["witness"] is not None

    def test_pass(self, capsys, dwork_path):
        code, doc, _ = run_json(
            capsys, ["taylor", dwork_path, "--eta", "1", "--depth", "12"]
        )
        assert code == 0
        assert doc["outcome"] == "pass"
        assert doc["eta_exponent"] == "1"

    def test_lambda_flag(self, capsys, tmp_path):
        path = tmp_path / "kummer.json"
        save_module_descriptor(
            ModuleDescriptor(module=power_module(3, Fraction(1, 2))), str(path)
        )
        code, doc, _ = run_json(
            capsys,
            ["taylor", str(path), "--eta", "1/4", "--lambda", "1/8", "--depth", "24"],
        )
        assert code == 0
        assert doc["outcome"] == "pass"
        assert doc["lambda_exponent"] == "1/8"

    def test_eta_required(self, capsys, dwork_path):
        code = main(["taylor", dwork_path])
        assert code == 1

    def test_depth_over_cap_is_refused(self, capsys, dwork_path):
        code, out, err = run(
            capsys, ["taylor", dwork_path, "--eta", "1/4", "--depth", "600"]
        )
        assert code == 1 and out == ""
        assert err == "nabla-radius: bound 600 exceeds cap 512\n"


class TestSpecialize:
    def test_produces_descriptor(self, capsys, two_var_path):
        code, doc, _ = run_json(
            capsys, ["specialize", two_var_path, "--direction", "0", "--point", "2"]
        )
        assert code == 0
        curve = parse_module_descriptor(doc["module"])
        assert curve.module.nvars_annulus == 1
        assert curve.module.nvars_disc == 0
        assert curve.label == "exp-two-var-curve-t0"

    def test_non_unit_point(self, capsys, two_var_path):
        code, _, err = run(
            capsys, ["specialize", two_var_path, "--direction", "0", "--point", "3"]
        )
        assert code == 1 and "unit" in err

    def test_wrong_coordinate_count(self, capsys, two_var_path):
        code, _, err = run(
            capsys, ["specialize", two_var_path, "--direction", "0", "--point", "2,2"]
        )
        assert code == 1

    @pytest.mark.parametrize("direction", ["5", "-1"])
    def test_direction_out_of_range(self, capsys, two_var_path, direction):
        code, out, err = run(
            capsys, ["specialize", two_var_path, "--direction", direction, "--point", "2"]
        )
        assert code == 1 and out == ""
        assert err.startswith("nabla-radius: direction ") and "out of range" in err


class TestCutcheck:
    def test_witness_found(self, capsys, two_var_path):
        code, doc, _ = run_json(
            capsys, ["cutcheck", two_var_path, "--depth", "24", "--trials", "5",
                     "--seed", "0"]
        )
        assert code == 3
        assert doc["verdict"]["verdict"] == "NOT_OVERCONVERGENT_EVIDENCE"
        w = doc["witness"]
        assert w is not None
        assert w["ir_curve_exponent"] == w["ir_full_exponent"] == "1/2"

    def test_positive_short_circuit(self, capsys, trivial_path):
        code, doc, _ = run_json(
            capsys, ["cutcheck", trivial_path, "--depth", "8", "--trials", "3",
                     "--seed", "0"]
        )
        assert code == 0
        assert doc["witness"] is None

    def test_byte_identical_reruns(self, capsys, two_var_path):
        argv = ["cutcheck", two_var_path, "--depth", "24", "--trials", "5",
                "--seed", "11"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_trials_capped_before_any_work(self, capsys, monkeypatch, two_var_path):
        code, doc, _ = run_json(
            capsys, ["cutcheck", two_var_path, "--depth", "24", "--trials", "512"]
        )
        assert code == 3 and doc["trials"] == 512

        def no_verdict(*args, **kwargs):
            raise AssertionError("the verdict ran before the trial count was checked")

        monkeypatch.setattr(curves, "oc_ir_test", no_verdict)
        code, out, err = run(capsys, ["cutcheck", two_var_path, "--depth", "24",
                                      "--trials", "513"])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "trials 513 exceeds cap 512" in err


class TestTechlemma:
    def test_certificate(self, capsys, poly_path):
        code, doc, _ = run_json(
            capsys, ["techlemma", poly_path, "--alpha", "2", "--beta", "1/2"]
        )
        assert code == 0
        assert doc["label"] == "p-plus-t"
        assert doc["dominant"] == {"A": [], "B": [1], "n0": 1}
        assert doc["certificate"]["interval"] == {
            "alpha_exponent": "3/4", "beta_exponent": "1/2"
        }
        assert doc["certificate"]["margin"] == "1/4"
        assert doc["unit_check"]["ok"] is True
        assert len(doc["unit_check"]["samples"]) == 20

    def test_builds_the_line_table_once(self, capsys, monkeypatch, poly_path):
        # the certificate carries its dominant term, and its check reads
        # one valuation, so one table serves all three steps
        calls = []
        original = newton._line_data

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(newton, "_line_data", counting)
        code, _, _ = run(capsys, ["techlemma", poly_path, "--alpha", "2", "--beta", "1/2"])
        assert code == 0
        assert len(calls) == 1

    def test_samples_capped(self, capsys, monkeypatch, poly_path):
        argv = ["techlemma", poly_path, "--alpha", "2", "--beta", "1/2", "--samples"]
        code, doc, _ = run_json(capsys, argv + ["512"])
        assert code == 0 and len(doc["unit_check"]["samples"]) == 512
        calls = []
        original = newton._line_data

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(newton, "_line_data", counting)
        code, out, err = run(capsys, argv + ["513"])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "samples 513 exceeds cap 512" in err
        assert calls == []  # refused before the line table is built

    def test_degenerate_tie(self, capsys, tmp_path):
        path = tmp_path / "tie.json"
        path.write_text(
            json.dumps({"prime": 2,
                        "terms": [{"exps": [-1], "coeff": "2"},
                                  {"exps": [0], "coeff": "1"}]}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, ["techlemma", str(path), "--alpha", "1",
                                    "--beta", "1"])
        assert code == 1 and "dominance" in err

    def test_bad_poly_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"prime": 2}', encoding="utf-8")
        code, _, err = run(capsys, ["techlemma", str(path), "--alpha", "1",
                                    "--beta", "1/2"])
        assert code == 1


class TestCorpus:
    def test_list(self, capsys):
        code, doc, _ = run_json(capsys, ["corpus"])
        assert code == 0
        labels = [e["label"] for e in doc["entries"]]
        assert "exp-disc-p3" in labels and "power-half-p3" in labels

    def test_dump_round_trips(self, capsys):
        code, doc, _ = run_json(capsys, ["corpus", "--dump", "exp-two-var-p3"])
        assert code == 0
        parsed = parse_module_descriptor(doc)
        assert parsed.module.nvars_annulus == 2

    def test_unknown_label(self, capsys):
        code, _, err = run(capsys, ["corpus", "--dump", "nope"])
        assert code == 1 and "unknown" in err


class TestHarness:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_args_shows_usage(self, capsys):
        assert main([]) == 1

    def test_module_entry_point(self, dwork_path):
        proc = subprocess.run(
            [sys.executable, "-m", "nabla_radius", "oc", dwork_path, "--depth", "16"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["verdict"] == "NOT_OVERCONVERGENT_EVIDENCE"

    def test_reports_end_with_newline(self, capsys, dwork_path):
        _, out, _ = run(capsys, ["validate", dwork_path])
        assert out.endswith("}\n")

    def test_exit_codes_cover_every_verdict_and_outcome(self):
        values = [member.value for member in (*Verdict, *ProbeOutcome)]
        assert sorted(values) == sorted(EXIT_CODES)


# Runs cli.main in a fresh interpreter; prints the exit code and the
# nabla_radius submodules it loaded.
MODULES_PROBE = """
import contextlib, io, json, sys
from nabla_radius.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("nabla_radius."))]))
"""

VALIDATE_SET = {"cli", "connection", "descriptor", "laurent", "padic"}


class TestModulesLoaded:
    """Each subcommand imports only the modules it runs."""

    @pytest.mark.parametrize(
        "argv, fixture, code, extra",
        [
            (["validate"], "dwork_path", 0, set()),
            (["ir", "--depth", "8"], "dwork_path", 0, {"radius"}),
            (["oc", "--depth", "8"], "dwork_path", 3, {"radius"}),
            (["taylor", "--eta", "1/4", "--depth", "8"], "two_var_path", 3, {"radius"}),
            (["specialize", "--direction", "0", "--point", "1"], "two_var_path", 0,
             {"radius", "curves"}),
            (["cutcheck", "--depth", "8"], "two_var_path", 3, {"radius", "curves"}),
            (["techlemma", "--alpha", "1/2", "--beta", "1/4"], "poly_path", 0, {"newton"}),
            (["corpus"], None, 0, {"corpus"}),
        ],
        ids=["validate", "ir", "oc", "taylor", "specialize", "cutcheck", "techlemma", "corpus"],
    )
    def test_subcommand_loads_only_its_modules(self, request, argv, fixture, code, extra):
        args = [*argv, request.getfixturevalue(fixture)] if fixture else argv
        src = str(Path(nabla_radius.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", MODULES_PROBE, *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got_code, loaded = json.loads(proc.stdout)
        assert got_code == code
        assert set(loaded) == {f"nabla_radius.{m}" for m in VALIDATE_SET | extra}
