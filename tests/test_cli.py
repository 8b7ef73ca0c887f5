import contextlib
import io
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nabla_radius
from nabla_radius import curves, newton, radius
from nabla_radius.cli import EXIT_CODES, main, one_line
from nabla_radius.corpus import (
    corpus_by_label,
    exponential_module,
    exponential_two_var_module,
    power_module,
    trivial_module,
)
from nabla_radius.descriptor import (
    MAX_NESTING,
    MAX_RANK,
    MAX_VARIABLES,
    ModuleDescriptor,
    parse_module_descriptor,
    module_descriptor_to_dict,
)
from nabla_radius.laurent import LaurentPoly
from nabla_radius.padic import parse_fraction
from nabla_radius.connection import ConnectionModule, PolyMatrix
from nabla_radius.radius import ProbeOutcome, Verdict


@pytest.fixture
def dwork_path(tmp_path):
    path = tmp_path / "dwork.json"
    descriptor = ModuleDescriptor(module=exponential_module(3), label="dwork-p3")
    path.write_text(json.dumps(module_descriptor_to_dict(descriptor)), encoding="utf-8")
    return str(path)


@pytest.fixture
def two_var_path(tmp_path):
    path = tmp_path / "twovar.json"
    descriptor = ModuleDescriptor(module=exponential_two_var_module(3), label="exp-two-var")
    path.write_text(json.dumps(module_descriptor_to_dict(descriptor)), encoding="utf-8")
    return str(path)


@pytest.fixture
def trivial_path(tmp_path):
    path = tmp_path / "trivial.json"
    descriptor = ModuleDescriptor(module=trivial_module(3, 1, 0, 1))
    path.write_text(json.dumps(module_descriptor_to_dict(descriptor)), encoding="utf-8")
    return str(path)


@pytest.fixture
def curved_path(tmp_path):
    # N1 = [t2], N2 = [0] is not integrable.
    p = 3
    t2 = LaurentPoly(p, 2, 0, {(0, 1): 1})
    module = ConnectionModule(
        prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
        matrices=(PolyMatrix([[t2]]), PolyMatrix([[LaurentPoly.zero(p, 2, 0)]])),
    )
    path = tmp_path / "curved.json"
    doc = module_descriptor_to_dict(ModuleDescriptor(module=module))
    path.write_text(json.dumps(doc), encoding="utf-8")
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

    @pytest.mark.parametrize(
        "rank, matrices, error",
        [(0, [[]], f"need 1 <= rank <= {MAX_RANK}"), (1, [[[[], []]]], "matrix 0 row 0 must have 1 entries")],
        ids=["rank-0", "long-row"],
    )
    def test_shape_refused(self, capsys, tmp_path, rank, matrices, error):
        bad = tmp_path / "bad.json"
        doc = {"prime": 3, "n": 1, "m": 0, "rank": rank, "matrices": matrices}
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, report, _ = run_json(capsys, ["validate", str(bad)])
        assert code == 1
        assert report["status"] == "schema-error"
        assert report["error"] == error

    @pytest.mark.parametrize("n, rank, code, error", [
        (MAX_VARIABLES, MAX_RANK, 0, None),
        (MAX_VARIABLES + 1, 1, 1, f"need n >= 0, m >= 0 and 1 <= n + m <= {MAX_VARIABLES}"),
        (1, MAX_RANK + 1, 1, f"need 1 <= rank <= {MAX_RANK}"),
    ], ids=["at-bound", "past-bound", "past-rank-bound"])
    def test_variable_count_is_bounded(self, capsys, tmp_path, n, rank, code, error):
        # an all-zero module: integrability multiplies rank x rank matrices
        # for every pair of directions
        path = tmp_path / "wide.json"
        matrix = [[[]] * rank] * rank
        doc = {"prime": 3, "n": n, "m": 0, "rank": rank, "matrices": [matrix] * n}
        path.write_text(json.dumps(doc), encoding="utf-8")
        got, report, _ = run_json(capsys, ["validate", str(path)])
        assert (got, report["status"]) == (code, "schema-error" if code else "ok")
        if code:
            assert report["error"] == error

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
        doc = module_descriptor_to_dict(ModuleDescriptor(module=module, label="steep"))
        path.write_text(json.dumps(doc), encoding="utf-8")
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

    def test_specialize_refuses_a_power_past_the_bit_cap(self, capsys, tmp_path):
        # Potential t0 * t1**(10**12): at t1 = 2 the curve would hold
        # 2**(10**12), so it is refused before any power is taken.
        e = 10**12
        doc = {"prime": 3, "n": 2, "m": 0, "rank": 1, "matrices": [
            [[[{"exps": [0, e], "coeff": "1"}]]],
            [[[{"exps": [1, e - 1], "coeff": str(e)}]]],
        ]}
        path = tmp_path / "hugeexp.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["specialize", "--direction", "0", "--point", "2", str(path)])
        assert code == 1 and out == ""
        assert err == f"nabla-radius: coordinate 2 to the power {e} needs more than 65536 bits\n"
        # the other curve raises 2 to the power 1 only, and cutcheck folds
        # the exponents below p - 1 before it specializes
        code, report, err = run_json(capsys, ["specialize", "--direction", "1", "--point", "2", str(path)])
        assert code == 0 and err == ""
        assert report["module"]["matrices"] == [[[[{"exps": [e - 1], "coeff": str(2 * e)}]]]]
        code, report, err = run_json(capsys, ["cutcheck", "--depth", "16", str(path)])
        assert code == 3 and err == ""

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"label": "\xe9"}')
        code, report, _ = run_json(capsys, ["validate", str(bad)])
        assert code == 1
        assert report["status"] == "schema-error" and "UTF-8" in report["error"]


LONG = [123456] * 20000
# each record, and the refusal of a polynomial document that holds it
LONG_RECORDS = pytest.mark.parametrize("record, refusal", [
    ({"exps": LONG, "coeff": 1},
     "malformed term record {'exps': '[123456, 123456, 123456,'... (160013 characters)"),
    # no lead-in before a ": ", so the message is quoted from its start
    (LONG, "'malformed term record [1'... (160022 characters)"),
], ids=["integer-coeff", "not-an-object"])


class TestLongTermRecords:
    """A malformed term record is named by a short excerpt, not echoed whole."""

    @LONG_RECORDS
    def test_poly_descriptor(self, capsys, tmp_path, record, refusal):
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps({"prime": 3, "terms": [record]}), encoding="utf-8")
        code, out, err = run(capsys, ["techlemma", str(bad), "--alpha", "1/2", "--beta", "1/4"])
        assert code == 1 and out == ""
        assert err == f"nabla-radius: {refusal}\n"
        assert err.count("\n") == 1 and len(err.encode("utf-8")) < 200

    @LONG_RECORDS
    def test_module_descriptor(self, capsys, tmp_path, record, refusal):
        bad = tmp_path / "long.json"
        doc = {"prime": 3, "n": 1, "m": 0, "rank": 1, "matrices": [[[[record]]]]}
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(bad)])
        assert code == 1 and err == ""
        assert report["status"] == "schema-error"
        assert report["descriptor_sha256"] is None
        assert "malformed term record" in report["error"]
        assert len(report["error"]) < 200


NINES = 10**4000 - 1
# (prime, n, m, rank, terms) of documents whose refusal names a long value
LONG_VALUES = {
    "big-prime": (NINES, 1, 0, 1, []),
    "negative-prime": (-NINES, 1, 0, 1, []),
    "long-vector": (3, 1, 0, 1, [{"exps": [0] * 3000, "coeff": "1"}]),
    "duplicate-exponent": (3, 1, 0, 1, [{"exps": [NINES], "coeff": "1"}] * 2),
    "string-exponent": (3, 1, 0, 1, [{"exps": ["x" * 4000], "coeff": "1"}]),
    "negative-disc-exponent": (3, 0, 1, 1, [{"exps": [-NINES], "coeff": "1"}]),
    "big-n": (3, NINES, 0, 1, []),
    "big-m": (3, 0, NINES, 1, []),
    "big-rank": (3, 1, 0, NINES, []),
}


def long_value_document(tmp_path, case):
    prime, n, m, rank, terms = LONG_VALUES[case]
    path = tmp_path / "long.json"
    doc = {"prime": prime, "n": n, "m": m, "rank": rank, "matrices": [[[terms]]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestLongValues:
    """A refused prime, count, exponent vector, coordinate or path is cut,
    not echoed whole."""

    @pytest.mark.parametrize(
        "case", sorted(k for k, v in LONG_VALUES.items() if v[1:4] == (1, 0, 1))
    )
    def test_poly_descriptor(self, capsys, tmp_path, case):
        prime, _, _, _, terms = LONG_VALUES[case]
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps({"prime": prime, "terms": terms}), encoding="utf-8")
        code, out, err = run(capsys, ["techlemma", str(bad), "--alpha", "1/2", "--beta", "1/4"])
        assert code == 1 and out == ""
        assert err.startswith("nabla-radius: ")
        assert err.count("\n") == 1 and len(err.encode("utf-8")) < 200

    @pytest.mark.parametrize("case", sorted(LONG_VALUES))
    def test_module_descriptor(self, capsys, tmp_path, case):
        code, report, err = run_json(capsys, ["validate", long_value_document(tmp_path, case)])
        assert code == 1 and err == ""
        assert report["status"] == "schema-error"
        assert len(report["error"]) < 200

    @pytest.mark.parametrize("case", sorted(LONG_VALUES))
    def test_module_descriptor_oc(self, capsys, tmp_path, case):
        code, out, err = run(capsys, ["oc", long_value_document(tmp_path, case), "--depth", "8"])
        assert code == 1 and out == ""
        assert err.startswith("nabla-radius: ")
        assert err.count("\n") == 1 and len(err.encode("utf-8")) < 200

    def test_long_path(self, capsys, tmp_path):
        path = str(tmp_path / ("x" * 4000))
        code, out, err = run(capsys, ["oc", path])
        assert code == 1 and out == ""
        assert err.startswith("nabla-radius: ") and "... (" in err
        assert err.count("\n") == 1 and len(err.encode("utf-8")) < 200
        code, report, err = run_json(capsys, ["validate", path])
        assert code == 1 and err == ""
        assert report["status"] == "schema-error"
        assert "... (" in report["error"] and len(report["error"]) < 200

    @pytest.mark.parametrize("argv, lead, tail", [
        (["oc", "--depth"], "depth", " exceeds cap 512"),
        (["taylor", "--eta", "1/4", "--depth"], "bound", " exceeds cap 512"),
        (["cutcheck", "--trials"], "trials", " exceeds cap 512"),
        (["specialize", "--point", "1", "--direction"], "direction",
         " out of range for a module with 2 variables"),
    ], ids=["oc-depth", "taylor-depth", "cutcheck-trials", "specialize-direction"])
    def test_count_or_direction_argument(self, capsys, two_var_path, argv, lead, tail):
        # argparse takes an int of up to 4300 digits, so the library's own
        # range checks must cut the value they name
        code, out, err = run(capsys, [argv[0], two_var_path, *argv[1:], str(NINES)])
        assert (code, out) == (1, "")
        assert err == f"nabla-radius: {lead} {str(NINES)[:24]}... (4000 characters){tail}\n"
        assert len(err.encode("utf-8")) < 200
        code, out, err = run(capsys, [argv[0], two_var_path, *argv[1:], "513"])
        if lead == "direction":
            assert err == f"nabla-radius: direction 513{tail}\n"
        else:
            assert err == f"nabla-radius: {lead} 513 exceeds cap 512\n"

    def test_short_values_are_whole(self, capsys, tmp_path):
        bad = tmp_path / "short.json"
        doc = {"prime": 3, "n": 1, "m": 0, "rank": 1,
               "matrices": [[[[{"exps": [0, 1], "coeff": "1"}]]]]}
        bad.write_text(json.dumps(doc), encoding="utf-8")
        _, report, _ = run_json(capsys, ["validate", str(bad)])
        assert report["error"] == (
            "matrix 0 entry (0,0): exponent vector (0, 1) has length 2, expected 1"
        )
        bad.write_text(json.dumps(dict(doc, prime=2**89 - 1)), encoding="utf-8")
        _, report, _ = run_json(capsys, ["validate", str(bad)])
        assert report["error"] == (
            "618970019642690137449562111 is at or above the bound"
            " 3317044064679887385961981 of the primality test"
        )


UNKNOWN_KEYS = {f"k{k:05}": 1 for k in range(20000)}


class TestManyUnknownFields:
    """A document with thousands of unknown keys is refused in one short
    line that quotes the start of their sorted list and its length."""

    @pytest.mark.parametrize("where", ["term", "top"])
    def test_poly_descriptor(self, capsys, tmp_path, where):
        term = {"exps": [0], "coeff": "1"}
        doc = {"prime": 3, "terms": [term]}
        (term if where == "term" else doc).update(UNKNOWN_KEYS)
        bad = tmp_path / "keys.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["techlemma", str(bad), "--alpha", "1/2", "--beta", "1/4"])
        assert code == 1 and out == ""
        kind = "term" if where == "term" else "polynomial"
        assert err == (
            f"nabla-radius: unknown {kind} fields:"
            f""" "['k00000', 'k00001', 'k0"... (200000 characters)\n"""
        )

    @pytest.mark.parametrize("where", ["term", "top"])
    def test_module_descriptor(self, capsys, tmp_path, where):
        term = {"exps": [0], "coeff": "1"}
        doc = {"prime": 3, "n": 1, "m": 0, "rank": 1, "matrices": [[[[term]]]]}
        (term if where == "term" else doc).update(UNKNOWN_KEYS)
        bad = tmp_path / "keys.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(bad)])
        assert code == 1 and err == ""
        assert report["status"] == "schema-error"
        assert report["error"] == {
            # the lead-in is the entry's position, so the message is quoted after it
            "term": """matrix 0 entry (0,0): "unknown term fields: ['k"... (200021 characters)""",
            "top": """unknown descriptor fields: "['k00000', 'k00001', 'k0"... (200000 characters)""",
        }[where]
        assert len(report["error"]) < 200


HUGE = "1" * 100001  # each integer is limited to 4300 digits


class TestLongRationalArguments:
    """A refused rational argument is quoted by a short excerpt, not echoed
    whole, and refused before any derivative walk."""

    @pytest.mark.parametrize("text", [HUGE, HUGE[1:] + "x"], ids=["digits", "not-a-rational"])
    @pytest.mark.parametrize("argv, what", [
        (["oc", "--tol"], "tol"),
        (["oc", "--window"], "window"),
        (["ir", "--radius"], "radius exponent"),
        (["specialize", "--direction", "0", "--point"], "coordinate"),
    ], ids=["oc-tol", "oc-window", "ir-radius", "specialize-point"])
    def test_one_short_line(self, capsys, monkeypatch, two_var_path, argv, what, text):
        def never(*args, **kwargs):
            raise AssertionError("a walk started on a refused argument")

        monkeypatch.setattr(radius, "iter_deriv_matrices", never)
        code, out, err = run(capsys, [argv[0], two_var_path, *argv[1:], text])
        assert code == 1 and out == ""
        # the quoted value is one space-free run, cut to its first 24 characters
        assert err.startswith(f"nabla-radius: invalid {what}: '{text[:23]}... (100003 characters)")
        assert err.count("\n") == 1 and len(err.encode("utf-8")) < 200


LONG_INT = "9" * 5000  # past the int/str digit limit of 4300

# characters of hostile text: any code point, lone surrogates (how an
# undecodable argv byte arrives), line breaks, spaces, digits and colons
HOSTILE_CHARS = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF, categories=["Cs"]),
    st.sampled_from("\n 9:"),
)
# argv tokens: short text, one long run, or many short words in one token
HOSTILE_TOKENS = st.one_of(
    st.text(HOSTILE_CHARS, max_size=8),
    st.builds(operator.mul, HOSTILE_CHARS, st.integers(81, 5000)),
    st.builds(lambda word, n: " ".join([word] * n),
              st.text(HOSTILE_CHARS, min_size=1, max_size=3), st.integers(60, 3000)),
)


class TestLongArgparseTokens:
    """argparse refuses these tokens itself; the echoed token is cut so the
    refusal stays one short line, and a line that fits keeps its bytes."""

    @pytest.mark.parametrize("argv, name", [
        (["oc", "--depth", LONG_INT], "argument --depth"),
        (["cutcheck", "--seed", LONG_INT], "argument --seed"),
        (["cutcheck", "--trials", "x" + LONG_INT], "argument --trials"),
        (["specialize", "--point", "1", "--direction", LONG_INT], "argument --direction"),
        (["oc", "--bogus" + LONG_INT], "unrecognized arguments: --bogus999"),
        (["bogus" + LONG_INT], "argument command"),
        # each token is short, but together they run to 9,000 bytes
        (["oc", *["ab"] * 3000],
         "unrecognized arguments: 'ab ab ab ab ab ab ab ab '... (8999 characters)"),
        # undecodable bytes reach argv as lone surrogates, each of which
        # stderr escapes to six bytes: as many are quoted as fit
        (["oc", "\udcff" * 3000],
         "unrecognized arguments: '" + "\\udcff" * 21 + "'... (3000 characters)"),
        (["oc", "a\nb"], "unrecognized arguments: 'a\\nb'\n"),
    ], ids=["oc-depth", "cutcheck-seed", "cutcheck-trials", "specialize-direction",
            "unknown-option", "unknown-command", "many-short-tokens", "undecodable-bytes",
            "line-break"])
    def test_one_short_line(self, capsys, two_var_path, argv, name):
        if len(argv) > 1:
            argv = [argv[0], two_var_path, *argv[1:]]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("nabla-radius") and name in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode("utf-8")) < 200

    def test_a_line_that_fits_keeps_its_bytes(self, capsys, two_var_path):
        assert run(capsys, ["oc", two_var_path, "--depth", "x"]) == (
            1, "", "nabla-radius oc: error: argument --depth: invalid int value: 'x'\n"
        )
        # the choices are listed whole (their quoting varies across Python versions)
        code, out, err = run(capsys, ["nosuch"])
        assert (code, out) == (1, "")
        assert err.startswith("nabla-radius: error: argument command: invalid choice: 'nosuch'")
        assert all(name in err for name in ("validate", "techlemma", "corpus"))


class TestOneLine:
    """`one_line`, the one bound on text that leaves the process."""

    LEADS = ["", "nabla-radius: ", "nabla-radius cutcheck: error: ", "estimate_drift.py: error: "]

    @pytest.mark.parametrize("message", [
        "coordinate 3 is not a unit",
        "unknown corpus label 'x'",
        "unrecognized arguments: \udcff",
        "label 'é' " + "ab " * 20,
        "x" * 80,
    ], ids=["coordinate", "corpus-label", "surrogate", "words", "80-character-run"])
    def test_a_message_that_fits_keeps_its_bytes(self, message):
        for lead in self.LEADS:
            assert one_line(message, lead) == lead + message

    def test_a_short_name_list_is_whole(self):
        for names in ({"radius"}, {"zzz", "b", "a"}, {f"key{k:02}" for k in range(8)}):
            message = f"unknown fields: {sorted(names)}"
            assert one_line(message) == message

    def test_a_long_space_free_run_is_cut(self):
        assert one_line("depth " + "9" * 81 + " exceeds cap 512") == (
            f"depth {'9' * 24}... (81 characters) exceeds cap 512"
        )
        assert one_line("unknown fields: " + str(["n" * 100])) == (
            "unknown fields: ['nnnnnnnnnnnnnnnnnnnnnn... (104 characters)"
        )
        assert one_line("unknown fields: " + str(["m" * 100000, "n" * 100000])) == (
            "unknown fields: ['mmmmmmmmmmmmmmmmmmmmmm... (100004 characters)"
            " 'nnnnnnnnnnnnnnnnnnnnnnn... (100003 characters)"
        )

    def test_a_line_still_too_long_quotes_the_start_after_its_lead_in(self):
        names = sorted(f"k{k:05}" for k in range(20000))
        assert one_line(f"unknown fields: {names}") == (
            """unknown fields: "['k00000', 'k00001', 'k0"... (200000 characters)"""
        )
        # with no ": ", the message is quoted from its start
        assert one_line("a\nb") == "'a\\nb'"

    def test_a_short_rest_is_quoted_whole(self):
        # a rest of at most 24 characters is its repr, a longer one is cut
        for rest in ("", "y", "1e3000000", "y" * 23):
            assert one_line(f"lead: {rest}\n") == f"lead: {rest + chr(10)!r}"
        assert one_line("lead: " + "z" * 24 + "\n") == (
            "lead: 'zzzzzzzzzzzzzzzzzzzzzzzz'... (25 characters)"
        )

    def test_the_parsed_rational_is_cut_where_it_leaves(self):
        with pytest.raises(ValueError) as info:
            parse_fraction("1" * 100001)
        assert one_line(str(info.value)) == (
            "malformed rational '11111111111111111111111... (100003 characters)"
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(HOSTILE_CHARS, max_size=6),
                st.sampled_from([": ", " ", "\n"]),
                st.builds(operator.mul, HOSTILE_CHARS, st.integers(1, 3000)),
            ),
            max_size=30,
        ).map("".join),
        st.sampled_from(LEADS),
    )
    def test_every_message_gives_one_line_within_the_bound(self, message, lead):
        line = one_line(message, lead)
        assert line.startswith(lead) and "\n" not in line
        assert len(f"{line}\n".encode(errors="backslashreplace")) < 200


def run_quietly(argv):
    """main(argv) with its exit code, stdout and stderr, for use under
    Hypothesis, which cannot share capsys across examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_bounded_refusal(argv, code, out, err):
    """Exit 1 is one bounded stderr line, or a validate report whose error
    is bounded; a run that is not refused leaves stderr empty, except that
    an analysis of a non-integrable module refuses it (exit 2) in one line."""
    assert code in (0, 1, 2, 3, 4)
    if argv[0] == "validate" and code == 1 and out:
        report = json.loads(out)
        assert report["status"] == "schema-error" and err == ""
        assert len(report["error"]) < 200
    elif code == 1 or (code == 2 and argv[0] != "validate"):
        assert out == "" and err.startswith("nabla-radius")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode(errors="backslashreplace")) < 200
    else:
        assert err == ""


# the options of each subcommand that take a value, and the arguments that
# make a run valid and short; hostile tokens go between the two, and the
# depth and trial counts come last so that an abbreviated option cannot
# raise them
OPTIONS = {
    "validate": ([], ["MODULE"], []),
    "ir": (["--radius", "--window"], ["MODULE"], ["--depth", "8"]),
    "oc": (["--tol", "--window"], ["MODULE"], ["--depth", "8"]),
    "taylor": (["--eta", "--lambda"], ["MODULE", "--eta", "1/4"], ["--depth", "8"]),
    "specialize": (["--direction", "--point"],
                   ["MODULE", "--direction", "0", "--point", "2"], []),
    "cutcheck": (["--tol", "--window", "--seed"], ["MODULE"],
                 ["--depth", "8", "--trials", "2"]),
    "techlemma": (["--alpha", "--beta"], ["POLY", "--alpha", "1/2", "--beta", "1/4"], []),
    "corpus": (["--dump"], [], []),
}


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options, valid, tail = OPTIONS[command]
    if draw(st.booleans()) and valid:
        # the descriptor path itself is the hostile token
        valid = [draw(HOSTILE_TOKENS), *valid[1:]]
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        # mostly an option's value, which reaches the subcommand's own checks
        if options and draw(st.integers(0, 3)):
            extra.append(draw(st.sampled_from(options)))
        extra.append(draw(HOSTILE_TOKENS))
    if draw(st.integers(0, 9)) == 0:
        return [draw(HOSTILE_TOKENS), *valid, *extra]  # a hostile command
    return [command, *valid, *extra, *tail]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The paths that stand for MODULE and POLY in OPTIONS."""
    root = tmp_path_factory.mktemp("documents")
    module = root / "module.json"
    module.write_text(json.dumps(TWO_VAR_DOC), encoding="utf-8")
    poly = root / "poly.json"
    poly.write_text(json.dumps(POLY_DOC), encoding="utf-8")
    return {"MODULE": str(module), "POLY": str(poly)}


TWO_VAR_DOC = module_descriptor_to_dict(
    ModuleDescriptor(module=exponential_two_var_module(3), label="exp-two-var")
)
POLY_DOC = {"prime": 3, "terms": [{"exps": [0], "coeff": "2"}, {"exps": [1], "coeff": "1"}]}

HOSTILE_VALUES = st.one_of(
    st.sampled_from([NINES, -NINES, 10**4000, True, None, 2**89 - 1]),
    st.integers(),
    st.floats(),
    HOSTILE_TOKENS,
    st.builds(lambda value, n: [value] * n, st.integers(-3, 3) | HOSTILE_TOKENS,
              st.integers(0, 3000)),
    st.builds(lambda n: {f"k{k:05}": 1 for k in range(n)}, st.integers(1, 3000)),
)


@st.composite
def mutated_document(draw, doc):
    """doc with one field, term field or term list set to a hostile value,
    or a hostile key added."""
    doc = json.loads(json.dumps(doc))
    terms = doc["matrices"][0][0][0] if "matrices" in doc else doc["terms"]
    where = draw(st.sampled_from(["top", "term", "terms"]))
    value = draw(HOSTILE_VALUES)
    if where == "terms" and "matrices" in doc:
        doc["matrices"][0][0][0] = value
    elif where == "terms":
        doc["terms"] = value
    else:
        target = doc if where == "top" else terms[0]
        target[draw(st.sampled_from([*target, "x" * draw(st.integers(1, 5000))]))] = value
    return doc


class TestEveryRefusalIsOneShortLine:
    """Hostile argv tokens and mutated documents: every refusal is one line
    under 200 bytes (or a validate report's error under 200 characters)."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(hostile_argv())
    def test_hostile_argv(self, documents, argv):
        argv = [documents.get(token, token) for token in argv]
        assert_bounded_refusal(argv, *run_quietly(argv))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(mutated_document(TWO_VAR_DOC), mutated_document(POLY_DOC))
    def test_mutated_documents(self, documents, module_doc, poly_doc):
        root = Path(documents["MODULE"]).parent
        module = root / "mutated-module.json"
        module.write_text(json.dumps(module_doc), encoding="utf-8")
        poly = root / "mutated-poly.json"
        poly.write_text(json.dumps(poly_doc), encoding="utf-8")
        for argv in (["validate", str(module)], ["oc", str(module), "--depth", "8"],
                     ["techlemma", str(poly), "--alpha", "1/2", "--beta", "1/4"]):
            assert_bounded_refusal(argv, *run_quietly(argv))


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


class TestDuplicateKeys:
    """A document that repeats a key is a refused input, whichever copy
    another JSON reader would keep."""

    @pytest.mark.parametrize("key", ["prime", "x" * 5000])
    def test_refused_in_one_short_line(self, capsys, tmp_path, key):
        bad = tmp_path / "dup.json"
        bad.write_text('{"prime": 3, "n": 1, "m": 0, "rank": 1, "matrices": [[[[]]]],'
                       ' "%s": 5, "%s": 5}' % (key, key), encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(bad)])
        assert code == 1 and err == ""
        assert report["status"] == "schema-error"
        assert report["descriptor_sha256"] is None
        assert "duplicate key" in report["error"] and len(report["error"].encode()) < 200
        code, out, err = run(capsys, ["oc", "--depth", "16", str(bad)])
        assert code == 1 and out == ""
        assert err.startswith("nabla-radius: ") and err.count("\n") == 1
        assert "duplicate key" in err and len(err.encode()) < 200

    def test_poly_descriptor(self, capsys, tmp_path):
        bad = tmp_path / "dup.json"
        bad.write_text('{"prime": 3, "terms": [{"exps": [0], "coeff": "1", "coeff": "2"}]}',
                       encoding="utf-8")
        code, out, err = run(capsys, ["techlemma", str(bad), "--alpha", "1", "--beta", "1/2"])
        assert code == 1 and out == ""
        assert err.startswith("nabla-radius: ") and err.endswith("duplicate key 'coeff'\n")


class TestDeeplyNestedJson:
    """A document nested more than MAX_NESTING arrays and objects deep is a
    refused input, counted on the text before it is parsed, so the bound
    is the same on every interpreter whatever its recursion limits."""

    DEPTH = 5000

    @staticmethod
    def module_text(depth):
        # the document and its "expected" object are two of the levels
        lists = depth - 2
        return ('{"prime": 3, "n": 1, "m": 0, "rank": 1, "matrices": [[[[]]]],'
                ' "expected": {"ir": %s}}' % ("[" * lists + "]" * lists))

    def test_module_descriptor(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text(self.module_text(self.DEPTH), encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(bad)])
        assert code == 1 and err == ""
        assert report["status"] == "schema-error"
        assert report["descriptor_sha256"] is None
        assert report["error"] == f"invalid JSON in {bad}: nested too deeply"
        code, out, err = run(capsys, ["oc", "--depth", "16", str(bad)])
        assert code == 1 and out == ""
        assert err == f"nabla-radius: invalid JSON in {bad}: nested too deeply\n"

    def test_bound_is_max_nesting(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(self.module_text(MAX_NESTING), encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(path)])
        assert code == 0 and err == "" and report["status"] == "ok"
        path.write_text(self.module_text(MAX_NESTING + 1), encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(path)])
        assert code == 1 and err == ""
        assert report["error"] == f"invalid JSON in {path}: nested too deeply"

    def test_brackets_in_strings_do_not_count(self, capsys, tmp_path):
        path = tmp_path / "note.json"
        path.write_text('{"prime": 3, "n": 1, "m": 0, "rank": 1, "matrices": [[[[]]]],'
                        ' "expected": {"note": "%s\\"%s"}}' % ("[" * self.DEPTH, "{" * self.DEPTH),
                        encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(path)])
        assert code == 0 and err == "" and report["status"] == "ok"

    def test_unterminated_string_is_a_json_error(self, capsys, tmp_path):
        # the string runs to the end of the text, brackets and all
        bad = tmp_path / "open.json"
        bad.write_text('{"label": "%s' % ("[" * self.DEPTH), encoding="utf-8")
        code, report, err = run_json(capsys, ["validate", str(bad)])
        assert code == 1 and err == ""
        assert report["error"].startswith(f"invalid JSON in {bad}: Unterminated string")

    def test_poly_descriptor(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text('{"prime": 3, "terms": %s}' % ("[" * self.DEPTH + "]" * self.DEPTH),
                       encoding="utf-8")
        code, out, err = run(capsys, ["techlemma", str(bad), "--alpha", "1", "--beta", "1/2"])
        assert code == 1 and out == ""
        assert err == f"nabla-radius: invalid JSON in {bad}: nested too deeply\n"


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
        doc = module_descriptor_to_dict(ModuleDescriptor(module=power_module(3, Fraction(1, 2))))
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, doc, _ = run_json(capsys, ["oc", str(path), "--depth", "16"])
        assert code == 4
        assert doc["verdict"] == "INCONCLUSIVE"

    def test_depth_over_cap_is_refused(self, capsys, dwork_path):
        code, out, err = run(capsys, ["oc", dwork_path, "--depth", "600"])
        assert code == 1 and out == ""
        assert err == "nabla-radius: depth 600 exceeds cap 512\n"

    @pytest.mark.parametrize("option, what, text", [
        ("--tol", "tol", "1e3000000"),
        ("--window", "window", "1e-30000000"),
        ("--tol", "tol", "0.5"),
        ("--tol", "tol", "1_000"),
    ])
    def test_rational_not_num_over_den_is_refused(self, capsys, monkeypatch, dwork_path,
                                                  option, what, text):
        # refused as text: Fraction would expand the exponent to millions of digits
        def never(*args, **kwargs):
            raise AssertionError("oc_ir_test ran on a refused argument")

        monkeypatch.setattr(radius, "oc_ir_test", never)
        code, out, err = run(capsys, ["oc", dwork_path, option, text])
        assert code == 1 and out == ""
        assert err == f"nabla-radius: invalid {what}: {text!r}\n"


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
        doc = module_descriptor_to_dict(ModuleDescriptor(module=power_module(3, Fraction(1, 2))))
        path.write_text(json.dumps(doc), encoding="utf-8")
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

    def test_long_non_unit_coordinate_is_cut(self, capsys, two_var_path):
        point = "3" + "0" * 4000
        code, out, err = run(
            capsys, ["specialize", two_var_path, "--direction", "0", "--point", point]
        )
        assert code == 1 and out == ""
        assert err == f"nabla-radius: coordinate {point[:24]}... (4001 characters) is not a unit\n"

    def test_wrong_coordinate_count(self, capsys, two_var_path):
        code, _, err = run(
            capsys, ["specialize", two_var_path, "--direction", "0", "--point", "2,2"]
        )
        assert code == 1

    @pytest.mark.parametrize("label", ["power-half-p3", "exp-disc-p3"])
    def test_empty_point_on_one_variable_module(self, capsys, tmp_path, label):
        descriptor = corpus_by_label()[label].descriptor
        path = tmp_path / "one-var.json"
        path.write_text(json.dumps(module_descriptor_to_dict(descriptor)), encoding="utf-8")
        code, doc, err = run_json(
            capsys, ["specialize", str(path), "--direction", "0", "--point", ""]
        )
        assert code == 0 and err == ""
        assert doc["parameters"] == {"direction": 0, "point": []}
        curve = parse_module_descriptor(doc["module"])
        assert curve.module == descriptor.module
        assert curve.label == f"{label}-curve-t0"

    @pytest.mark.parametrize(
        "point, message",
        [("", "expected 1 coordinates, got 0"), (",", "empty coordinate in --point")],
    )
    def test_empty_point_on_two_variable_module(self, capsys, two_var_path, point, message):
        code, out, err = run(
            capsys, ["specialize", two_var_path, "--direction", "0", "--point", point]
        )
        assert (code, out, err) == (1, "", f"nabla-radius: {message}\n")

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

    def test_large_exponents_take_bounded_work(self, capsys, tmp_path):
        # N_i = d_i(t1 * t2**100000): the check folds the t2 exponents of
        # each leading part mod p - 1 before it specializes one
        e = 100000
        doc = {"prime": 3, "n": 2, "m": 0, "rank": 1, "matrices": [
            [[[{"exps": [0, e], "coeff": "1"}]]],
            [[[{"exps": [1, e - 1], "coeff": str(e)}]]],
        ]}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run_json(capsys, ["cutcheck", str(path), "--depth", "16"])
        assert code == 3 and err == ""
        assert report["witness"]["direction"] == 0

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
        assert doc["unit_check"]["samples"] == ["1/2", "3/4"]
        assert doc["parameters"] == {"alpha_exponent": "2", "beta_exponent": "1/2"}

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

    def test_samples_option_is_refused(self, capsys, poly_path):
        # the unit check reads the two endpoints, so there is no count to set
        code, out, err = run(capsys, ["techlemma", poly_path, "--alpha", "2", "--beta", "1/2",
                                      "--samples", "20"])
        assert code == 1 and out == ""
        assert "error: unrecognized arguments: --samples 20" in err

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

    def test_long_unknown_label_is_cut(self, capsys):
        code, out, err = run(capsys, ["corpus", "--dump", "x" * 100000])
        assert code == 1 and out == ""
        assert err == f"nabla-radius: unknown corpus label '{'x' * 23}... (100002 characters)\n"


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
print(json.dumps([
    code,
    sorted(m for m in sys.modules if m.startswith("nabla_radius.")),
    sorted(m for m in ("dataclasses", "inspect") if m in sys.modules),
]))
"""

VALIDATE_SET = {"cli", "connection", "descriptor", "laurent", "padic"}


class TestModulesLoaded:
    """Each subcommand imports only the modules it runs, and none of them
    loads `dataclasses` or the `inspect` module it pulls in."""

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
        got_code, loaded, slow_imports = json.loads(proc.stdout)
        assert got_code == code
        assert set(loaded) == {f"nabla_radius.{m}" for m in VALIDATE_SET | extra}
        assert slow_imports == []
