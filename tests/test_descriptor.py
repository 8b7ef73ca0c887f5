import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import nabla_radius
from nabla_radius.corpus import (
    build_corpus,
    exponential_module,
    exponential_two_var_module,
    power_module,
    random_integrable_module,
)
from nabla_radius.descriptor import (
    DescriptorError,
    ModuleDescriptor,
    canonical_json,
    descriptor_sha256,
    load_module_descriptor,
    load_poly_descriptor,
    module_descriptor_to_dict,
    parse_module_descriptor,
    parse_poly_descriptor,
)


def dwork_descriptor():
    return ModuleDescriptor(module=exponential_module(3), label="dwork-p3")


def minimal_doc():
    return {
        "prime": 3,
        "n": 1,
        "m": 0,
        "rank": 1,
        "matrices": [[[[{"exps": [-1], "coeff": "1/2"}]]]],
    }


class TestRoundTrip:
    def test_dict_round_trip(self):
        d = dwork_descriptor()
        doc = module_descriptor_to_dict(d)
        parsed = parse_module_descriptor(doc)
        assert parsed.module.matrices == d.module.matrices
        assert parsed.label == "dwork-p3"
        assert descriptor_sha256(parsed) == descriptor_sha256(d)

    def test_minimal_doc_parses_to_kummer(self):
        parsed = parse_module_descriptor(minimal_doc())
        assert parsed.module.matrices == power_module(3, Fraction(1, 2)).matrices
        assert parsed.label is None and parsed.expected is None

    def test_file_round_trip(self, tmp_path):
        d = dwork_descriptor()
        path = tmp_path / "dwork.json"
        path.write_text(json.dumps(module_descriptor_to_dict(d)), encoding="utf-8")
        loaded = load_module_descriptor(str(path))
        assert loaded.module.matrices == d.module.matrices
        assert loaded.label == d.label

    def test_corpus_round_trips(self):
        for entry in build_corpus():
            doc = module_descriptor_to_dict(entry.descriptor)
            parsed = parse_module_descriptor(doc)
            assert parsed.module.matrices == entry.descriptor.module.matrices
            assert parsed.expected == json.loads(json.dumps(entry.descriptor.expected))


def random_descriptor(seed, prime, rank):
    module = random_integrable_module(Random(seed), prime, rank)
    return ModuleDescriptor(module, f"random-{prime}-{rank}-{seed}")


DESCRIPTORS = st.one_of(
    st.sampled_from([entry.descriptor for entry in build_corpus()]),
    st.builds(
        random_descriptor,
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 5]),
        st.integers(1, 2),
    ),
)


def respell(doc, rng, scale):
    """The same module document spelled otherwise: keys in shuffled order,
    each coefficient "a/b" as "ka/kb", and a "0" term added to some entries."""

    def shuffled(mapping):
        keys = list(mapping)
        rng.shuffle(keys)
        return {k: mapping[k] for k in keys}

    def term(record):
        num, _, den = record["coeff"].partition("/")
        coeff = f"{int(num) * scale}/{int(den or 1) * scale}"
        return shuffled({"exps": record["exps"], "coeff": coeff})

    def entry(records):
        terms = [term(record) for record in records]
        if rng.random() < 0.5:
            zero = shuffled({"exps": [0] * (doc["n"] + doc["m"]), "coeff": "0"})
            terms.insert(rng.randrange(len(terms) + 1), zero)
        return terms

    respelled = dict(doc, matrices=[
        [[entry(records) for records in row] for row in matrix] for matrix in doc["matrices"]
    ])
    if "expected" in doc:
        respelled["expected"] = shuffled(doc["expected"])
    return shuffled(respelled)


class TestRoundTripProperty:
    @given(d=DESCRIPTORS)
    @settings(max_examples=40, deadline=None)
    def test_parse_inverts_to_dict(self, d):
        doc = module_descriptor_to_dict(d)
        parsed = parse_module_descriptor(doc)
        assert parsed == d
        assert module_descriptor_to_dict(parsed) == doc

    @given(
        d=DESCRIPTORS,
        seed=st.integers(0, 2**32 - 1),
        scale=st.integers(1, 9),
        indent=st.sampled_from([None, 0, 2, "\t"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_digest_ignores_spelling(self, d, seed, scale, indent):
        doc = respell(module_descriptor_to_dict(d), Random(seed), scale)
        parsed = parse_module_descriptor(json.loads(json.dumps(doc, indent=indent)))
        assert parsed == d
        assert descriptor_sha256(parsed) == descriptor_sha256(d)


class TestHashing:
    def test_known_digest_is_stable(self):
        assert descriptor_sha256(dwork_descriptor()) == (
            "b1f3b54c7020caf261be5f8835940cdcf7d0a3ca4238b77bb1f7cded4bf5ba29"
        )

    def test_key_order_does_not_matter(self):
        doc = minimal_doc()
        shuffled = {k: doc[k] for k in reversed(list(doc))}
        assert canonical_json(doc) == canonical_json(shuffled)
        a = parse_module_descriptor(doc)
        b = parse_module_descriptor(shuffled)
        assert descriptor_sha256(a) == descriptor_sha256(b)

    def test_label_changes_digest(self):
        base = parse_module_descriptor(minimal_doc())
        labeled = ModuleDescriptor(module=base.module, label="x")
        assert descriptor_sha256(base) != descriptor_sha256(labeled)

    def test_digest_is_hashlib_sha256(self):
        """The built-in SHA-256 is hashlib's, on every corpus document."""
        for entry in build_corpus():
            text = canonical_json(module_descriptor_to_dict(entry.descriptor))
            assert descriptor_sha256(entry.descriptor) == (
                hashlib.sha256(text.encode("utf-8")).hexdigest()
            )


# Runs cli.main in a fresh interpreter and prints whether OpenSSL's
# hashlib binding was loaded, before and after.
OPENSSL_PROBE = """
import contextlib, io, json, sys
before = "_hashlib" in sys.modules
if sys.argv[1:]:
    from nabla_radius.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
else:
    code = None
print(json.dumps([code, before, "_hashlib" in sys.modules]))
"""


def run_probe(*argv):
    src = str(Path(nabla_radius.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", OPENSSL_PROBE, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestNoOpenSSL:
    """Commands hash with CPython's built-in SHA-256 and never load the
    `_hashlib` binding that `import hashlib` brings in."""

    @pytest.mark.parametrize("argv, code", [
        (["validate"], 0),
        (["oc", "--depth", "8"], 3),
        (["cutcheck", "--depth", "8"], 3),
    ], ids=["validate", "oc", "cutcheck"])
    def test_commands_leave_hashlib_unloaded(self, tmp_path, argv, code):
        if run_probe()[1]:
            pytest.skip("this interpreter loads _hashlib at start-up")
        path = tmp_path / "module.json"
        doc = module_descriptor_to_dict(ModuleDescriptor(exponential_two_var_module(3), "exp-two-var"))
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_probe(*argv, str(path)) == [code, False, False]


class TestParseErrors:
    def test_not_an_object(self):
        with pytest.raises(DescriptorError):
            parse_module_descriptor([1, 2, 3])

    def test_unknown_field(self):
        doc = minimal_doc()
        doc["radius"] = "1/2"
        with pytest.raises(DescriptorError, match="unknown"):
            parse_module_descriptor(doc)

    def test_bad_prime(self):
        doc = minimal_doc()
        doc["prime"] = 4
        with pytest.raises(DescriptorError):
            parse_module_descriptor(doc)
        doc["prime"] = "3"
        with pytest.raises(DescriptorError):
            parse_module_descriptor(doc)

    def test_bad_shapes(self):
        doc = minimal_doc()
        doc["matrices"] = []
        with pytest.raises(DescriptorError, match="matrices"):
            parse_module_descriptor(doc)
        doc = minimal_doc()
        doc["rank"] = 2
        with pytest.raises(DescriptorError):
            parse_module_descriptor(doc)
        doc = minimal_doc()
        doc["n"] = 0
        doc["m"] = 0
        with pytest.raises(DescriptorError):
            parse_module_descriptor(doc)

    def test_bad_term_records(self):
        doc = minimal_doc()
        doc["matrices"] = [[[[{"exps": [-1, 0], "coeff": "1"}]]]]
        with pytest.raises(DescriptorError, match="entry"):
            parse_module_descriptor(doc)
        doc["matrices"] = [[[[{"exps": [-1], "coeff": "1/0"}]]]]
        with pytest.raises(DescriptorError):
            parse_module_descriptor(doc)

    def test_bad_label_and_expected(self):
        doc = minimal_doc()
        doc["label"] = 7
        with pytest.raises(DescriptorError, match="label"):
            parse_module_descriptor(doc)
        doc = minimal_doc()
        doc["expected"] = "positive"
        with pytest.raises(DescriptorError, match="expected"):
            parse_module_descriptor(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DescriptorError, match="invalid JSON"):
            load_module_descriptor(str(path))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constant_refused(self, tmp_path, token):
        path = tmp_path / "nan.json"
        doc = dict(minimal_doc(), expected={"ir": "__token__"})
        path.write_text(json.dumps(doc).replace('"__token__"', token), encoding="utf-8")
        with pytest.raises(DescriptorError, match=f"invalid JSON.*{token} is not a JSON value"):
            load_module_descriptor(str(path))
        path.write_text('{"prime": 3, "terms": [], "label": %s}' % token, encoding="utf-8")
        with pytest.raises(DescriptorError, match=f"{token} is not a JSON value"):
            load_poly_descriptor(str(path))


class TestDuplicateKeys:
    """A key repeated in any object of a document is refused; JSON readers
    differ on which copy they keep."""

    MODULE = (
        '{"prime": 3, "n": 1, "m": 0, "rank": 1,'
        ' "matrices": [[[[{"exps": [-1], "coeff": "1/2"}]]]]%s}'
    )

    @pytest.mark.parametrize("text, key", [
        ('{"prime": 3, "prime": 5, "n": 1, "m": 0, "rank": 1,'
         ' "matrices": [[[[{"exps": [-1], "coeff": "1/2"}]]]]}', "prime"),
        ('{"prime": 3, "n": 1, "m": 0, "rank": 1,'
         ' "matrices": [[[[{"exps": [-1], "coeff": "1/2", "coeff": "1/3"}]]]]}', "coeff"),
        (MODULE % ', "expected": {"ir": "1/2", "oc": "x", "ir": "1/3"}', "ir"),
        (MODULE % ', "expected": {"cases": [{"a": 1}, {"b": 1, "b": 1}]}', "b"),
    ], ids=["top-level", "coeff", "expected", "nested-in-expected"])
    def test_module_document(self, tmp_path, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DescriptorError) as info:
            load_module_descriptor(str(path))
        assert str(info.value) == f"invalid JSON in {path}: duplicate key {key!r}"

    def test_single_copies_still_load(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(self.MODULE % ', "expected": {"ir": "1/2", "oc": "x"}', encoding="utf-8")
        assert load_module_descriptor(str(path)).expected == {"ir": "1/2", "oc": "x"}

    def test_polynomial_document(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"prime": 3, "terms": [{"exps": [0], "exps": [1], "coeff": "2"}]}', encoding="utf-8"
        )
        with pytest.raises(DescriptorError, match="^invalid JSON in .*: duplicate key 'exps'$"):
            load_poly_descriptor(str(path))


POLY_DOC = {"prime": 3, "terms": [{"exps": [0], "coeff": "2"}]}


class TestSharedHeader:
    @pytest.mark.parametrize("parse, doc, kind, name", [
        (parse_module_descriptor, minimal_doc(), "descriptor", "descriptor"),
        (parse_poly_descriptor, POLY_DOC, "polynomial descriptor", "polynomial"),
    ])
    def test_header_messages(self, parse, doc, kind, name):
        faults = [
            ([1, 2, 3], f"{kind} must be a JSON object"),
            (dict(doc, radius="1/2"), f"unknown {name} fields: ['radius']"),
            (dict(doc, prime=4), "not a prime: 4"),
            (dict(doc, label=7), "'label' must be a string"),
        ]
        for bad, message in faults:
            with pytest.raises(DescriptorError) as info:
                parse(bad)
            assert str(info.value) == message

    def test_header_faults_come_first(self):
        # the prime is tested before n is read, and the label before the
        # matrices and the terms
        doc = dict(minimal_doc(), prime=4, n="1")
        with pytest.raises(DescriptorError, match="^not a prime: 4$"):
            parse_module_descriptor(doc)
        doc = dict(minimal_doc(), label=7, matrices=[])
        with pytest.raises(DescriptorError, match="^'label' must be a string$"):
            parse_module_descriptor(doc)
        with pytest.raises(DescriptorError, match="^'label' must be a string$"):
            parse_poly_descriptor({"prime": 3, "terms": {}, "label": 7})


class TestPolyDescriptor:
    def test_parse(self):
        poly, label = parse_poly_descriptor(
            {"prime": 2, "terms": [{"exps": [0], "coeff": "2"}, {"exps": [1], "coeff": "1"}],
             "label": "p-plus-t"}
        )
        assert label == "p-plus-t"
        assert poly.coefficient((0,)) == 2
        assert poly.coefficient((1,)) == 1

    def test_errors(self):
        with pytest.raises(DescriptorError):
            parse_poly_descriptor({"prime": 2, "terms": [], "alpha": "1"})
        with pytest.raises(DescriptorError):
            parse_poly_descriptor({"prime": 2, "terms": {}})
        with pytest.raises(DescriptorError):
            parse_poly_descriptor({"prime": 9, "terms": []})
