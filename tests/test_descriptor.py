import json
from fractions import Fraction

import pytest

from nabla_radius.corpus import build_corpus, exponential_module, power_module
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
    save_module_descriptor,
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
        save_module_descriptor(d, str(path))
        loaded = load_module_descriptor(str(path))
        assert loaded.module.matrices == d.module.matrices
        assert loaded.label == d.label

    def test_corpus_round_trips(self):
        for entry in build_corpus():
            doc = module_descriptor_to_dict(entry.descriptor)
            parsed = parse_module_descriptor(doc)
            assert parsed.module.matrices == entry.descriptor.module.matrices
            assert parsed.expected == json.loads(json.dumps(entry.descriptor.expected))


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
