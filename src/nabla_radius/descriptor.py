"""JSON descriptors for connection modules and one-variable polynomials.

A module descriptor document looks like

    {"prime": 3, "n": 1, "m": 0, "rank": 1,
     "matrices": [[[{"exps": [-1], "coeff": "1/2"}]]],
     "label": "kummer-half-p3"}

with one matrix per variable (annulus variables first), each a rank x
rank nested list of term lists, coefficients as exact "num/den" strings.
An optional "expected" object carries free-form expected results for
corpus entries.  Serialization is canonical (terms ordered
lexicographically, keys sorted) so documents hash stably.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .connection import ConnectionModule, PolyMatrix
from .laurent import LaurentPoly, SignatureError
from .padic import PrimeError, check_prime


class DescriptorError(ValueError):
    """A descriptor document does not match the schema."""


@dataclass(frozen=True)
class ModuleDescriptor:
    module: ConnectionModule
    label: Optional[str] = None
    expected: Optional[Mapping[str, Any]] = None


def _require_int(doc: Mapping, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DescriptorError(f"field {key!r} must be an integer")
    return value


def parse_module_descriptor(doc: Any) -> ModuleDescriptor:
    if not isinstance(doc, Mapping):
        raise DescriptorError("descriptor must be a JSON object")
    unknown = set(doc) - {"prime", "n", "m", "rank", "matrices", "label", "expected"}
    if unknown:
        raise DescriptorError(f"unknown descriptor fields: {sorted(unknown)}")
    prime = _require_int(doc, "prime")
    n = _require_int(doc, "n")
    m = _require_int(doc, "m")
    rank = _require_int(doc, "rank")
    try:
        check_prime(prime)
    except PrimeError as exc:
        raise DescriptorError(str(exc)) from None
    if n < 0 or m < 0 or n + m < 1:
        raise DescriptorError("need n >= 0, m >= 0 and n + m >= 1")
    if rank < 1:
        raise DescriptorError("rank must be >= 1")
    matrices_doc = doc.get("matrices")
    if not isinstance(matrices_doc, list) or len(matrices_doc) != n + m:
        raise DescriptorError(f"'matrices' must list {n + m} matrices")
    matrices = []
    for d, mat_doc in enumerate(matrices_doc):
        if not isinstance(mat_doc, list) or len(mat_doc) != rank:
            raise DescriptorError(f"matrix {d} must have {rank} rows")
        rows = []
        for r, row_doc in enumerate(mat_doc):
            if not isinstance(row_doc, list) or len(row_doc) != rank:
                raise DescriptorError(f"matrix {d} row {r} must have {rank} entries")
            row = []
            for c, entry_doc in enumerate(row_doc):
                if not isinstance(entry_doc, list):
                    raise DescriptorError(
                        f"matrix {d} entry ({r},{c}) must be a term list"
                    )
                try:
                    row.append(LaurentPoly.from_records(prime, n, m, entry_doc))
                except ValueError as exc:
                    raise DescriptorError(
                        f"matrix {d} entry ({r},{c}): {exc}"
                    ) from None
            rows.append(tuple(row))
        matrices.append(PolyMatrix(tuple(rows)))
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise DescriptorError("'label' must be a string")
    expected = doc.get("expected")
    if expected is not None and not isinstance(expected, Mapping):
        raise DescriptorError("'expected' must be an object")
    try:
        module = ConnectionModule(
            prime=prime,
            nvars_annulus=n,
            nvars_disc=m,
            rank=rank,
            matrices=tuple(matrices),
        )
    except SignatureError as exc:
        raise DescriptorError(str(exc)) from None
    return ModuleDescriptor(module=module, label=label, expected=expected)


def module_descriptor_to_dict(descriptor: ModuleDescriptor) -> dict:
    module = descriptor.module
    doc: dict[str, Any] = {
        "prime": module.prime,
        "n": module.nvars_annulus,
        "m": module.nvars_disc,
        "rank": module.rank,
        "matrices": [N.to_records() for N in module.matrices],
    }
    if descriptor.label is not None:
        doc["label"] = descriptor.label
    if descriptor.expected is not None:
        doc["expected"] = json.loads(json.dumps(descriptor.expected, sort_keys=True))
    return doc


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def descriptor_sha256(descriptor: ModuleDescriptor) -> str:
    return hashlib.sha256(
        canonical_json(module_descriptor_to_dict(descriptor)).encode("utf-8")
    ).hexdigest()


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid JSON in {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DescriptorError(f"{path} is not UTF-8 text: {exc}") from None
    except ValueError:
        # json.load raises a plain ValueError for an integer literal longer
        # than the interpreter's int/str conversion limit
        raise DescriptorError(
            f"invalid JSON in {path}: an integer literal has more than"
            f" {sys.get_int_max_str_digits()} digits"
        ) from None


def load_module_descriptor(path: str) -> ModuleDescriptor:
    return parse_module_descriptor(_read_json(path))


def save_module_descriptor(descriptor: ModuleDescriptor, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(module_descriptor_to_dict(descriptor), fh, sort_keys=True, indent=2)
        fh.write("\n")


def parse_poly_descriptor(doc: Any) -> tuple[LaurentPoly, Optional[str]]:
    """One-variable polynomial documents: {"prime": p, "terms": [...]}."""
    if not isinstance(doc, Mapping):
        raise DescriptorError("polynomial descriptor must be a JSON object")
    unknown = set(doc) - {"prime", "terms", "label"}
    if unknown:
        raise DescriptorError(f"unknown polynomial fields: {sorted(unknown)}")
    prime = _require_int(doc, "prime")
    try:
        check_prime(prime)
    except PrimeError as exc:
        raise DescriptorError(str(exc)) from None
    terms = doc.get("terms")
    if not isinstance(terms, list):
        raise DescriptorError("'terms' must be a list")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise DescriptorError("'label' must be a string")
    try:
        poly = LaurentPoly.from_records(prime, 1, 0, terms)
    except ValueError as exc:
        raise DescriptorError(str(exc)) from None
    return poly, label


def load_poly_descriptor(path: str) -> tuple[LaurentPoly, Optional[str]]:
    return parse_poly_descriptor(_read_json(path))
