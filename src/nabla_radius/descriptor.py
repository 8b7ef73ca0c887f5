"""JSON descriptors for connection modules and one-variable polynomials.

A module descriptor document looks like

    {"prime": 3, "n": 1, "m": 0, "rank": 1,
     "matrices": [[[{"exps": [-1], "coeff": "1/2"}]]],
     "label": "kummer-half-p3"}

with one matrix per variable (annulus variables first), each a rank x
rank nested list of term lists, coefficients as exact "num/den" strings.
An optional "expected" object carries free-form expected results for
corpus entries.  Serialization is canonical (terms ordered
lexicographically, keys sorted) so documents hash stably.  A document
that repeats a key in any object is refused: JSON readers differ on which
copy they keep, so it has no one meaning to hash or to analyse.

The digest is SHA-256 from CPython's built-in module, not from `hashlib`:
importing `hashlib` loads OpenSSL's `_hashlib`, which costs every command
a few milliseconds and MB to hash one document of a few KB.  It is the
same function, so every digest is the same.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import accumulate
from typing import Any, Mapping, Optional

from .connection import ConnectionModule, PolyMatrix
from .laurent import LaurentPoly
from .padic import PrimeError, check_prime, frozen_record

# the built-in SHA-256, as random.py takes SHA-512: hashlib loads OpenSSL
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


class DescriptorError(ValueError):
    """A descriptor document does not match the schema."""


@frozen_record
class ModuleDescriptor:
    module: ConnectionModule
    label: Optional[str] = None
    expected: Optional[Mapping[str, Any]] = None


def _require_int(doc: Mapping, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DescriptorError(f"field {key!r} must be an integer")
    return value


def _parse_header(doc: Any, document: str, kind: str, fields: set[str]) -> tuple[int, Optional[str]]:
    """The prime and label of a module or polynomial document, after the
    checks both kinds share; `document` and `kind` name it in messages."""
    if not isinstance(doc, Mapping):
        raise DescriptorError(f"{document} must be a JSON object")
    unknown = set(doc) - fields
    if unknown:
        raise DescriptorError(f"unknown {kind} fields: {sorted(unknown)}")
    prime = _require_int(doc, "prime")
    try:
        check_prime(prime)
    except PrimeError as exc:
        raise DescriptorError(str(exc)) from None
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise DescriptorError("'label' must be a string")
    return prime, label


def parse_module_descriptor(doc: Any) -> ModuleDescriptor:
    fields = {"prime", "n", "m", "rank", "matrices", "label", "expected"}
    prime, label = _parse_header(doc, "descriptor", "descriptor", fields)
    n = _require_int(doc, "n")
    m = _require_int(doc, "m")
    rank = _require_int(doc, "rank")
    if n < 0 or m < 0 or not 1 <= n + m <= MAX_VARIABLES:
        raise DescriptorError(f"need n >= 0, m >= 0 and 1 <= n + m <= {MAX_VARIABLES}")
    if not 1 <= rank <= MAX_RANK:
        raise DescriptorError(f"need 1 <= rank <= {MAX_RANK}")
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
    expected = doc.get("expected")
    if expected is not None and not isinstance(expected, Mapping):
        raise DescriptorError("'expected' must be an object")
    module = ConnectionModule(
        prime=prime,
        nvars_annulus=n,
        nvars_disc=m,
        rank=rank,
        matrices=tuple(matrices),
    )
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
    return sha256(
        canonical_json(module_descriptor_to_dict(descriptor)).encode("utf-8")
    ).hexdigest()


# The most variables n + m, and the largest rank, a module document may
# have; both are checked before any matrix is parsed.  Its integrability
# check multiplies rank x rank matrices for every pair of directions, so
# the work grows with (n + m)**2 * rank**3, and the two bounds are chosen
# together: the all-zero module at both bounds validates in about a second.
MAX_VARIABLES = 16
MAX_RANK = 16

# The deepest nesting of arrays and objects a document may have (a module
# document needs 7), counted on the text so that it does not depend on the
# interpreter's recursion limits.  The string pattern runs an unterminated
# string to the end of the text, so no quote is scanned twice.
MAX_NESTING = 100
_JSON_STRING_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)
_NOT_BRACKET_RE = re.compile(r"[^\[\]{}]+")
_BRACKET_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _nesting(text: str) -> int:
    brackets = _NOT_BRACKET_RE.sub("", _JSON_STRING_RE.sub("", text))
    return max(accumulate(map(_BRACKET_STEP.__getitem__, brackets)), default=0)


def _read_json(path: str) -> Any:
    def refuse_constant(token: str) -> None:
        # json.loads accepts NaN, Infinity and -Infinity, which are not JSON
        raise DescriptorError(f"invalid JSON in {path}: {token} is not a JSON value")

    def refuse_duplicates(pairs: list[tuple[str, Any]]) -> dict:
        # json.loads keeps the last copy of a repeated key
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise DescriptorError(f"invalid JSON in {path}: duplicate key {key!r}")
                seen.add(key)
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if _nesting(text) > MAX_NESTING:
            raise DescriptorError(f"invalid JSON in {path}: nested too deeply")
        return json.loads(
            text, parse_constant=refuse_constant, object_pairs_hook=refuse_duplicates
        )
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid JSON in {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DescriptorError(f"{path} is not UTF-8 text: {exc}") from None
    except DescriptorError:
        raise
    except ValueError:
        # json.loads raises a plain ValueError for an integer literal longer
        # than the interpreter's int/str conversion limit
        raise DescriptorError(
            f"invalid JSON in {path}: an integer literal has more than"
            f" {sys.get_int_max_str_digits()} digits"
        ) from None


def load_module_descriptor(path: str) -> ModuleDescriptor:
    return parse_module_descriptor(_read_json(path))


def parse_poly_descriptor(doc: Any) -> tuple[LaurentPoly, Optional[str]]:
    """One-variable polynomial documents: {"prime": p, "terms": [...]}."""
    prime, label = _parse_header(
        doc, "polynomial descriptor", "polynomial", {"prime", "terms", "label"}
    )
    terms = doc.get("terms")
    if not isinstance(terms, list):
        raise DescriptorError("'terms' must be a list")
    try:
        poly = LaurentPoly.from_records(prime, 1, 0, terms)
    except ValueError as exc:
        raise DescriptorError(str(exc)) from None
    return poly, label


def load_poly_descriptor(path: str) -> tuple[LaurentPoly, Optional[str]]:
    return parse_poly_descriptor(_read_json(path))
