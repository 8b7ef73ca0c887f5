"""Command-line interface: descriptor ingestion and deterministic reports.

Every subcommand reads an exact JSON descriptor, runs one of the library
operations, and prints a single JSON report to stdout.  The analysis
subcommands build it with one helper, `_report`: the schema tag, the
command, the input's hash and label, all effective parameters, then the
command's own fields.  Reports are byte-identical across runs with
identical inputs and seeds.  Exit codes: 0 ok or positive evidence,
1 invalid input, 2 non-integrable module, 3 negative evidence, 4 inconclusive.
Invalid input is refused in one stderr line (or the ``error`` of a
``validate`` report) of under 200 bytes, bounded by ``one_line``.

Each handler imports the analysis modules it runs (radius, curves, newton,
corpus) itself, so a short command such as ``validate`` does not pay to
load the rest of the package at start-up.  No module imports
``dataclasses``: the record classes are made by ``padic.frozen_record``,
which generates no code, so no command loads ``dataclasses`` and the
``inspect`` module it pulls in, or ``exec``s methods for each class.
Nor does any command load OpenSSL: `descriptor` hashes with CPython's
built-in SHA-256 rather than through ``hashlib``.  The report leaves in
one write, since ``json.dump`` writes each of its chunks on its own,
which an unbuffered stdout sends as hundreds of system calls.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional

from .connection import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    NotIntegrableError,
    integrability_check,
)
from .descriptor import (
    DescriptorError,
    ModuleDescriptor,
    descriptor_sha256,
    load_module_descriptor,
    load_poly_descriptor,
    module_descriptor_to_dict,
)
from .padic import LogRadius, check_radii, parse_fraction

SCHEMA = "nabla-radius/1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_INTEGRABLE = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4

# Exit code of each oc/cutcheck verdict and taylor outcome, keyed by the
# value of its radius.Verdict or radius.ProbeOutcome member.
EXIT_CODES = {
    "OVERCONVERGENT_EVIDENCE": EXIT_OK,
    "NOT_OVERCONVERGENT_EVIDENCE": EXIT_NEGATIVE,
    "INCONCLUSIVE": EXIT_INCONCLUSIVE,
    "pass": EXIT_OK,
    "fail": EXIT_NEGATIVE,
    "inconclusive": EXIT_INCONCLUSIVE,
}


# A line that leaves the process is shorter than this, newline included.
LINE_BYTES = 200


def one_line(message: str, lead: str = "") -> str:
    """lead + message as one line shorter than LINE_BYTES with its newline,
    as stderr writes it (a lone surrogate, from an undecodable argv byte, in
    six bytes).  Each space-free run past 80 characters is cut to its first
    24 and its length; a line still too long keeps the lead-in before the
    first ": " and quotes the start of the rest, or quotes its own start."""
    cut = re.sub(r"\S{81,}", lambda run: f"{run[0][:24]}... ({len(run[0])} characters)", message)
    head, sep, rest = message.partition(": ")
    quoted = [
        start + (repr(tail) if len(tail) <= keep else f"{tail[:keep]!r}... ({len(tail)} characters)")
        for start, tail in ([(head + sep, rest)] if sep else []) + [("", message)]
        for keep in range(24, -1, -1)
    ]
    for line in (lead + shown for shown in (cut, *quoted)):
        if "\n" not in line and len(f"{line}\n".encode(errors="backslashreplace")) < LINE_BYTES:
            break
    return line


def _parse_fraction_arg(text: str, what: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError:
        raise ValueError(f"invalid {what}: {text!r}") from None


def _parse_radius_arg(text: str, what: str) -> LogRadius:
    try:
        return LogRadius.parse(text)
    except ValueError:
        raise ValueError(
            f"invalid {what}: {text!r} (radii must be positive: give the exponent"
            f" e >= 0 of p**(-e) as num/den)"
        ) from None


def _radius_vector(tokens: Optional[list[str]], dims: int) -> tuple[LogRadius, ...]:
    if not tokens:
        return (LogRadius.one(),) * dims
    entries = [_parse_radius_arg(t, "radius exponent") for t in tokens]
    if len(entries) == 1:
        entries = entries * dims
    return check_radii(entries, dims)


def _load(path: str) -> tuple[ModuleDescriptor, dict]:
    """A module descriptor and the envelope that names it in a report."""
    descriptor = load_module_descriptor(path)
    envelope = {
        "descriptor_sha256": descriptor_sha256(descriptor),
        "label": descriptor.label,
    }
    return descriptor, envelope


def _report(command: str, envelope: dict, body: dict, **parameters) -> dict:
    """The report of an analysis subcommand: schema tag, command, envelope,
    the effective parameters by name, then the command's own fields."""
    return {"schema": SCHEMA, "command": command, **envelope, "parameters": parameters, **body}


def _point(text: str) -> tuple[Fraction, ...]:
    # an empty value is the point of a one-variable module: no coordinates
    if not text.strip():
        return ()
    coords = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty coordinate in --point")
        coords.append(_parse_fraction_arg(token, "coordinate"))
    return tuple(coords)


def cmd_validate(args: argparse.Namespace) -> tuple[dict, int]:
    report: dict = {"schema": SCHEMA, "command": "validate"}
    try:
        descriptor, envelope = _load(args.descriptor)
    except (DescriptorError, OSError) as exc:
        report.update(
            {
                "status": "schema-error",
                "error": one_line(str(exc)),
                "descriptor_sha256": None,
                "label": None,
            }
        )
        return report, EXIT_INVALID
    report.update(envelope)
    violation = integrability_check(descriptor.module)
    if violation is not None:
        try:
            curvature = violation.curvature.to_records()
        except ValueError:
            # a coefficient past the interpreter's int/str digit limit
            curvature = None
        report.update(
            {
                "status": "non-integrable",
                "violation": {"i": violation.i, "j": violation.j, "curvature": curvature},
            }
        )
        return report, EXIT_NOT_INTEGRABLE
    report.update({"status": "ok", "violation": None})
    return report, EXIT_OK


def cmd_ir(args: argparse.Namespace) -> tuple[dict, int]:
    from .radius import intrinsic_radius

    descriptor, envelope = _load(args.descriptor)
    module = descriptor.module
    rho = _radius_vector(args.radius, module.dims)
    window = _parse_fraction_arg(args.window, "window")
    report = intrinsic_radius(module, rho, args.depth, window)
    doc = _report("ir", envelope, report.to_json_dict(), depth=args.depth, window=str(window),
                  radius=[str(r.exponent) for r in rho])
    return doc, EXIT_OK


def cmd_oc(args: argparse.Namespace) -> tuple[dict, int]:
    from .radius import oc_ir_test

    descriptor, envelope = _load(args.descriptor)
    tol = _parse_fraction_arg(args.tol, "tol")
    window = _parse_fraction_arg(args.window, "window")
    verdict = oc_ir_test(descriptor.module, args.depth, tol, window)
    doc = _report("oc", envelope, verdict.to_json_dict(),
                  depth=args.depth, tol=str(tol), window=str(window))
    return doc, EXIT_CODES[verdict.verdict.value]


def cmd_taylor(args: argparse.Namespace) -> tuple[dict, int]:
    from .radius import taylor_probe

    descriptor, envelope = _load(args.descriptor)
    eta = _parse_radius_arg(args.eta, "eta exponent")
    lam = _parse_radius_arg(args.lam, "lambda exponent")
    report = taylor_probe(descriptor.module, eta, lam, args.depth)
    doc = _report("taylor", envelope, report.to_json_dict(), bound=args.depth)
    return doc, EXIT_CODES[report.outcome.value]


def cmd_specialize(args: argparse.Namespace) -> tuple[dict, int]:
    from .curves import specialize

    descriptor, envelope = _load(args.descriptor)
    point = _point(args.point)
    curve = specialize(descriptor.module, args.direction, point)
    label = descriptor.label
    curve_label = f"{label}-curve-t{args.direction}" if label else None
    curve_descriptor = ModuleDescriptor(module=curve, label=curve_label)
    try:
        curve_doc = module_descriptor_to_dict(curve_descriptor)
    except ValueError:
        # str() of a coefficient past the interpreter's int/str digit limit
        raise ValueError(
            "specialize: a coefficient of the curve has more digits than"
            f" the limit of {sys.get_int_max_str_digits()}"
        ) from None
    doc = _report("specialize", envelope, {"module": curve_doc},
                  direction=args.direction, point=[str(c) for c in point])
    return doc, EXIT_OK


def cmd_cutcheck(args: argparse.Namespace) -> tuple[dict, int]:
    from .curves import curve_witness_search

    descriptor, envelope = _load(args.descriptor)
    tol = _parse_fraction_arg(args.tol, "tol")
    window = _parse_fraction_arg(args.window, "window")
    report = curve_witness_search(
        descriptor.module,
        depth=args.depth,
        trials=args.trials,
        seed=args.seed,
        tol=tol,
        window=window,
    )
    doc = _report("cutcheck", envelope, report.to_json_dict(), depth=args.depth,
                  trials=args.trials, seed=args.seed, tol=str(tol), window=str(window))
    return doc, EXIT_CODES[report.verdict.verdict.value]


def cmd_techlemma(args: argparse.Namespace) -> tuple[dict, int]:
    from .newton import AlignedInterval, shrink_interval, unit_certificate_check

    poly, label = load_poly_descriptor(args.poly)
    r_alpha = _parse_fraction_arg(args.alpha, "alpha exponent")
    r_beta = _parse_fraction_arg(args.beta, "beta exponent")
    interval = AlignedInterval(r_alpha, r_beta)
    certificate = shrink_interval(poly, interval)
    failed = unit_certificate_check(poly, certificate)
    body = {
        "dominant": {"A": sorted(certificate.A), "B": sorted(certificate.B),
                     "n0": certificate.n0},
        "certificate": certificate.to_json_dict(),
        "unit_check": {
            "ok": failed is None,
            "counterexample": None if failed is None else str(failed),
            "samples": [str(r) for r in certificate.interval.endpoints],
        },
    }
    doc = _report("techlemma", {"label": label}, body, alpha_exponent=str(r_alpha),
                  beta_exponent=str(r_beta))
    return doc, (EXIT_OK if failed is None else EXIT_NEGATIVE)


def cmd_corpus(args: argparse.Namespace) -> tuple[dict, int]:
    from .corpus import build_corpus, corpus_by_label

    if args.dump:
        entry = corpus_by_label().get(args.dump)
        if entry is None:
            raise ValueError(f"unknown corpus label {args.dump!r}")
        return module_descriptor_to_dict(entry.descriptor), EXIT_OK
    entries = []
    for entry in build_corpus():
        module = entry.descriptor.module
        entries.append(
            {
                "label": entry.label,
                "prime": module.prime,
                "n": module.nvars_annulus,
                "m": module.nvars_disc,
                "rank": module.rank,
                "expected": dict(entry.descriptor.expected or {}),
            }
        )
    return {"schema": SCHEMA, "command": "corpus", "entries": entries}, EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; reserve 2 for curvature."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_INVALID, one_line(message, f"{self.prog}: error: ") + "\n")


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One option declaration, as argparse's add_argument takes it."""
    return flags, options


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nabla-radius", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *arguments) -> None:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flags, options in arguments:
            p.add_argument(*flags, **options)

    # options that several subcommands take
    descriptor = _arg("descriptor")
    depth = _arg("--depth", type=int, default=200)
    tol = _arg("--tol", default=str(DEFAULT_TOL))
    window = _arg("--window", default=str(DEFAULT_WINDOW))

    add("validate", cmd_validate, "check descriptor schema and integrability", descriptor)
    add("ir", cmd_ir, "windowed intrinsic-radius estimates", descriptor, depth, window,
        _arg("--radius", action="append", metavar="EXP",
             help="radius exponent num/den; repeat per variable"))
    add("oc", cmd_oc, "overconvergence verdict at the unit polyradius",
        descriptor, depth, tol, window)
    add("taylor", cmd_taylor, "Taylor-term decay probe", descriptor,
        _arg("--eta", required=True, help="eta exponent num/den (> 0, i.e. radius < 1)"),
        _arg("--lambda", dest="lam", default="0",
             help="inner-radius exponent num/den (default 0, i.e. radius 1)"),
        _arg("--depth", type=int, default=24, help="multi-index bound J"))
    add("specialize", cmd_specialize, "restrict to a coordinate curve", descriptor,
        _arg("--direction", type=int, required=True),
        _arg("--point", required=True,
             help="comma-separated unit coordinates; empty for a one-variable module"))
    add("cutcheck", cmd_cutcheck, "curve witness search", descriptor,
        _arg("--depth", type=int, default=64),
        _arg("--trials", type=int, default=10),
        _arg("--seed", type=int, default=0),
        tol, window)
    add("techlemma", cmd_techlemma, "dominant-term certificate on an interval",
        _arg("poly", help="one-variable polynomial descriptor path"),
        _arg("--alpha", required=True, help="inner endpoint exponent num/den"),
        _arg("--beta", required=True, help="outer endpoint exponent num/den"))
    add("corpus", cmd_corpus, "list or dump bundled example modules",
        _arg("--dump", metavar="LABEL", help="print one descriptor document"))

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = args.handler(args)
    except (OSError, ValueError) as exc:
        print(one_line(str(exc), "nabla-radius: "), file=sys.stderr)
        return EXIT_NOT_INTEGRABLE if isinstance(exc, NotIntegrableError) else EXIT_INVALID
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
