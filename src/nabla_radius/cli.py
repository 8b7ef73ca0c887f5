"""Command-line interface: descriptor ingestion and deterministic reports.

Every subcommand reads an exact JSON descriptor, runs one of the library
operations, and prints a single JSON report to stdout.  Reports embed the
schema tag, the descriptor hash and all effective parameters, and are
byte-identical across runs with identical inputs and seeds.  Exit codes:
0 ok or positive evidence, 1 invalid input, 2 non-integrable module,
3 negative evidence, 4 inconclusive.

Each handler imports the analysis modules it runs (radius, curves, newton,
corpus) itself, so a short command such as ``validate`` does not pay to
load the rest of the package at start-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .connection import NotIntegrableError, check_count, integrability_check
from .descriptor import (
    DescriptorError,
    ModuleDescriptor,
    descriptor_sha256,
    load_module_descriptor,
    load_poly_descriptor,
    module_descriptor_to_dict,
)
from .padic import LogRadius, parse_fraction

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
    if len(entries) != dims:
        raise ValueError(
            f"got {len(tokens)} radius values for a module with {dims} variables"
        )
    return tuple(entries)


def _load(path: str) -> tuple[ModuleDescriptor, dict]:
    descriptor = load_module_descriptor(path)
    envelope = {
        "schema": SCHEMA,
        "descriptor_sha256": descriptor_sha256(descriptor),
        "label": descriptor.label,
    }
    return descriptor, envelope


def _point(text: str) -> tuple[Fraction, ...]:
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
                "error": str(exc),
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
    doc = {
        "schema": SCHEMA,
        "command": "ir",
        **envelope,
        "parameters": {
            "depth": args.depth,
            "window": str(window),
            "radius": [str(r.exponent) for r in rho],
        },
        **report.to_json_dict(),
    }
    return doc, EXIT_OK


def cmd_oc(args: argparse.Namespace) -> tuple[dict, int]:
    from .radius import oc_ir_test

    descriptor, envelope = _load(args.descriptor)
    tol = _parse_fraction_arg(args.tol, "tol")
    window = _parse_fraction_arg(args.window, "window")
    verdict = oc_ir_test(descriptor.module, args.depth, tol, window)
    doc = {
        "schema": SCHEMA,
        "command": "oc",
        **envelope,
        "parameters": {
            "depth": args.depth,
            "tol": str(tol),
            "window": str(window),
        },
        **verdict.to_json_dict(),
    }
    return doc, EXIT_CODES[verdict.verdict.value]


def cmd_taylor(args: argparse.Namespace) -> tuple[dict, int]:
    from .radius import taylor_probe

    descriptor, envelope = _load(args.descriptor)
    eta = _parse_radius_arg(args.eta, "eta exponent")
    lam = _parse_radius_arg(getattr(args, "lam"), "lambda exponent")
    report = taylor_probe(descriptor.module, eta, lam, args.depth)
    doc = {
        "schema": SCHEMA,
        "command": "taylor",
        **envelope,
        "parameters": {"bound": args.depth},
        **report.to_json_dict(),
    }
    return doc, EXIT_CODES[report.outcome.value]


def cmd_specialize(args: argparse.Namespace) -> tuple[dict, int]:
    from .curves import specialize

    descriptor, envelope = _load(args.descriptor)
    module = descriptor.module
    if not 0 <= args.direction < module.dims:
        raise ValueError(
            f"direction {args.direction} out of range for a module with {module.dims} variables"
        )
    point = _point(args.point)
    curve = specialize(module, args.direction, point)
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
    doc = {
        "schema": SCHEMA,
        "command": "specialize",
        **envelope,
        "parameters": {
            "direction": args.direction,
            "point": [str(c) for c in point],
        },
        "module": curve_doc,
    }
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
    doc = {
        "schema": SCHEMA,
        "command": "cutcheck",
        **envelope,
        "parameters": {
            "depth": args.depth,
            "trials": args.trials,
            "seed": args.seed,
            "tol": str(tol),
            "window": str(window),
        },
        **report.to_json_dict(),
    }
    return doc, EXIT_CODES[report.verdict.verdict.value]


def cmd_techlemma(args: argparse.Namespace) -> tuple[dict, int]:
    from .newton import AlignedInterval, shrink_interval, unit_certificate_check

    check_count("samples", args.samples, 1)
    poly, label = load_poly_descriptor(args.poly)
    r_alpha = _parse_fraction_arg(args.alpha, "alpha exponent")
    r_beta = _parse_fraction_arg(args.beta, "beta exponent")
    interval = AlignedInterval.from_exponents(r_alpha, r_beta)
    certificate = shrink_interval(poly, interval)
    dominant = certificate.dominant
    check = unit_certificate_check(poly, certificate, args.samples)
    doc = {
        "schema": SCHEMA,
        "command": "techlemma",
        "label": label,
        "parameters": {
            "alpha_exponent": str(r_alpha),
            "beta_exponent": str(r_beta),
            "samples": args.samples,
        },
        "dominant": {"A": sorted(dominant.A), "B": sorted(dominant.B), "n0": dominant.n0},
        "certificate": certificate.to_json_dict(),
        "unit_check": check.to_json_dict(),
    }
    return doc, (EXIT_OK if check.ok else EXIT_NEGATIVE)


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
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nabla-radius", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", cmd_validate, "check descriptor schema and integrability")
    p.add_argument("descriptor")

    p = add("ir", cmd_ir, "windowed intrinsic-radius estimates")
    p.add_argument("descriptor")
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--window", default="1/4")
    p.add_argument("--radius", action="append", metavar="EXP",
                   help="radius exponent num/den; repeat per variable")

    p = add("oc", cmd_oc, "overconvergence verdict at the unit polyradius")
    p.add_argument("descriptor")
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--tol", default="1/20")
    p.add_argument("--window", default="1/4")

    p = add("taylor", cmd_taylor, "Taylor-term decay probe")
    p.add_argument("descriptor")
    p.add_argument("--eta", required=True, help="eta exponent num/den (0 < eta < 1)")
    p.add_argument("--lambda", dest="lam", default="0",
                   help="inner-radius exponent num/den (default 0, i.e. radius 1)")
    p.add_argument("--depth", type=int, default=24, help="multi-index bound J")

    p = add("specialize", cmd_specialize, "restrict to a coordinate curve")
    p.add_argument("descriptor")
    p.add_argument("--direction", type=int, required=True)
    p.add_argument("--point", required=True, help="comma-separated unit coordinates")

    p = add("cutcheck", cmd_cutcheck, "curve witness search")
    p.add_argument("descriptor")
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", default="1/20")
    p.add_argument("--window", default="1/4")

    p = add("techlemma", cmd_techlemma, "dominant-term certificate on an interval")
    p.add_argument("poly", help="one-variable polynomial descriptor path")
    p.add_argument("--alpha", required=True, help="inner endpoint exponent num/den")
    p.add_argument("--beta", required=True, help="outer endpoint exponent num/den")
    p.add_argument("--samples", type=int, default=20)

    p = add("corpus", cmd_corpus, "list or dump bundled example modules")
    p.add_argument("--dump", metavar="LABEL", help="print one descriptor document")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = args.handler(args)
    except NotIntegrableError as exc:
        print(f"nabla-radius: {exc}", file=sys.stderr)
        return EXIT_NOT_INTEGRABLE
    except (OSError, ValueError) as exc:
        print(f"nabla-radius: {exc}", file=sys.stderr)
        return EXIT_INVALID
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
