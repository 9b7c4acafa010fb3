"""Command line interface.

Subcommands: inspect, embed, spectrum, apply, project, verify, generate.
Exit code 0 means success (for verify: every property passed); validation and
computation failures exit 2 with the error message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import orjson

from .calculus import CalculusContext, function_from_dict, region_from_dict
from .errors import DomainMismatchError, KreinCalcError
from .instances import PROFILES, generate, load_json, matrix_to_json, parse_instance
from .suite import run_suite


def _load_json_arg(value: str, what: str) -> dict:
    """Inline JSON or a JSON file; unreadable input raises DomainMismatchError."""
    try:
        return load_json(value)
    except (OSError, ValueError) as exc:
        raise DomainMismatchError(f"cannot read a {what} from {value[:80]!r}: {exc}") from exc


_JSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def _emit(payload, args, text_renderer=None):
    """Write ``payload`` as JSON with sorted keys and a two-space indent, or
    as ``text_renderer()`` under --format text. A non-finite float is
    written as ``null``; an --output that cannot be written raises
    :class:`KreinCalcError`."""
    if args.format == "json" or text_renderer is None:
        text = orjson.dumps(payload, option=_JSON_OPTIONS).decode()
    else:
        text = text_renderer()
    if args.output:
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as exc:
            raise KreinCalcError(f"cannot write {args.output}: {exc}") from exc
    else:
        print(text)


def _complex_list(values):
    return [[z.real, z.imag] for z in values]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreincalc",
        description="Functional calculus for definitizable normal operators "
        "on finite-dimensional indefinite inner product spaces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="instance file (JSON)")
    common.add_argument("--output", help="write the result here instead of stdout")
    common.add_argument(
        "--tol-scale", type=float, default=1.0, dest="tol_scale",
        help="multiply every tolerance threshold by this factor",
    )
    common.add_argument("--format", choices=("json", "text"), default="text")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("inspect", parents=[common], help="validate and summarize an instance")
    sub.add_parser("embed", parents=[common], help="emit the embedding matrices")
    sub.add_parser("spectrum", parents=[common], help="spectra and critical set")
    app = sub.add_parser("apply", parents=[common], help="apply a function file to the operator")
    app.add_argument("--function", help="function file or inline JSON")
    proj = sub.add_parser("project", parents=[common], help="spectral projection for a region")
    proj.add_argument("--region", help="region file or inline JSON")
    sub.add_parser("verify", parents=[common], help="run the full property suite")
    gen = sub.add_parser("generate", parents=[common], help="write a random instance")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=4)
    gen.add_argument("--profile", choices=PROFILES, default="diagonal")
    return parser


# parse_args fills a new namespace on every call, so one parser serves them all
_parser = functools.cache(build_parser)


def _require_input(args):
    if not args.input:
        raise KreinCalcError("this command needs --input pointing at an instance file")
    return parse_instance(args.input, tol_scale=args.tol_scale)


def _inspect(args):
    inst = _require_input(args)
    pos, neg = inst.space.signature()
    payload = {
        "label": inst.label,
        "digest": inst.digest(),
        "dimension": inst.space.n,
        "signature": [pos, neg],
        "p": inst.pair.p.to_list(),
        "q": inst.pair.q.to_list(),
        "searched": list(inst.searched),
        "normality_defect": inst.pair.defect,
    }
    _emit(payload, args, lambda: "\n".join(f"{k}: {v}" for k, v in payload.items()))


def _embed(args):
    inst = _require_input(args)
    ctx = CalculusContext.build(inst.pair)
    b = ctx.bundle
    payload = {
        "F": matrix_to_json(b.coords[0].F),
        "F1": matrix_to_json(b.coords[1].F),
        "F2": matrix_to_json(b.coords[2].F),
        "R1": matrix_to_json(b.coords[1].R),
        "R2": matrix_to_json(b.coords[2].R),
        "T": matrix_to_json(b.coords[0].T),
        "dim_v": b.dim_v,
    }
    _emit(payload, args)


def _spectrum(args):
    inst = _require_input(args)
    ctx = CalculusContext.build(inst.pair)
    cs = ctx.cs
    payload = {
        "transferred_spectrum": _complex_list(ctx.spectral.eigenvalues),
        "cluster_warnings": list(ctx.spectral.warnings),
        "spectrum": _complex_list(ctx.spectrum()),
        "noncritical": _complex_list(cs.noncritical),
        "critical": [
            {
                "value": [c.value.real, c.value.imag],
                "shape": [c.shape.m, c.shape.n],
                "spectral": c.spectral,
                "in_spectrum": c.in_sigma_n,
            }
            for c in cs.crit
        ],
        "pairs": [
            {
                "zw": [[p.zw[0].real, p.zw[0].imag], [p.zw[1].real, p.zw[1].imag]],
                "shape": [p.shape.m, p.shape.n],
                "in_support": p.in_support,
            }
            for p in cs.zi
        ],
    }
    _emit(payload, args)


def _apply(args):
    inst = _require_input(args)
    if not args.function:
        raise KreinCalcError("apply needs --function")
    ctx = CalculusContext.build(inst.pair)
    fn = function_from_dict(ctx, _load_json_arg(args.function, "function"))
    result = ctx.apply(fn)
    _emit({"result": matrix_to_json(result)}, args)


def _project(args):
    inst = _require_input(args)
    if not args.region:
        raise KreinCalcError("project needs --region")
    ctx = CalculusContext.build(inst.pair)
    region = region_from_dict(_load_json_arg(args.region, "region"))
    result = ctx.spectral_projection(region)
    _emit({"result": matrix_to_json(result)}, args)


def _verify(args):
    inst = _require_input(args)
    report = run_suite(inst)
    _emit(report.to_json(), args, report.to_text)
    return 0 if report.passed else 1


def _generate(args):
    _emit(generate(args.seed, args.n, args.profile).to_json(), args)


COMMANDS = {
    "inspect": _inspect,
    "embed": _embed,
    "spectrum": _spectrum,
    "apply": _apply,
    "project": _project,
    "verify": _verify,
    "generate": _generate,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rc = COMMANDS[args.command](args)
    except KreinCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
