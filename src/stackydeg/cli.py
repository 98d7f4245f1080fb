"""Batch front-end: scenario ingestion, built-ins, reports and exports.

Exit codes: 0 on success, 1 for engine or validation failures, 2 for
input errors (reported with a JSON-pointer path to the offending field).
The polynomial degree cap for parsed inputs and built-in scenarios, which
also caps the exponent a of ``resolve``, defaults to 64 and can be
overridden through the STACKYDEG_MAX_DEG environment variable.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape

from .blowup import (
    AnSing,
    BlowupParams,
    mu_action_on_blowup,
    resolve_An,
    theta_smoothing_order,
    twisted_blowup,
)
from .dvrlinalg import Mat, SingularMatrixError, smith_normal_form
from .engine import (
    DegenerationInput,
    EngineError,
    DegenerationValidationError,
    degenerate,
    degeneration_input_from_json,
)
from .errors import SchemaError

BUILTIN_SCENARIOS = (
    "theta-example-1",
    "theta-example-2",
    "theta-example-3",
    "two-genus2-bridge",
)

DEFAULT_MAX_DEGREE = 64


class _Text(str):
    """JSON text that ``_dumps`` wrote, embedded re-indented to its depth."""


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` byte for byte, on
    dicts with str keys, lists, str, int, bool and None."""
    chunks: list = []
    _write(obj, "\n", chunks.append)
    return "".join(chunks) + "\n"


def _write(value, nl: str, out) -> None:
    if isinstance(value, str):
        # JSON text holds no raw newline, so each one in a _Text starts a line
        out(value.replace("\n", nl) if type(value) is _Text else _escape(value))
    elif isinstance(value, dict):
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            out(sep + _escape(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out(nl + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out(sep)
            _write(item, inner, out)
            sep = "," + inner
        out(nl + "]" if value else "[]")
    else:
        out("null" if value is None else "true" if value is True
            else "false" if value is False else int.__repr__(value))


def _degree_cap() -> int | None:
    raw = os.environ.get("STACKYDEG_MAX_DEG")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        cap = int(raw)
    except ValueError:
        raise SchemaError("/STACKYDEG_MAX_DEG", f"not an integer: {raw!r}")
    return cap if cap > 0 else None


# ---------------------------------------------------------------------------
# Built-in scenarios. Each expands to a full input document, so the
# standard parsing path (and its schema checks) runs on built-ins too.


def builtin_scenario(name: str, k: int = 2, d: int = 2, m: int = 1) -> dict:
    if k < 1 or d < 1 or m < 0:
        raise SchemaError("/scenario", f"invalid parameters k={k}, d={d}, m={m}")
    if name == "theta-example-1":
        # one smooth marked body, nothing persists: the identity run
        return {
            "components": [{"id": "C", "genus": 2}],
            "nodes": [],
            "markings": [{"id": "p1", "comp": "C", "gerbe": 1}],
            "multidegree": {"factors": 1, "deg": [{"C": "1"}]},
            "grading": {"d": [1]},
            "gluing": {},
        }
    if name == "theta-example-2":
        # one body with a persistent twisted self-node glued by t^m
        return {
            "components": [{"id": "C", "genus": 2}],
            "nodes": [
                {"id": "n1", "ends": ["C", "C"], "stab": k, "persistent": True},
            ],
            "markings": [],
            "multidegree": {"factors": 1, "deg": [{"C": str(Fraction(2, k))}]},
            "grading": {"d": [d]},
            "gluing": {"n1": _scalar_matrix(m)},
            "extra_mu": {"n1": k},
        }
    if name == "theta-example-3":
        # a destabilizing rational curve between two persistent twisted
        # nodes; the raw exponents (m+1, 1) exercise the normalization
        return {
            "components": [{"id": "C", "genus": 2}, {"id": "P", "genus": 0}],
            "nodes": [
                {"id": "n1", "ends": ["C", "P"], "stab": k, "persistent": True},
                {"id": "n2", "ends": ["C", "P"], "stab": theta_smoothing_order(k, d),
                 "persistent": True},
            ],
            "markings": [],
            "multidegree": {
                "factors": 1,
                "deg": [{
                    "C": str(Fraction(2, k) - Fraction(1, d * k)),
                    "P": str(Fraction(1, d * k)),
                }],
            },
            "grading": {"d": [d]},
            "gluing": {"n1": _scalar_matrix(m + 1), "n2": _scalar_matrix(1)},
            "extra_mu": {"n1": k},
        }
    if name == "two-genus2-bridge":
        # two genus-2 bodies joined twice; gluings 1 and t
        return {
            "components": [{"id": "C1", "genus": 2}, {"id": "C2", "genus": 2}],
            "nodes": [
                {"id": "n1", "ends": ["C1", "C2"], "stab": 1, "persistent": True},
                {"id": "n2", "ends": ["C1", "C2"], "stab": 1, "persistent": True},
            ],
            "markings": [],
            "multidegree": {"factors": 1, "deg": [{"C1": "0", "C2": "0"}]},
            "grading": {"d": [1]},
            "gluing": {"n1": _scalar_matrix(0), "n2": _scalar_matrix(1)},
        }
    raise SchemaError("/scenario", f"unknown built-in scenario {name!r}")


def _scalar_matrix(power: int) -> dict:
    entry = "1" if power == 0 else ("t" if power == 1 else f"t^{power}")
    return {"rows": 1, "cols": 1, "entries": [[entry]]}


# ---------------------------------------------------------------------------
# Running.


def run(inp: DegenerationInput, args) -> int:
    """Run the pipeline and write the artifacts named by ``args.out``,
    ``args.dot`` and ``args.log``; returns the exit code.

    A limit that fails validation still gets its report, with the step
    log, written to ``args.out``; every other failure propagates. The step
    log is serialized once, for ``args.log`` and inside the report.
    """
    try:
        output = degenerate(inp)
    except DegenerationValidationError as exc:
        _emit(args.out, "out", _dumps(exc.to_json_dict()))
        return 1
    doc = output.to_json_dict()
    log = _dumps(doc["log"])
    doc["log"] = _Text(log[:-1])
    _emit(args.out, "out", _dumps(doc))
    if args.dot:
        _emit(args.dot, "dot", output.limit_curve.to_dot(output.limit_multidegree))
    if args.log:
        _emit(args.log, "log", log)
    return 0


def _emit(path: str | None, flag: str, text: str) -> None:
    """Write an artifact to ``path`` (stdout if none), or fail at ``/<flag>``.

    Stdout is flushed here, so that a full device or a closed pipe fails
    here too. A stdout that failed is then dropped, as Python drops one
    closed at start: Python would flush it again at exit, fail, and exit 120.
    """
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:
            raise OSError(errno.EBADF, "stdout is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            sys.stdout = None
        raise SchemaError(f"/{flag}", f"cannot write {path or '<stdout>'}: {exc.strerror}")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError("/", f"cannot read {path}: {exc.strerror}")
    except (RecursionError, ValueError) as exc:
        # ValueError covers JSONDecodeError, bad UTF-8 and over-long integers
        raise SchemaError("/", f"malformed JSON: {exc}")


def _cmd_degen(args) -> int:
    obj = _load_json(args.input)
    inp = degeneration_input_from_json(obj, max_degree=_degree_cap())
    return run(inp, args)


def _cmd_scenario(args) -> int:
    doc = builtin_scenario(args.name, k=args.k, d=args.d, m=args.m)
    inp = degeneration_input_from_json(doc, max_degree=_degree_cap())
    return run(inp, args)


def _cmd_snf(args) -> int:
    obj = _load_json(args.matrix)
    mat = Mat.from_json_dict(obj, "", max_degree=_degree_cap())
    if mat.cols != mat.rows:
        raise SchemaError("/cols", f"expected a square matrix ({mat.rows} columns)")
    result = smith_normal_form(mat)
    _emit(None, "out", _dumps(result.to_json_dict()))
    return 0


def _cmd_blowup(args) -> int:
    try:
        params = BlowupParams(args.m, args.d)
        report = {"blowup": twisted_blowup(params).to_json_dict()}
        if args.mu is not None:
            report["mu_action"] = mu_action_on_blowup(args.mu, params).to_json_dict()
    except ValueError as exc:
        raise SchemaError("/blowup", str(exc))
    _emit(None, "out", _dumps(report))
    return 0


def _cmd_resolve(args) -> int:
    # a is the exponent of z^a, and the work and output grow with it
    cap = _degree_cap()
    if cap is not None and args.a > cap:
        raise SchemaError("/resolve", f"a={args.a} exceeds the cap of {cap}")
    try:
        sing = AnSing(args.a, args.mu)
    except ValueError as exc:
        raise SchemaError("/resolve", str(exc))
    steps = resolve_An(sing)
    _emit(None, "out", _dumps({
        "a": sing.a,
        "mu": sing.mu_order,
        "steps": [{"a_before": before.a, "a_after": after.a,
                   "exceptional_curves": count} for before, after, count in steps],
        "iterations": len(steps),
        "total_exceptional": sum(count for _, _, count in steps),
    }))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing keeps no state."""
    parser = argparse.ArgumentParser(
        prog="stackydeg",
        description="exact limits of twisted curves with torus gluing data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degen", help="run the pipeline on an input document")
    p.add_argument("input")
    for flag in ("--out", "--dot", "--log"):
        p.add_argument(flag)
    p.set_defaults(func=_cmd_degen)

    p = sub.add_parser("scenario", help="run a built-in scenario")
    p.add_argument("name", choices=BUILTIN_SCENARIOS)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=1)
    for flag in ("--out", "--dot", "--log"):
        p.add_argument(flag)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("snf", help="diagonalize a matrix over the local ring")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("blowup", help="numerical data of an (m, d) blow-up")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu", type=int, default=None)
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("resolve", help="resolve the germ xy = z^a by blow-ups")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--mu", type=int, default=1)
    p.set_defaults(func=_cmd_resolve)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # SchemaError, ParseError, DegreeCapExceeded, ...
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
