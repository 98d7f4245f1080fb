"""Reachability gate: a small product corpus, run through ``cli.main``
under ``sys.setprofile``, enters every function and method defined in
``src/``, or the function is named in ``ALLOWLIST`` with the reason no
product path reaches it.

Functions are matched by code object, not by ``co_qualname`` (which
Python 3.10 lacks). Comprehensions are not collected (3.12 inlines
them), nor are closures. The records are named tuples; the methods
that ``namedtuple`` generates live in ``collections``, not in ``src/``,
and are skipped.
"""

import importlib
import inspect
import json
import pkgutil
import random
import sys

import stackydeg
from stackydeg import cli
from stackydeg.cli import builtin_scenario
from support import (
    random_big_graph_input,
    random_engine_input,
    random_gluing,
    random_regular_matrix,
    random_tree_input,
)

MODULES = [stackydeg] + [importlib.import_module(f"stackydeg.{m.name}")
                         for m in pkgutil.iter_modules(stackydeg.__path__)]

_REPR = "pytest prints it when a test comparison fails"

ALLOWLIST = {
    "engine.contract_torsion_components": "perfbench/checks.py re-contracts each limit",
    "dvrlinalg.Mat.det": "the tracer patches them; ROADMAP item 1",
    "dvrlinalg.Mat.inverse": "the tracer patches them; ROADMAP item 1",
    "field._prs_gcd": "fallback for when GCDHEU gives up, which no known input does",
    "field.RatFunc.__bool__": "without it the zero function would be truthy",
    "field.RatFunc.__truediv__": "division for library callers; test_field divides",
    "field.RatFunc.__str__": "str() for library callers; commands call format_ratfunc",
    "field.RatFunc.__eq__": "test_field compares functions",
    "field.RatFunc.__hash__": "test_field checks that equal functions hash equal",
    "field.RatFunc.__repr__": _REPR,
    "dvrlinalg.Mat.__eq__": "test_dvrlinalg compares transforms and parsed matrices",
    "dvrlinalg.Mat.__repr__": _REPR,
    "curve.TwistedCurve.__eq__": "perfbench/checks.py compares the re-contracted limit",
    "curve.TwistedCurve.__repr__": _REPR,
    "curve.MultiDegree.__eq__": "test_engine compares contracted degrees",
    "curve.MultiDegree.__repr__": _REPR,
}


def _functions(member):
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f]
    return [member] if inspect.isfunction(member) else []


def defined_functions() -> dict:
    """``module.qualname`` -> code object of every module-level function
    and class member whose code lives in that module's file."""
    out = {}
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        members = []
        for name, obj in vars(mod).items():
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", m) for attr, m in vars(obj).items()]
            else:
                members.append((name, obj))
        for name, member in members:
            for fn in _functions(member):
                if fn.__code__.co_filename == mod.__file__:
                    out[f"{short}.{name}"] = fn.__code__
    return out


def corpus(tmp_path) -> list:
    """(argv, exit code, start of stderr) for every product run in the
    gate; the documents are generated here, before any profiling."""
    runs = [(["scenario", name, "--out", str(tmp_path / "out.json"),
              "--dot", str(tmp_path / "out.dot"), "--log", str(tmp_path / "log.json")],
             0, "") for name in cli.BUILTIN_SCENARIOS]
    runs += [(["blowup", "--m", "2", "--d", "3", "--mu", "2"], 0, ""),
             (["resolve", "--a", "6"], 0, "")]
    docs = [(f"engine{seed}", random_engine_input(random.Random(seed)), 0, "")
            for seed in range(3)]
    docs += [(f"big{seed}", random_big_graph_input(random.Random(seed)), 0, "")
             for seed in range(2)]
    docs += [(f"tree{seed}", random_tree_input(random.Random(seed), 20), 0, "")
             for seed in range(2)]
    docs += _failure_docs()
    for name, doc, code, err in docs:
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(doc))
        runs.append((["degen", str(src), "--out", str(tmp_path / "out.json")], code, err))
    matrices = [random_regular_matrix(random.Random(seed), 3) for seed in range(2)]
    matrices += [random_gluing(random.Random(seed), 3) for seed in range(2)]
    for ix, mat in enumerate(matrices):
        src = tmp_path / f"m{ix}.json"
        src.write_text(json.dumps(mat.to_json_dict()))
        runs.append((["snf", str(src)], 0, ""))
    return runs


def _failure_docs() -> list:
    """One input per failure class: (name, document, exit code, stderr)."""
    pointer = builtin_scenario("theta-example-3")
    pointer["nodes"][0]["ends"] = ["C", "Q"]
    uncleared = builtin_scenario("theta-example-2")
    uncleared["multidegree"]["deg"][0]["C"] = "1/3"
    singular = builtin_scenario("two-genus2-bridge")
    singular["gluing"]["n2"]["entries"] = [["0"]]
    # P turns torsion after the insertion at n1, between orders 4 and 8
    unequal = builtin_scenario("theta-example-3")
    unequal["nodes"][1]["stab"] = 8
    invalid_limit = {  # the marked P loses its degree and stays
        "components": [{"id": "C", "genus": 2}, {"id": "P", "genus": 0}],
        "nodes": [{"id": "n", "ends": ["C", "P"], "stab": 1, "persistent": True}],
        "markings": [{"id": "p", "comp": "P", "gerbe": 1}],
        "multidegree": {"factors": 1, "deg": [{"C": "1", "P": "1"}]},
        "grading": {"d": [1]},
        "gluing": {"n": {"rows": 1, "cols": 1, "entries": [["t"]]}},
    }
    return [
        ("pointer", pointer, 2, "input error: /nodes/0/ends: "),
        ("uncleared", uncleared, 1, "error: input is not a twisted map: "),
        ("singular", singular, 1, "error: gluing at node 'n2' is singular"),
        ("unequal", unequal, 1, "error: torsion component 'P' has nodes "),
        ("invalid-limit", invalid_limit, 1, ""),  # the report goes to --out
    ]


def test_every_src_function_is_reached_or_allowlisted(tmp_path, capsys):
    functions = defined_functions()
    runs = corpus(tmp_path)
    entered, results = set(), []

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _, _ in runs:
            code = cli.main(argv)
            results.append((code, capsys.readouterr().err))
    finally:
        sys.setprofile(previous)
    for (argv, code, err), (got_code, got_err) in zip(runs, results):
        assert got_code == code and got_err.startswith(err), (argv, got_err)
        assert bool(got_err) == bool(err), (argv, got_err)
    unreached = {name for name, co in functions.items() if co not in entered}
    assert sorted(unreached - set(ALLOWLIST)) == []
    # an entry that a product path now reaches, or that names nothing,
    # leaves the list
    assert sorted(set(ALLOWLIST) - unreached) == []
