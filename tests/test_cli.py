import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stackydeg
from stackydeg import (
    BlowupParams,
    DegenerationInput,
    DegenerationValidationError,
    Mat,
    SchemaError,
    degenerate,
    degeneration_input_from_json,
    engine,
    mu_action_on_blowup,
    smith_normal_form,
    twisted_blowup,
    validate_twisted_map,
)
from stackydeg.cli import BUILTIN_SCENARIOS, _dumps, builtin_scenario, main
from stackydeg.curve import GradingSpec, MultiDegree, TwistedCurve
from support import (
    random_big_graph_input,
    random_engine_input,
    random_gluing,
    random_regular_matrix,
    random_tree_input,
    snf_probe_matrix,
)

SNF_PROBE = Path(__file__).parent / "data" / "snf_4x4.json"


def run_cli(*argv):
    return main(list(argv))


def test_scenario_writes_report(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = run_cli("scenario", "theta-example-2", "--k", "2", "--d", "2",
                   "--m", "1", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    inserted = [r for r in doc["log"] if r["type"] == "insert"]
    assert inserted[0]["inserted"][0]["degree"] == "1/4"
    stabs = sorted(n["stab"] for n in doc["limit_curve"]["nodes"])
    assert stabs == [2, 4]


def test_scenario_stdout_by_default(capsys):
    assert run_cli("scenario", "two-genus2-bridge") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["validation"]["violations"] == []
    assert "torsion_criterion" in doc["validation"]


def test_output_reparses_as_valid_curve(tmp_path):
    out = tmp_path / "out.json"
    assert run_cli("scenario", "theta-example-3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    curve = TwistedCurve.from_json_dict(doc["limit_curve"])
    md = MultiDegree.from_json_dict(doc["limit_multidegree"])
    assert validate_twisted_map(curve, md) == []


def test_degen_file_roundtrip(tmp_path):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(builtin_scenario("two-genus2-bridge")))
    out = tmp_path / "out.json"
    dot = tmp_path / "graph.dot"
    log = tmp_path / "steps.json"
    code = run_cli("degen", str(src), "--out", str(out), "--dot", str(dot),
                   "--log", str(log))
    assert code == 0
    assert "graph curve {" in dot.read_text()
    assert isinstance(json.loads(log.read_text()), list)


def test_malformed_json_exit_2(tmp_path, capsys):
    src = tmp_path / "broken.json"
    src.write_text("{not json")
    assert run_cli("degen", str(src)) == 2
    assert "input error" in capsys.readouterr().err


def test_schema_pointer_reported(tmp_path, capsys):
    doc = builtin_scenario("two-genus2-bridge")
    doc["nodes"][0]["stab"] = 0
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    assert run_cli("degen", str(src)) == 2
    assert "/nodes/0/stab" in capsys.readouterr().err


def _degen_error(tmp_path, capsys, doc):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    code = run_cli("degen", str(src))
    return code, capsys.readouterr().err


def test_bool_genus_rejected_with_pointer(tmp_path, capsys):
    doc = builtin_scenario("two-genus2-bridge")
    doc["components"][0]["genus"] = True
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert "/components/0/genus" in err


def test_float_degree_rejected_with_pointer(tmp_path, capsys):
    doc = builtin_scenario("theta-example-1")
    doc["multidegree"]["deg"] = [{"C": 0.1}]
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert "/multidegree/deg/0/C" in err


@pytest.mark.parametrize("value", ["1e5000", "1.5", " 1/2 ", "1_000", "\u0663"],
                         ids=["exponent", "decimal", "padded", "underscore", "arabic-digit"])
def test_degree_string_outside_grammar_rejected_with_pointer(tmp_path, capsys, value):
    # Fraction reads all of these; only [+-]?[0-9]+(/[0-9]+)? is a degree
    doc = builtin_scenario("theta-example-1")
    doc["multidegree"]["deg"] = [{"C": value}]
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert err == ("input error: /multidegree/deg/0/C: "
                   "expected an exact rational like '1/4'\n")


def test_empty_weight_row_rejected_with_pointer(tmp_path, capsys):
    doc = builtin_scenario("theta-example-1")
    doc["grading"] = {"weights": [[]]}
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert "/grading/weights/0" in err


def _set_in(path, value):
    """An edit that sets the field at ``path`` of a document to ``value``."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("scenario, path, pointer", [
    ("theta-example-2", ("nodes", 0, "stab"), "/nodes/0/stab"),
    ("theta-example-1", ("markings", 0, "gerbe"), "/markings/0/gerbe"),
    ("theta-example-1", ("multidegree", "factors"), "/multidegree/factors"),
    ("theta-example-1", ("multidegree", "deg", 0, "C"), "/multidegree/deg/0/C"),
    ("theta-example-2", ("gluing", "n1", "rows"), "/gluing/n1/rows"),
    ("theta-example-2", ("gluing", "n1", "cols"), "/gluing/n1/cols"),
    ("theta-example-2", ("grading", "d", 0), "/grading/d"),
    ("theta-example-2", ("extra_mu", "n1"), "/extra_mu/n1"),
])
def test_bool_for_int_rejected_with_pointer(tmp_path, capsys, scenario, path, pointer):
    doc = builtin_scenario(scenario)
    _set_in(path, True)(doc)
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert pointer in err


def test_bool_weight_rejected_with_pointer(tmp_path, capsys):
    doc = builtin_scenario("theta-example-2")
    doc["grading"] = {"weights": [[True, -2]]}
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert "/grading/weights/0" in err


@pytest.mark.parametrize("key", ["nodes", "markings"])
@pytest.mark.parametrize("value", [5, True, "ab", {"x": 1}, False, 0, ""],
                         ids=["int", "true", "str", "object", "false", "zero", "empty-str"])
def test_non_list_nodes_or_markings_rejected_with_pointer(tmp_path, capsys, key, value):
    doc = builtin_scenario("theta-example-3")
    doc[key] = value
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert err.startswith(f"input error: /{key}: expected a list")


@pytest.mark.parametrize("key", ["nodes", "markings"])
def test_missing_or_null_list_reads_as_empty(key):
    doc = {"components": [{"id": "A", "genus": 2}]}
    empty = TwistedCurve.from_json_dict({**doc, key: []})
    assert TwistedCurve.from_json_dict(doc) == empty
    assert TwistedCurve.from_json_dict({**doc, key: None}) == empty


@pytest.mark.parametrize("field", ["a", "mu"])
def test_bool_sing_rejected_with_pointer(tmp_path, capsys, field):
    doc = builtin_scenario("two-genus2-bridge")
    doc["nodes"][0]["sing"] = {"a": 1, "mu": 1}
    doc["nodes"][0]["sing"][field] = True
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert "/nodes/0/sing" in err


def test_degree_cap_env(tmp_path, capsys, monkeypatch):
    doc = builtin_scenario("two-genus2-bridge")
    doc["gluing"]["n2"] = {"rows": 1, "cols": 1, "entries": [["t^70"]]}
    src = tmp_path / "deep.json"
    src.write_text(json.dumps(doc))
    assert run_cli("degen", str(src)) == 2  # default cap is 64
    monkeypatch.setenv("STACKYDEG_MAX_DEG", "128")
    assert run_cli("degen", str(src), "--out", str(tmp_path / "o.json")) == 0


def test_found_integer_size_document_exit_2_with_pointer(tmp_path, capsys):
    # the smoothing order (mu / gcd(mu, d - 1)) * d would have about 8,000
    # digits, past what Python converts to a string
    doc = builtin_scenario("theta-example-2")
    doc["grading"]["d"] = [10**4000 + 1]
    doc["extra_mu"]["n1"] = 10**4000 + 3
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert err == "input error: /grading/d: exceeds the order cap of 64 bits\n"


@pytest.mark.parametrize("scenario, path, pointer", [
    ("theta-example-2", ("nodes", 0, "stab"), "/nodes/0/stab"),
    ("theta-example-1", ("markings", 0, "gerbe"), "/markings/0/gerbe"),
    ("theta-example-2", ("extra_mu", "n1"), "/extra_mu/n1"),
    ("theta-example-2", ("grading", "d", 0), "/grading/d"),
    ("theta-example-2", ("grading",), "/grading/weights/0"),
    ("two-genus2-bridge", ("nodes", 0, "sing"), "/nodes/0/sing"),
], ids=["stab", "gerbe", "extra_mu", "d", "weight", "sing"])
def test_order_past_cap_exit_2_with_pointer(tmp_path, capsys, scenario, path, pointer):
    big = 10**2999  # 3,000 digits
    value = {"grading": {"weights": [[1, -big]]},
             "sing": {"a": 1, "mu": big}}.get(path[-1], big)
    doc = builtin_scenario(scenario)
    _set_in(path, value)(doc)
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert err == f"input error: {pointer}: exceeds the order cap of 64 bits\n"


def test_order_cap_is_64_bits():
    doc = {"components": [{"id": "A", "genus": 2}],
           "nodes": [{"id": "n", "ends": ["A", "A"], "stab": 2**64 - 1}]}
    assert TwistedCurve.from_json_dict(doc).node("n").stab_order == 2**64 - 1
    doc["nodes"][0]["stab"] = 2**64
    with pytest.raises(SchemaError, match="/nodes/0/stab"):
        TwistedCurve.from_json_dict(doc)


def test_degree_denominator_past_digit_limit_exit_1(tmp_path, capsys):
    # 250 self-nodes of orders 2^64 - i: the lcm of the orders on C has
    # more digits than Python prints
    doc = {"components": [{"id": "C", "genus": 2}],
           "nodes": [{"id": f"n{i}", "ends": ["C", "C"], "stab": 2**64 - i}
                     for i in range(1, 251)],
           "multidegree": {"factors": 1, "deg": [{"C": f"1/{2**89 - 1}"}]},
           "grading": {"d": [1]}}
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 1
    assert err == (f"error: input is not a twisted map: factor 0: degree 1/{2**89 - 1} "
                   "does not clear the local order bound of 14572 bits\n")


def test_limit_degree_past_digit_limit_exit_1(tmp_path):
    # 250 insertions with extra_mu = 2^64 - 1 - i leave C a degree whose
    # denominator has more digits than Python prints, and order bound 1
    n = 250
    doc = {"components": [{"id": "C", "genus": 2}],
           "nodes": [{"id": f"n{i}", "ends": ["C", "C"], "stab": 1, "persistent": True}
                     for i in range(n)],
           "multidegree": {"factors": 1, "deg": [{"C": "2"}]},
           "grading": {"d": [1]},
           "gluing": {f"n{i}": {"rows": 1, "cols": 1, "entries": [["t"]]} for i in range(n)},
           "extra_mu": {f"n{i}": 2**64 - 1 - i for i in range(n)}}
    src, out = tmp_path / "doc.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    assert run_cli("degen", str(src), "--out", str(out)) == 1
    report = json.loads(out.read_text())
    assert report["validation"]["violations"][0] == {
        "kind": "degree-denominator", "subject": "C",
        "detail": "factor 0: degree of 14567 bits does not clear the local order bound 1"}
    assert len(report["validation"]["violations"]) == n + 1


def test_snf_coefficient_past_digit_limit_exit_2_with_pointer(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"rows": 2, "cols": 2,
                               "entries": [["1", "0"], ["0", "1" * 5000 + "t"]]}))
    assert run_cli("snf", str(src)) == 2
    assert capsys.readouterr().err.startswith("input error: /entries/1/1: ")


def test_snf_zero_coefficient_denominator_exit_2_with_pointer(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [["1/0t"]]}))
    assert run_cli("snf", str(src)) == 2
    assert capsys.readouterr().err == (
        "input error: /entries/0/0: zero coefficient denominator in '1/0t'\n")


def test_snf_probe_is_the_seeded_matrix():
    assert json.loads(SNF_PROBE.read_text()) == snf_probe_matrix().to_json_dict()


def test_snf_probe_output_is_unchanged(capsys):
    # the digest of the Euclid-over-Q reduction's output on the probe
    assert run_cli("snf", str(SNF_PROBE)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "fc7ae9118e18a58bc3d77f818837840ce4c549804e8fb747290c1d0cf512b802")


def test_snf_identity(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"rows": 2, "cols": 2,
                               "entries": [["1", "0"], ["0", "1"]]}))
    assert run_cli("snf", str(src)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diag_valuations"] == [0, 0]


def test_snf_diagonal(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"rows": 2, "cols": 2,
                               "entries": [["t^2", "0"], ["0", "t^5"]]}))
    assert run_cli("snf", str(src)) == 0
    assert json.loads(capsys.readouterr().out)["diag_valuations"] == [2, 5]


def test_snf_elimination(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"rows": 2, "cols": 2,
                               "entries": [["t", "t"], ["t", "t^3"]]}))
    assert run_cli("snf", str(src)) == 0
    assert json.loads(capsys.readouterr().out)["diag_valuations"] == [1, 1]


def test_snf_singular_exit_1(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [["0"]]}))
    assert run_cli("snf", str(src)) == 1


def test_snf_non_square_exit_2_with_pointer(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [["1", "t"]]}))
    assert run_cli("snf", str(src)) == 2
    assert capsys.readouterr().err.startswith("input error: /cols: ")


def test_blowup_command(capsys):
    assert run_cli("blowup", "--m", "2", "--d", "3", "--mu", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["blowup"]["exceptional_self_intersection"] == "-1/6"
    assert doc["blowup"]["ideal_degree_on_exceptional"] == "1/3"
    assert doc["mu_action"]["stabilizer_order_bound"] == 6


def test_blowup_invalid_params_exit_2(capsys):
    assert run_cli("blowup", "--m", "0", "--d", "1") == 2


def test_resolve_command(capsys):
    assert run_cli("resolve", "--a", "6") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["iterations"] == 3
    assert doc["total_exceptional"] == 5
    assert [s["a_after"] for s in doc["steps"]] == [4, 2, 1]


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        run_cli("scenario", "no-such-scenario")


# -- cross-reference faults: one per document, exact pointer --------------------

SQUARE_2 = {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}

# (id, edit of a theta-example-3 document, pointer, expressible in the library)
CROSS_REFERENCE_FAULTS = [
    ("grading-factors", _set_in(("grading", "d"), [2, 2]), "/grading/d", True),
    ("degree-unknown-comp", _set_in(("multidegree", "deg", 0, "Z"), "1"),
     "/multidegree/deg/0/Z", True),
    # MultiDegree drops a zero entry, so only the reader sees this one
    ("zero-degree-unknown-comp", _set_in(("multidegree", "deg", 0, "Z"), "0"),
     "/multidegree/deg/0/Z", False),
    ("gluing-unknown-node", _set_in(("gluing", "nX"), {"rows": 1, "cols": 1,
                                                       "entries": [["t"]]}),
     "/gluing/nX", True),
    ("gluing-non-persistent", _set_in(("nodes", 1, "persistent"), False),
     "/gluing/n2", True),
    ("gluing-wrong-shape", _set_in(("gluing", "n2"), SQUARE_2), "/gluing/n2", True),
    ("gluing-not-square", _set_in(("gluing", "n2"), {"rows": 1, "cols": 2,
                                                     "entries": [["1", "t"]]}),
     "/gluing/n2", True),
    ("gluing-missing", lambda doc: doc["gluing"].pop("n1"), "/gluing", True),
    ("gluing-not-object", _set_in(("gluing",), []), "/gluing", False),
    ("extra-mu-unknown-node", _set_in(("extra_mu", "nX"), 2), "/extra_mu/nX", True),
    ("extra-mu-zero", _set_in(("extra_mu", "n1"), 0), "/extra_mu/n1", True),
    ("extra-mu-negative", _set_in(("extra_mu", "n1"), -3), "/extra_mu/n1", True),
    ("extra-mu-string", _set_in(("extra_mu", "n1"), "2"), "/extra_mu/n1", True),
    ("extra-mu-float", _set_in(("extra_mu", "n1"), 2.0), "/extra_mu/n1", True),
    ("extra-mu-bool", _set_in(("extra_mu", "n1"), True), "/extra_mu/n1", True),
    ("extra-mu-not-object", _set_in(("extra_mu",), [2]), "/extra_mu", False),
]


# (id, edit of a theta-example-3 document, pointer): faults the TwistedCurve
# constructor finds, located by the pointer it attaches
CURVE_STRUCTURE_FAULTS = [
    ("duplicate-component", lambda doc: doc["components"].append({"id": "C", "genus": 1}),
     "/components/2/id"),
    ("duplicate-node", _set_in(("nodes", 1, "id"), "n1"), "/nodes/1/id"),
    ("node-end-unknown", _set_in(("nodes", 1, "ends"), ["C", "X"]), "/nodes/1/ends"),
    ("duplicate-marking", _set_in(("markings",), [{"id": "p", "comp": "C"},
                                                 {"id": "p", "comp": "P"}]),
     "/markings/1/id"),
    ("marking-comp-unknown", _set_in(("markings",), [{"id": "p", "comp": "X"}]),
     "/markings/0/comp"),
    ("no-components", _set_in(("components",), []), "/components"),
]


@pytest.mark.parametrize("edit, pointer", [row[1:] for row in CURVE_STRUCTURE_FAULTS],
                         ids=[row[0] for row in CURVE_STRUCTURE_FAULTS])
def test_curve_structure_fault_exit_2_with_pointer(tmp_path, capsys, edit, pointer):
    code, err = _degen_error(tmp_path, capsys, _faulty_doc(edit))
    assert code == 2
    assert err.startswith(f"input error: {pointer}: ")


def _faulty_doc(edit):
    doc = builtin_scenario("theta-example-3")
    edit(doc)
    return doc


def _parts(doc) -> DegenerationInput:
    """The input a library caller would build: the parts, unchecked."""
    return DegenerationInput(
        TwistedCurve.from_json_dict(doc),
        MultiDegree.from_json_dict(doc["multidegree"]),
        GradingSpec.from_json_dict(doc["grading"]),
        {nid: Mat.from_json_dict(g) for nid, g in doc["gluing"].items()},
        dict(doc["extra_mu"]),
    )


@pytest.mark.parametrize("edit, pointer", [row[1:3] for row in CROSS_REFERENCE_FAULTS],
                         ids=[row[0] for row in CROSS_REFERENCE_FAULTS])
def test_cross_reference_fault_exit_2_with_pointer(tmp_path, capsys, edit, pointer):
    code, err = _degen_error(tmp_path, capsys, _faulty_doc(edit))
    assert code == 2
    assert err.startswith(f"input error: {pointer}: ")


@pytest.mark.parametrize("edit, pointer",
                         [row[1:3] for row in CROSS_REFERENCE_FAULTS if row[3]],
                         ids=[row[0] for row in CROSS_REFERENCE_FAULTS if row[3]])
def test_cross_reference_fault_validate_pointer(edit, pointer):
    inp = _parts(_faulty_doc(edit))
    with pytest.raises(SchemaError) as exc:
        inp.validate()
    assert exc.value.pointer == pointer
    with pytest.raises(SchemaError) as exc:
        degenerate(inp)
    assert exc.value.pointer == pointer


def test_cross_reference_base_document_is_clean():
    doc = builtin_scenario("theta-example-3")
    _parts(doc).validate()
    assert run_cli("scenario", "theta-example-3", "--out", os.devnull) == 0


RESOLVE_6_MU_2 = """\
{
  "a": 6,
  "iterations": 3,
  "mu": 2,
  "steps": [
    {
      "a_after": 4,
      "a_before": 6,
      "exceptional_curves": 2
    },
    {
      "a_after": 2,
      "a_before": 4,
      "exceptional_curves": 2
    },
    {
      "a_after": 1,
      "a_before": 2,
      "exceptional_curves": 1
    }
  ],
  "total_exceptional": 5
}
"""


def test_resolve_stdout_golden(capsys):
    assert run_cli("resolve", "--a", "6", "--mu", "2") == 0
    assert capsys.readouterr().out == RESOLVE_6_MU_2


# -- a limit that fails validation: the exit-1 report ---------------------------

# a marked rational tail P whose degree the insertion at n moves onto the
# exceptional curve: P is left destabilizing and torsion, and it carries a
# marking, so contraction leaves it alone
VALIDATION_FAILURE_DOC = {
    "components": [{"id": "C", "genus": 2}, {"id": "P", "genus": 0}],
    "nodes": [{"id": "n", "ends": ["C", "P"], "stab": 1, "persistent": True}],
    "markings": [{"id": "p", "comp": "P", "gerbe": 1}],
    "multidegree": {"factors": 1, "deg": [{"C": "1", "P": "1"}]},
    "grading": {"d": [1]},
    "gluing": {"n": {"rows": 1, "cols": 1, "entries": [["t"]]}},
}

VALIDATION_FAILURE_REPORT = """\
{
  "error": "limit fails validation: destabilizing component with zero degree in every factor",
  "log": [
    {
      "d": [
        1
      ],
      "d_source": [
        "given"
      ],
      "diag_valuations": [
        1
      ],
      "node": "n",
      "oriented": "kept",
      "shift": 0,
      "totals": [
        "2"
      ],
      "type": "snf"
    },
    {
      "inserted": [
        {
          "component": "n:E1",
          "d": 1,
          "degree": "1",
          "factor": 1,
          "lost_by": "P",
          "m": 1,
          "mu": null,
          "smoothing_node": {
            "id": "n:q1",
            "sing": {
              "a": 1,
              "mu": 1
            },
            "stab": 1
          }
        }
      ],
      "node": "n",
      "persistent_node": {
        "id": "n:S",
        "stab": 1
      },
      "totals": [
        "2"
      ],
      "type": "insert"
    }
  ],
  "validation": {
    "torsion_criterion": "torsion criterion applied componentwise across torus factors: a component counts as torsion only if its degree vanishes in every factor",
    "violations": [
      {
        "detail": "destabilizing component with zero degree in every factor",
        "kind": "cond4-torsion-destabilizing",
        "subject": "P"
      }
    ]
  }
}
"""


def test_validation_failure_report_golden(tmp_path, capsys):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(VALIDATION_FAILURE_DOC))
    out = tmp_path / "out.json"
    assert run_cli("degen", str(src), "--out", str(out)) == 1
    assert out.read_text() == VALIDATION_FAILURE_REPORT
    assert run_cli("degen", str(src)) == 1
    assert capsys.readouterr().out == VALIDATION_FAILURE_REPORT


def test_disconnected_limit_is_a_validation_failure(tmp_path, monkeypatch):
    # no pass disconnects a curve; rewire the limit of two-genus2-bridge so
    # that C2 is cut off with genus and totals intact
    contract = engine._contract_pass
    ends = {"n1": ("C1", "C1"), "n2:q1": ("n2:E1", "n2:E1")}

    def cut(state, md, log):
        contract(state, md, log)
        state.nodes.update({nid: n._replace(ends=ends[nid])
                            for nid, n in state.nodes.items() if nid in ends})

    monkeypatch.setattr(engine, "_contract_pass", cut)
    out = tmp_path / "out.json"
    assert run_cli("scenario", "two-genus2-bridge", "--out", str(out)) == 1
    report = json.loads(out.read_text())
    assert report["validation"]["violations"] == [
        {"kind": "cond1-disconnected", "subject": None,
         "detail": "the dual graph is not connected"}]


def test_degen_validates_the_input_once(tmp_path, monkeypatch):
    calls = []
    validate = DegenerationInput.validate

    def counted(inp):
        calls.append(inp)
        return validate(inp)

    monkeypatch.setattr(DegenerationInput, "validate", counted)
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(builtin_scenario("theta-example-3")))
    assert run_cli("degen", str(src), "--out", os.devnull) == 0
    assert len(calls) == 1


# -- flag faults and unreadable documents: exit 2 with a pointer ----------------

@pytest.mark.parametrize("argv, pointer", [
    (("resolve", "--a", "0"), "/resolve"),
    (("resolve", "--a", "3", "--mu", "0"), "/resolve"),
    (("blowup", "--m", "0", "--d", "1"), "/blowup"),
    (("blowup", "--m", "1", "--d", "1", "--mu", "0"), "/blowup"),
    (("resolve", "--a", "65"), "/resolve"),
])
def test_flag_fault_exit_2_with_pointer(capsys, argv, pointer):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {pointer}: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["degen", "snf"])
@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    "1" * 5_001,
], ids=["deeply-nested", "huge-integer"])
def test_unreadable_json_exit_2_with_pointer(tmp_path, capsys, command, text):
    src = tmp_path / "doc.json"
    src.write_text(text)
    assert run_cli(command, str(src)) == 2
    assert capsys.readouterr().err.startswith("input error: /: ")


# -- the degree cap on built-in scenarios and on resolve --------------------------

def test_scenario_degree_cap(capsys, monkeypatch):
    assert run_cli("scenario", "theta-example-2", "--m", "65") == 2
    assert capsys.readouterr().err.startswith(
        "input error: /gluing/n1/entries/0/0: ")
    assert run_cli("scenario", "theta-example-2", "--m", "64", "--out", os.devnull) == 0
    # theta-example-3 glues n1 by t^(m+1)
    assert run_cli("scenario", "theta-example-3", "--m", "64") == 2
    assert capsys.readouterr().err.startswith(
        "input error: /gluing/n1/entries/0/0: ")
    monkeypatch.setenv("STACKYDEG_MAX_DEG", "0")
    assert run_cli("scenario", "theta-example-2", "--m", "65", "--out", os.devnull) == 0


def test_resolve_degree_cap(capsys, monkeypatch):
    assert run_cli("resolve", "--a", "64") == 0
    assert json.loads(capsys.readouterr().out)["a"] == 64
    monkeypatch.setenv("STACKYDEG_MAX_DEG", "0")
    assert run_cli("resolve", "--a", "65") == 0
    assert json.loads(capsys.readouterr().out)["a"] == 65


# -- the parser is built once per process and keeps no state --------------------

SRC = Path(stackydeg.__file__).resolve().parent.parent

# {out}, {doc} and {matrix} stand for files in each side's own directory
CALL_SEQUENCE = [
    ("scenario", "theta-example-2", "--k", "3"),
    ("scenario", "theta-example-2"),
    ("degen", "{doc}", "--out", "{out}"),
    ("degen", "{doc}"),
    ("blowup", "--m", "1"),  # --d is required: argparse exits 2
    ("snf", "{matrix}"),
]


def _call_files(root: Path) -> dict:
    root.mkdir()
    files = {name: root / f"{name}.json" for name in ("doc", "out", "matrix")}
    files["doc"].write_text(json.dumps(builtin_scenario("theta-example-3")))
    files["matrix"].write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["t", "t"], ["t", "t^3"]]}))
    return files


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _first_call_of_a_process(argv, files):
    """Exit code, stdout, stderr and ``--out`` text of ``main(argv)`` as the
    first call of a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from stackydeg.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv], env=_child_env(), capture_output=True, text=True, timeout=60)
    out = files["out"].read_text() if files["out"].exists() else None
    return proc.returncode, proc.stdout, proc.stderr, out


def _call_in_process(argv, files, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = files["out"].read_text() if files["out"].exists() else None
    return code, captured.out, captured.err, out


def test_repeated_main_calls_match_first_calls(tmp_path, capsys, monkeypatch):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    fresh_files = _call_files(tmp_path / "fresh")
    here_files = _call_files(tmp_path / "here")
    results = []
    for argv in CALL_SEQUENCE:
        fresh = _first_call_of_a_process(
            [a.format(**fresh_files) for a in argv], fresh_files)
        here = _call_in_process([a.format(**here_files) for a in argv], here_files, capsys)
        assert here == fresh, argv
        results.append(here)
    codes = [r[0] for r in results]
    assert codes == [0, 0, 0, 0, 2, 0]
    # --k 3 did not stick: the second call ran with the default k = 2
    assert results[0][1] != results[1][1]
    assert results[1][1] == _canonical_report(builtin_scenario("theta-example-2"))
    # the --out text of call 3 is what call 4 wrote to stdout
    assert results[2][3] == results[3][1]
    assert "usage: stackydeg blowup" in results[4][2]


COUNT_PARSER_BUILDS = """
import argparse, contextlib, io
from stackydeg.cli import main
builds = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    if kwargs.get("prog") == "stackydeg":
        builds.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["resolve", "--a", "3"]), main(["scenario", "theta-example-1"])]
print(codes, len(builds))
"""


def test_parser_is_built_once_per_process():
    proc = subprocess.run([sys.executable, "-c", COUNT_PARSER_BUILDS], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[0, 0] 1\n"


# -- one writer: json.dumps(sort_keys=True, indent=2) byte for byte ---------------

def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _report(doc) -> dict:
    """The document ``degen`` writes to ``--out`` for the input ``doc``."""
    try:
        return degenerate(degeneration_input_from_json(doc)).to_json_dict()
    except DegenerationValidationError as exc:
        return exc.to_json_dict()


def _canonical_report(doc) -> str:
    return _canonical(_report(doc))


WRITER_EDGE_CASES = [
    {}, [], "", 0, None, True, False,
    {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}], "e": {"f": {"g": []}}},
    [True, False, None, 0, -1, 10**199, -(10**199) - 7],
    {"q\"uote": "back\\slash", "ctl\x00\x1f\x7f\n\t\r\b\f": "\u00e9 \u6f22 \u2028 \u2029",
     "astral \U0001f600": "lone \ud800 surrogate", "": "/"},
    {"b": 1, "a": 2, "B": 3, "é": 4, "a\x00": 5, "10": 6, "9": 7},
]


@pytest.mark.parametrize("obj", WRITER_EDGE_CASES, ids=range(len(WRITER_EDGE_CASES)))
def test_writer_edge_cases(obj):
    assert _dumps(obj) == _canonical(obj)


def _generator_documents():
    for seed in range(3):
        yield random_engine_input(random.Random(seed))
        yield random_big_graph_input(random.Random(seed))
        yield random_tree_input(random.Random(seed), 4 + seed)


@pytest.mark.parametrize("doc", [
    *(builtin_scenario(name) for name in BUILTIN_SCENARIOS),
    VALIDATION_FAILURE_DOC,
    *_generator_documents(),
], ids=[*BUILTIN_SCENARIOS, "validation-failure",
        *(f"{g}-{s}" for s in range(3) for g in ("engine", "big-graph", "tree"))])
def test_degen_artifacts_are_canonical(tmp_path, doc):
    report = _report(doc)
    assert _dumps(report) == _canonical(report)
    assert _dumps(report["log"]) == _canonical(report["log"])
    src, out, log = tmp_path / "doc.json", tmp_path / "out.json", tmp_path / "log.json"
    src.write_text(json.dumps(doc))
    code = run_cli("degen", str(src), "--out", str(out), "--log", str(log))
    assert out.read_text() == _canonical(report)
    if "error" in report:
        assert code == 1 and not log.exists()
        return
    assert code == 0
    # the step log is serialized once: --log is the "log" value of --out
    assert log.read_text() == _canonical(report["log"])
    assert _canonical(json.loads(out.read_text())["log"]) == log.read_text()


@pytest.mark.parametrize("matrix", [
    *(random_regular_matrix(random.Random(seed), n) for seed, n in ((0, 1), (1, 2), (2, 3))),
    *(random_gluing(random.Random(seed), n) for seed, n in ((3, 2), (4, 3))),
], ids=["regular-1", "regular-2", "regular-3", "gluing-2", "gluing-3"])
def test_snf_output_is_canonical(tmp_path, capsys, matrix):
    result = smith_normal_form(matrix).to_json_dict()
    assert _dumps(result) == _canonical(result)
    src = tmp_path / "m.json"
    src.write_text(json.dumps(matrix.to_json_dict()))
    assert run_cli("snf", str(src)) == 0
    assert capsys.readouterr().out == _canonical(result)


def test_blowup_and_resolve_reports_are_canonical(capsys):
    params = BlowupParams(2, 3)
    report = {"blowup": twisted_blowup(params).to_json_dict(),
              "mu_action": mu_action_on_blowup(2, params).to_json_dict()}
    assert run_cli("blowup", "--m", "2", "--d", "3", "--mu", "2") == 0
    assert capsys.readouterr().out == _canonical(report)
    assert run_cli("resolve", "--a", "6") == 0
    out = capsys.readouterr().out
    assert out == _canonical(json.loads(out))


# -- an artifact path that cannot be written: exit 2 with the flag's pointer ------

@pytest.mark.parametrize("flag, target, err", [
    ("out", "missing/x.json", errno.ENOENT),
    ("dot", "missing/x.dot", errno.ENOENT),
    ("log", ".", errno.EISDIR),
], ids=["out-missing-dir", "dot-missing-dir", "log-is-a-dir"])
def test_unwritable_artifact_exit_2_with_pointer(tmp_path, capsys, flag, target, err):
    path = tmp_path / target
    argv = ["scenario", "theta-example-1", f"--{flag}", str(path)]
    if flag != "out":
        argv += ["--out", str(tmp_path / "out.json")]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"input error: /{flag}: cannot write {path}: {os.strerror(err)}\n")
    assert captured.out == ""


# -- a stdout that cannot be written: exit 2 at /out, with no traceback ----------

STDOUT_COMMANDS = {
    "scenario": ["scenario", "theta-example-3"],
    "snf": ["snf", "{matrix}"],
    "blowup": ["blowup", "--m", "2", "--d", "3", "--mu", "2"],
    "resolve": ["resolve", "--a", "6"],
}


@pytest.mark.parametrize("stdout, reason", [
    ("closed", "stdout is closed"),
    ("/dev/full", os.strerror(errno.ENOSPC)),
], ids=["closed", "dev-full"])
@pytest.mark.parametrize("command", sorted(STDOUT_COMMANDS))
def test_unwritable_stdout_exit_2_with_pointer(tmp_path, command, stdout, reason):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["t", "t"], ["t", "t^3"]]}))
    argv = [a.format(matrix=matrix) for a in STDOUT_COMMANDS[command]]
    # stdout buffered, as a user has it: Python retries a failed flush at exit
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    cmd = [sys.executable, "-c",
           "import sys; from stackydeg.cli import main; sys.exit(main(sys.argv[1:]))",
           *argv]
    if stdout == "closed":
        proc = subprocess.run(cmd, env=env, stderr=subprocess.PIPE, text=True,
                              timeout=60, preexec_fn=lambda: os.close(1))
    else:
        with open(stdout, "w") as fh:
            proc = subprocess.run(cmd, env=env, stdout=fh, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"input error: /out: cannot write <stdout>: {reason}\n"


# -- the import graph: records are named tuples, so no dataclasses ---------------

def test_cli_import_loads_no_dataclasses():
    # -S: the site hooks of an environment may import modules of their own
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, stackydeg.cli; print('dataclasses' in sys.modules)"],
        env=_child_env(), capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "False\n"
    sources = sorted((SRC / "stackydeg").glob("*.py"))
    assert sources
    assert [p.name for p in sources if "dataclass" in p.read_text(encoding="utf-8")] == []
