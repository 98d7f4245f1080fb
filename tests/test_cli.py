import json

import pytest

from stackydeg import validate_twisted_map
from stackydeg.cli import builtin_scenario, main
from stackydeg.curve import MultiDegree, TwistedCurve


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


def test_empty_weight_row_rejected_with_pointer(tmp_path, capsys):
    doc = builtin_scenario("theta-example-1")
    doc["grading"] = {"weights": [[]]}
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert "/grading/weights/0" in err


def _set_true(doc, path):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = True


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
    _set_true(doc, path)
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert pointer in err


def test_bool_weight_rejected_with_pointer(tmp_path, capsys):
    doc = builtin_scenario("theta-example-2")
    doc["grading"] = {"weights": [[True, -2]]}
    code, err = _degen_error(tmp_path, capsys, doc)
    assert code == 2
    assert "/grading/weights/0" in err


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
