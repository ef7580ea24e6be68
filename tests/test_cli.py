import json
import os
import pathlib
import resource
import shlex
import subprocess
import sys

import pytest

from qublogic import cli, qp, syntax

DATA = pathlib.Path(__file__).parent / "data"
ROOT = DATA.parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_parse_command(capsys):
    code, out = run(capsys, "parse", "--lang", "qg", "snot delta(B(p & ~q) -> B(~p & q))")
    assert code == 0
    assert out["lang"] == "QG"
    assert out["ast"]["kind"] == "snot"


def test_parse_error_exit_code(capsys):
    code = cli.main(["parse", "--lang", "big", "delta(B? never)"])
    capsys.readouterr()
    assert code == 2


def test_print_round_trip(capsys):
    code, out = run(capsys, "parse", "--lang", "qp", "(p <= q) => (r <= s)")
    code2, out2 = run(capsys, "print", "--lang", "qp", json.dumps(out["ast"]))
    assert code2 == 0 and out2["text"] == out["text"]


def test_decide_exit_codes(capsys):
    code, out = run(capsys, "decide", "big-valid", "(p -> q) | (q -> p)")
    assert code == 0 and out["status"] == "holds"
    code, out = run(capsys, "decide", "big-valid", "p -> q")
    assert code == 1 and out["status"] == "fails"


def test_bd_entails(capsys):
    code, _ = run(capsys, "bd-entails", "p", "p | q")
    assert code == 0
    code, out = run(capsys, "bd-entails", "p & neg p", "q")
    assert code == 1 and "witness" in out


def test_eval_big_with_inline_valuation(capsys):
    valuation = json.dumps({"B(p)": "7/10", "B(q)": "6/10", "B(r)": "5/10", "B(s)": "4/10"})
    code, out = run(capsys, "eval-big", "--lang", "qg", "--valuation", valuation,
                    "(B(p) -> B(q)) -> (B(r) -> B(s))")
    assert code == 0 and out["value"] == "2/5"


def test_qp_translate(capsys):
    code, out = run(capsys, "qp", "translate-sif", "~(q <= p)")
    assert code == 0 and out["text"] == "snot delta (B(q) -> B(p))"


def test_qp_gen_e(capsys):
    code, out = run(capsys, "qp", "gen-e", "--phi", "p1", "--phi", "p2",
                    "--chi", "q1", "--chi", "q2")
    assert code == 0 and out["text"].endswith("~~ Top")


def test_model_commands(tmp_path, capsys):
    model = {"states": 1, "v": {"r": [0]}, "mu": {"[]": "0", "[0]": "1/2"}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out = run(capsys, "eval-qg", "--model", str(path), "B(r | ~r)")
    assert code == 0 and out["value"] == "1/2"
    code, out = run(capsys, "model", "check-property", "--model", str(path),
                    "--prop", "capacity")
    assert code == 1 and out["holds"] is False
    code, out = run(capsys, "model", "frame-validates", "--model", str(path),
                    "--layer", "qg", "B(Top) & snot B(Bot)")
    assert code == 1


def test_model_search_countermodel(capsys):
    code, out = run(capsys, "model", "search-countermodel", "--layer", "qg",
                    "--max-states", "2", "--grid", "4", "B(p => Bot) -> (B(p) -> B(Bot))")
    assert code == 0 and out["found"] and out["model"]["states"] == 2


def test_oversized_frame_searches_exit_2_with_the_count(tmp_path, capsys):
    path = tmp_path / "belief.json"
    path.write_text(json.dumps({"states": 3, "v": {}, "mu": {
        json.dumps([x for x in range(3) if mask >> x & 1]): "1" if mask == 7 else "0"
        for mask in range(8)}}))
    refusals = [
        (["model", "frame-validates", "--model", str(path), "--layer", "mcb", "C(p & q & r)"],
         "3 variables on 3 states: 262,144"),
        (["model", "search-countermodel", "--layer", "mcb", "--max-states", "3", "--grid", "1",
          "C(p & q & r) -> C(p)"], "3 variables on 3 states: 262,144"),
        (["model", "correspondence", "--cond", "cond_ii", "--max-states", "9", "--grid", "1"],
         "2 variables on 9 states: 262,144"),
    ]
    for argv, count in refusals:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert json.loads(captured.err) == {
            "error": f"ValueError: frame validation over {count} inner valuations (> 65,536)"}
    # below the cap the search answers at the state count that refutes
    code, out = run(capsys, "model", "search-countermodel", "--layer", "mcb", "C(p & q & r)")
    assert code == 0 and out["model"]["states"] == 1


def test_eval_layer(tmp_path, capsys):
    model = {
        "states": 1, "v": {"q": [0]}, "vminus": {"q": [0]},
        "mu": {"[]": "0", "[0]": "1/2"},
    }
    path = tmp_path / "belief.json"
    path.write_text(json.dumps(model))
    code, out = run(capsys, "eval-layer", "--lang", "mcb", "--model", str(path),
                    "C(q & neg q)")
    assert code == 0 and out["value"] == ["1/2", "1/2"]


def test_model_out_of_range_in_either_map_exits_2(capsys):
    model = {"states": 1, "v": {"p": [1, 2]}, "vminus": {"p": []},
             "mu": {"[]": "0", "[0]": "1"}}
    code = cli.main(["eval-layer", "--lang", "mcb", "--model", json.dumps(model), "C(p)"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"].startswith("ValueError: ")


def test_kripke_counterpart(capsys):
    code, out = run(capsys, "kripke", "counterpart", "--valuation",
                    json.dumps({"p": ["1", "0"]}))
    assert code == 0 and out["states"] == 1


def test_prove_check_fixture(capsys):
    code, out = run(capsys, "prove", "check", str(DATA / "deriv_reg.json"))
    assert code == 0 and out["accepted"]


def test_prove_check_wrong_typed_citation_prints_the_report(capsys):
    obj = {"calculus": "HBIG", "steps": [
        {"formula": "(p -> q) | (q -> p)", "just": {"axiom": "prel1"}},
        {"formula": "(p -> q) | (q -> p)", "just": {"mp": 1}}]}
    code = cli.main(["prove", "check", json.dumps(obj)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {
        "accepted": False, "first_failure": 2,
        "steps": [{"step": 1, "status": "ok"},
                  {"step": 2, "status": "fail", "reason":
                   "malformed justification: 'mp' takes a list of step numbers, not 1"}]}


@pytest.mark.parametrize("obj,error", [
    ({"calculus": "HBIG", "steps": [{"formula": "p", "just": 5}]},
     "ValueError: a step is an object with a 'just' object, not {'formula': 'p', 'just': 5}"),
    ({"calculus": "HBIG", "premises": 5, "steps": []},
     "ValueError: 'premises' takes a list, not 5"),
    ({"calculus": "HBIG", "steps": [{"formula": 5, "just": {"axiom": "any"}}]},
     "ValueError: expected formula text, not 5"),
])
def test_prove_check_wrong_typed_derivation_field_exits_2(capsys, obj, error):
    code = cli.main(["prove", "check", json.dumps(obj)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err) == {"error": error}


def test_prove_match_axiom(capsys):
    code, out = run(capsys, "prove", "match-axiom", "--calculus", "hqg", "B(p & q) -> B(p)")
    assert code == 0 and out["schema"] == "reg"
    code, out = run(capsys, "prove", "match-axiom", "--calculus", "hqg", "B(p) -> B(q)")
    assert code == 1


_KPS4 = {"m": 4, "phis": ["p", "q", "r", "p & q", "q | r"], "chis": ["q", "r", "p", "Top", "~q"]}
_A45 = {"m": 5, "phis": ["p", "q", "r", "p & q", "q | r"], "psis": ["q", "r", "p", "Top", "~q"]}


def _family_texts():
    """(calculus, schema, formula text, parameters) for every KPS_m and A4_m
    within the bounds, over the first entries of _KPS4's and _A45's lists."""
    out = []
    for calc, schema, params, first, build, lang in (
            ("HQPG_TOP", "KPS", _KPS4, 0, qp.kps_instance, "CPL"),
            ("HQP", "A4", _A45, 1, qp.a4_instance, "QP")):
        keys = [k for k in params if k != "m"]
        for m in range(first, params["m"] + 1):
            sub = {"m": m, **{k: params[k][:m + 1 - first] for k in keys}}
            f = build(m, *([syntax.parse(lang, t) for t in sub[k]] for k in keys))
            out.append((calc, schema, syntax.print_formula(f), sub))
    return out


def test_prove_match_axiom_prints_family_parameters_that_check(capsys):
    for calc, schema, text, params in _family_texts():
        code, out = run(capsys, "prove", "match-axiom", "--calculus", calc, text)
        assert (code, out) == (0, {"matched": True, "schema": schema, "substitution": params})
        # the step with these parameters, and the step that only names the schema
        steps = [{"formula": text, "just": {"axiom": {"schema": schema, **out["substitution"]}}},
                 {"formula": text, "just": {"axiom": schema}}]
        code, out = run(capsys, "prove", "check", json.dumps({"calculus": calc, "steps": steps}))
        assert (code, out["accepted"]) == (0, True), (calc, params["m"])


_BD_MODEL = '{"states":1,"vplus":{"p":[0]},"vminus":{}}'

_BOUNDS = "state bound and grid denominator must be >= 1"

#: malformed inputs whose error line must also contain a text: the value it
#: names, or the refusal that the command has to reach
_NAMED_ERRORS = [
    # variable names the parser would not read back as that one variable
    *((["print", "--lang", "cpl", json.dumps({"kind": "var", "var": name})],
       f"{name!r} is not a variable name") for name in ("Top", "P", "p q", "neg", "B")),
    # unknown names, listed with the known ones
    (["model", "correspondence", "--cond", "nope"],
     "unknown condition 'nope'; the conditions are cond_i, "),
    (["prove", "match-axiom", "--calculus", "nope", "p"],
     "unknown calculus 'NOPE'; the calculi are HBIG, "),
    # negative bounds, refused before any search is sized
    *((["model", "correspondence", "--cond", "cond_iii", flag, "-1"], _BOUNDS)
      for flag in ("--max-states", "--grid")),
    *((["model", "search-countermodel", "--layer", "qg", flag, "-1", "B(p)"], _BOUNDS)
      for flag in ("--max-states", "--grid")),
]

_MALFORMED = [
    ["kripke", "support", "--model",
     '{"states":2,"order":[0,1],"vplus":{"p":[1]},"vminus":{}}', "--state", "5", "p"],
    ["qp", "sat", "--model", '{"states":1,"weights":{"0":["1"]},"v":{"p":[0]}}',
     "--state", "3", "p <= p"],
    ["eval-qg", "--model", '{"states":1,"v":{"p":"x"},"mu":{"[]":"0","[0]":"1"}}', "B(p)"],
    ["eval-qg", "--model", '{"states":1,"v":{"p":[0]},"mu":{"[]":"0","[0]":[1]}}', "B(p)"],
    ["qp", "sat", "--model", '{"states":1,"weights":{"0":[null]},"v":{}}', "p <= p"],
    ["eval-qg", "--model", "[1,2]", "B(p)"],
    ["kripke", "counterpart"],
    # containers of the wrong JSON type
    ["eval-g2", "--lang", "g2ord", "--valuation", '{"p": 5}', "p"],
    ["eval-big", "--valuation", "[1]", "p"],
    ["qp", "sat", "--model", '{"states":1,"weights":[1],"v":{"p":[0]}}', "p <= p"],
    ["eval-qg", "--model", '{"states":1,"v":[],"mu":{"[]":"0","[0]":"1"}}', "B(p)"],
    ["eval-qg", "--model", '{"states":"1","v":{"p":[0]},"mu":{"[]":"0","[0]":"1"}}', "B(p)"],
    ["eval-layer", "--lang", "mcb", "--model",
     '{"states":1,"v":{"p":[0]},"vminus":[],"mu":{"[]":"0","[0]":"1"}}', "C(p)"],
    ["kripke", "support", "--model", '{"states":1,"order":5,"vplus":{"p":[0]}}', "--state", "0", "p"],
    ["kripke", "support", "--model", '{"states":"1","order":[0],"vplus":{"p":[0]}}',
     "--state", "0", "p"],
    ["qp", "represent-lp", "--order", '{"ground":2,"rank":[]}'],
    ["qp", "represent-lp", "--order", '{"ground":"2","rank":{"[]":0,"[0]":1,"[1]":1,"[0,1]":2}}'],
    ["model", "canonical", "--layer", "qg", "--valuation", "[1]", "B(p)"],
    ["model", "canonical", "--layer", "mcb", "--valuation", '{"C(p)": 5}', "C(p)"],
    # nesting too deep for the parser's recursive descent
    ["parse", "--lang", "big", "(" * 400 + "p" + ")" * 400],
    # ASTs nested too deep for the JSON and AST readers
    *(["print", "--lang", "g2ord",
       '{"kind":"dneg","children":[' * depth + '{"kind":"var","var":"p"}' + "]}" * depth]
      for depth in (800, 3000)),
    # a BD model where each command reads another kind of model
    ["eval-qg", "--model", _BD_MODEL, "B(p)"],
    ["eval-layer", "--lang", "mcb", "--model", _BD_MODEL, "C(p)"],
    ["kripke", "support", "--model", _BD_MODEL, "--state", "0", "p"],
    ["model", "check-property", "--model", _BD_MODEL, "--prop", "mono"],
    ["model", "frame-validates", "--model", _BD_MODEL, "--layer", "qg", "B(p)"],
    ["qp", "counterpart", "--model", _BD_MODEL],
    # sizes past the caps, refused before anything of that size is allocated
    ["eval-qg", "--model", '{"states":1,"v":{"p":[100000000000]},"mu":{"[]":"0","[0]":"1"}}',
     "B(p)"],
    ["qp", "sat", "--model", '{"states":1000000000,"weights":{},"v":{}}', "p <= p"],
    ["qp", "represent-lp", "--order", '{"ground":40,"rank":{}}'],
    ["kripke", "support", "--model", '{"states":1000000000,"order":[0],"vplus":{}}',
     "--state", "0", "p"],
    # bounds below 1, which would search nothing
    ["model", "correspondence", "--cond", "cond_iii", "--grid", "0"],
    ["model", "correspondence", "--cond", "cond_iii", "--max-states", "0"],
    ["model", "search-countermodel", "--layer", "qg", "--grid", "0", "B(p)"],
    ["model", "search-countermodel", "--layer", "qg", "--max-states", "0", "B(p)"],
    ["model", "check-property", "--model", '{"states":1,"v":{},"mu":{"[]":"0","[0]":"1"}}',
     "--prop", "mukps", "--m", "-1"],
    # ASTs of the wrong shape
    ["print", "--lang", "big", "[1]"],
    ["print", "--lang", "big", '{"kind":"and","children":"xy"}'],
    ["print", "--lang", "big", '{"kind":"var","var":5}'],
    # languages a command does not take
    *(["eval-big", "--lang", lang, "--valuation", '{"p":"1/2","q":"1/3"}', "p & q"]
      for lang in ("qp", "cpl", "bd", "g2ord", "g2nel")),
    ["kripke", "entails", "--lang", "qg", "B(p)"],
    # a search past its node cap, refused with the size it stopped at
    ["kripke", "entails", "--lang", "big",
     "((a | b | c | d) -> (e | f | g | h)) | ((e | f | g | h) -> (a | b | c | d))"],
    *(argv for argv, _ in _NAMED_ERRORS),
]

#: the address space of each swept process: an input that allocates for its
#: stated size fails with a MemoryError instead of exhausting the machine
_SWEEP_ADDRESS_SPACE = 3 << 29  # 1.5 GiB


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_SWEEP_ADDRESS_SPACE, _SWEEP_ADDRESS_SPACE))


# the text of A4_6, past the A4 bound: too deep for the recursive PC
# check, and for print_formula under pytest's stack, so a fresh process
# prints it
_A4_6_TEXT = """
from qublogic import qp, syntax
qs = [syntax.var("QP", x) for x in "pqrstu"]
print(syntax.print_formula(qp.a4_instance(6, qs, qs[1:] + qs[:1])))
"""


def test_cli_processes_exit_2_with_one_json_line_on_input_errors():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    matches = [["prove", "match-axiom", "--calculus", calc, text]
               for calc, _, text, params in _family_texts() if params["m"] == 1]
    a4_6 = subprocess.run([sys.executable, "-c", _A4_6_TEXT], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout.strip()
    deep = json.dumps({"calculus": "HQP", "steps": [{"formula": a4_6, "just": {"axiom": "any"}}]})
    deep_match = ["prove", "match-axiom", "--calculus", "hqp", a4_6]
    named = {tuple(argv): text for argv, text in _NAMED_ERRORS}
    for argv in _MALFORMED + matches + [["prove", "check", deep], deep_match]:
        done = subprocess.run([sys.executable, "-m", "qublogic.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60,
                              preexec_fn=_limit_address_space)
        assert "Traceback" not in done.stdout + done.stderr, argv
        if argv in matches:
            assert (done.returncode, done.stderr) == (0, ""), argv
            continue
        if argv[-1] == deep:  # the step fails with a reason and the report prints
            assert (done.returncode, done.stderr) == (1, "")
            assert json.loads(done.stdout)["steps"] == [
                {"step": 1, "status": "fail", "reason": "formula nests too deeply"}]
            continue
        assert (done.returncode, done.stdout) == (2, ""), argv
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}, argv
        if argv == deep_match:
            assert json.loads(lines[0]) == {"error": "formula nests too deeply"}
        if tuple(argv) in named:
            assert named[tuple(argv)] in json.loads(lines[0])["error"], argv
        if argv[0] == "print" and len(argv[-1]) > 10_000:
            assert json.loads(lines[0]) == {"error": "input nests too deeply"}


def test_kripke_entails(capsys):
    code, out = run(capsys, "kripke", "entails", "(p & q) -> (p & q)")
    assert (code, out) == (0, {"status": "holds"})
    code, out = run(capsys, "kripke", "entails", "--lang", "big", "delta p | snot delta p")
    assert (code, out) == (0, {"status": "holds"})
    code, out = run(capsys, "kripke", "entails", "--lang", "bd", "--premise", "p & neg p", "q")
    assert code == 1 and set(out) == {"status", "countermodel", "state"}
    state = out["state"]
    assert state in out["countermodel"]["vplus"]["p"] and state in out["countermodel"]["vminus"]["p"]
    assert state not in out["countermodel"]["vplus"]["q"]
    # no state of the countermodel can be taken out: it has one
    assert out == {"status": "fails", "state": 0, "countermodel": {
        "states": 1, "order": [0], "vplus": {"p": [0], "q": []}, "vminus": {"p": [0], "q": []}}}
    # the search has no state bound to set
    assert cli.main(["kripke", "entails", "--max-states", "3", "p"]) == 2


def test_qp_represent_lp(capsys):
    order = {"ground": 2, "rank": {"[]": 0, "[0]": 1, "[1]": 1, "[0,1]": 2}}
    code, out = run(capsys, "qp", "represent-lp", "--order", json.dumps(order))
    assert code == 0 and out["witness"]["weights"] == ["1/2", "1/2"]


def test_qg_entails_cli(capsys):
    code, out = run(capsys, "decide", "qg-entails", "--premise", "B(p)", "B(p | q)")
    assert code == 0
    code, out = run(capsys, "decide", "qg-entails", "B(r | ~r)")
    assert code == 1 and "witness" in out


def test_reused_parser_matches_fresh_processes(capsys):
    calls = [
        (["decide", "g2-entails", "p ~> p"], 2),  # usage error: --lang is missing
        (["decide", "big-entails", "--premise", "p", "--premise", "p -> q", "q"], 0),
        (["decide", "big-entails", "q"], 1),  # no premises left over from the call before
    ]
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv, expected in calls:
        code = cli.main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "qublogic.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert code == expected
        assert (code, captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _readme_examples():
    """The argument lists of the README's command-line examples, in order."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qublogic ")]


def test_readme_examples_print_the_recorded_output(capsys, monkeypatch):
    """Every README example, run in-process from the repository root with
    the model files it names given inline, prints the recorded bytes and
    exit code (tests/data/readme_cli.json)."""
    golden = json.loads((DATA / "readme_cli.json").read_text())
    assert [g["argv"] for g in golden["examples"]] == _readme_examples()
    monkeypatch.chdir(ROOT)
    for g in golden["examples"]:
        argv = [json.dumps(golden["files"][a]) if a in golden["files"] else a for a in g["argv"]]
        code = cli.main(argv)
        assert (code, capsys.readouterr().out) == (g["exit"], g["stdout"]), g["argv"]


@pytest.mark.parametrize("argv", [
    ["eval-g2", "--lang", "foo", "--valuation", "{}", "p"],
    ["model", "search-countermodel", "--layer", "foo", "p"],
])
def test_unknown_language_flag_exits_2_with_a_json_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "unknown language 'foo'"}


@pytest.mark.parametrize("number", ["0.1", "1e-1", "0.10", "1.0e-1", "10e-2"])
def test_json_decimals_read_exactly(capsys, number):
    """A JSON decimal is read from its text, not through a binary float."""
    code, out = run(capsys, "eval-big", "--valuation", f'{{"p": {number}}}', "p")
    assert (code, out) == (0, {"value": "1/10"})
    code, out = run(capsys, "eval-g2", "--lang", "g2ord", "--valuation",
                    f'{{"p": [{number}, 0.25]}}', "p")
    assert (code, out) == (0, {"value": ["1/10", "1/4"]})
    model = f'{{"states": 1, "v": {{"p": [0]}}, "mu": {{"[]": 0, "[0]": {number}}}}}'
    code, out = run(capsys, "eval-qg", "--model", model, "B(p)")
    assert (code, out) == (0, {"value": "1/10"})


def test_json_whole_numbers_and_strings_read_as_before(capsys):
    code, out = run(capsys, "eval-big", "--valuation", '{"p": 1, "q": "1/3", "r": "0.5"}',
                    "p & q & r")
    assert (code, out) == (0, {"value": "1/3"})


def _input_error(capsys, argv) -> str:
    """The one JSON error line of a command that exits 2."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    (line,) = captured.err.splitlines()
    return json.loads(line)["error"]


_QG_MODEL = {"states": 2, "v": {"p": [0]}, "mu": {"[]": "0", "[0]": "1/2", "[1]": "1/2", "[0,1]": "1"}}


@pytest.mark.parametrize("model,error", [
    ({**_QG_MODEL, "states": 2.0}, "'states' must be a whole number"),
    ({**_QG_MODEL, "states": 1.5}, "'states' must be a whole number"),
    ({**_QG_MODEL, "v": {"p": [0.0]}}, "a state set is a list of state numbers"),
    # a key is a JSON list: its brackets are not stripped unread
    ({**_QG_MODEL, "mu": {"[]": "0", "00,10": "1", "[0]": "1", "[1]": "0"}},
     "a set is keyed by a JSON list of states, not '00,10'"),
    ({**_QG_MODEL, "mu": {"[]": "0", "x0y": "1", "[1]": "0", "[0,1]": "1"}},
     "a set is keyed by a JSON list of states, not 'x0y'"),
    ({**_QG_MODEL, "mu": {"[]": "0", "[0.5]": "1", "[1]": "0", "[0,1]": "1"}},
     "a state set is a list of state numbers"),
    # one set named twice: the later value is not kept silently
    ({**_QG_MODEL, "mu": {**_QG_MODEL["mu"], "[1,0]": "0"}}, "'mu' names the set [0,1] twice"),
    ({**_QG_MODEL, "mu": {**_QG_MODEL["mu"], " [ 0 ] ": "0"}}, "'mu' names the set [0] twice"),
])
def test_malformed_or_conflicting_models_exit_2(capsys, model, error):
    assert error in _input_error(capsys, ["eval-qg", "--model", json.dumps(model), "B(p | ~p)"])


@pytest.mark.parametrize("weights,key", [
    # two spellings of state 0, in either order: neither vector wins silently
    ({"0": ["1/2"], "00": ["1"]}, "00"),
    ({"00": ["1"], "0": ["1/2"]}, "00"),
    ({"+0": ["1"]}, "+0"),
    ({" 0": ["1"]}, " 0"),
    ({"0": ["1"], "1": ["1"]}, "1"),
])
def test_gardenfors_weights_are_keyed_by_state_numbers(capsys, weights, key):
    model = json.dumps({"states": 1, "weights": weights, "v": {"p": [0]}})
    assert _input_error(capsys, ["qp", "sat", "--model", model, "p <= p"]) == \
        f"ValueError: 'weights' is keyed by the state numbers 0..0, not {key!r}"


@pytest.mark.parametrize("value,error", [
    ("1e99999", "number 1e99999 has too large an exponent"),
    ("1e-99999", "number 1e-99999 has too large an exponent"),
    ("Infinity", "Invalid literal for Fraction: 'Infinity'"),
    ("-Infinity", "Invalid literal for Fraction: '-Infinity'"),
    ("NaN", "Invalid literal for Fraction: 'NaN'"),
])
def test_numbers_that_are_not_read_exit_2(capsys, value, error):
    model = f'{{"states": 1, "v": {{"p": [0]}}, "mu": {{"[]": 0, "[0]": {value}}}}}'
    assert _input_error(capsys, ["eval-qg", "--model", model, "B(p)"]) == f"ValueError: {error}"


def test_a_belief_model_with_both_v_and_vplus_exits_2(capsys):
    model = {"states": 1, "v": {"p": [0]}, "vplus": {"p": []}, "vminus": {"p": []},
             "mu": {"[]": "0", "[0]": "1"}}
    assert _input_error(capsys, ["eval-layer", "--lang", "mcb", "--model", json.dumps(model),
                                 "C(p)"]) == \
        "ValueError: a belief model gives 'v' or 'vplus', not both"


@pytest.mark.parametrize("rank,error", [
    ({"[]": 0, "[0]": 1, "[1]": 1, "[0,1]": 2, "[1,0]": 0}, "'rank' names the set [0,1] twice"),
    ({"[]": 0, "0": 1, "[1]": 1, "[0,1]": 2}, "a state set is a list of state numbers"),
    ({"[]": 0, "[0]x": 1, "[1]": 1, "[0,1]": 2}, "a set is keyed by a JSON list of states"),
    ({"[]": 0, "[0]": 1.0, "[1]": 1, "[0,1]": 2}, "a rank must be a whole number"),
])
def test_malformed_or_conflicting_orders_exit_2(capsys, rank, error):
    order = json.dumps({"ground": 2, "rank": rank})
    assert error in _input_error(capsys, ["qp", "represent-lp", "--order", order])
