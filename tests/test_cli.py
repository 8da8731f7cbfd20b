import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnncheck
from gnncheck.arith import ArithmeticSpec
from gnncheck.cli import main
from gnncheck.gnn import DeltaMode, Fnn, FnnLayer, GnnLayer, GnnModel, LinIneq, LvpInstance, lvp_to_json, gnn_to_json
from gnncheck.graph import save_json

from test_falsify import positive_instance, relational_instance, split_instance

from conftest import (
    message_counterexample,
    message_instance,
    two_layer_graph,
    two_layer_instance,
)


@pytest.fixture
def supp_files(tmp_path):
    inst = two_layer_instance()
    lvp = tmp_path / "supp.json"
    lvp.write_text(json.dumps(lvp_to_json(inst)))
    gnn = tmp_path / "supp_gnn.json"
    gnn.write_text(json.dumps(gnn_to_json(inst.model)))
    pointed = two_layer_graph()
    graph = tmp_path / "g_e.json"
    graph.write_text(json.dumps(save_json(pointed.graph, pointed.point)))
    return lvp, gnn, graph


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(gnncheck.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "gnncheck.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )


class TestVerify:
    def test_invalid_instance_exits_1(self, supp_files, capsys):
        lvp, _, _ = supp_files
        code = main(["verify", str(lvp), "--arith", "satint:7", "--delta", "unary:2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "invalid" in out
        assert "counterexample" in out

    def test_valid_instance_exits_0(self, tmp_path, capsys):
        inst = message_instance()
        from gnncheck.gnn import LvpInstance

        doc = lvp_to_json(LvpInstance(inst.model, inst.l_in, (), inst.delta))
        path = tmp_path / "valid.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_json_output_carries_counterexample(self, supp_files, capsys):
        lvp, _, _ = supp_files
        code = main(["verify", str(lvp), "--output", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "invalid"
        assert "nodes" in doc["counterexample"]
        assert set(doc["outputs"]) == {"y1", "y2", "y3"}

    @pytest.mark.parametrize(
        "fixture, by", [(positive_instance, "bounds"), (split_instance, "split"), (relational_instance, "tableau")]
    )
    def test_json_output_names_the_stage_that_proved_valid(self, tmp_path, capsys, fixture, by):
        path = tmp_path / "valid.json"
        path.write_text(json.dumps(lvp_to_json(fixture())))
        assert main(["verify", str(path), "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"verdict": "valid", "by": by}
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_unknown_activation_exits_2_naming_its_path(self, tmp_path, capsys):
        doc = lvp_to_json(positive_instance())
        doc["gnn"]["layers"][0]["comb"]["activation"] = ["sigmoid"]
        path = tmp_path / "sigmoid.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "$.gnn.layers[0].comb" in err and "unknown activation 'sigmoid'" in err

    def test_emit_dot(self, supp_files, tmp_path, capsys):
        lvp, _, _ = supp_files
        dot = tmp_path / "cex.dot"
        main(["verify", str(lvp), "--emit-dot", str(dot)])
        capsys.readouterr()
        assert dot.read_text().startswith("digraph")

    def test_unwritable_dot_exits_2_with_nothing_on_stdout(self, supp_files, tmp_path):
        # the counterexample used to be printed before the DOT file failed
        lvp, _, _ = supp_files
        run = _run_cli("verify", str(lvp), "--emit-dot", str(tmp_path / "missing" / "cex.dot"))
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.startswith("error: cannot write")

    def test_schema_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gnn": {"arith": "satint:7"}}))
        assert main(["verify", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["verify", "no-such-file.json"]) == 2

    @pytest.mark.parametrize("bound, code, verdict", [(1, 1, "invalid"), (0, 0, "valid")])
    def test_deep_network_gives_a_verdict_without_traceback(self, tmp_path, bound, code, verdict):
        # 3000 width-1 relu layers compile into a formula 3000 levels deep
        spec = ArithmeticSpec.satint(3)
        out = Fnn(tuple(FnnLayer(((spec.one,),), (0,), ("relu",)) for _ in range(3000)))
        model = GnnModel(spec, (), out, ("x1",), ("y1",))
        l_out = (LinIneq((("y1", spec.one),), bound * spec.one),)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(lvp_to_json(LvpInstance(model, (), l_out, DeltaMode.unary(1)))))
        src = str(Path(gnncheck.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "gnncheck.cli", "verify", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert run.returncode == code
        assert run.stdout.splitlines()[0] == verdict
        assert ("counterexample" in run.stdout) == (verdict == "invalid")
        assert "Traceback" not in run.stderr


class TestSat:
    def test_unsat_formula(self, capsys):
        code = main(["sat", "agg(3) = 10", "--arith", "satint:15", "--delta", "unary:5"])
        assert code == 1
        assert "unsat" in capsys.readouterr().out

    def test_sat_formula_prints_model(self, capsys):
        code = main(["sat", "agg(1) = 4", "--arith", "satint:15", "--delta", "unary:5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sat" in out and "v1" in out

    def test_formula_from_file(self, tmp_path, capsys):
        f = tmp_path / "q.lqg"
        f.write_text("x1 >= 3 and x1 < 5\n")
        assert main(["sat", str(f), "--arith", "satint:7", "--delta", "unary:1"]) == 0

    def test_json_model_round_trips_into_graph_schema(self, capsys):
        code = main(["sat", "agg(x1) = 2", "--arith", "satint:3", "--delta", "unary:2", "--output", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        from gnncheck.arith import ArithmeticSpec
        from gnncheck.graph import load_json

        graph, point = load_json(doc["model"], ArithmeticSpec.satint(3))
        assert point == "v"

    def test_unknown_exit_code(self, capsys):
        code = main([
            "sat", "x1 >= -3000 and not (x1 - x1 >= 0)",
            "--arith", "satint:3000", "--delta", "unary:1", "--time-limit", "0.000001",
        ])
        assert code == 3

    def test_missing_arith_exits_2(self, capsys):
        assert main(["sat", "x1 >= 0", "--delta", "unary:1"]) == 2

    @pytest.mark.parametrize("missing", ["--arith", "--delta"])
    @pytest.mark.parametrize("command", [["sat"], ["oracle", "sat"]], ids=" ".join)
    def test_missing_arith_or_delta_exits_2(self, command, missing, capsys):
        argv = [*command, "x1 >= 0"]
        for flag, value in (("--arith", "satint:3"), ("--delta", "unary:1")):
            if flag != missing:
                argv += [flag, value]
        assert main(argv) == 2
        assert missing in capsys.readouterr().err

    def test_syntax_error_exits_2(self, capsys):
        assert main(["sat", "x1 >=", "--arith", "satint:7", "--delta", "unary:1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_deep_nesting_exits_2_without_traceback(self):
        deep = "relu(" * 3000 + "x1" + ")" * 3000 + " >= 1"
        src = str(Path(gnncheck.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "gnncheck.cli", "sat", deep, "--arith", "satint:7", "--delta", "unary:1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert run.returncode == 2
        assert "nested too deeply" in run.stderr
        assert "Traceback" not in run.stderr

    def test_time_limit_env_not_a_number_exits_2_without_traceback(self):
        src = str(Path(gnncheck.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "gnncheck.cli", "sat", "x1 >= 0", "--arith", "satint:3", "--delta", "unary:1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "QGNN_TIME_LIMIT": "abc"},
            timeout=60,
        )
        assert run.returncode == 2
        assert "QGNN_TIME_LIMIT" in run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize("source", ["--time-limit", "QGNN_TIME_LIMIT"])
    def test_time_limit_nan_or_negative_exits_2(self, source, value):
        # a NaN deadline never passes: without the check this ran to unsat (exit 1)
        src = str(Path(gnncheck.__file__).resolve().parents[1])
        argv = ["sat", "x1 >= -3000 and not (x1 - x1 >= 0)", "--arith", "satint:3000", "--delta", "unary:1"]
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("QGNN_TIME_LIMIT", None)
        if source == "--time-limit":
            argv += [f"--time-limit={value}"]
        else:
            env["QGNN_TIME_LIMIT"] = value
        run = subprocess.run(
            [sys.executable, "-m", "gnncheck.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert run.returncode == 2
        assert source in run.stderr
        assert "Traceback" not in run.stderr


    @pytest.mark.parametrize(
        "argv",
        [
            ["sat", "x1>=0", "--arith", "satint:3", "--delta", "unary:1", "--term-limit", "-5"],
            ["oracle", "sat", "x1>=0", "--arith", "satint:3", "--delta", "unary:1", "--term-limit", "-5"],
            ["fuzz", "--cases", "-3"],
            ["fuzz", "--cases", "2", "--agg-depth", "-1"],
            ["fuzz", "--cases", "5", "--agg", "bogus", "--agg-depth", "0"],
            ["fuzz", "--cases", "0", "--agg", "bogus"],
            ["fuzz", "--cases", "5", "--agg", "sum,,max"],
        ],
        ids=" ".join,
    )
    def test_negative_limits_exit_2(self, argv, capsys):
        # these used to run: exit 0, or 3 for a negative term limit.  An
        # aggregation kind was checked only when the generator drew one
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("unknown aggregation kind" if "--agg" in argv else "must be >= 0") in err, err

    def test_no_flag_truncates_the_arity_bound(self, capsys):
        # --max-arity and oracle sat's --depth cut the search short of δ and
        # the weight cap; both are gone, so argparse refuses them
        for argv in (
            ["sat", "agg(1) = 2", "--arith", "satint:3", "--delta", "unary:2", "--max-arity", "0"],
            ["oracle", "sat", "agg(1) = 2", "--arith", "satint:3", "--delta", "unary:2", "--depth", "0"],
        ):
            assert main(argv) == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["a directory", "not utf-8", "dot into a missing directory"])
    def test_a_file_that_cannot_be_read_or_written_exits_2(self, tmp_path, capsys, case):
        # each used to raise out of main, and python -m exits 1 on an
        # uncaught exception, which reads as unsat
        argv = ["sat", "x1 >= 0", "--arith", "satint:3", "--delta", "unary:1"]
        if case == "a directory":
            argv[1] = str(tmp_path)
        elif case == "not utf-8":
            text = tmp_path / "q.lqg"
            text.write_bytes(b"x1 >= 0 and \xff")
            argv[1] = str(text)
        else:
            argv += ["--emit-dot", str(tmp_path / "missing" / "model.dot")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_dot_exits_2_with_nothing_on_stdout(self, tmp_path):
        # the model used to be printed before the DOT file failed
        dot = str(tmp_path / "missing" / "model.dot")
        run = _run_cli("sat", "x1>=0", "--arith", "satint:3", "--delta", "unary:1", "--emit-dot", dot)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.startswith("error: cannot write")


class TestCompileEval:
    def test_compile_prints_formula(self, supp_files, capsys):
        lvp, _, _ = supp_files
        assert main(["compile", str(lvp)]) == 0
        out = capsys.readouterr().out
        assert "agg(" in out and "not" in out

    def test_compiled_formula_parses_back(self, tmp_path, capsys):
        # the network's default input names x1 ... print as features that sat
        # reads back, and no output name y1 ... y3 is printed; the instance is
        # invalid, so the formula is sat
        doc = lvp_to_json(two_layer_instance())
        del doc["gnn"]["features"], doc["gnn"]["outputs"]
        lvp = tmp_path / "defaults.json"
        lvp.write_text(json.dumps(doc))
        assert main(["compile", str(lvp)]) == 0
        formula = capsys.readouterr().out.strip()
        assert "x1" in formula and "y" not in formula
        assert main(["verify", str(lvp)]) == 1
        capsys.readouterr()
        assert main(["sat", formula, "--arith", "satint:7", "--delta", "unary:2"]) == 0
        assert capsys.readouterr().out.startswith("sat")

    def test_eval_golden_vector(self, supp_files, capsys):
        _, gnn, graph = supp_files
        assert main(["eval", str(gnn), str(graph)]) == 0
        assert capsys.readouterr().out.strip() == "(5, 0, 1)"

    def test_eval_explicit_point(self, supp_files, capsys):
        _, gnn, graph = supp_files
        assert main(["eval", str(gnn), str(graph), "--point", "v1"]) == 0
        capsys.readouterr()


def _set(doc, keys, value):
    """A copy of doc with the entry at the path of keys set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = keys
    target = doc
    for k in parents:
        target = target[k]
    target[last] = value
    return doc


MALFORMED_LVP = [
    (("gnn", "input_dim"), "abc", "$.gnn.input_dim"),
    (("gnn", "input_dim"), [1], "$.gnn.input_dim"),
    (("gnn", "layers"), 5, "$.gnn.layers"),
    (("gnn", "layers", 0), 5, "$.gnn.layers[0]"),
    (("gnn", "layers", 0, "comb", "weights"), 5, "$.gnn.layers[0].comb.weights"),
    (("gnn", "layers", 0, "comb", "weights", 1), 5, "$.gnn.layers[0].comb.weights[1]"),
    (("gnn", "layers", 0, "comb", "bias"), 5, "$.gnn.layers[0].comb.bias"),
    (("gnn", "layers", 0, "comb", "activation"), 5, "$.gnn.layers[0].comb.activation"),
    (("gnn", "layers", 0, "agg"), {"kind": "weighted", "weights": 5}, "$.gnn.layers[0].agg.weights"),
    (("gnn", "features"), 5, "$.gnn.features"),
    (("gnn", "features"), [["x1"], "x2"], "$.gnn.features"),
    (("gnn", "outputs"), 5, "$.gnn.outputs"),
    (("gnn", "outputs"), [["y1"], "y2", "y3"], "$.gnn.outputs"),
    (("gnn", "out"), {"layers": 5}, "$.gnn.out.layers"),
    (("l_in",), 5, "$.l_in"),
    (("l_out",), 5, "$.l_out"),
    (("l_out", 0, "coeffs"), ["y1"], "$.l_out[0].coeffs"),
    (("delta",), "unary:2", "$.delta"),
    (("delta",), {"mode": "unary", "value": 2.5}, "$.delta"),
    (("delta",), {"mode": "unary", "value": "2"}, "$.delta"),
    (("delta",), {"mode": "unary", "value": True}, "$.delta"),
    (("gnn", "arith"), "bogus", "$.gnn.arith"),
    (("gnn", "arith"), "satint:0", "$.gnn.arith"),
    (("l_out", 0, "const"), "²", "$.l_out[0].const"),
    # a bad literal keeps its exact path at every nesting, whatever its kind
    (("gnn", "layers", 0, "comb", "weights", 1, 0), "8", "$.gnn.layers[0].comb.weights[1][0]"),
    (("gnn", "layers", 0, "comb", "weights", 1, 3), {"w": "1"}, "$.gnn.layers[0].comb.weights[1][3]"),
    (("gnn", "layers", 1, "comb", "bias", 0), [1], "$.gnn.layers[1].comb.bias[0]"),
    (("gnn", "layers", 0, "comb", "bias", 1), True, "$.gnn.layers[0].comb.bias[1]"),
    (("gnn", "layers", 0, "agg"), {"kind": "weighted", "weights": ["1", "1.5"]}, "$.gnn.layers[0].agg.weights[1]"),
    (("gnn", "layers", 0, "agg"), {"kind": "weighted"}, "$.gnn.layers[0].agg"),
    (
        ("gnn", "out"),
        {"layers": [{"weights": [["1", "0", "0"]], "bias": ["0"], "activation": "id"}, {"weights": [["x"]]}]},
        "$.gnn.out.layers[1].weights[0][0]",
    ),
    (("l_in", 0, "coeffs", "x1"), "-", "$.l_in[0].coeffs.x1"),
    (("l_in", 0, "const"), 1.5, "$.l_in[0].const"),
]


class TestMalformedJson:
    """Malformed documents exit 2 with the JSON path of the fault, never
    with a traceback and exit 1, the code for invalid."""

    @pytest.mark.parametrize(
        "keys, value, path",
        MALFORMED_LVP,
        ids=[".".join(map(str, k)) + "=" + json.dumps(v) for k, v, _ in MALFORMED_LVP],
    )
    def test_verify_exits_2(self, tmp_path, capsys, keys, value, path):
        doc = tmp_path / "lvp.json"
        doc.write_text(json.dumps(_set(lvp_to_json(two_layer_instance()), keys, value)))
        assert main(["verify", str(doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "target, keys, value, path",
        [
            ("graph", ("point",), ["v"], "$.point"),
            ("graph", ("edges", 0, 1), ["v1"], "$.edges[0]"),
            ("graph", ("features", 0), ["x1"], "$.features"),
            ("gnn", ("arith",), "bogus", "$.arith"),
            ("graph", ("nodes", 1, "label", "x1"), "1.5", "$.nodes[1].label.x1"),
            ("graph", ("nodes", 2, "label", "x2"), [0], "$.nodes[2].label.x2"),
        ],
        ids=["point", "edge endpoint", "feature name", "gnn arith", "label literal", "label list"],
    )
    def test_eval_exits_2(self, supp_files, capsys, target, keys, value, path):
        _, gnn, graph = supp_files
        doc = {"gnn": gnn, "graph": graph}[target]
        doc.write_text(json.dumps(_set(json.loads(doc.read_text()), keys, value)))
        assert main(["eval", str(gnn), str(graph)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "agg, code, out",
        [
            # a missing key once read as [], a weight cap of 0 under which
            # no node has a successor: valid, though one successor breaks it
            ({"kind": "weighted"}, 2, "error: $.gnn.layers[0].agg: missing key 'weights'\n"),
            ({"kind": "weighted", "weights": []}, 0, "valid\n"),
            ({"kind": "weighted", "weights": ["1", "1"]}, 1, "invalid\n"),
        ],
        ids=["missing", "empty", "two"],
    )
    def test_a_weighted_aggregation_needs_its_weights(self, tmp_path, capsys, agg, code, out):
        spec = ArithmeticSpec.satint(7)
        layer = FnnLayer(((0, 1),), (0,), ("id",))
        model = GnnModel(spec, (GnnLayer("sum", Fnn((layer,))),), Fnn.identity(1, spec), ("x1",), ("y1",))
        inst = LvpInstance(model, (), (LinIneq((("y1", -1),), 0),), DeltaMode.unary(2))
        doc = tmp_path / "lvp.json"
        doc.write_text(json.dumps(_set(lvp_to_json(inst), ("gnn", "layers", 0, "agg"), agg)))
        assert main(["verify", str(doc)]) == code
        captured = capsys.readouterr()
        assert (captured.err if code == 2 else captured.out).startswith(out)

    def test_a_bad_literal_read_twice_reports_its_first_place_twice(self, tmp_path, capsys):
        # the literal table keeps no failure: the second load decodes "8"
        # again and fails at its first place again
        doc = _set(lvp_to_json(two_layer_instance()), ("gnn", "layers", 0, "comb", "bias", 1), "8")
        doc = _set(doc, ("gnn", "layers", 1, "comb", "weights", 0, 2), "8")
        path = tmp_path / "lvp.json"
        path.write_text(json.dumps(doc))
        for _ in range(2):
            assert main(["verify", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == "error: $.gnn.layers[0].comb.bias[1]: literal '8' out of range for satint:7\n"
        assert "8" not in ArithmeticSpec.satint(7).table("decode_literal")

    def test_a_bare_gnn_reports_paths_from_its_own_root(self, supp_files, capsys):
        # the gnn member of an instance reports under $.gnn (see MALFORMED_LVP)
        _, gnn, graph = supp_files
        gnn.write_text(json.dumps(_set(json.loads(gnn.read_text()), ("input_dim",), "abc")))
        assert main(["eval", str(gnn), str(graph)]) == 2
        assert capsys.readouterr().err.startswith("error: $.input_dim:")

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["verify", "--arith", "satint:7"], ["verify", "--delta", "unary:1"], ["compile"]],
        ids=" ".join,
    )
    def test_a_document_that_is_no_object_exits_2(self, tmp_path, capsys, argv):
        doc = tmp_path / "list.json"
        doc.write_text("[]")
        assert main([argv[0], str(doc), *argv[1:]]) == 2
        assert capsys.readouterr().err.startswith("error: $:")

    def test_arith_override_on_a_gnn_that_is_no_object_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "lvp.json"
        doc.write_text(json.dumps(_set(lvp_to_json(two_layer_instance()), ("gnn",), 5)))
        assert main(["verify", str(doc), "--arith", "satint:7"]) == 2
        assert capsys.readouterr().err.startswith("error: $.gnn:")

    @pytest.mark.parametrize(
        "text",
        [b"{", b'{"gnn": {}, "l_in": ' + b"1" * 5000 + b"}", b'{"gnn": "\xff"}'],
        ids=["truncated", "int past the digit limit", "not utf-8"],
    )
    def test_a_document_that_is_no_json_exits_2(self, tmp_path, capsys, text):
        doc = tmp_path / "lvp.json"
        doc.write_bytes(text)
        assert main(["verify", str(doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "compile"])
    def test_a_bad_arith_flag_is_no_document_fault(self, supp_files, capsys, command):
        lvp, _, _ = supp_files
        assert main([command, str(lvp), "--arith", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad arithmetic spec 'bogus'"), err
        assert "$." not in err


class TestOracle:
    def test_oracle_sat_mirrors_sat(self, capsys):
        assert main(["oracle", "sat", "agg(3) = 10", "--arith", "satint:15", "--delta", "unary:5"]) == 1
        assert main(["oracle", "sat", "agg(1) = 4", "--arith", "satint:15", "--delta", "unary:5"]) == 0

    def test_oracle_zero_term_limit_is_a_budget(self, capsys):
        # a zero budget used to fall back to the default of 5 000 000 steps
        argv = ["oracle", "sat", "agg(1) = 4", "--arith", "satint:15", "--delta", "unary:5", "--term-limit", "0"]
        assert main(argv) == 3
        assert "node-limit" in capsys.readouterr().out

    def test_oracle_rejects_infinite_delta(self, capsys):
        assert main(["oracle", "sat", "x1 >= 0", "--arith", "satint:3", "--delta", "inf"]) == 2

    def test_oracle_takes_infinite_delta_under_a_weight_cap(self, capsys):
        # the weighted aggregation bounds the arity where δ does not, so the
        # oracle answers as sat does
        argv = ["wagg[1,1](x1) >= 2", "--arith", "satint:3", "--delta", "inf"]
        assert main(["sat", *argv]) == 0
        assert main(["oracle", "sat", *argv]) == 0


class TestFuzz:
    def test_fuzz_exits_zero_and_is_reproducible(self, capsys):
        argv = ["fuzz", "--cases", "40", "--seed", "9", "--arith", "satint:2", "--delta", "unary:2", "--output", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["disagreements"] == 0

    def test_fuzz_refuses_infinite_delta(self, capsys):
        # the ladder solves at δ = 0, 1, ..., δ, so δ must be finite
        assert main(["fuzz", "--cases", "1", "--seed", "0", "--arith", "satint:3", "--delta", "inf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_a_disagreement_is_printed_rung_by_rung(self, monkeypatch, capsys):
        # with the tableau's unbounded cap cut to one successor, case 7 of
        # seed 1 is sat at delta 2 and 3 but unsat at inf
        bound = gnncheck.tableau.arity_bound
        monkeypatch.setattr(gnncheck.tableau, "arity_bound", lambda d, *caps: 1 if d is None else bound(d, *caps))
        argv = ["fuzz", "--cases", "8", "--seed", "1", "--arith", "satint:3", "--delta", "unary:3"]
        assert main([*argv, "--agg", "sum,mean,max,weighted"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "case 7: id(-1*wagg[-1,-3,-2](1)) = 3",
            "  delta 0: tableau=unsat oracle=unsat",
            "  delta 1: tableau=unsat oracle=unsat",
            "  delta 2: tableau=sat oracle=sat",
            "  delta 3: tableau=sat oracle=sat",
            "  delta inf: tableau=unsat oracle=-",
            "8 cases, 1 disagreements",
        ]

    def test_a_disagreement_in_json_is_one_object(self, monkeypatch, capsys):
        # the case the text output prints rung by rung is a failure of the one
        # JSON object, with no line printed before it
        bound = gnncheck.tableau.arity_bound
        monkeypatch.setattr(gnncheck.tableau, "arity_bound", lambda d, *caps: 1 if d is None else bound(d, *caps))
        argv = ["fuzz", "--cases", "8", "--seed", "1", "--arith", "satint:3", "--delta", "unary:3"]
        assert main([*argv, "--agg", "sum,mean,max,weighted", "--output", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["cases"] == 8 and report["disagreements"] == 1
        (case,) = report["failures"]
        assert case["index"] == 7 and case["text"] == "id(-1*wagg[-1,-3,-2](1)) = 3"
        assert [(r["delta"], r["tableau"], r["oracle"]) for r in case["rungs"]] == [
            (0, "unsat", "unsat"),
            (1, "unsat", "unsat"),
            (2, "sat", "sat"),
            (3, "sat", "sat"),
            ("inf", "unsat", None),
        ]
