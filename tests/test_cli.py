import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import liprcp
from liprcp import attack, audit, cli, conformal, datasets, lipnet, poison, robust, scores


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture
def workspace(tmp_path, capsys):
    """synth -> train -> calibrate pipeline shared by the command tests."""
    data = tmp_path / "train.csv"
    eval_data = tmp_path / "eval.csv"
    model = tmp_path / "model.json"
    record = tmp_path / "record.json"
    assert cli.main(
        ["synth", "--out", str(data), "--n", "400", "--d", "4", "--c", "2",
         "--separation", "5.0", "--seed", "1"]
    ) == 0
    assert cli.main(
        ["synth", "--out", str(eval_data), "--n", "200", "--d", "4", "--c", "2",
         "--separation", "5.0", "--seed", "2"]
    ) == 0
    assert cli.main(
        ["train", "--data", str(data), "--out", str(model), "--epochs", "50",
         "--seed", "3"]
    ) == 0
    assert cli.main(
        ["calibrate", "--data", str(eval_data), "--model", str(model),
         "--out", str(record), "--alpha", "0.1"]
    ) == 0
    capsys.readouterr()  # drop fixture output
    return {"data": data, "eval": eval_data, "model": model, "record": record,
            "tmp": tmp_path}


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("alpha=0.1\nwibble=3\n")
        with pytest.raises(cli.ConfigError) as exc:
            cli.load_config(str(p))
        assert "wibble" in str(exc.value)

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("n=100\nd=4\nc=2\n")
        out = tmp_path / "a.csv"
        code, stdout, _ = run(
            ["synth", "--config", str(cfg), "--out", str(out), "--n", "50"], capsys
        )
        assert code == 0
        assert last_json(stdout)["rows"] == 50

    def test_config_value_used(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("n=70\n")
        out = tmp_path / "a.csv"
        code, stdout, _ = run(
            ["synth", "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 0
        assert last_json(stdout)["rows"] == 70

    def test_bad_value_errors_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("alpha=banana\n")
        code, _, stderr = run(
            ["calibrate", "--config", str(cfg), "--data", str(tmp_path / "d.csv"),
             "--out", str(tmp_path / "x.json")], capsys
        )
        assert code == 1
        assert "bad value for alpha" in json.loads(stderr)["error"]

    def test_repeated_key_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("alpha=0.1\n# comment\nalpha=0.2\n")
        with pytest.raises(cli.ConfigError) as exc:
            cli.load_config(str(p))
        assert str(exc.value) == f"{p}:3: key 'alpha' repeats line 1"


def _flag(key):
    return "--" + key.replace("_", "-")


def _file_args(command, tmp_path):
    """The command's file arguments, all pointing at files that do not exist."""
    argv = [command, "--out", str(tmp_path / "out")]
    for key in cli.COMMANDS[command].files:
        argv += [_flag(key), str(tmp_path / key)]
    return argv


class TestOptionSets:
    """Each command takes only the option keys it reads, as flags or config keys."""

    @pytest.mark.parametrize(
        "command, key",
        [(name, key) for name, c in cli.COMMANDS.items() for key in cli._SCHEMA
         if key not in c.options],
    )
    def test_unread_key_rejected(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key}=1\n")  # "1" parses for every key
        for extra, named in [([_flag(key), "1"], _flag(key)),
                             (["--config", str(cfg)], repr(key))]:
            code, stdout, stderr = run(_file_args(command, tmp_path) + extra, capsys)
            assert (code, stdout) == (1, "")
            assert named in json.loads(stderr)["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synth", "--out", "x.csv", "--n", "banana"], "argument --n: invalid int"),
            (["attack-eval", "--out", "a.csv", "--data", "d", "--eval-data", "d",
              "--model", "m", "--record", "r", "--epsilon-grid", "0.1,x"],
             "argument --epsilon-grid: invalid comma_separated_floats value: '0.1,x'"),
            (["train", "--out", "m.json", "--data", "d", "--hidden-dims", "4,2.5"],
             "argument --hidden-dims: invalid comma_separated_ints value: '4,2.5'"),
            (["train", "--out", "m.json"], "required: --data"),
            (["attack-eval", "--out", "a.csv", "--data", "d", "--eval-data", "d",
              "--record", "r"], "required: --model"),
            (["synth", "--out", "x.csv", "--sep", "3"], "unrecognized arguments: --sep"),
            (["robust-predict", "--out", "x.csv", "--data", "d", "--record", "r",
              "--alpha", "0.2"], "unrecognized arguments: --alpha"),
            ([], "required: command"),
            (["robust-predict", "--out", "x.csv", "--data", "d", "--record", "r",
              "--epsilon", "nan"], "argument --epsilon: invalid finite_float value: 'nan'"),
            (["attack-eval", "--out", "a.csv", "--data", "d", "--eval-data", "d",
              "--model", "m", "--record", "r", "--epsilon-grid", "nan,0.1"],
             "argument --epsilon-grid: invalid comma_separated_floats value: 'nan,0.1'"),
            (["attack-eval", "--out", "a.csv", "--data", "d", "--eval-data", "d",
              "--model", "m", "--record", "r", "--epsilon-grid", "inf"],
             "argument --epsilon-grid: invalid comma_separated_floats value: 'inf'"),
            (["calibrate", "--out", "r.json", "--data", "logits.csv", "--temperature", "nan"],
             "argument --temperature: invalid finite_float value: 'nan'"),
            (["calibrate", "--out", "r.json", "--data", "logits.csv", "--bias", "nan"],
             "argument --bias: invalid finite_float value: 'nan'"),
            (["poison-certify", "--out", "c.json", "--data", "logits.csv", "--epsilon", "nan"],
             "argument --epsilon: invalid finite_float value: 'nan'"),
            (["synth", "--out", "x.csv", "--separation", "nan"],
             "argument --separation: invalid finite_float value: 'nan'"),
            (["train", "--out", "m.json", "--data", "d", "--lr=-inf"],
             "argument --lr: invalid finite_float value: '-inf'"),
            (["train", "--out", "m.json", "--data", "d", "--lr", "-inf"],
             "argument --lr: invalid finite_float value: '-inf'"),
            (["calibrate", "--out", "r.json", "--data", "logits.csv",
              "--score-kind", "lac_softmax", "--bias", "5"], "0 for lac_softmax"),
            (["calibrate", "--out", "r.json", "--data", "logits.csv", "--epsilon", "-0.5"],
             "epsilon must be nonnegative"),
            (["robust-predict", "--out", "x.csv", "--data", "d", "--record", "r",
              "--config", "nan.cfg"], "nan.cfg:1: bad value for epsilon"),
        ],
        ids=["bad-value", "bad-float-list", "bad-int-list", "no-data", "no-model",
             "abbreviation", "unread-flag", "no-command", "nan-epsilon", "nan-in-grid",
             "inf-grid", "nan-temperature", "nan-bias", "nan-poison-epsilon",
             "nan-separation", "minus-inf-lr", "spaced-minus-inf-lr", "softmax-bias",
             "negative-calibrate-epsilon",
             "nan-epsilon-in-config"],
    )
    def test_parser_error_is_json(self, tmp_path, monkeypatch, capsys, argv, message):
        # relative paths resolve in tmp_path, which holds only these two files
        monkeypatch.chdir(tmp_path)
        rows = "".join(f"{i},{i % 2},{i / 10},{-i / 10}\n" for i in range(20))
        Path("logits.csv").write_text("id,label,logit_0,logit_1\n" + rows)
        Path("nan.cfg").write_text("epsilon=nan\n")
        code, stdout, stderr = run(argv, capsys)
        assert (code, stdout) == (1, "")
        assert message in json.loads(stderr)["error"]
        assert sorted(os.listdir()) == ["logits.csv", "nan.cfg"]  # no output file

    def test_negative_exponent_value(self, tmp_path, capsys):
        # argparse would read "-1e-3" as a flag; it must reach --bias's parser
        data = tmp_path / "logits.csv"
        rows = "".join(f"{i},{i % 2},{i / 10},{-i / 10}\n" for i in range(20))
        data.write_text("id,label,logit_0,logit_1\n" + rows)
        written = []
        for bias in (["--bias", "-1e-3"], ["--bias=-1e-3"]):
            out = tmp_path / "record.json"
            code, _, stderr = run(["calibrate", "--data", str(data), "--out", str(out),
                                   "--alpha", "0.2", *bias], capsys)
            assert code == 0, stderr
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["score_spec"]["bias"] == -1e-3

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["audit", "--help"])
        assert exc.value.code == 0
        assert "--correction-mode" in capsys.readouterr().out


# every command's options at their defaults, spelled out; hidden_dims is the
# data's width (4) and the PGD step is epsilon / 4
_SPELLED_DEFAULTS = {
    "synth": ["--seed", "0", "--n", "1000", "--d", "8", "--c", "4",
              "--separation", "4.0"],
    "train": ["--seed", "0", "--hidden-dims", "4", "--epochs", "200", "--lr", "0.5"],
    "calibrate": ["--score-kind", "lac_sigmoid", "--temperature", "1.0", "--bias", "0.0",
                  "--alpha", "0.1", "--epsilon", "0.0"],
    "predict": [],
    "robust-predict": ["--epsilon", "0.0", "--bound-method", "tight_monotone"],
    "audit": ["--bound-method", "tight_monotone", "--delta", "0.1",
              "--correction-mode", "appendix_corrected"],
    "attack-eval": ["--bound-method", "tight_monotone", "--delta", "0.1",
                    "--correction-mode", "appendix_corrected", "--epsilon-grid", "0.25",
                    "--seed", "0", "--attack-steps", "40", "--attack-step-size", "0.0625",
                    "--attack-restarts", "3"],
    "poison-certify": ["--score-kind", "lac_sigmoid", "--temperature", "1.0",
                       "--bias", "0.0", "--alpha", "0.1", "--epsilon", "0.0", "--k", "0"],
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_defaults_match_spelled_out_flags(workspace, capsys, command):
    # the spelled-out flags are exactly the command's keys, no more
    options = cli.COMMANDS[command].options
    assert _SPELLED_DEFAULTS[command][::2] == [_flag(key) for key in options]
    files = {"data": workspace["eval"], "eval_data": workspace["eval"],
             "model": workspace["model"], "record": workspace["record"]}
    written = []
    for name, extra in [("bare", []), ("spelled", _SPELLED_DEFAULTS[command])]:
        out = workspace["tmp"] / name / "out.txt"
        out.parent.mkdir()
        argv = [command, "--out", str(out), *extra]
        for key in cli.COMMANDS[command].files:
            argv += [_flag(key), str(files[key])]
        code, _, stderr = run(argv, capsys)
        assert code == 0, stderr
        written.append({f.name: f.read_bytes() for f in out.parent.iterdir()})
    assert written[0] == written[1]
    assert "out.txt" in written[0]


class TestMissingFiles:
    def test_missing_data_errors_cleanly(self, workspace, capsys):
        code, _, stderr = run(
            ["predict", "--data", str(workspace["tmp"] / "absent.csv"),
             "--model", str(workspace["model"]),
             "--record", str(workspace["record"]),
             "--out", str(workspace["tmp"] / "sets.csv")], capsys
        )
        assert code == 1
        assert "absent.csv" in json.loads(stderr)["error"]

    def test_missing_record_errors_cleanly(self, workspace, capsys):
        code, _, stderr = run(
            ["predict", "--data", str(workspace["eval"]),
             "--model", str(workspace["model"]),
             "--record", str(workspace["tmp"] / "absent.json"),
             "--out", str(workspace["tmp"] / "sets.csv")], capsys
        )
        assert code == 1
        assert "absent.json" in json.loads(stderr)["error"]


# every command that reads a data file, with the argv that makes it read `bad`
_DATA_READERS = {
    "train": lambda w, bad: ["--data", bad],
    "calibrate": lambda w, bad: ["--data", bad, "--model", w["model"]],
    "predict": lambda w, bad: ["--data", bad, "--model", w["model"], "--record", w["record"]],
    "robust-predict": lambda w, bad: ["--data", bad, "--model", w["model"],
                                      "--record", w["record"], "--epsilon", "0.1"],
    "audit": lambda w, bad: ["--data", bad, "--model", w["model"], "--record", w["record"]],
    "attack-eval": lambda w, bad: ["--data", bad, "--eval-data", w["eval"],
                                   "--model", w["model"], "--record", w["record"]],
    "attack-eval-band": lambda w, bad: ["--data", w["eval"], "--eval-data", bad,
                                        "--model", w["model"], "--record", w["record"]],
    "poison-certify": lambda w, bad: ["--data", bad, "--model", w["model"], "--k", "2"],
}


class TestTooFewRows:
    @pytest.mark.parametrize("command", list(_DATA_READERS))
    def test_header_only_inputs_name_their_file(self, workspace, capsys, command):
        empty = workspace["tmp"] / "empty.csv"
        empty.write_text(workspace["eval"].read_text().splitlines()[0] + "\n")
        files = {k: str(v) for k, v in workspace.items()}
        argv = [command.removesuffix("-band"), *_DATA_READERS[command](files, str(empty)),
                "--out", str(workspace["tmp"] / "out" / "x")]
        code, stdout, stderr = run(argv, capsys)
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {"error": f"{empty}: no data rows"}
        assert not (workspace["tmp"] / "out").exists()

    @pytest.mark.parametrize("command", ["calibrate", "predict", "robust-predict", "audit",
                                         "poison-certify"])
    def test_header_only_logits_name_their_file(self, workspace, capsys, command):
        empty = workspace["tmp"] / "empty.csv"
        empty.write_text("id,label,logit_0,logit_1")
        argv = [command, "--data", str(empty), "--out", str(workspace["tmp"] / "out" / "x")]
        if command in ("predict", "robust-predict", "audit"):
            argv += ["--record", str(workspace["record"])]
        code, stdout, stderr = run(argv, capsys)
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {"error": f"{empty}: no data rows"}
        assert not (workspace["tmp"] / "out").exists()

    def test_audit_one_row_errors_as_json(self, workspace, capsys):
        one = workspace["tmp"] / "one.csv"
        one.write_text("\n".join(workspace["eval"].read_text().splitlines()[:2]) + "\n")
        code, stdout, stderr = run(
            ["audit", "--data", str(one), "--model", str(workspace["model"]),
             "--record", str(workspace["record"]),
             "--out", str(workspace["tmp"] / "band.csv")], capsys
        )
        assert code == 1
        assert stdout == ""
        assert "m >= 2" in json.loads(stderr)["error"]


class TestPipeline:
    def test_train_reports_accuracy(self, workspace, capsys):
        code, stdout, _ = run(
            ["train", "--data", str(workspace["data"]),
             "--out", str(workspace["tmp"] / "m2.json"), "--epochs", "50",
             "--seed", "3"], capsys
        )
        doc = last_json(stdout)
        assert code == 0
        assert doc["train_accuracy"] >= 0.9
        assert doc["lipschitz_product"] == pytest.approx(1.0)

    @pytest.mark.parametrize("hidden", ["8", "4,3,4", "1"])
    def test_train_rejects_widening_layers(self, workspace, capsys, hidden):
        # the data has 4 columns and 2 classes
        out = workspace["tmp"] / "wide.json"
        code, stdout, stderr = run(
            ["train", "--data", str(workspace["data"]), "--out", str(out),
             "--hidden-dims", hidden, "--epochs", "1"], capsys
        )
        assert (code, stdout) == (1, "")
        message = json.loads(stderr)["error"]
        assert message.startswith(f"--hidden-dims {hidden}: layers may not widen")
        assert "4 columns and 2 classes" in message
        assert not out.exists()

    def test_train_help_says_layers_may_not_widen(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        assert "layers may not widen" in " ".join(capsys.readouterr().out.split())

    def test_predict_outputs_sets(self, workspace, capsys):
        out = workspace["tmp"] / "sets.csv"
        code, stdout, _ = run(
            ["predict", "--data", str(workspace["eval"]),
             "--model", str(workspace["model"]),
             "--record", str(workspace["record"]), "--out", str(out)], capsys
        )
        assert code == 0
        doc = last_json(stdout)
        assert 0.8 <= doc["coverage"] <= 1.0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,set_size,members"
        assert len(lines) == 201

    def test_robust_predict_nesting_check(self, workspace, capsys):
        out = workspace["tmp"] / "rsets.csv"
        code, stdout, _ = run(
            ["robust-predict", "--data", str(workspace["eval"]),
             "--model", str(workspace["model"]),
             "--record", str(workspace["record"]), "--out", str(out),
             "--epsilon", "0.3", "--check"], capsys
        )
        assert code == 0
        assert last_json(stdout)["coverage"] >= 0.8

    def test_audit_writes_band_and_sidecar(self, workspace, capsys):
        out = workspace["tmp"] / "band.csv"
        code, stdout, _ = run(
            ["audit", "--data", str(workspace["eval"]),
             "--model", str(workspace["model"]),
             "--record", str(workspace["record"]), "--out", str(out),
             "--delta", "0.1", "--check"], capsys
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "epsilon,covmin_minus,covmin_emp,covmax_emp,covmax_plus"
        body = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.all(body[:, 1] <= body[:, 2] + 1e-12)  # lower bound below emp
        assert np.all(body[:, 3] <= body[:, 4] + 1e-12)  # emp below upper bound
        meta = json.loads((workspace["tmp"] / "band.meta.json").read_text())
        assert meta["m"] == 200
        assert meta["delta"] == 0.1
        assert meta["delta_prime"] == pytest.approx(0.1 / 398)

    def test_attack_eval_within_band(self, workspace, capsys):
        out = workspace["tmp"] / "attack.csv"
        code, stdout, _ = run(
            ["attack-eval", "--data", str(workspace["eval"]),
             "--eval-data", str(workspace["eval"]),
             "--model", str(workspace["model"]),
             "--record", str(workspace["record"]), "--out", str(out),
             "--epsilon-grid", "0.0,0.2,0.5", "--attack-steps", "10",
             "--seed", "7", "--check"], capsys
        )
        assert code == 0
        doc = last_json(stdout)
        assert doc["grid_points"] == 3
        assert doc["band_escapes"] == 0

    def test_softmax_record_through_audit_and_attack_eval(self, workspace, capsys):
        tmp = workspace["tmp"]
        common = ["--data", str(workspace["eval"]), "--model", str(workspace["model"])]
        record = str(tmp / "softmax.json")
        softmax = ["--score-kind", "lac_softmax", "--temperature", "0.5"]
        commands = [
            ["calibrate", *common, "--out", str(tmp / "shifted.json"), "--epsilon", "0.1",
             *softmax],
            ["poison-certify", *common, "--out", str(tmp / "cert.json"), "--k", "3",
             "--epsilon", "0.1", *softmax],
            ["calibrate", *common, "--out", record, "--alpha", "0.1", *softmax],
            ["robust-predict", *common, "--record", record,
             "--out", str(tmp / "rsets.csv"), "--epsilon", "0.25", "--check"],
            ["robust-predict", *common, "--record", record, "--out", str(tmp / "gsets.csv"),
             "--epsilon", "0.25", "--bound-method", "global_lipschitz", "--check"],
            ["audit", *common, "--record", record, "--out", str(tmp / "band.csv"),
             "--check"],
            ["audit", *common, "--record", record, "--out", str(tmp / "gband.csv"),
             "--bound-method", "global_lipschitz", "--check"],
            ["attack-eval", *common, "--eval-data", str(workspace["eval"]),
             "--record", record, "--out", str(tmp / "attack.csv"),
             "--epsilon-grid", "0.0,0.25,0.5", "--attack-steps", "10", "--seed", "7",
             "--check"],
        ]
        for argv in commands:
            code, stdout, stderr = run(argv, capsys)
            assert code == 0, (argv[0], stderr)
        assert last_json(stdout)["band_escapes"] == 0

    def test_attack_eval_columns_follow_their_files(self, workspace, capsys):
        # the band comes from --eval-data and mean_set_size from --data,
        # whether the two flags name one file (loaded once) or two; at
        # epsilon > 0 the size is that of the sets at the attacked inputs
        tmp = workspace["tmp"]
        model = ["--model", str(workspace["model"]), "--record", str(workspace["record"])]
        assert cli.main(["audit", "--data", str(workspace["eval"]), *model,
                         "--out", str(tmp / "band.csv"), "--delta", "0.1"]) == 0
        band_at_zero = (tmp / "band.csv").read_text().splitlines()[1].split(",")
        net = lipnet.from_json(workspace["model"].read_text())
        rec = conformal.CalibrationRecord.from_json(workspace["record"].read_text())
        for data in (workspace["data"], workspace["eval"]):
            assert cli.main(["predict", "--data", str(data), *model,
                             "--out", str(tmp / "sets.csv")]) == 0
            size = last_json(capsys.readouterr().out)["mean_set_size"]
            code, _, _ = run(
                ["attack-eval", "--data", str(data),
                 "--eval-data", str(workspace["eval"]), *model,
                 "--out", str(tmp / "attack.csv"), "--epsilon-grid", "0.0,0.5",
                 "--attack-steps", "3", "--seed", "4"], capsys
            )
            assert code == 0
            rows = [r.split(",") for r in (tmp / "attack.csv").read_text().splitlines()[1:]]
            assert float(rows[0][2]) == size
            assert [rows[0][3], rows[0][4]] == [band_at_zero[1], band_at_zero[4]]
            ds = datasets.load_inputs_csv(data)
            cfg = attack.AttackConfig(epsilon=0.5, steps=3, seed=4)
            mask = attack.undecided_rows(
                net, rec, lipnet.forward(net, ds.data), ds.labels, cfg
            )
            attacked = attack.pgd_attack_batch(
                net, ds.data, ds.labels, cfg, mask=mask, cal=rec
            )
            member = conformal.vanilla_membership(rec, lipnet.forward(net, attacked))
            assert mask.any()
            assert float(rows[1][2]) == float(member.sum(axis=1).mean())

    @staticmethod
    def scaled_model(workspace):
        """The workspace model with its first layer doubled, and its product:
        a scaled, non-orthogonal first layer makes the product differ from 1."""
        doc = json.loads(workspace["model"].read_text())
        doc["layers"][0]["weight"] = (2 * np.array(doc["layers"][0]["weight"])).tolist()
        doc["layers"][0]["orthogonal"] = False
        scaled = workspace["tmp"] / "scaled.json"
        scaled.write_text(json.dumps(doc))
        ln = lipnet.from_json(scaled.read_text()).lipschitz_product
        assert ln > 1.5
        return scaled, ln

    @pytest.mark.parametrize("command", ["calibrate", "poison-certify"])
    def test_model_parsed_once(self, workspace, capsys, monkeypatch, command):
        scaled, ln = self.scaled_model(workspace)
        parses = []
        parse = lipnet.from_json
        monkeypatch.setattr(
            lipnet, "from_json", lambda text: parses.append(1) or parse(text)
        )
        out = workspace["tmp"] / "out.json"
        code, _, _ = run(
            [command, "--data", str(workspace["eval"]), "--model", str(scaled),
             "--out", str(out), "--epsilon", "0.1"], capsys
        )
        assert code == 0
        assert len(parses) == 1
        written = json.loads(out.read_text())
        if command == "calibrate":
            assert written["lipschitz_product"] == ln
        else:
            budget = poison.PoisonBudget(k=0, epsilon=0.1, lipschitz_product=ln)
            assert written["delta_score"] == budget.delta_score

    def test_model_product_is_certified(self, workspace, capsys):
        # robust-predict, audit and attack-eval certify with the product of
        # --model: a record that understates it writes the same files as the
        # record calibrated on that model
        tmp = workspace["tmp"]
        scaled, ln = self.scaled_model(workspace)
        common = ["--data", str(workspace["eval"]), "--model", str(scaled)]
        calibrated = tmp / "calibrated.json"
        assert cli.main(["calibrate", *common, "--out", str(calibrated)]) == 0
        doc = json.loads(calibrated.read_text())
        assert doc["lipschitz_product"] == ln
        understated = tmp / "understated.json"
        understated.write_text(json.dumps({**doc, "lipschitz_product": 1.0}))
        written = []
        for record in (calibrated, understated):
            out = tmp / record.stem
            for argv in (
                ["robust-predict", "--out", str(out / "rsets.csv"), "--epsilon", "0.3"],
                ["audit", "--out", str(out / "band.csv")],
                ["attack-eval", "--out", str(out / "attack.csv"), "--eval-data",
                 str(workspace["eval"]), "--epsilon-grid", "0.0,0.3", "--attack-steps", "3"],
            ):
                code, _, stderr = run([*argv, *common, "--record", str(record)], capsys)
                assert code == 0, stderr
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert written[0] == written[1]

    def test_poison_certify_json(self, workspace, capsys):
        out = workspace["tmp"] / "cert.json"
        code, stdout, _ = run(
            ["poison-certify", "--data", str(workspace["eval"]),
             "--model", str(workspace["model"]), "--out", str(out),
             "--alpha", "0.1", "--k", "3", "--epsilon", "0.2"], capsys
        )
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["q_min"] <= cert["q_nominal"] <= cert["q_max"]
        assert cert["k"] == 3

    def test_calibrate_invalid_alpha_exits(self, workspace, capsys):
        code, stdout, stderr = run(
            ["calibrate", "--data", str(workspace["eval"]),
             "--model", str(workspace["model"]),
             "--out", str(workspace["tmp"] / "r.json"), "--alpha", "0.0001"], capsys
        )
        assert code == 1
        assert stdout == ""
        assert "alpha" in json.loads(stderr)["error"]


class TestCheckFailures:
    """A violated --check invariant is a JSON error with exit 1."""

    def sets_argv(self, workspace, command, out):
        return [command, "--data", str(workspace["eval"]), "--model",
                str(workspace["model"]), "--record", str(workspace["record"]),
                "--out", str(workspace["tmp"] / out), "--check"]

    def test_robust_predict_nesting(self, workspace, capsys, monkeypatch):
        # an empty conservative set cannot contain the vanilla one
        monkeypatch.setattr(robust, "conservative_membership",
                            lambda record, logits, *_: np.zeros(logits.shape, bool))
        code, stdout, stderr = run(
            self.sets_argv(workspace, "robust-predict", "rsets.csv"), capsys
        )
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {"error": "invariant violated: set nesting"}
        assert not (workspace["tmp"] / "rsets.csv").exists()

    def test_audit_sandwich(self, workspace, capsys, monkeypatch):
        # swapped empirical curves put covmin above covmax
        curves = audit.coverage_curves
        monkeypatch.setattr(audit, "coverage_curves", lambda crit: curves(crit)[::-1])
        code, stdout, stderr = run(self.sets_argv(workspace, "audit", "band.csv"), capsys)
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {"error": "invariant violated: band sandwich"}
        assert not (workspace["tmp"] / "band.csv").exists()

    def test_attack_eval_escape(self, workspace, capsys, monkeypatch):
        # budgets that understate the Lipschitz product a billionfold give a
        # band that stays flat, and PGD escapes it
        crit = audit.critical_epsilons
        monkeypatch.setattr(audit, "critical_epsilons", lambda record, *args: crit(
            replace(record, lipschitz_product=1e-9), *args))
        out = workspace["tmp"] / "attack.csv"
        argv = ["attack-eval", "--data", str(workspace["eval"]),
                "--eval-data", str(workspace["eval"]), "--model", str(workspace["model"]),
                "--record", str(workspace["record"]), "--out", str(out),
                "--epsilon-grid", "0.0,2.0", "--attack-steps", "10", "--seed", "4"]
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        assert last_json(stdout)["band_escapes"] == 1
        unchecked = out.read_bytes()
        out.unlink()
        code, stdout, stderr = run(argv + ["--check"], capsys)
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {
            "error": "invariant violated: 1 grid points escape the band"
        }
        assert out.read_bytes() == unchecked  # written before the check fails

    def test_one_row_eval_data_fails_before_any_attack(self, workspace, capsys, monkeypatch):
        one = workspace["tmp"] / "one.csv"
        one.write_text("\n".join(workspace["eval"].read_text().splitlines()[:2]) + "\n")
        calls = []
        monkeypatch.setattr(attack, "coverage_under_attack", lambda *a: calls.append(a))
        out = workspace["tmp"] / "attack.csv"
        code, stdout, stderr = run(
            ["attack-eval", "--data", str(workspace["eval"]), "--eval-data", str(one),
             "--model", str(workspace["model"]), "--record", str(workspace["record"]),
             "--out", str(out), "--epsilon-grid", "0.5"], capsys
        )
        assert (code, stdout, calls) == (1, "", [])
        assert json.loads(stderr) == {
            "error": f"{one}: certified band needs m >= 2 evaluation samples, got 1"
        }
        assert not out.exists()


class TestBadValues:
    """An option value outside its range is one JSON error naming it, and
    nothing is written."""

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("synth", "--n", "-5", "--n -5: synth needs at least 1 row"),
            ("synth", "--n", "0", "--n 0: synth needs at least 1 row"),
            ("train", "--epochs", "-1", "--epochs -1: must be 0 or more"),
            ("train", "--lr", "-1e3", "lr must be positive, got -1000.0"),
            ("train", "--lr", "0", "lr must be positive, got 0.0"),
            ("audit", "--delta", "1.5", "delta=1.5 outside (0, 1)"),
            ("audit", "--delta", "0", "delta=0.0 outside (0, 1)"),
            ("audit", "--delta", "-0.1", "delta=-0.1 outside (0, 1)"),
            ("attack-eval", "--delta", "1.5", "delta=1.5 outside (0, 1)"),
            ("attack-eval", "--delta", "1", "delta=1.0 outside (0, 1)"),
        ],
        ids=["synth-negative-n", "synth-zero-n", "train-negative-epochs",
             "train-negative-lr", "train-zero-lr",
             "audit-delta-above-1", "audit-zero-delta", "audit-negative-delta",
             "attack-eval-delta-above-1", "attack-eval-delta-1"],
    )
    def test_out_of_range_is_json(self, workspace, capsys, monkeypatch, command, flag,
                                  value, message):
        calls = []
        monkeypatch.setattr(attack, "coverage_under_attack", lambda *a: calls.append(a))
        files = {k: str(v) for k, v in workspace.items()}
        argv = [command, "--out", str(workspace["tmp"] / "out" / "x"), flag, value]
        if command != "synth":
            argv += _DATA_READERS[command](files, files["eval"])
        code, stdout, stderr = run(argv, capsys)
        assert (code, stdout, calls) == (1, "", [])
        assert json.loads(stderr) == {"error": message}
        assert not (workspace["tmp"] / "out").exists()

    @pytest.mark.parametrize("lr", ["1e20", "1e200"])
    def test_diverging_training_is_one_json_error(self, workspace, capsys, lr):
        # both rates leave Bjorck iteration too far to go; the error names
        # the layer it stalled in and the rate
        out = workspace["tmp"] / "out" / "model.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run(
                ["train", "--data", str(workspace["data"]), "--out", str(out),
                 "--lr", lr, "--epochs", "5"], capsys
            )
        assert (code, stdout) == (1, "")
        error = json.loads(stderr)
        assert list(error) == ["error"]
        assert re.fullmatch(r"Bjorck projection stalled at residual \S+ in layer 1 "
                            + re.escape(f"at lr={float(lr)}"), error["error"])
        assert not out.exists()

    def test_band_rejects_delta_outside_the_unit_interval(self):
        rec = conformal.CalibrationRecord(
            q_alpha=0.6, alpha=0.1, n_cal=100, score_spec=scores.ScoreSpec(),
            lipschitz_product=1.0,
        )
        crit = audit.critical_epsilons(rec, np.linspace(0.0, 1.0, 50))
        for delta in (1.5, 1.0, 0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="outside"):
                audit.certified_band(crit, delta)


class TestAttackOptions:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--attack-steps", "-3", "steps"),
            ("--attack-restarts", "0", "restarts"),
            ("--attack-restarts", "-2", "restarts"),
            ("--attack-step-size", "-0.5", "step size"),
            ("--attack-step-size", "0", "step size"),
        ],
    )
    def test_bad_option_is_json(self, workspace, capsys, flag, value, message):
        out = workspace["tmp"] / "attack.csv"
        code, stdout, stderr = run(
            ["attack-eval", "--data", str(workspace["eval"]),
             "--eval-data", str(workspace["eval"]), "--model", str(workspace["model"]),
             "--record", str(workspace["record"]), "--out", str(out),
             "--epsilon-grid", "0.5", flag, value], capsys
        )
        assert (code, stdout) == (1, "")
        assert message in json.loads(stderr)["error"]
        assert not out.exists()


def _layer_doc(**override):
    layer = {"weight": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0],
             "orthogonal": True}
    layer.update(override)
    return {key: value for key, value in layer.items() if value is not None}


class TestMalformedFiles:
    """A model or record file of the wrong shape is a JSON error, never a traceback."""

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"activation": "groupsort2"}, "'layers'"),
            ({"activation": "groupsort2", "layers": 5}, "'layers'"),
            ({"activation": "groupsort2", "layers": [_layer_doc(orthogonal=None)]},
             "'orthogonal'"),
            ({"activation": "groupsort2", "layers": [_layer_doc(bias=[{}, 0.0])]},
             "model layer"),
            ([1, 2], "JSON object"),
            ({"activation": "groupsort2",
              "layers": [_layer_doc(weight=[[float("nan"), 0.0], [0.0, 1.0]])]},
             "flagged orthogonal"),
        ],
        ids=["no-layers", "layers-not-list", "layer-no-orthogonal",
             "non-numeric-bias", "not-object", "nan-orthogonal-weight"],
    )
    def test_bad_model(self, workspace, capsys, model, message):
        bad = workspace["tmp"] / "bad_model.json"
        bad.write_text(json.dumps(model))
        code, stdout, stderr = run(
            ["predict", "--data", str(workspace["eval"]), "--model", str(bad),
             "--record", str(workspace["record"]),
             "--out", str(workspace["tmp"] / "sets.csv")], capsys
        )
        assert code == 1
        assert stdout == ""
        assert message in json.loads(stderr)["error"]

    def test_bad_logits_cell_names_its_line(self, workspace, capsys):
        # the error is the logits file's own, not a retry as raw inputs
        bad = workspace["tmp"] / "bad_logits.csv"
        bad.write_text("id,label,logit_0,logit_1\n0,0,1.0,-1.0\n1,1,abc,0.5\n")
        out = workspace["tmp"] / "sets.csv"
        code, stdout, stderr = run(
            ["predict", "--data", str(bad), "--record", str(workspace["record"]),
             "--out", str(out)], capsys
        )
        assert (code, stdout) == (1, "")
        assert json.loads(stderr)["error"].startswith(f"{bad}:3: non-numeric cell")
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_names_its_line(self, workspace, capsys, cell):
        # such a cell used to load, and its class silently left every set
        logits = workspace["tmp"] / "logits.csv"
        logits.write_text(f"id,label,logit_0,logit_1\n0,0,1.0,-1.0\n1,1,{cell},0.5\n")
        inputs = workspace["tmp"] / "inputs.csv"
        lines = workspace["data"].read_text().splitlines()
        lines[2] = ",".join([*lines[2].split(",")[:3], cell, *lines[2].split(",")[4:]])
        inputs.write_text("\n".join(lines) + "\n")
        out = workspace["tmp"] / "out" / "x"
        for argv in (["predict", "--data", str(logits), "--record", str(workspace["record"])],
                     ["train", "--data", str(inputs)]):
            code, stdout, stderr = run([*argv, "--out", str(out)], capsys)
            assert (code, stdout) == (1, "")
            assert json.loads(stderr)["error"] == f"{argv[2]}:3: non-finite cell {cell!r}"
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {"alpha": 0.1}, "'q_alpha'"),
            (lambda doc: [1, 2], "JSON object"),
            (lambda doc: {**doc, "q_alpha": None}, "calibration record"),
            (lambda doc: {**doc, "score_spec": {"temperature": 1.0}}, "'kind'"),
            (lambda doc: {**doc, "lipschitz_product": -1.0}, "'lipschitz_product'"),
            (lambda doc: {**doc, "lipschitz_product": 0.0}, "'lipschitz_product'"),
            (lambda doc: {**doc, "lipschitz_product": float("nan")}, "'lipschitz_product'"),
            (lambda doc: {**doc, "lipschitz_product": float("inf")}, "'lipschitz_product'"),
            (lambda doc: {**doc, "q_alpha": float("nan")}, "'q_alpha'"),
            (lambda doc: {**doc, "q_alpha": float("-inf")}, "'q_alpha'"),
            (lambda doc: {**doc, "score_spec": {**doc["score_spec"], "temperature": float("nan")}},
             "temperature"),
            (lambda doc: {**doc, "score_spec": {**doc["score_spec"], "temperature": 0.0}},
             "temperature"),
            (lambda doc: {**doc, "score_spec": {**doc["score_spec"], "bias": float("inf")}},
             "bias"),
            (lambda doc: {**doc, "score_spec": {"kind": "lac_softmax", "temperature": 1.0,
                                                "bias": 5.0}}, "bias"),
        ],
        ids=["no-q_alpha", "not-object", "null-q_alpha", "spec-no-kind",
             "negative-lipschitz", "zero-lipschitz", "nan-lipschitz", "inf-lipschitz",
             "nan-q_alpha", "minus-inf-q_alpha", "nan-temperature", "zero-temperature",
             "inf-bias", "softmax-bias"],
    )
    def test_bad_record(self, workspace, capsys, edit, message):
        bad = workspace["tmp"] / "bad_record.json"
        bad.write_text(json.dumps(edit(json.loads(workspace["record"].read_text()))))
        code, stdout, stderr = run(
            ["predict", "--data", str(workspace["eval"]),
             "--model", str(workspace["model"]), "--record", str(bad),
             "--out", str(workspace["tmp"] / "sets.csv")], capsys
        )
        assert code == 1
        assert stdout == ""
        assert message in json.loads(stderr)["error"]


class TestStrictJson:
    """--model and --record are read by one JSON reader, with strict types."""

    def predict(self, workspace, capsys, model=None, record=None):
        return run(
            ["predict", "--data", str(workspace["eval"]),
             "--model", str(model or workspace["model"]),
             "--record", str(record or workspace["record"]),
             "--out", str(workspace["tmp"] / "sets.csv")], capsys
        )

    @pytest.mark.parametrize("which", ["model", "record"])
    @pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000, "{", ""],
                             ids=["deep", "truncated", "empty"])
    def test_unreadable_json_names_its_file(self, workspace, capsys, which, text):
        bad = workspace["tmp"] / f"bad_{which}.json"
        bad.write_text(text)
        code, stdout, stderr = self.predict(workspace, capsys, **{which: bad})
        assert (code, stdout) == (1, "")
        error = json.loads(stderr)["error"]
        assert error.startswith(f"{bad}: not a readable JSON document (")
        assert not (workspace["tmp"] / "sets.csv").exists()

    @pytest.mark.parametrize("flag", ["no", 1, None, "true"])
    def test_orthogonal_must_be_a_json_boolean(self, workspace, capsys, flag):
        doc = json.loads(workspace["model"].read_text())
        doc["layers"][0]["orthogonal"] = flag
        bad = workspace["tmp"] / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code, stdout, stderr = self.predict(workspace, capsys, model=bad)
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {"error": "model layer 0: 'orthogonal' must be a "
                                               f"JSON boolean, got {type(flag).__name__}"}

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {**doc, "q_alpha": True}, "'q_alpha' must be a number, got bool"),
            (lambda doc: {**doc, "alpha": "0.1"}, "'alpha' must be a number, got str"),
            (lambda doc: {**doc, "n_cal": 200.0}, "'n_cal' must be an integer, got float"),
            (lambda doc: {**doc, "n_cal": False}, "'n_cal' must be an integer, got bool"),
            (lambda doc: {**doc, "epsilon_calibrated": [0.0]},
             "'epsilon_calibrated' must be a number, got list"),
            (lambda doc: {**doc, "lipschitz_product": 10**400}, "'lipschitz_product' is out of range"),
            (lambda doc: {**doc, "score_spec": {**doc["score_spec"], "temperature": "1"}},
             "score_spec: 'temperature' must be a number, got str"),
            (lambda doc: {**doc, "score_spec": {**doc["score_spec"], "bias": True}},
             "score_spec: 'bias' must be a number, got bool"),
        ],
        ids=["bool-q_alpha", "str-alpha", "float-n_cal", "bool-n_cal", "list-epsilon",
             "huge-int-lipschitz", "str-temperature", "bool-bias"],
    )
    def test_record_numbers_must_be_json_numbers(self, workspace, capsys, edit, message):
        bad = workspace["tmp"] / "bad_record.json"
        bad.write_text(json.dumps(edit(json.loads(workspace["record"].read_text()))))
        code, stdout, stderr = self.predict(workspace, capsys, record=bad)
        assert (code, stdout) == (1, "")
        assert message in json.loads(stderr)["error"]


def test_out_of_memory_is_one_json_error(workspace, capsys, monkeypatch):
    # the trace's first buffer fails as numpy's would; never a huge real request
    def refuse(self, model, rows):
        raise MemoryError(f"Unable to allocate {rows} rows")

    monkeypatch.setattr(lipnet.Trace, "__init__", refuse)
    out = workspace["tmp"] / "out" / "model.json"
    code, stdout, stderr = run(
        ["train", "--data", str(workspace["data"]), "--out", str(out), "--epochs", "1"], capsys
    )
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "out of memory: Unable to allocate 400 rows"}
    assert not out.exists()


def _relabel(src, dst, label):
    """A copy of the CSV `src` whose second row carries `label`."""
    lines = src.read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join([cells[0], label, *cells[2:]])
    dst.write_text("\n".join(lines) + "\n")


class TestBadLabels:
    """A label that names no class is one JSON error naming its line, in
    every command that reads labels; -1 used to read as the last class."""

    # train's labels define its classes, so there a label of 2 makes a third
    @pytest.mark.parametrize("command, label", [
        (command, label) for command in _DATA_READERS for label in ["-1", "2", str(2**64)]
        if (command, label) != ("train", "2")
    ])
    def test_raw_inputs(self, workspace, capsys, command, label):
        bad = workspace["tmp"] / "bad.csv"
        _relabel(workspace["eval"], bad, label)
        files = {k: str(v) for k, v in workspace.items()}
        argv = [command.removesuffix("-band"), *_DATA_READERS[command](files, str(bad)),
                "--out", str(workspace["tmp"] / "out" / "x")]
        code, stdout, stderr = run(argv, capsys)
        assert (code, stdout) == (1, "")
        assert json.loads(stderr)["error"].startswith(f"{bad}:3: label {label} ")
        assert not (workspace["tmp"] / "out").exists()

    @pytest.mark.parametrize("label", ["-1", "2", str(2**64)])
    def test_logits(self, workspace, capsys, label):
        logits = workspace["tmp"] / "logits.csv"
        logits.write_text("id,label,logit_0,logit_1\n0,0,5.0,-5.0\n1,1,5.0,-5.0\n")
        bad = workspace["tmp"] / "bad.csv"
        _relabel(logits, bad, label)
        for command in ("calibrate", "predict", "audit", "poison-certify"):
            argv = [command, "--data", str(bad), "--out", str(workspace["tmp"] / "x")]
            if command in ("predict", "audit"):
                argv += ["--record", str(workspace["record"])]
            code, stdout, stderr = run(argv, capsys)
            assert (code, stdout) == (1, "")
            assert json.loads(stderr)["error"].startswith(f"{bad}:3: label {label} ")


_SCIPY_PROBE = """
import json, sys, weakref
from liprcp import attack, audit, cli, datasets, lipnet

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

attack_calls = []
coverage_under_attack = attack.coverage_under_attack

def probe(*args):
    attack_calls.append(scipy_loaded())
    return coverage_under_attack(*args)

attack.coverage_under_attack = probe

# weak references to the arrays the current command loaded or computed, and
# per band command how many of them were alive at its first inversion
refs = []
alive_at_band = {}

def keep(fn, arrays):
    def wrapper(*args):
        result = fn(*args)
        refs.extend(weakref.ref(a) for a in arrays(result))
        return result
    return wrapper

def fields(ds):
    return ds.data, ds.labels, ds.ids

datasets.load_logits_csv = keep(datasets.load_logits_csv, fields)
datasets.load_inputs_csv = keep(datasets.load_inputs_csv, fields)
lipnet.forward = keep(lipnet.forward, lambda logits: (logits,))
clopper_pearson_root = audit._clopper_pearson_root

def first_inversion(*args):
    alive = sum(ref() is not None for ref in refs)
    alive_at_band.setdefault(current[0], [alive, len(refs)])
    return clopper_pearson_root(*args)

audit._clopper_pearson_root = first_inversion

d = sys.argv[1]
io = {"data": d + "/data.csv", "model": d + "/model.json", "record": d + "/record.json"}
commands = [
    ["synth", "--out", io["data"], "--n", "200", "--d", "4", "--c", "2", "--seed", "1"],
    ["train", "--data", io["data"], "--out", io["model"], "--epochs", "5"],
    ["calibrate", "--data", io["data"], "--model", io["model"], "--out", io["record"]],
    ["predict", "--data", io["data"], "--model", io["model"], "--record", io["record"],
     "--out", d + "/sets.csv"],
    ["robust-predict", "--data", io["data"], "--model", io["model"],
     "--record", io["record"], "--out", d + "/rsets.csv", "--epsilon", "0.1"],
    ["poison-certify", "--data", io["data"], "--model", io["model"],
     "--out", d + "/cert.json", "--k", "2", "--epsilon", "0.1"],
    ["attack-eval", "--data", io["data"], "--eval-data", io["data"],
     "--model", io["model"], "--record", io["record"], "--out", d + "/attack.csv",
     "--epsilon-grid", "0.1,0.5", "--attack-steps", "2"],
    ["audit", "--data", io["data"], "--model", io["model"], "--record", io["record"],
     "--out", d + "/band.csv"],
]
loaded = []
current = [None]
for argv in commands:
    current[0] = argv[0]
    refs.clear()
    assert cli.main(argv) == 0, argv
    loaded.append([argv[0], scipy_loaded(), "numpy.ma" in sys.modules])
print(json.dumps({"commands": loaded, "attack_calls": attack_calls,
                  "alive_at_band": alive_at_band}))
"""


def test_no_command_loads_scipy_or_numpy_ma(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    # the band inverts its binomial tails in numpy alone, and dedupes its
    # breakpoints without np.unique, which imports numpy.ma
    assert loaded["commands"] == [
        ["synth", False, False], ["train", False, False], ["calibrate", False, False],
        ["predict", False, False], ["robust-predict", False, False],
        ["poison-certify", False, False], ["attack-eval", False, False],
        ["audit", False, False],
    ]
    assert loaded["attack_calls"] == [False, False]
    # the band commands drop their data, labels, ids and logits before the
    # band is built: only the true-label scores are alive at its first
    # inversion
    alive = loaded["alive_at_band"]
    assert sorted(alive) == ["attack-eval", "audit"]
    for command, (live, tracked) in alive.items():
        assert tracked >= 4 and live == 0, command


_NUMPY_RANDOM_PROBE = """
import json, sys
from liprcp import cli

d = sys.argv[1]
commands = [
    ["calibrate", "--data", d + "/logits.csv", "--out", d + "/record.json"],
    ["predict", "--data", d + "/logits.csv", "--record", d + "/record.json",
     "--out", d + "/sets.csv"],
    ["robust-predict", "--data", d + "/logits.csv", "--record", d + "/record.json",
     "--out", d + "/rsets.csv", "--epsilon", "0.1"],
    ["poison-certify", "--data", d + "/logits.csv", "--out", d + "/cert.json",
     "--k", "2", "--epsilon", "0.1"],
    ["synth", "--out", d + "/data.csv", "--n", "50", "--seed", "1"],
]
loaded = [["import", "numpy.random" in sys.modules]]
for argv in commands:
    assert cli.main(argv) == 0, argv
    loaded.append([argv[0], "numpy.random" in sys.modules])
print(json.dumps(loaded))
"""


def _write_logits(path: Path) -> None:
    """300 rows of 3 logits whose label's logit is raised by 2."""
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((300, 3))
    labels = rng.integers(0, 3, 300)
    logits[np.arange(300), labels] += 2.0
    rows = [f"{i},{y},{','.join(map(repr, row))}" for i, (y, row) in
            enumerate(zip(labels.tolist(), logits.tolist()))]
    path.write_text("id,label,logit_0,logit_1,logit_2\n" + "\n".join(rows) + "\n")


def _probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return env


def test_numpy_random_loads_only_to_draw(tmp_path):
    # importing numpy.random costs about 6 MB of the process's peak; the
    # commands on precomputed logits draw no random numbers
    _write_logits(tmp_path / "logits.csv")
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_RANDOM_PROBE, str(tmp_path)],
        env=_probe_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [
        ["import", False], ["calibrate", False], ["predict", False],
        ["robust-predict", False], ["poison-certify", False], ["synth", True],
    ]


_MODULES_PROBE = """
import json, sys
import liprcp

def loaded():
    return sorted(m.removeprefix("liprcp.") for m in sys.modules if m.startswith("liprcp."))

after_import = loaded()
from liprcp import cli

assert cli.main(sys.argv[1:]) == 0, sys.argv
print(json.dumps([after_import, loaded()]))
"""

# the liprcp modules each command loads besides cli, datasets and rng
_COMMAND_MODULES = {
    "synth": [],
    "train": ["lipnet", "scores"],
    "calibrate logits": ["conformal", "robust", "scores"],
    "calibrate inputs": ["conformal", "lipnet", "robust", "scores"],
    "predict logits": ["conformal", "scores"],
    "predict inputs": ["conformal", "lipnet", "scores"],
    "robust-predict logits": ["conformal", "robust", "scores"],
    "audit logits": ["audit", "conformal", "scores"],
    "audit inputs": ["audit", "conformal", "lipnet", "scores"],
    "attack-eval": ["attack", "audit", "conformal", "lipnet", "scores"],
    "poison-certify logits": ["conformal", "poison", "scores"],
    "poison-certify inputs": ["conformal", "lipnet", "poison", "scores"],
}


def test_each_command_loads_only_its_own_modules(workspace, capsys):
    # each command runs in a fresh interpreter, so its modules are its own
    tmp = workspace["tmp"]
    _write_logits(tmp / "logits.csv")
    assert cli.main(["calibrate", "--data", str(tmp / "logits.csv"),
                     "--out", str(tmp / "logits_record.json")]) == 0
    capsys.readouterr()
    inputs = ["--data", str(workspace["eval"]), "--model", str(workspace["model"])]
    logits = ["--data", str(tmp / "logits.csv")]
    record = {"inputs": ["--record", str(workspace["record"])],
              "logits": ["--record", str(tmp / "logits_record.json")]}
    argvs = {
        "synth": ["synth", "--n", "20"],
        "train": ["train", "--data", str(workspace["data"]), "--epochs", "1"],
        "attack-eval": ["attack-eval", *inputs, *record["inputs"],
                        "--eval-data", str(workspace["eval"]), "--attack-steps", "1"],
    }
    for case in _COMMAND_MODULES:
        command, _, data = case.partition(" ")
        if data:
            needs_record = command in ("predict", "robust-predict", "audit")
            argvs[case] = [command, *(inputs if data == "inputs" else logits),
                           *(record[data] if needs_record else [])]
    observed = {}
    for case, argv in argvs.items():
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_PROBE, *argv, "--out", str(tmp / "probe" / "x")],
            env=_probe_env(), cwd=tmp, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (case, proc.stderr)
        after_import, after_command = json.loads(proc.stdout.strip().splitlines()[-1])
        assert after_import == ["rng"], case
        observed[case] = set(after_command) - {"cli", "datasets", "rng"}
    for case, modules in observed.items():
        command, _, data = case.partition(" ")
        if command not in ("audit", "attack-eval"):
            assert not modules & {"attack", "audit"}, case
        if data == "logits":
            assert "lipnet" not in modules, case
        assert ("poison" in modules) == (command == "poison-certify"), case
        assert ("robust" in modules) == (command in ("calibrate", "robust-predict")), case
    assert {case: sorted(m) for case, m in observed.items()} == _COMMAND_MODULES


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_BLAS_PIN_PROBE = """
import importlib, json, os, sys

seen = []

class NumpyImportWatch:
    # records the BLAS thread variables as numpy is first imported
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({v: os.environ.get(v) for v in sys.argv[2:]})
        return None

sys.meta_path.insert(0, NumpyImportWatch())
importlib.import_module(sys.argv[1])
print(json.dumps(seen))
"""


def _blas_env(**preset) -> dict:
    # the three BLAS variables unset; LIPRCP_THREADS is no setting of liprcp's
    env = _probe_env()
    for var in _BLAS_VARS:
        env.pop(var, None)
    env["LIPRCP_THREADS"] = "2"
    env.update(preset)
    return env


@pytest.mark.parametrize("entry", ["liprcp.cli", "liprcp.attack"])
def test_blas_is_pinned_to_one_thread_before_numpy_loads(entry):
    # the console script imports liprcp.cli first, perfbench/traced.py
    # liprcp.attack; an OPENBLAS_NUM_THREADS the caller set is kept
    for preset, expected in [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")]:
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PIN_PROBE, entry, *_BLAS_VARS],
            env=_blas_env(**preset), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == [
            {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": expected, "MKL_NUM_THREADS": "1"}
        ]


def test_train_writes_the_bytes_of_one_blas_thread(tmp_path, capsys):
    # on a machine with two or more CPUs, a second OpenBLAS thread splits the
    # products differently and moves the trained weights' last bits
    data = tmp_path / "data.csv"
    assert cli.main(["synth", "--out", str(data), "--n", "2000", "--d", "32",
                     "--seed", "1"]) == 0
    capsys.readouterr()
    models = [tmp_path / "unset.json", tmp_path / "one_thread.json"]
    for model, preset in zip(models, [{}, {"OPENBLAS_NUM_THREADS": "1"}]):
        proc = subprocess.run(
            [sys.executable, "-m", "liprcp.cli", "train", "--data", str(data),
             "--out", str(model), "--epochs", "10"],
            env=_blas_env(**preset), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    assert models[0].read_bytes() == models[1].read_bytes()


def test_every_package_exception_is_a_value_error():
    # main prints a ValueError as one JSON error; any other class would end
    # a command in a traceback
    classes = []
    for info in pkgutil.iter_modules(liprcp.__path__):
        module = importlib.import_module(f"liprcp.{info.name}")
        classes += [obj for obj in vars(module).values() if isinstance(obj, type)
                    and issubclass(obj, BaseException) and obj.__module__ == module.__name__]
    names = {c.__name__ for c in classes}
    assert {"CheckError", "CsvFormatError", "TrainingDivergedError"} <= names
    assert [c for c in classes if not issubclass(c, ValueError)] == []


def test_literal_defaults_name_the_constants():
    # COMMANDS spells these defaults out so that building it loads neither
    # scores nor audit
    constants = {"score_kind": scores.LAC_SIGMOID, "bound_method": scores.TIGHT_MONOTONE,
                 "correction_mode": audit.APPENDIX_CORRECTED}
    for name, command in cli.COMMANDS.items():
        for key, constant in constants.items():
            if key in command.options:
                assert command.options[key] == constant, (name, key)
    assert cli.COMMANDS["audit"].options["correction_mode"] == audit.APPENDIX_CORRECTED


class TestReproducibility:
    def test_rerun_byte_identical(self, workspace, capsys):
        a = workspace["tmp"] / "a.csv"
        b = workspace["tmp"] / "b.csv"
        for out in (a, b):
            code, _, _ = run(
                ["audit", "--data", str(workspace["eval"]),
                 "--model", str(workspace["model"]),
                 "--record", str(workspace["record"]), "--out", str(out),
                 "--delta", "0.05"], capsys
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_creates_the_output_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "deeper" / "x.csv"
        code, _, stderr = run(["synth", "--out", str(out), "--n", "20", "--seed", "1"], capsys)
        assert code == 0, stderr
        assert out.read_text().startswith("id,label,")
        assert out.with_suffix(".meta.json").exists()

    def test_synth_seed_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run(["synth", "--out", str(out), "--n", "50", "--seed", "11"], capsys)
        assert a.read_bytes() == b.read_bytes()


def _sets_csv_per_row(ids, membership):
    """The per-row formatter that `cli._sets_csv` replaced, kept as its oracle."""
    lines = ["id,set_size,members"]
    for rid, row in zip(ids, membership):
        members = np.flatnonzero(row)
        lines.append(f"{rid},{members.size},{';'.join(str(c) for c in members)}")
    return "\n".join(lines) + "\n"


class TestWriters:
    @pytest.mark.parametrize("c", [2, 8, 9, 17])
    @pytest.mark.parametrize("n", [0, 1, 700])
    def test_sets_csv_matches_per_row_formatter(self, n, c):
        rng = np.random.default_rng(100 * c + n)
        # each row has its own density, so sets range from empty to full
        membership = rng.random((n, c)) < rng.random((n, 1))
        membership[::5] = False
        membership[1::5] = True
        # ids as the loader gives them: str, or float64 when there are no rows
        ids = np.array([f"r{i}" for i in rng.permutation(n)])
        assert cli._sets_csv(ids, membership) == _sets_csv_per_row(ids, membership)

    def test_band_is_written_a_block_at_a_time(self, tmp_path):
        rng = np.random.default_rng(33)
        rec = conformal.CalibrationRecord(
            q_alpha=0.6, alpha=0.1, n_cal=100, score_spec=scores.ScoreSpec(),
            lipschitz_product=1.0,
        )
        band = audit.certified_band(audit.critical_epsilons(rec, rng.uniform(size=100_000)), 0.1)
        out = tmp_path / "band.csv"
        tracemalloc.start()
        try:
            cli._write(out, cli._band_rows(band))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = len(out.read_text().splitlines()) - 1
        block = audit.BLOCK_ROWS  # the most rows one block of band.table() holds
        assert rows > 10 * block
        # per block row: its five floats as Python floats in a list and a
        # tuple (200 bytes), their text (under 100) and the float table
        # (40), with room; a grid or a table of every row would not fit
        assert peak < 400 * block
