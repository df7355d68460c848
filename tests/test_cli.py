import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from liprcp import audit, cli, conformal, scores


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


class TestTooFewRows:
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
        net = cli.lipnet.from_json(workspace["model"].read_text())
        rec = cli.conformal.CalibrationRecord.from_json(workspace["record"].read_text())
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
            ds = cli.datasets.load_inputs_csv(data)
            cfg = cli.attack.AttackConfig(epsilon=0.5, steps=3, seed=4)
            mask = cli.attack.undecided_rows(
                net, rec, cli.lipnet.forward(net, ds.data), ds.labels, cfg
            )
            attacked = cli.attack.pgd_attack_batch(
                net, ds.data, ds.labels, cfg, mask=mask, cal=rec
            )
            member = cli.conformal.vanilla_membership(rec, cli.lipnet.forward(net, attacked))
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
        ln = cli.lipnet.from_json(scaled.read_text()).lipschitz_product
        assert ln > 1.5
        return scaled, ln

    @pytest.mark.parametrize("command", ["calibrate", "poison-certify"])
    def test_model_parsed_once(self, workspace, capsys, monkeypatch, command):
        scaled, ln = self.scaled_model(workspace)
        parses = []
        parse = cli.lipnet.from_json
        monkeypatch.setattr(
            cli.lipnet, "from_json", lambda text: parses.append(1) or parse(text)
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
            budget = cli.poison.PoisonBudget(
                k=0, epsilon=0.1, lipschitz_product=ln,
                score_lipschitz=cli.scores.ScoreSpec().score_lipschitz,
            )
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
        monkeypatch.setattr(cli.robust, "conservative_membership",
                            lambda record, logits, *_: np.zeros(logits.shape, bool))
        code, stdout, stderr = run(
            self.sets_argv(workspace, "robust-predict", "rsets.csv"), capsys
        )
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {"error": "invariant violated: set nesting"}
        assert not (workspace["tmp"] / "rsets.csv").exists()

    def test_audit_sandwich(self, workspace, capsys, monkeypatch):
        # swapped empirical curves put covmin above covmax
        curves = cli.audit.coverage_curves
        monkeypatch.setattr(cli.audit, "coverage_curves", lambda crit: curves(crit)[::-1])
        code, stdout, stderr = run(self.sets_argv(workspace, "audit", "band.csv"), capsys)
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {"error": "invariant violated: band sandwich"}
        assert not (workspace["tmp"] / "band.csv").exists()

    def test_attack_eval_escape(self, workspace, capsys, monkeypatch):
        # budgets that understate the Lipschitz product a billionfold give a
        # band that stays flat, and PGD escapes it
        crit = cli.audit.critical_epsilons
        monkeypatch.setattr(cli.audit, "critical_epsilons", lambda record, *args: crit(
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


def _relabel(src, dst, label):
    """A copy of the CSV `src` whose second row carries `label`."""
    lines = src.read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join([cells[0], label, *cells[2:]])
    dst.write_text("\n".join(lines) + "\n")


_LABEL_READERS = {
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


class TestBadLabels:
    """A label that names no class is one JSON error naming its line, in
    every command that reads labels; -1 used to read as the last class."""

    # train's labels define its classes, so there a label of 2 makes a third
    @pytest.mark.parametrize("command, label", [
        (command, label) for command in _LABEL_READERS for label in ["-1", "2", str(2**64)]
        if (command, label) != ("train", "2")
    ])
    def test_raw_inputs(self, workspace, capsys, command, label):
        bad = workspace["tmp"] / "bad.csv"
        _relabel(workspace["eval"], bad, label)
        files = {k: str(v) for k, v in workspace.items()}
        argv = [command.removesuffix("-band"), *_LABEL_READERS[command](files, str(bad)),
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
import json, sys
from liprcp import attack, cli

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

attack_calls = []
coverage_under_attack = attack.coverage_under_attack

def probe(*args):
    attack_calls.append(scipy_loaded())
    return coverage_under_attack(*args)

attack.coverage_under_attack = probe

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
for argv in commands:
    assert cli.main(argv) == 0, argv
    loaded.append([argv[0], scipy_loaded()])
print(json.dumps({"commands": loaded, "attack_calls": attack_calls}))
"""


def test_scipy_loads_only_for_the_band(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["commands"] == [
        ["synth", False], ["train", False], ["calibrate", False],
        ["predict", False], ["robust-predict", False], ["poison-certify", False],
        ["attack-eval", True], ["audit", True],
    ]
    # attack-eval runs every attack before its band imports scipy, whose
    # import then reuses the heap PGD freed instead of growing the peak
    assert loaded["attack_calls"] == [False, False]


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
        band = audit.certified_band(audit.critical_epsilons(rec, rng.uniform(size=20_000)), 0.1)
        out = tmp_path / "band.csv"
        tracemalloc.start()
        try:
            cli._write(out, cli._band_rows(band))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = len(out.read_text().splitlines()) - 1
        assert rows > 20_000
        # the five float columns, held twice while they are stacked, and a
        # quarter of the file's text: the whole file's rows would not fit
        assert peak < 2 * 5 * 8 * rows + out.stat().st_size / 4
