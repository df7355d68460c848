"""Command-line surface binding the toolkit into reproducible experiments.

One binary, eight subcommands: synth, train, calibrate, predict,
robust-predict, audit, attack-eval, poison-certify. Every command is a pure
function of (config file, input files, seed): re-running writes
byte-identical outputs. Each command takes only the options it reads
(`COMMANDS`); they can come from a key=value config file, with
command-line flags taking precedence.

Each command imports the layers it calls inside its own function, so it
loads (and, without cached bytecode, compiles) only the modules on its path:
`synth` never loads `lipnet`, and only the band commands load `audit`.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import datasets


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def comma_separated_floats(text: str) -> list[float]:
    return [finite_float(v) for v in text.split(",")]


def comma_separated_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


# every recognized config key and the parser applied to its value; argparse
# names a parser's function in its "invalid <name> value" message
_SCHEMA = {
    "alpha": finite_float,
    "delta": finite_float,
    "epsilon": finite_float,
    "epsilon_grid": comma_separated_floats,
    "score_kind": str,
    "temperature": finite_float,
    "bias": finite_float,
    "bound_method": str,
    "correction_mode": str,
    "attack_steps": int,
    "attack_restarts": int,
    "attack_step_size": finite_float,
    "seed": int,
    "n": int,
    "d": int,
    "c": int,
    "separation": finite_float,
    "hidden_dims": comma_separated_ints,
    "epochs": int,
    "lr": finite_float,
    "k": int,
}


_HELP = {
    "hidden_dims": "comma-separated hidden layer widths (default: one layer as wide "
                   "as the data); layers may not widen, so each width is at most the "
                   "one before it, and the class count at most the last",
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    """Parse a key=value config file against the schema; unknown and
    repeated keys fail."""
    if path is None:
        return {}
    cfg, seen = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            cfg[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


class CheckError(ValueError):
    """An invariant that --check tests does not hold."""


def _score_spec(opts: dict) -> scores.ScoreSpec:
    from . import scores

    return scores.ScoreSpec(
        kind=opts["score_kind"], temperature=opts["temperature"], bias=opts["bias"]
    )


def _write(path: Path, text) -> None:
    """Write `text`, a str or an iterable of str chunks written as they come."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _read_json(path: str, parse: Callable[[str], object]):
    """`parse` applied to the text of the JSON file `path` (--model, --record).

    Text that is not JSON, or that nests deeper than the parser can
    recurse, raises a ValueError that names the file.
    """
    text = Path(path).read_text()
    try:
        return parse(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not a readable JSON document ({exc})") from exc


def _check_rows(path: str, ds: datasets.LabeledDataset) -> None:
    """Reject a file with a header and no data rows."""
    if ds.n == 0:
        raise datasets.CsvFormatError(f"{path}: no data rows")


def _check_labels(path: str, labels: np.ndarray, classes: int) -> None:
    """Reject a label that names no class; the loaders already rejected
    negative ones."""
    bad = np.flatnonzero(labels >= classes)
    if bad.size:
        raise datasets.CsvFormatError(
            f"{path}:{bad[0] + 2}: label {labels[bad[0]]} names no class of {classes}"
        )


def _logits_and_labels(data_path: str, model_path: str | None):
    """Load a dataset, running the model forward when rows are raw inputs.

    Returns logits, labels, ids and the model's Lipschitz product (1.0
    without a model). `lipnet` is loaded only with a model.
    """
    try:
        ds = datasets.load_logits_csv(data_path)
    except datasets.CsvHeaderError:
        ds = datasets.load_inputs_csv(data_path)
    _check_rows(data_path, ds)
    model = None
    if model_path is not None:
        from . import lipnet

        model = _read_json(model_path, lipnet.from_json)
    ln = 1.0 if model is None else model.lipschitz_product
    if ds.kind == datasets.PRECOMPUTED_LOGITS:
        _check_labels(data_path, ds.labels, ds.data.shape[1])
        return ds.data, ds.labels, ds.ids, ln
    if model is None:
        raise ConfigError("raw-input data needs --model to produce logits")
    _check_labels(data_path, ds.labels, model.n_classes)
    return lipnet.forward(model, ds.data), ds.labels, ds.ids, ln


def _sets_csv(ids, membership) -> str:
    """id,set_size,members rows; each distinct membership row is formatted once."""
    patterns, inverse = np.unique(
        np.packbits(membership, axis=1), axis=0, return_inverse=True
    )
    tails = []
    for packed in patterns:
        members = np.flatnonzero(np.unpackbits(packed, count=membership.shape[1]))
        tails.append(f",{members.size},{';'.join(map(str, members.tolist()))}\n")
    rows = [f"{rid}{tails[k]}" for rid, k in zip(ids.tolist(), inverse.ravel().tolist())]
    return "".join(["id,set_size,members\n", *rows])


def cmd_synth(opts: dict) -> dict:
    if opts["n"] < 1:
        raise ConfigError(f"--n {opts['n']}: synth needs at least 1 row")
    ds = datasets.make_gaussian_mixture(
        n=opts["n"], d=opts["d"], c=opts["c"], separation=opts["separation"],
        seed=opts["seed"],
    )
    out = Path(opts["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    datasets.save_csv(ds, out)
    _write(out.with_suffix(".meta.json"), ds.metadata() + "\n")
    return {"rows": ds.n, "path": str(out), "seed": opts["seed"]}


def cmd_train(opts: dict) -> dict:
    from . import lipnet

    if opts["epochs"] < 0:
        raise ConfigError(f"--epochs {opts['epochs']}: must be 0 or more")
    ds = datasets.load_inputs_csv(opts["data"])
    _check_rows(opts["data"], ds)
    seed = opts["seed"]
    d = ds.data.shape[1]
    c = int(ds.labels.max()) + 1
    hidden = opts["hidden_dims"] or [d]
    dims = [d, *hidden, c]
    if not all(1 <= b <= a for a, b in zip(dims, dims[1:])):
        # each layer keeps orthonormal rows, so none may be wider than its input
        raise ConfigError(
            f"--hidden-dims {','.join(map(str, hidden))}: layers may not widen, but the "
            f"data has {d} columns and {c} classes (widths {dims})"
        )
    layers = [
        lipnet.build_orthogonal(dims[i], dims[i + 1], seed=seed + i)
        for i in range(len(dims) - 1)
    ]
    model = lipnet.LipschitzClassifier(layers=tuple(layers))
    model = lipnet.train_toy(
        model, ds.data, ds.labels, epochs=opts["epochs"], lr=opts["lr"], seed=seed
    )
    _write(Path(opts["out"]), lipnet.to_json(model) + "\n")
    logits = lipnet.forward(model, ds.data)
    acc = float(np.mean(np.argmax(logits, axis=1) == ds.labels))
    return {
        "path": opts["out"],
        "train_accuracy": acc,
        "lipschitz_product": model.lipschitz_product,
    }


def cmd_calibrate(opts: dict) -> dict:
    from . import robust, scores

    spec = _score_spec(opts)
    logits, labels, _, ln = _logits_and_labels(opts["data"], opts["model"])
    cal_scores = scores.score(spec, logits, labels)
    record = robust.robust_calibrate(cal_scores, opts["alpha"], opts["epsilon"], spec, ln)
    _write(Path(opts["out"]), record.to_json() + "\n")
    return {"path": opts["out"], "q_alpha": record.q_alpha, "n_cal": record.n_cal}


def _load_record(opts: dict, ln: float) -> conformal.CalibrationRecord:
    """The --record file; with --model it certifies with that model's product ln."""
    from . import conformal

    record = _read_json(opts["record"], conformal.CalibrationRecord.from_json)
    return record if opts["model"] is None else replace(record, lipschitz_product=ln)


def _write_sets(opts: dict, ids, labels, membership) -> dict:
    """Write the sets CSV; return the summary predict and robust-predict share."""
    from . import conformal

    _write(Path(opts["out"]), _sets_csv(ids, membership))
    return {
        "path": opts["out"],
        "coverage": conformal.coverage_from_membership(membership, labels),
        "mean_set_size": float(membership.sum(axis=1).mean()),
    }


def cmd_predict(opts: dict) -> dict:
    from . import conformal

    logits, labels, ids, ln = _logits_and_labels(opts["data"], opts["model"])
    record = _load_record(opts, ln)
    return _write_sets(opts, ids, labels, conformal.vanilla_membership(record, logits))


def cmd_robust_predict(opts: dict) -> dict:
    from . import conformal, robust

    logits, labels, ids, ln = _logits_and_labels(opts["data"], opts["model"])
    record = _load_record(opts, ln)
    epsilon, method = opts["epsilon"], opts["bound_method"]
    membership = robust.conservative_membership(record, logits, epsilon, method)
    if opts["check"]:
        vanilla = conformal.vanilla_membership(record, logits)
        restrict = robust.restrictive_membership(record, logits, epsilon, method)
        if not (np.all(vanilla <= membership) and np.all(restrict <= vanilla)):
            raise CheckError("invariant violated: set nesting")
    return {**_write_sets(opts, ids, labels, membership), "epsilon": epsilon}


def _band(opts: dict, record, eval_scores) -> audit.CertifiedBand:
    """The certified band of `record` from the true-label scores of the
    evaluation rows (audit, attack-eval). Its curves, its grid and its
    inversion blocks are allocated on top of whatever is alive, so callers
    drop their logits, labels and datasets first: the band then holds only
    these n scores besides its own arrays."""
    from . import audit

    crit = audit.critical_epsilons(record, eval_scores, opts["bound_method"])
    return audit.certified_band(crit, opts["delta"], opts["correction_mode"])


def _band_rows(band: audit.CertifiedBand):
    """The band CSV as text chunks, one per block of `band.table()`, so that
    only one block's numbers and strings are alive at a time."""
    yield "epsilon,covmin_minus,covmin_emp,covmax_emp,covmax_plus\n"
    for table in band.table():
        # %r of a Python float is its repr, the lossless form
        yield ("%r,%r,%r,%r,%r\n" * len(table)) % tuple(table.ravel().tolist())


def cmd_audit(opts: dict) -> dict:
    from . import scores

    logits, labels, ids, ln = _logits_and_labels(opts["data"], opts["model"])
    record = _load_record(opts, ln)
    eval_scores = scores.score(record.score_spec, logits, labels)
    del logits, labels, ids  # only the scores are alive while the band is built
    band = _band(opts, record, eval_scores)
    if opts["check"]:
        for table in band.table():
            _, lower, covmin, covmax, upper = table.T
            if not (np.all(lower <= upper) and np.all(covmin <= covmax + 1e-12)):
                raise CheckError("invariant violated: band sandwich")
    out = Path(opts["out"])
    _write(out, _band_rows(band))
    sidecar = band.sidecar({"alpha": record.alpha, "q_alpha": record.q_alpha})
    _write(out.with_suffix(".meta.json"), sidecar + "\n")
    return {
        "path": str(out),
        "m": band.m,
        "delta": opts["delta"],
        "breakpoints": int(band.covmax.breakpoints.size + band.covmin.breakpoints.size),
    }


def cmd_attack_eval(opts: dict) -> dict:
    from . import attack, audit, lipnet, scores

    model = _read_json(opts["model"], lipnet.from_json)
    record = _load_record(opts, model.lipschitz_product)
    test = datasets.load_inputs_csv(opts["data"])
    _check_rows(opts["data"], test)
    _check_labels(opts["data"], test.labels, model.n_classes)
    shared = Path(opts["eval_data"]).resolve() == Path(opts["data"]).resolve()
    eval_ds = test if shared else datasets.load_inputs_csv(opts["eval_data"])
    _check_rows(opts["eval_data"], eval_ds)
    _check_labels(opts["eval_data"], eval_ds.labels, model.n_classes)
    # the band's inputs, checked before any attack runs
    audit.check_delta(opts["delta"])
    if eval_ds.n < 2:
        raise ConfigError(
            f"{opts['eval_data']}: certified band needs m >= 2 evaluation samples, "
            f"got {eval_ds.n}"
        )
    grid = opts["epsilon_grid"]
    attacked = [
        attack.coverage_under_attack(
            model, record, test.data, test.labels,
            attack.AttackConfig(
                epsilon=eps,
                steps=opts["attack_steps"],
                step_size=opts["attack_step_size"],
                restarts=opts["attack_restarts"],
                seed=opts["seed"],
            ),
        )
        for eps in grid
    ]
    # the band is built after the attacks, so its arrays reuse the heap PGD freed
    eval_scores = scores.score(
        record.score_spec, lipnet.forward(model, eval_ds.data), eval_ds.labels
    )
    del test, eval_ds
    band = _band(opts, record, eval_scores)
    lines = ["epsilon,coverage_under_attack,mean_set_size,band_lower,band_upper"]
    escapes = 0
    for eps, (cov, size) in zip(grid, attacked):
        lo, hi = float(band.lower(eps)), float(band.upper(eps))
        escapes += not (lo <= cov <= hi)
        lines.append(",".join(map(repr, (eps, cov, size, lo, hi))))
    _write(Path(opts["out"]), "\n".join(lines) + "\n")
    if opts["check"] and escapes:
        raise CheckError(f"invariant violated: {escapes} grid points escape the band")
    return {"path": opts["out"], "grid_points": len(grid), "band_escapes": escapes}


def cmd_poison_certify(opts: dict) -> dict:
    from . import poison, scores

    spec = _score_spec(opts)
    logits, labels, _, ln = _logits_and_labels(opts["data"], opts["model"])
    cal_scores = scores.score(spec, logits, labels)
    budget = poison.PoisonBudget(
        k=opts["k"],
        epsilon=opts["epsilon"],
        lipschitz_product=ln,
        score_spec=spec,
    )
    cert = poison.quantile_shift(cal_scores, opts["alpha"], budget, clip_range=(0.0, 1.0))
    _write(Path(opts["out"]), cert.to_json() + "\n")
    return {
        "path": opts["out"],
        "q_min": cert.q_min,
        "q_max": cert.q_max,
        "q_nominal": cert.q_nominal,
    }


class Command(NamedTuple):
    """A subcommand: its function, its file arguments (name -> required) and
    the option keys it reads with their defaults. None is worked out from the
    inputs: one hidden layer as wide as the data, a PGD step of epsilon / 4."""

    fn: Callable[[dict], dict]
    files: dict
    options: dict


_LOGITS = {"data": True, "model": False}  # precomputed logits need no model
_SETS = {**_LOGITS, "record": True}
# the defaults name scores' and audit's constants as literals, so building
# this table loads neither module
_SPEC = {"score_kind": "lac_sigmoid", "temperature": 1.0, "bias": 0.0}
_BAND = {"bound_method": "tight_monotone", "delta": 0.1,
         "correction_mode": "appendix_corrected"}
_ATTACK = {"epsilon_grid": [0.25], "seed": 0, "attack_steps": 40,
           "attack_step_size": None, "attack_restarts": 3}

COMMANDS = {
    "synth": Command(cmd_synth, {}, {"seed": 0, "n": 1000, "d": 8, "c": 4,
                                     "separation": 4.0}),
    "train": Command(cmd_train, {"data": True}, {"seed": 0, "hidden_dims": None,
                                                 "epochs": 200, "lr": 0.5}),
    "calibrate": Command(cmd_calibrate, _LOGITS, {**_SPEC, "alpha": 0.1, "epsilon": 0.0}),
    "predict": Command(cmd_predict, _SETS, {}),
    "robust-predict": Command(cmd_robust_predict, _SETS,
                              {"epsilon": 0.0, "bound_method": "tight_monotone"}),
    "audit": Command(cmd_audit, _SETS, _BAND),
    "attack-eval": Command(cmd_attack_eval, {**_SETS, "model": True, "eval_data": True},
                           {**_BAND, **_ATTACK}),
    "poison-certify": Command(cmd_poison_certify, _LOGITS,
                              {**_SPEC, "alpha": 0.1, "epsilon": 0.0, "k": 0}),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError for main to print as JSON; the
    subcommand parsers inherit the class. A value such as -1e-3 or -inf is
    read as a number for its option's parser, not as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: attack-eval would read --epsilon as --epsilon-grid
    parser = _Parser(prog="liprcp", allow_abbrev=False,
                     description="Certifiably robust conformal prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--check", action="store_true")
        for key, required in command.files.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, required=required)
        for key in command.options:  # absent unless given, so they override
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_SCHEMA[key],
                           default=argparse.SUPPRESS, help=_HELP.get(key))
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        name, cfg = args["command"], load_config(args["config"])
        command = COMMANDS[name]
        for key in cfg:
            if key not in command.options:
                raise ConfigError(f"{args['config']}: {name} does not read {key!r}")
        # defaults, then the config file, then flags
        summary = command.fn({**command.options, **cfg, **args})
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input or option too large to hold
        print(json.dumps({"error": f"out of memory: {exc}"}), file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
