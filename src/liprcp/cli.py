"""Command-line surface binding the toolkit into reproducible experiments.

One binary, eight subcommands: synth, train, calibrate, predict,
robust-predict, audit, attack-eval, poison-certify. Every command is a pure
function of (config file, input files, seed): re-running writes
byte-identical outputs. Options can come from a key=value config file,
with command-line flags taking precedence.
"""

from __future__ import annotations

import os

if "LIPRCP_THREADS" in os.environ:
    # cap BLAS worker parallelism before numpy is first imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["LIPRCP_THREADS"])

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import attack, audit, conformal, datasets, lipnet, poison, robust, scores

# every recognized config key and the parser applied to its value
_SCHEMA = {
    "alpha": float,
    "delta": float,
    "epsilon": float,
    "epsilon_grid": lambda s: [float(v) for v in s.split(",")],
    "score_kind": str,
    "temperature": float,
    "bias": float,
    "bound_method": str,
    "correction_mode": str,
    "attack_steps": int,
    "attack_restarts": int,
    "attack_step_size": float,
    "seed": int,
    "n": int,
    "d": int,
    "c": int,
    "separation": float,
    "hidden_dims": lambda s: [int(v) for v in s.split(",")],
    "epochs": int,
    "lr": float,
    "k": int,
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    """Parse a key=value config file against the schema; unknown keys fail."""
    if path is None:
        return {}
    cfg = {}
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
        try:
            cfg[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def _opt(args, cfg: dict, key: str, default=None):
    val = getattr(args, key, None)
    if val is not None:
        return val
    return cfg.get(key, default)


def _score_spec(args, cfg) -> scores.ScoreSpec:
    return scores.ScoreSpec(
        kind=_opt(args, cfg, "score_kind", scores.LAC_SIGMOID),
        temperature=_opt(args, cfg, "temperature", 1.0),
        bias=_opt(args, cfg, "bias", 0.0),
    )


def _fmt(value) -> str:
    return repr(float(value))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _logits_and_labels(data_path: str, model_path: str | None):
    """Load a dataset, running the model forward when rows are raw inputs.

    Returns logits, labels, ids and the model's Lipschitz product (1.0
    without a model).
    """
    try:
        ds = datasets.load_logits_csv(data_path)
    except datasets.CsvFormatError:
        ds = datasets.load_inputs_csv(data_path)
    model = None
    if model_path is not None:
        model = lipnet.from_json(Path(model_path).read_text())
    ln = 1.0 if model is None else model.lipschitz_product
    if ds.kind == datasets.PRECOMPUTED_LOGITS:
        return ds.data, ds.labels, ds.ids, ln
    if model is None:
        raise ConfigError("raw-input data needs --model to produce logits")
    return lipnet.forward(model, ds.data), ds.labels, ds.ids, ln


def _sets_csv(ids, membership) -> str:
    lines = ["id,set_size,members"]
    for rid, row in zip(ids, membership):
        members = np.flatnonzero(row)
        lines.append(f"{rid},{members.size},{';'.join(str(c) for c in members)}")
    return "\n".join(lines) + "\n"


def cmd_synth(args, cfg) -> dict:
    seed = _opt(args, cfg, "seed", 0)
    ds = datasets.make_gaussian_mixture(
        n=_opt(args, cfg, "n", 1000),
        d=_opt(args, cfg, "d", 8),
        c=_opt(args, cfg, "c", 4),
        separation=_opt(args, cfg, "separation", 4.0),
        seed=seed,
    )
    out = Path(args.out)
    datasets.save_csv(ds, out)
    _write(out.with_suffix(".meta.json"), ds.metadata() + "\n")
    return {"rows": ds.n, "path": str(out), "seed": seed}


def cmd_train(args, cfg) -> dict:
    ds = datasets.load_inputs_csv(args.data)
    seed = _opt(args, cfg, "seed", 0)
    d = ds.data.shape[1]
    c = int(ds.labels.max()) + 1
    dims = [d] + list(_opt(args, cfg, "hidden_dims", [d])) + [c]
    layers = [
        lipnet.build_orthogonal(dims[i], dims[i + 1], seed=seed + i)
        for i in range(len(dims) - 1)
    ]
    model = lipnet.LipschitzClassifier(layers=tuple(layers))
    model = lipnet.train_toy(
        model,
        ds.data,
        ds.labels,
        epochs=_opt(args, cfg, "epochs", 200),
        lr=_opt(args, cfg, "lr", 0.5),
        seed=seed,
    )
    _write(Path(args.out), lipnet.to_json(model) + "\n")
    logits = lipnet.forward(model, ds.data)
    acc = float(np.mean(np.argmax(logits, axis=1) == ds.labels))
    return {
        "path": args.out,
        "train_accuracy": acc,
        "lipschitz_product": model.lipschitz_product,
    }


def cmd_calibrate(args, cfg) -> dict:
    spec = _score_spec(args, cfg)
    logits, labels, _, ln = _logits_and_labels(args.data, args.model)
    cal_scores = scores.score(spec, logits, labels)
    alpha = _opt(args, cfg, "alpha", 0.1)
    epsilon = _opt(args, cfg, "epsilon", 0.0)
    if epsilon > 0:
        record = robust.robust_calibrate(cal_scores, alpha, epsilon, spec, ln)
    else:
        record = conformal.calibrate(cal_scores, alpha, spec, ln)
    _write(Path(args.out), record.to_json() + "\n")
    return {"path": args.out, "q_alpha": record.q_alpha, "n_cal": record.n_cal}


def _load_record(path: str) -> conformal.CalibrationRecord:
    return conformal.CalibrationRecord.from_json(Path(path).read_text())


def cmd_predict(args, cfg) -> dict:
    record = _load_record(args.record)
    logits, labels, ids, _ = _logits_and_labels(args.data, args.model)
    membership = conformal.vanilla_membership(record, logits)
    _write(Path(args.out), _sets_csv(ids, membership))
    return {
        "path": args.out,
        "coverage": conformal.coverage_from_membership(membership, labels),
        "mean_set_size": float(membership.sum(axis=1).mean()),
    }


def cmd_robust_predict(args, cfg) -> dict:
    record = _load_record(args.record)
    logits, labels, ids, _ = _logits_and_labels(args.data, args.model)
    epsilon = _opt(args, cfg, "epsilon", 0.0)
    method = _opt(args, cfg, "bound_method", scores.TIGHT_MONOTONE)
    membership = robust.conservative_membership(record, logits, epsilon, method)
    if args.check:
        vanilla = conformal.vanilla_membership(record, logits)
        restrict = robust.restrictive_membership(record, logits, epsilon, method)
        if not (np.all(vanilla <= membership) and np.all(restrict <= vanilla)):
            raise SystemExit("invariant violated: set nesting")
    _write(Path(args.out), _sets_csv(ids, membership))
    return {
        "path": args.out,
        "epsilon": epsilon,
        "coverage": conformal.coverage_from_membership(membership, labels),
        "mean_set_size": float(membership.sum(axis=1).mean()),
    }


def _band_rows(band: audit.CertifiedBand, covmax, covmin) -> str:
    grid = np.unique(
        np.concatenate([[0.0], covmax.breakpoints, covmin.breakpoints])
    )
    columns = [grid, band.lower(grid), covmin(grid), covmax(grid), band.upper(grid)]
    lines = ["epsilon,covmin_minus,covmin_emp,covmax_emp,covmax_plus"]
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def cmd_audit(args, cfg) -> dict:
    record = _load_record(args.record)
    logits, labels, _, _ = _logits_and_labels(args.data, args.model)
    eval_scores = scores.score(record.score_spec, logits, labels)
    method = _opt(args, cfg, "bound_method", scores.TIGHT_MONOTONE)
    delta = _opt(args, cfg, "delta", 0.1)
    mode = _opt(args, cfg, "correction_mode", audit.APPENDIX_CORRECTED)
    crit = audit.critical_epsilons(record, eval_scores, method)
    band = audit.certified_band(crit, delta, mode)
    covmax, covmin = audit.coverage_curves(crit)
    if args.check:
        grid = np.concatenate([[0.0], covmax.breakpoints, covmin.breakpoints])
        ok = np.all(band.lower(grid) <= band.upper(grid)) and np.all(
            covmin(grid) <= covmax(grid) + 1e-12
        )
        if not ok:
            raise SystemExit("invariant violated: band sandwich")
    out = Path(args.out)
    _write(out, _band_rows(band, covmax, covmin))
    sidecar = band.sidecar({"alpha": record.alpha, "q_alpha": record.q_alpha})
    _write(out.with_suffix(".meta.json"), sidecar + "\n")
    return {
        "path": str(out),
        "m": band.m,
        "delta": delta,
        "breakpoints": int(covmax.breakpoints.size + covmin.breakpoints.size),
    }


def cmd_attack_eval(args, cfg) -> dict:
    record = _load_record(args.record)
    model = lipnet.from_json(Path(args.model).read_text())
    test = datasets.load_inputs_csv(args.data)
    shared = Path(args.eval_data).resolve() == Path(args.data).resolve()
    eval_ds = test if shared else datasets.load_inputs_csv(args.eval_data)
    eval_logits = lipnet.forward(model, eval_ds.data)
    eval_scores = scores.score(record.score_spec, eval_logits, eval_ds.labels)
    method = _opt(args, cfg, "bound_method", scores.TIGHT_MONOTONE)
    crit = audit.critical_epsilons(record, eval_scores, method)
    band = audit.certified_band(
        crit,
        _opt(args, cfg, "delta", 0.1),
        _opt(args, cfg, "correction_mode", audit.APPENDIX_CORRECTED),
    )
    grid = _opt(args, cfg, "epsilon_grid", None)
    if grid is None:
        grid = [_opt(args, cfg, "epsilon", 0.25)]
    seed = _opt(args, cfg, "seed", 0)
    lines = ["epsilon,coverage_under_attack,mean_set_size,band_lower,band_upper"]
    escapes = 0
    for eps in grid:
        acfg = attack.AttackConfig(
            epsilon=eps,
            steps=_opt(args, cfg, "attack_steps", 40),
            step_size=_opt(args, cfg, "attack_step_size", None),
            restarts=_opt(args, cfg, "attack_restarts", 3),
            seed=seed,
        )
        cov, size = attack.coverage_under_attack(
            model, record, test.data, test.labels, acfg
        )
        lo, hi = float(band.lower(eps)), float(band.upper(eps))
        if not (lo <= cov <= hi):
            escapes += 1
        lines.append(
            ",".join(
                [
                    _fmt(eps),
                    _fmt(cov),
                    _fmt(size),
                    _fmt(lo),
                    _fmt(hi),
                ]
            )
        )
    _write(Path(args.out), "\n".join(lines) + "\n")
    if args.check and escapes:
        raise SystemExit(f"invariant violated: {escapes} grid points escape the band")
    return {"path": args.out, "grid_points": len(grid), "band_escapes": escapes}


def cmd_poison_certify(args, cfg) -> dict:
    spec = _score_spec(args, cfg)
    logits, labels, _, ln = _logits_and_labels(args.data, args.model)
    cal_scores = scores.score(spec, logits, labels)
    budget = poison.PoisonBudget(
        k=_opt(args, cfg, "k", 0),
        epsilon=_opt(args, cfg, "epsilon", 0.0),
        lipschitz_product=ln,
        score_lipschitz=spec.score_lipschitz,
    )
    cert = poison.quantile_shift(
        cal_scores, _opt(args, cfg, "alpha", 0.1), budget, clip_range=(0.0, 1.0)
    )
    _write(Path(args.out), cert.to_json() + "\n")
    return {
        "path": args.out,
        "q_min": cert.q_min,
        "q_max": cert.q_max,
        "q_nominal": cert.q_nominal,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liprcp",
        description="Certifiably robust conformal prediction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *, data=False, model=False, record=False, eval_data=False):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--check", action="store_true")
        if data:
            p.add_argument("--data", required=True)
        if model:
            p.add_argument("--model", default=None)
        if record:
            p.add_argument("--record", required=True)
        if eval_data:
            p.add_argument("--eval-data", dest="eval_data", required=True)
        for key, kind in _SCHEMA.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=kind, default=None, dest=key)
        p.set_defaults(fn=fn)
        return p

    add("synth", cmd_synth)
    add("train", cmd_train, data=True)
    add("calibrate", cmd_calibrate, data=True, model=True)
    add("predict", cmd_predict, data=True, model=True, record=True)
    add("robust-predict", cmd_robust_predict, data=True, model=True, record=True)
    add("audit", cmd_audit, data=True, model=True, record=True)
    attack_p = add("attack-eval", cmd_attack_eval, data=True, record=True, eval_data=True)
    attack_p.add_argument("--model", required=True)
    add("poison-certify", cmd_poison_certify, data=True, model=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        summary = args.fn(args, cfg)
    except (ConfigError, datasets.CsvFormatError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
