"""Run one liprcp CLI command with spans recorded around each module's calls.

Usage: python3 perfbench/traced.py SPANS_PATH RUN_ID -- <liprcp arguments>

Tracing happens from outside the program: before ``cli.main`` runs, the
public functions of every module are replaced by wrappers that record a span
(name, start, end, parent, run id and a row count). Names bound by
``from .x import y`` in other modules are replaced too, so a call through any
module is seen. Spans are kept in memory and appended to SPANS_PATH as JSON
lines when the command exits. Span names are ``<module>.<function>``.

Scalar functions that run hundreds of thousands of times per command
(``audit.binomial_cdf``, ``audit.covmax_plus``, ``audit.StepCurve.__call__``)
are only counted: a span each would cost more than the call.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter

# (module, function, where the span's row count comes from: "arg0" the first
# argument's dataset, "arg1" the second argument's first dimension, "result"
# the returned dataset, "epochs" the training epochs; None records no count)
SPANNED = [
    ("datasets", "make_gaussian_mixture", None),
    ("datasets", "save_csv", "arg0"),
    ("datasets", "load_logits_csv", "result"),
    ("datasets", "load_inputs_csv", "result"),
    ("lipnet", "build_orthogonal", None),
    ("lipnet", "train_toy", "epochs"),
    ("lipnet", "bjorck_project", None),
    ("lipnet", "groupsort2", None),
    ("lipnet", "forward", "arg1"),
    ("lipnet", "input_gradient_batch", "arg1"),
    ("lipnet", "from_json", None),
    ("lipnet", "to_json", None),
    ("scores", "score", None),
    ("scores", "lower_bound_all", None),
    ("scores", "upper_bound_all", None),
    ("conformal", "calibrate", None),
    ("conformal", "vanilla_membership", "arg1"),
    ("robust", "conservative_membership", None),
    ("robust", "restrictive_membership", None),
    ("robust", "robust_calibrate", None),
    ("audit", "critical_epsilons", None),
    ("audit", "coverage_curves", None),
    ("audit", "certified_band", None),
    ("poison", "quantile_shift", None),
    ("attack", "coverage_under_attack", None),
    ("attack", "pgd_attack_batch", "arg1"),
]
COUNTED = [("audit", "binomial_cdf"), ("audit", "covmax_plus")]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.on = True  # off: wrappers call through and record nothing

    def span(self, name: str, fn, rows_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            rec = {"name": name, "parent": self.stack[-1] if self.stack else None}
            self.spans.append(rec)
            self.stack.append(idx)
            ok = False
            rec["start"] = _clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec["end"] = _clock()
                self.stack.pop()
                rec["ok"] = ok
                if ok and rows_of is not None:
                    rec["rows"] = _rows(rows_of, args, kwargs, result)

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        counters[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rows(rows_of, args, kwargs, result) -> int:
    if rows_of == "result":
        return int(result.n)
    if rows_of == "epochs":
        return int(kwargs["epochs"] if "epochs" in kwargs else args[3])
    if rows_of == "arg0":
        return int(args[0].n)
    shape = getattr(args[1], "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _rebind(package_modules, original, replacement) -> None:
    """Replace every module-level binding of `original`, imported names too."""
    for module in package_modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the traced functions."""
    package = list(modules.values())
    for mod_name, fn_name, rows_of in SPANNED:
        fn = getattr(modules[mod_name], fn_name)
        _rebind(package, fn, tracer.span(f"{mod_name}.{fn_name}", fn, rows_of))
    for mod_name, fn_name in COUNTED:
        fn = getattr(modules[mod_name], fn_name)
        _rebind(package, fn, tracer.count(f"{mod_name}.{fn_name}", fn))
    step_curve = modules["audit"].StepCurve
    step_curve.__call__ = tracer.count("audit.step_curve_evals", step_curve.__call__)


def _undecided(modules, attacks, counters) -> list[dict]:
    """Share of attacked rows whose exit budget lies in [0, eps].

    Only those rows can change coverage under attack: a row with exit >= eps
    stays covered in the whole ball, one with exit < 0 is never covered.
    Computed after the command, with the tracer off.
    """
    per_eps = []
    for model, cal, x, y, cfg in attacks:
        attacked = x.shape[0] if cfg.epsilon > 0 and cfg.steps > 0 else 0
        logits = modules["lipnet"].forward(model, x)
        true_scores = modules["scores"].score(cal.score_spec, logits, y)
        exit_ = modules["audit"].critical_epsilons(cal, true_scores).exit
        useful = int(((exit_ >= 0) & (exit_ <= cfg.epsilon)).sum()) if attacked else 0
        counters["attack.attacked_rows"] = counters.get("attack.attacked_rows", 0) + attacked
        counters["attack.useful_rows"] = counters.get("attack.useful_rows", 0) + useful
        per_eps.append({"epsilon": cfg.epsilon, "rows": attacked, "undecided": useful})
    return per_eps


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_PATH RUN_ID -- <liprcp arguments>")
    t0 = _clock()
    from liprcp import attack, audit, cli, conformal, datasets, lipnet, poison, robust, scores

    import_s = _clock() - t0
    modules = {
        "attack": attack, "audit": audit, "cli": cli, "conformal": conformal,
        "datasets": datasets, "lipnet": lipnet, "poison": poison,
        "robust": robust, "scores": scores,
    }
    tracer = Tracer()
    install(tracer, modules)
    attacks = []
    wrapped_attack = attack.coverage_under_attack

    def remember_attack(model, cal, test_inputs, test_labels, cfg):
        attacks.append((model, cal, test_inputs, test_labels, cfg))
        return wrapped_attack(model, cal, test_inputs, test_labels, cfg)

    _rebind(list(modules.values()), wrapped_attack, remember_attack)
    run_main = tracer.span("cli.main", cli.main, None)
    code = 1
    try:
        code = run_main(cli_args)
    finally:
        tracer.on = False
        t1 = _clock()
        per_eps = _undecided(modules, attacks, tracer.counters)
        post_s = _clock() - t1
        with open(spans_path, "a", encoding="utf-8") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps({"run": run_id, **rec}) + "\n")
            summary = {
                "run": run_id,
                "import_s": import_s,
                "post_s": post_s,
                "counters": tracer.counters,
                "undecided": per_eps,
            }
            fh.write(json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
