"""Command-line front end: JSON config in, reproducible CSV/JSON artifacts out.

Usage::

    emlab run-population --config experiment.json --out results/
    emlab kernels --out tables/
    emlab verify

Every subcommand accepts ``--config PATH`` (JSON) and ``--out DIR``.  Each
command reads only the top-level keys ``_KEYS`` lists for it (bracketed
below); any other key or unknown field is a config error naming its path.
``--seed N`` overrides the seed, so only run-sample, coupled and consistency
take it.  Exit status: 0 on success, 1 when ``verify`` has a failing
criterion, 2 on a config error, 3 on a numerical error (a quadrature rule
failing its self-check, degenerate posterior weights or a degenerate state),
reported as one ``numerical error: ...`` line on stderr.

Reproducibility contract: with an identical config (seed included) every
output file is byte-identical across runs.  Floats are serialized with
``repr`` (shortest round-trip form), JSON keys are sorted, and each artifact
embeds the artifact version, the sha256 hash of the fully resolved config,
and the resolved config itself.

Config sections (all optional; defaults in parentheses)::

    command      name matching the subcommand, as a cross-check  [all]
    model        {"d", "theta_star" | "mu1"+"mu2", "sigma"}  (d=2, [1, 0]);
                 mu1/mu2 centered (mu1 = -mu2); a sigma covariance is
                 consumed by whitening theta_star  [all but kernels, verify]
    quadrature   {"nodes_per_lobe", "abs_tol"}  (512, 1e-10)
                 [run-population, coupled, landscape, kernels, consistency]
    seed         seed of the data draw  (0)  [run-sample, coupled, consistency]
    family       "free" | "symmetric"               [run-population]
    init         {"a", "b"} or {"theta"}  (a=0, b=theta*/2)
                 [run-population, run-sample, coupled, consistency]
    stop         {"max_iters", "step_tol"}  (10000, 1e-10; 0 = no early stop)
                 [run-population, run-sample]
    n            sample size                        [run-sample, coupled]
    T            step budget                        [coupled, consistency]
    trials, n_ladder                                [consistency]
    form         "ab" | "mu"                        [run-sample]
    write_data   also dump the sampled dataset      [run-sample]
    slice        {"a_lo","a_hi","a_steps","b_lo","b_hi","b_steps"} [landscape]
    grid         {"x_a","x_b","x_theta"}, each {"lo","hi","count"}  [kernels]
    criteria     criterion numbers                  [verify]
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DegenerateState,
    DegenerateWeights,
    NonConvergence,
    NotPositiveDefinite,
)
from .geometry import ABState, MeanPair, MixtureModel, whiten
from .harness import _discrepancies, consistency_ladder, coupled_run
from .kernels import tabulate
from .landscape import expected_loglik
from .population import RATIO_FIELDS, StopRule, _sign_target, run, run_model1
from .quadrature import MIN_NODES_PER_LOBE, QuadratureSpec
from .sampling import run_sample, sample_mixture

_DEFAULT_LADDER = (1_000, 10_000, 100_000, 1_000_000)

_KEYS = {  # the top-level keys each command reads; any other key is a config error
    "run-population": ("command", "model", "quadrature", "family", "init", "stop"),
    "run-sample": ("command", "model", "seed", "init", "stop", "n", "form", "write_data"),
    "coupled": ("command", "model", "quadrature", "seed", "init", "n", "T"),
    "landscape": ("command", "model", "quadrature", "slice"),
    "kernels": ("command", "quadrature", "grid"),
    "consistency": ("command", "model", "quadrature", "seed", "init", "n_ladder", "T", "trials"),
    # each criterion pins its own models, quadrature and seeds
    "verify": ("command", "criteria"),
}


# ------------------------------------------------------------ field helpers


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(section, allowed, path):
    for key in section:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown field")


def _int_field(section, key, path, default, minimum=None):
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(_join(path, key), f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(_join(path, key), f"must be >= {minimum}, got {value}")
    return value


def _float_field(section, key, path, default, positive=False):
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(_join(path, key), f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(_join(path, key), "must be finite")
    if positive and value <= 0.0:
        raise ConfigError(_join(path, key), f"must be > 0.0, got {value!r}")
    return value


def _vector_field(section, key, path, default, length=None):
    value = section.get(key, default)
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ConfigError(_join(path, key), "expected a non-empty list of numbers")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{_join(path, key)}[{i}]", f"expected a number, got {item!r}")
        if not math.isfinite(float(item)):
            raise ConfigError(f"{_join(path, key)}[{i}]", "must be finite")
        out.append(float(item))
    if length is not None and len(out) != length:
        raise ConfigError(_join(path, key), f"expected length {length}, got {len(out)}")
    return out


def _choice_field(section, key, path, default, choices):
    value = section.get(key, default)
    if value not in choices:
        raise ConfigError(
            _join(path, key), f"expected one of {sorted(choices)}, got {value!r}"
        )
    return value


# --------------------------------------------------------- section resolvers


def _resolve_model(raw):
    section = _expect_mapping(raw.get("model", {}), "model")
    _reject_unknown(section, ("d", "theta_star", "mu1", "mu2", "sigma"), "model")
    theta = _vector_field(section, "theta_star", "model", None)
    mu1 = _vector_field(section, "mu1", "model", None)
    mu2 = _vector_field(section, "mu2", "model", None)
    if theta is not None and (mu1 is not None or mu2 is not None):
        raise ConfigError("model.theta_star", "give either theta_star or mu1/mu2, not both")
    if (mu1 is None) != (mu2 is None):
        raise ConfigError("model.mu1", "mu1 and mu2 must be given together")
    if mu1 is not None:
        if len(mu1) != len(mu2):
            raise ConfigError("model.mu2", f"length {len(mu2)} does not match mu1 ({len(mu1)})")
        scale = max(1.0, max(abs(v) for v in mu2))
        if max(abs(x + y) for x, y in zip(mu1, mu2)) > 1e-12 * scale:
            raise ConfigError("model.mu1", "means must be centered: mu1 = -mu2")
        theta = mu2
    if theta is None:
        theta = [1.0, 0.0] if "d" not in section else None
    d = _int_field(section, "d", "model", len(theta) if theta else None, minimum=1)
    if theta is None:
        theta = [1.0] + [0.0] * (d - 1)
    if len(theta) != d:
        raise ConfigError("model.theta_star", f"length {len(theta)} does not match d={d}")
    sigma = section.get("sigma")
    if sigma is not None:
        if not isinstance(sigma, list) or len(sigma) != d:
            raise ConfigError("model.sigma", f"expected a {d}x{d} matrix")
        rows = [_vector_field({"row": row}, "row", f"model.sigma[{i}]", None, length=d)
                for i, row in enumerate(sigma)]
        try:
            theta = list(whiten(np.array(theta), np.array(rows)))
        except NotPositiveDefinite as exc:
            raise ConfigError("model.sigma", str(exc)) from None
    resolved = {"d": d, "theta_star": [float(v) for v in theta]}
    return resolved, MixtureModel(d, theta)


def _resolve_quadrature(raw):
    section = _expect_mapping(raw.get("quadrature", {}), "quadrature")
    _reject_unknown(section, ("nodes_per_lobe", "abs_tol"), "quadrature")
    nodes = _int_field(
        section, "nodes_per_lobe", "quadrature", 512, minimum=MIN_NODES_PER_LOBE
    )
    abs_tol = _float_field(section, "abs_tol", "quadrature", 1e-10, positive=True)
    resolved = {"nodes_per_lobe": nodes, "abs_tol": abs_tol}
    return resolved, QuadratureSpec(nodes, abs_tol)


def _resolve_init(raw, model, family):
    section = _expect_mapping(raw.get("init", {}), "init")
    d = model.dim
    if family == "symmetric":
        _reject_unknown(section, ("theta",), "init")
        theta = _vector_field(
            section, "theta", "init", [0.5 * v for v in model.theta_star], length=d
        )
        return {"theta": theta}, np.array(theta)
    _reject_unknown(section, ("a", "b"), "init")
    a = _vector_field(section, "a", "init", [0.0] * d, length=d)
    b = _vector_field(section, "b", "init", [0.5 * v for v in model.theta_star], length=d)
    return {"a": a, "b": b}, ABState(a, b)


def _resolve_stop(raw):
    section = _expect_mapping(raw.get("stop", {}), "stop")
    _reject_unknown(section, ("max_iters", "step_tol"), "stop")
    max_iters = _int_field(section, "max_iters", "stop", 10_000, minimum=1)
    step_tol = _float_field(section, "step_tol", "stop", 1e-10)
    if step_tol < 0.0:  # 0.0 runs the whole budget
        raise ConfigError("stop.step_tol", f"must be >= 0.0, got {step_tol!r}")
    return {"max_iters": max_iters, "step_tol": step_tol}, StopRule(max_iters, step_tol)


def _resolve_axis(section, key, path):
    axis = _expect_mapping(section.get(key, {}), f"{path}.{key}")
    _reject_unknown(axis, ("lo", "hi", "count"), f"{path}.{key}")
    lo = _float_field(axis, "lo", f"{path}.{key}", 0.0)
    hi = _float_field(axis, "hi", f"{path}.{key}", 3.0)
    count = _int_field(axis, "count", f"{path}.{key}", 20, minimum=1)
    if hi < lo:
        raise ConfigError(f"{path}.{key}.hi", f"must be >= lo={lo!r}, got {hi!r}")
    return {"lo": lo, "hi": hi, "count": count}


def resolve_config(raw, command, seed_override=None):
    """Validate ``raw`` against the keys ``_KEYS[command]`` and fill defaults.

    Returns the fully resolved config dict (JSON-serializable, deterministic
    key set) whose canonical serialization is what gets hashed.
    """
    raw = _expect_mapping(raw, "<config>")
    if seed_override is not None:
        raw = dict(raw, seed=seed_override)
    keys = _KEYS[command]
    _reject_unknown(raw, keys, "")
    declared = raw.get("command", command)
    if declared != command:
        raise ConfigError("command", f"config is for {declared!r}, invoked as {command!r}")
    resolved = {"command": command}
    model = spec = init = stop = None
    if "model" in keys:
        resolved["model"], model = _resolve_model(raw)
    if "quadrature" in keys:
        resolved["quadrature"], spec = _resolve_quadrature(raw)
    if "seed" in keys:
        resolved["seed"] = _int_field(raw, "seed", "", 0, minimum=0)
    if "family" in keys:
        resolved["family"] = _choice_field(raw, "family", "", "free", ("free", "symmetric"))
    if "init" in keys:
        resolved["init"], init = _resolve_init(raw, model, resolved.get("family", "free"))
    if "stop" in keys:
        resolved["stop"], stop = _resolve_stop(raw)
    if "n" in keys:
        resolved["n"] = _int_field(raw, "n", "", 10_000, minimum=1)
    if "T" in keys:
        resolved["T"] = _int_field(raw, "T", "", 50, minimum=1)
    if "form" in keys:
        resolved["form"] = _choice_field(raw, "form", "", "ab", ("ab", "mu"))
    if "write_data" in keys:
        write_data = raw.get("write_data", False)
        if not isinstance(write_data, bool):
            raise ConfigError("write_data", f"expected true/false, got {write_data!r}")
        resolved["write_data"] = write_data
    if "trials" in keys:
        resolved["trials"] = _int_field(raw, "trials", "", 20, minimum=1)
    if "n_ladder" in keys:
        ladder = raw.get("n_ladder", list(_DEFAULT_LADDER))
        if not isinstance(ladder, list) or len(ladder) < 2:
            raise ConfigError("n_ladder", "expected a list of at least two sample sizes")
        sizes = [
            _int_field({"n": v}, "n", f"n_ladder[{i}]", None, minimum=1)
            for i, v in enumerate(ladder)
        ]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("n_ladder", f"must be strictly increasing, got {sizes}")
        resolved["n_ladder"] = sizes
    if "slice" in keys:
        section = _expect_mapping(raw.get("slice", {}), "slice")
        _reject_unknown(
            section, ("a_lo", "a_hi", "a_steps", "b_lo", "b_hi", "b_steps"), "slice"
        )
        sl = {
            "a_lo": _float_field(section, "a_lo", "slice", -1.0),
            "a_hi": _float_field(section, "a_hi", "slice", 1.0),
            "a_steps": _int_field(section, "a_steps", "slice", 21, minimum=1),
            "b_lo": _float_field(section, "b_lo", "slice", -2.0),
            "b_hi": _float_field(section, "b_hi", "slice", 2.0),
            "b_steps": _int_field(section, "b_steps", "slice", 21, minimum=1),
        }
        if sl["a_hi"] < sl["a_lo"]:
            raise ConfigError("slice.a_hi", "must be >= a_lo")
        if sl["b_hi"] < sl["b_lo"]:
            raise ConfigError("slice.b_hi", "must be >= b_lo")
        resolved["slice"] = sl
    if "grid" in keys:
        section = _expect_mapping(raw.get("grid", {}), "grid")
        _reject_unknown(section, ("x_a", "x_b", "x_theta"), "grid")
        resolved["grid"] = {
            key: _resolve_axis(section, key, "grid") for key in ("x_a", "x_b", "x_theta")
        }
    if "criteria" in keys:
        criteria = raw.get("criteria", list(range(1, 14)))
        if not isinstance(criteria, list) or not criteria:
            raise ConfigError("criteria", "expected a non-empty list of criterion numbers")
        for i, num in enumerate(criteria):
            if isinstance(num, bool) or not isinstance(num, int) or not 1 <= num <= 13:
                raise ConfigError(f"criteria[{i}]", f"expected an integer in 1..13, got {num!r}")
        resolved["criteria"] = criteria

    return resolved, model, spec, init, stop


# ------------------------------------------------------------ artifact sink


def config_hash(resolved) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cell(value) -> str:
    return "" if value is None else str(value)  # str of a float is its repr


class _Sink:
    """Writes artifacts into one directory, stamping provenance on each."""

    def __init__(self, out_dir, resolved):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.resolved = resolved
        self.hash = config_hash(resolved)
        self.written = []

    def _preamble(self):
        return [
            f"# artifact_version: {__version__}",
            f"# config_hash: {self.hash}",
            "# config: " + json.dumps(self.resolved, sort_keys=True, separators=(",", ":")),
        ]

    def csv(self, name, header, rows):
        path = self.dir / name
        lines = self._preamble()
        lines.append(",".join(header))
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
        self.written.append(path)
        return path

    def json(self, name, payload):
        path = self.dir / name
        document = {
            "artifact_version": __version__,
            "config_hash": self.hash,
            "config": self.resolved,
        }
        document.update(payload)
        path.write_text(json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n")
        self.written.append(path)
        return path


# ---------------------------------------------------------------- commands


def _columns(records, fields):
    """The named columns of a records table as lists of Python scalars."""
    return [records[field].tolist() for field in fields]


def _free_rows(traj, d):
    r = traj.records
    # a missing ratio is nan in the table and an empty cell in the file
    ratios = [[None if math.isnan(v) else v for v in column]
              for column in _columns(r, RATIO_FIELDS)]
    columns = (
        [r["t"].tolist()] + r["a"].T.tolist() + r["b"].T.tolist()
        + _columns(r, ("p", "beta", "sin_beta", "norm_a", "dist_b")) + ratios
    )
    header = (
        ["t"]
        + [f"a_{i}" for i in range(d)]
        + [f"b_{i}" for i in range(d)]
        + ["p", "beta", "sin_beta", "norm_a", "dist_b", *RATIO_FIELDS]
    )
    return header, zip(*columns)


def _cmd_run_population(sink, model, spec, init, stop, resolved):
    if resolved["family"] == "symmetric":
        iters = run_model1(init, model, stop, spec)
        dists = np.linalg.norm(iters - _sign_target(init, model), axis=1)
        header = ["t"] + [f"theta_{i}" for i in range(model.dim)] + ["dist"]
        rows = [
            (t,) + tuple(float(v) for v in it) + (float(dist),)
            for t, (it, dist) in enumerate(zip(iters, dists))
        ]
        sink.csv("trajectory.csv", header, rows)
        sink.json(
            "summary.json",
            {
                # the run stops at the first step the stop rule accepts, so
                # that step is the last one exactly when the run converged
                "converged": stop.converged(float(np.linalg.norm(iters[-1] - iters[-2]))),
                "steps": len(iters) - 1,
                "final": [float(v) for v in iters[-1]],
                "final_dist": float(dists[-1]),
            },
        )
    else:
        traj = run(init, model, stop, spec)
        header, rows = _free_rows(traj, model.dim)
        sink.csv("trajectory.csv", header, rows)
        sink.json("summary.json", _trajectory_summary(traj))
    return 0


def _trajectory_summary(traj):
    last = traj.records[-1]
    return {
        "converged": traj.converged,
        "steps": len(traj.records) if traj.converged else len(traj.records) - 1,
        "final_state": {
            "a": [float(v) for v in traj.final_state.a],
            "b": [float(v) for v in traj.final_state.b],
        },
        "target": [float(v) for v in traj.target],
        "final_norm_a": float(np.linalg.norm(traj.final_state.a)),
        "final_dist_b": float(np.linalg.norm(traj.final_state.b - traj.target)),
        "last_record": {"t": int(last["t"]), "norm_a": float(last["norm_a"]),
                        "dist_b": float(last["dist_b"])},
    }


def _cmd_run_sample(sink, model, spec, init, stop, resolved):
    data = sample_mixture(model, resolved["n"], resolved["seed"])
    traj = run_sample(init, data, stop, resolved["form"])
    header, rows = _free_rows(traj, model.dim)
    sink.csv("trajectory.csv", header, rows)
    summary = _trajectory_summary(traj)
    summary["n"] = resolved["n"]
    summary["form"] = resolved["form"]
    sink.json("summary.json", summary)
    if resolved["write_data"]:
        path = sink.dir / "data.csv"
        data.to_csv(path)
        sink.written.append(path)
    return 0


def _cmd_coupled(sink, model, spec, init, stop, resolved):
    sample_traj, pop_traj, sup = coupled_run(
        init, model, resolved["n"], resolved["T"], resolved["seed"], spec
    )
    header = ["t", "discrepancy", "pop_norm_a", "pop_dist_b", "pop_p",
              "samp_norm_a", "samp_dist_b", "samp_p"]
    fields = ("norm_a", "dist_b", "p")
    columns = (
        [sample_traj.records["t"].tolist(), _discrepancies(sample_traj, pop_traj).tolist()]
        + _columns(pop_traj.records, fields) + _columns(sample_traj.records, fields)
    )
    sink.csv("coupled.csv", header, zip(*columns))
    sink.json(
        "summary.json",
        {
            "sup_discrepancy": float(sup),
            "n": resolved["n"],
            "T": resolved["T"],
            "population": _trajectory_summary(pop_traj),
            "sample": _trajectory_summary(sample_traj),
        },
    )
    return 0


def _cmd_landscape(sink, model, spec, init, stop, resolved):
    sl = resolved["slice"]
    tnorm = model.norm_theta
    axis = model.theta_star / tnorm if tnorm > 0.0 else np.eye(model.dim)[0]
    rows = []
    for da in np.linspace(sl["a_lo"], sl["a_hi"], sl["a_steps"]):
        for db in np.linspace(sl["b_lo"], sl["b_hi"], sl["b_steps"]):
            a = float(da) * axis
            b = float(db) * axis
            value = expected_loglik(MeanPair(a - b, a + b), model, spec)
            rows.append((float(da), float(db), value))
    sink.csv("landscape.csv", ["a_offset", "b_offset", "G"], rows)
    return 0


def _cmd_kernels(sink, model, spec, init, stop, resolved):
    axes = {
        key: np.linspace(ax["lo"], ax["hi"], ax["count"])
        for key, ax in resolved["grid"].items()
    }
    rows = tabulate(axes["x_a"], axes["x_b"], axes["x_theta"], spec)
    sink.csv(
        "kernels.csv", ["x_a", "x_b", "x_theta", "P", "Gamma", "S", "F", "K"], rows
    )
    return 0


def _cmd_consistency(sink, model, spec, init, stop, resolved):
    result = consistency_ladder(
        init,
        model,
        tuple(resolved["n_ladder"]),
        T=resolved["T"],
        trials=resolved["trials"],
        seed=resolved["seed"],
        spec=spec,
    )
    sink.json(
        "consistency.json",
        {
            "n_ladder": list(result.n_ladder),
            "sup_discrepancy": list(result.sup_discrepancy),
            "final_error": list(result.final_error),
            # a ladder of fewer than 4 rungs has no rate fit: null, not NaN
            "slope": None if math.isnan(result.slope) else result.slope,
            "trials": result.trials,
            "seeds": list(result.seeds),
        },
    )
    return 0


def _cmd_verify(sink, model, spec, init, stop, resolved):
    from . import acceptance

    results = [acceptance.run_one(num) for num in resolved["criteria"]]
    width = max(len(r.title) for r in results)
    print(f"{'criterion':>9}  {'status':6}  {'seconds':>8}  title")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.number:>9}  {status:6}  {r.seconds:8.2f}  {r.title:<{width}}")
        print(f"{'':9}  {'':6}  {'':8}  -> {r.detail}")
    all_passed = all(r.passed for r in results)
    print(f"result: {'PASS' if all_passed else 'FAIL'} "
          f"({sum(r.passed for r in results)}/{len(results)} criteria)")
    sink.json(
        "verify.json",
        {
            "all_passed": all_passed,
            "criteria": [
                {
                    "number": r.number,
                    "title": r.title,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
        },
    )
    return 0 if all_passed else 1


_COMMANDS = {
    "run-population": _cmd_run_population,
    "run-sample": _cmd_run_sample,
    "coupled": _cmd_coupled,
    "landscape": _cmd_landscape,
    "kernels": _cmd_kernels,
    "consistency": _cmd_consistency,
    "verify": _cmd_verify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; ``parse_args`` makes a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="emlab",
        description="Numerical laboratory for EM on symmetric two-Gaussian mixtures.",
    )
    parser.add_argument("--version", action="version", version=f"emlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--out", metavar="DIR", default="emlab-out",
                       help="output directory (default: emlab-out)")
        p.add_argument("--seed", metavar="N", type=int, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is None:
            raw = {}
        else:
            try:
                raw = json.loads(Path(args.config).read_text())
            except FileNotFoundError:
                raise ConfigError("<config>", f"no such file: {args.config}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError("<config>", f"invalid JSON: {exc}") from None
        resolved, model, spec, init, stop = resolve_config(raw, args.command, args.seed)
        sink = _Sink(args.out, resolved)
        status = _COMMANDS[args.command](sink, model, spec, init, stop, resolved)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, DegenerateWeights, DegenerateState) as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for path in sink.written:
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
