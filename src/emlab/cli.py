"""Command-line front end: JSON config in, reproducible CSV/JSON artifacts out.

Usage: ``emlab <command> [--config PATH] [--out DIR] [--seed N]``.  Each
command reads only the top-level config keys ``_KEYS`` lists for it, and only
those with a seed among them (run-sample, coupled, consistency) take ``--seed``.
``_SCHEMA`` states each field's kind, default and bound once; the README's
"Command line" section tabulates them, with the exit statuses.

Reproducibility contract: with an identical config (seed included) every
output file is byte-identical across runs.  Floats are serialized with
``repr`` (shortest round-trip form), JSON keys are sorted, and each artifact
embeds the artifact version, the sha256 hash of the fully resolved config,
and the resolved config itself.  A grid table formats each distinct
coordinate, and each kernel value broadcast over an axis, once per column;
the bytes are those of formatting every cell.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from .errors import (
    ConfigError,
    DegenerateWeights,
    NonConvergence,
    NotPositiveDefinite,
)
from .geometry import ABState, MeanPair, MixtureModel, _as_vector, whiten
from .harness import _discrepancies, consistency_ladder, coupled_run
from .kernels import TABLE_REPEATED, tabulate
from .landscape import expected_loglik
from .population import StopRule, _visited, run
# not called here; kept importable because the benchmark tracer (perfbench/spans.py) wraps it
from .population import run_model1  # noqa: F401
from .quadrature import DEFAULT_SPEC, MIN_NODES_PER_LOBE, QuadratureSpec
from .sampling import run_sample, sample_mixture

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


# ------------------------------------------------------------------ config


def _int(value, minimum, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _float(value, sign, path):
    """A finite number, as a float; ``sign`` is ">0", ">=0" or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    if sign == ">0" and value <= 0.0 or sign == ">=0" and value < 0.0:
        raise ConfigError(path, f"must be {sign}, got {value!r}")
    return value


def _choice(value, choices, path):
    """One of ``choices``, of the same type: 1 is not true, nor 1.0 the int 1."""
    if not any(type(value) is type(choice) and value == choice for choice in choices):
        raise ConfigError(path, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _list(value, bound, path):
    """A list of ``shortest`` or more items, each checked by ``kind`` with ``item_bound``."""
    shortest, kind, item_bound = bound
    if not isinstance(value, list) or len(value) < shortest:
        raise ConfigError(path, f"expected a list of {shortest} or more items")
    return [kind(item, item_bound, f"{path}[{i}]") for i, item in enumerate(value)]


def _section(raw, name, path, keys=None):
    """Resolve a config object against ``_SCHEMA[name]``, reading only
    ``keys`` (default: all of the section's).  Any other key is an error, an
    absent key takes its default, and a present one, null included, is
    checked against its kind."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<config>", f"expected an object, got {type(raw).__name__}")
    schema, prefix = _SCHEMA[name], f"{path}." if path else ""
    keys = schema if keys is None else keys
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    resolved = dict.fromkeys(keys)  # a default of None is set by a named check
    for key in keys:
        kind, default, bound = schema[key]
        if key in raw or default is not None:
            resolved[key] = kind(raw.get(key, default), bound, f"{prefix}{key}")
    return resolved


_VECTOR = (1, _float, None)  # the bound of a non-empty list of finite numbers
_CRITERIA = tuple(range(1, len(acceptance.CRITERIA) + 1))

# section -> key -> (kind, default, bound), "" holding the top-level keys.  The
# kind is the field checker above that takes the bound.
_SCHEMA = {
    "": {
        "command": (_choice, None, tuple(_KEYS)),
        "model": (_section, {}, "model"),
        "quadrature": (_section, {}, "quadrature"),
        "seed": (_int, 0, 0),
        "family": (_choice, "free", ("free", "symmetric")),
        "init": (_section, {}, "init"),
        "stop": (_section, {}, "stop"),
        "n": (_int, 10_000, 1),
        "T": (_int, 50, 1),
        "form": (_choice, "ab", ("ab", "mu")),
        "write_data": (_choice, False, (False, True)),
        "trials": (_int, 20, 1),
        "n_ladder": (_list, [1_000, 10_000, 100_000, 1_000_000], (2, _int, 1)),  # increasing
        "slice": (_section, {}, "slice"),
        "grid": (_section, {}, "grid"),
        "criteria": (_list, list(_CRITERIA), (1, _choice, _CRITERIA)),
    },
    "model": {
        "d": (_int, None, 1),  # default: the length of theta_star, else 2
        "theta_star": (_list, None, _VECTOR),  # default: (1, 0, ..., 0)
        "sigma": (_list, None, (1, _list, _VECTOR)),  # d rows of length d
    },
    "quadrature": {
        "nodes_per_lobe": (_int, DEFAULT_SPEC.nodes_per_lobe, MIN_NODES_PER_LOBE),
        "abs_tol": (_float, DEFAULT_SPEC.abs_tol, ">0"),
    },
    "init": {  # a, b (default 0, theta*/2) when free, theta (default theta*/2) when symmetric
        "a": (_list, None, _VECTOR),
        "b": (_list, None, _VECTOR),
        "theta": (_list, None, _VECTOR),
    },
    "stop": {
        "max_iters": (_int, StopRule.max_iters, 1),
        "step_tol": (_float, StopRule.step_tol, ">=0"),
    },
    "slice": {
        "a_lo": (_float, -1.0, None),
        "a_hi": (_float, 1.0, None),
        "a_steps": (_int, 21, 1),
        "b_lo": (_float, -2.0, None),
        "b_hi": (_float, 2.0, None),
        "b_steps": (_int, 21, 1),
    },
    "grid": {key: (_section, {}, "axis") for key in ("x_a", "x_b", "x_theta")},
    "axis": {"lo": (_float, 0.0, None), "hi": (_float, 3.0, None), "count": (_int, 20, 1)},
}


def _check_order(section, lo, hi, path):
    if section[hi] < section[lo]:
        raise ConfigError(f"{path}.{hi}", f"must be >= {lo}={section[lo]!r}, got {section[hi]!r}")


def _model(section):
    """The model as ``{d, theta_star}``: theta*, whitened by the covariance
    sigma if given."""
    d, theta, sigma = section["d"], section["theta_star"], section["sigma"]
    if theta is None:
        theta = [1.0] + [0.0] * ((d or 2) - 1)
    d = d or len(theta)
    if len(theta) != d:
        raise ConfigError("model.theta_star", f"length {len(theta)} does not match d={d}")
    if sigma is not None:
        if len(sigma) != d:
            raise ConfigError("model.sigma", f"expected a {d}x{d} matrix")
        for i, row in enumerate(sigma):
            if len(row) != d:
                raise ConfigError(f"model.sigma[{i}]", f"expected length {d}, got {len(row)}")
        try:
            with np.errstate(over="ignore"):  # an overflowing theta* is refused below
                theta = list(whiten(np.array(theta), np.array(sigma)))
        except NotPositiveDefinite as exc:
            raise ConfigError("model.sigma", str(exc)) from None
    try:
        model = MixtureModel(d, theta)
    except ValueError as exc:
        raise ConfigError("model.theta_star", str(exc)) from None
    return {"d": d, "theta_star": [float(v) for v in theta]}, model


def _start(section, model, family):
    """The start of the family's run, each vector of the model's dimension."""
    half = [0.5 * v for v in model.theta_star]
    start = {"theta": half} if family == "symmetric" else {"a": [0.0] * model.dim, "b": half}
    for key, value in section.items():
        if value is not None:
            if key not in start:
                raise ConfigError(f"init.{key}", f"unknown field for the {family} family")
            if len(value) != model.dim:
                raise ConfigError(f"init.{key}", f"expected length {model.dim}, got {len(value)}")
            try:
                _as_vector(value, key)  # refuses a vector whose norm overflows
            except ValueError as exc:
                raise ConfigError(f"init.{key}", str(exc)) from None
            start[key] = value
    if family == "symmetric":  # locked means: a run from (0, theta)
        return start, ABState([0.0] * model.dim, start["theta"])
    return start, ABState(start["a"], start["b"])


def resolve_config(raw, command, seed_override=None):
    """Validate ``raw`` against the keys ``_KEYS[command]`` and fill defaults.

    Returns the fully resolved config dict (JSON-serializable, deterministic
    key set) whose canonical serialization is what gets hashed.
    """
    if seed_override is not None and isinstance(raw, dict):
        raw = dict(raw, seed=seed_override)
    resolved = _section(raw, "", "", _KEYS[command])
    if resolved["command"] not in (None, command):
        raise ConfigError("command", f"config is for {resolved['command']!r}, run as {command!r}")
    resolved["command"] = command
    model = init = None
    if "model" in resolved:
        resolved["model"], model = _model(resolved["model"])
    if "init" in resolved:
        resolved["init"], init = _start(resolved["init"], model, resolved.get("family", "free"))
    spec = QuadratureSpec(**resolved["quadrature"]) if "quadrature" in resolved else None
    stop = StopRule(**resolved["stop"]) if "stop" in resolved else None
    if "n_ladder" in resolved:
        ladder = resolved["n_ladder"]
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("n_ladder", f"must be strictly increasing, got {ladder}")
    if "slice" in resolved:
        _check_order(resolved["slice"], "a_lo", "a_hi", "slice")
        _check_order(resolved["slice"], "b_lo", "b_hi", "slice")
    for key, axis in resolved.get("grid", {}).items():
        _check_order(axis, "lo", "hi", f"grid.{key}")
    return resolved, model, spec, init, stop


# ------------------------------------------------------------ artifact sink


def _canonical(resolved) -> str:  # compact JSON, keys sorted: the form that is hashed
    return json.dumps(resolved, sort_keys=True, separators=(",", ":"))


def config_hash(resolved) -> str:
    return hashlib.sha256(_canonical(resolved).encode()).hexdigest()


def _reprs(values):
    """The repr of each float of ``values``, formatted once per distinct bit
    pattern: equal bits print equal, and 0.0 and -0.0 differ in their bits."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array([repr(value) for value in bits.view(float).tolist()], dtype=object)
    return texts[inverse].tolist()


class _Sink:
    """Writes artifacts into one directory, stamping provenance on each."""

    def __init__(self, out_dir, resolved):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        text = _canonical(resolved)  # hashed, and a CSV preamble's config line
        self.provenance = {"artifact_version": __version__,
                           "config_hash": hashlib.sha256(text.encode()).hexdigest(),
                           "config": resolved}
        self.preamble = [f"# {key}: {value}"
                         for key, value in dict(self.provenance, config=text).items()]
        self.written = []

    def csv(self, name, columns, repeated=()):
        """A table from named columns, a mapping or a structured array's fields
        in order, a 2-D column ``x`` spread over ``x_0``, ``x_1``, ...; each cell
        is the str of a Python scalar, a float's repr.  A float column named in
        ``repeated`` repeats by construction: each distinct value is formatted once."""
        header, cells = [], []
        for key in columns.dtype.names if isinstance(columns, np.ndarray) else columns:
            values = np.asarray(columns[key])
            if values.ndim == 2:
                header += [f"{key}_{i}" for i in range(values.shape[1])]
                cells += values.T.tolist()
            else:
                header.append(key)
                cells.append(_reprs(values) if key in repeated and values.dtype == float
                             else values.tolist())
        lines = self.preamble + [",".join(header)]
        lines.extend(",".join(map(str, row)) for row in zip(*cells))
        self._write(name, "\n".join(lines))

    def json(self, name, payload):
        """The provenance fields and ``payload``; a numpy value is written as
        its Python value (an np.float64 is a float already)."""
        document = dict(self.provenance, **payload)
        self._write(name, json.dumps(document, sort_keys=True, indent=2, allow_nan=False,
                                     default=lambda value: value.tolist()))

    def _write(self, name, text):
        path = self.dir / name
        try:
            path.write_text(text + "\n")
        except OSError as exc:  # a directory in its place, or no write access
            raise ConfigError("--out", f"{path}: {exc.strerror}") from None
        self.written.append(path)


# ---------------------------------------------------------------- commands


def _cmd_run_population(sink, model, spec, init, stop, resolved):
    traj = run(init, model, stop, spec)
    if resolved["family"] == "symmetric":
        theta = _visited(traj, "b")
        dist = np.linalg.norm(theta - traj.target, axis=1)
        sink.csv("trajectory.csv", {"t": np.arange(len(theta)), "theta": theta, "dist": dist})
        sink.json("summary.json", {"converged": traj.converged, "steps": len(theta) - 1,
                                   "final": theta[-1], "final_dist": dist[-1]})
    else:
        sink.csv("trajectory.csv", traj.records)
        sink.json("summary.json", _trajectory_summary(traj))
    return 0


def _trajectory_summary(traj):
    last, final = traj.records[-1], traj.final_state
    return {
        "converged": traj.converged,
        "steps": len(traj.records) if traj.converged else len(traj.records) - 1,
        "final_state": {"a": final.a, "b": final.b},
        "target": traj.target,
        "final_norm_a": np.linalg.norm(final.a),
        "final_dist_b": np.linalg.norm(final.b - traj.target),
        "last_record": {key: last[key] for key in ("t", "norm_a", "dist_b")},
    }


def _cmd_run_sample(sink, model, spec, init, stop, resolved):
    data = sample_mixture(model, resolved["n"], resolved["seed"])
    traj = run_sample(init, data, stop, resolved["form"])
    sink.csv("trajectory.csv", traj.records)
    summary = dict(_trajectory_summary(traj), n=resolved["n"], form=resolved["form"])
    sink.json("summary.json", summary)
    if resolved["write_data"]:
        sink.csv("data.csv", {"y": data.data})
    return 0


def _cmd_coupled(sink, model, spec, init, stop, resolved):
    sample_traj, pop_traj, sup = coupled_run(
        init, model, resolved["n"], resolved["T"], resolved["seed"], spec
    )
    columns = {"t": sample_traj.records["t"],
               "discrepancy": _discrepancies(sample_traj, pop_traj)}
    for prefix, traj in (("pop", pop_traj), ("samp", sample_traj)):
        columns.update({f"{prefix}_{field}": traj.records[field]
                        for field in ("norm_a", "dist_b", "p")})
    sink.csv("coupled.csv", columns)
    sink.json(
        "summary.json",
        {
            "sup_discrepancy": sup,
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
    # every cell's a, b and means in one array each, checked once: G squares a
    # and b, and each mean's norm must be finite, as MeanPair requires
    with np.errstate(over="ignore", invalid="ignore"):
        a_offsets, b_offsets = (grid.ravel() for grid in np.meshgrid(
            np.linspace(sl["a_lo"], sl["a_hi"], sl["a_steps"]),
            np.linspace(sl["b_lo"], sl["b_hi"], sl["b_steps"]), indexing="ij"))
        a, b = a_offsets[:, None] * axis, b_offsets[:, None] * axis
        mu1, mu2 = a - b, a + b
        squares = ((a * a).sum(axis=1) + (b * b).sum(axis=1),
                   (mu1 * mu1).sum(axis=1), (mu2 * mu2).sum(axis=1))
    if not all(np.isfinite(square).all() for square in squares):
        raise ConfigError("slice", "every cell's a.a + b.b, mu1.mu1 and mu2.mu2 must be finite")
    mu1.flags.writeable = mu2.flags.writeable = False
    values = [expected_loglik(MeanPair._checked(row1, row2), model, spec)
              for row1, row2 in zip(mu1, mu2)]
    sink.csv("landscape.csv", {"a_offset": a_offsets, "b_offset": b_offsets, "G": values},
             repeated=("a_offset", "b_offset"))
    return 0


def _cmd_kernels(sink, model, spec, init, stop, resolved):
    # _SCHEMA's grid section resolves its three axes in the order tabulate takes them
    axes = [np.linspace(ax["lo"], ax["hi"], ax["count"]) for ax in resolved["grid"].values()]
    sink.csv("kernels.csv", tabulate(*axes, spec), repeated=TABLE_REPEATED)
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
    payload = asdict(result)
    if math.isnan(result.slope):  # rate_fit found no rate: too few rungs or a zero error
        payload["slope"] = None
    sink.json("consistency.json", payload)
    return 0


def _cmd_verify(sink, model, spec, init, stop, resolved):
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
    # seconds vary between runs: printed, not written
    criteria = [{k: v for k, v in asdict(r).items() if k != "seconds"} for r in results]
    sink.json("verify.json", {"all_passed": all_passed, "criteria": criteria})
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
        if "seed" in _KEYS[name]:
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
            except OSError as exc:  # missing, a directory or unreadable
                raise ConfigError("<config>", f"{args.config}: {exc.strerror}") from None
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8
                raise ConfigError("<config>", f"invalid JSON: {exc}") from None
        seed = getattr(args, "seed", None)  # only a command that reads a seed has the flag
        resolved, model, spec, init, stop = resolve_config(raw, args.command, seed)
        try:
            sink = _Sink(args.out, resolved)
        except OSError as exc:  # a file, or a path through one
            raise ConfigError("--out", f"{args.out}: {exc.strerror}") from None
        status = _COMMANDS[args.command](sink, model, spec, init, stop, resolved)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, DegenerateWeights) as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for path in sink.written:
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
