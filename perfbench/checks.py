"""Correctness checks on the CLI's artifacts, and each op's unit of work.

Each check reads the files one operation wrote and raises ``CheckFailed``
unless they satisfy a property EM must have or agree with an independent
computation (``scipy.integrate.quad`` of the defining integrals).  None of
them compares against stored output.  The checks read only the artifacts and
the config the benchmark generated, so they also run against artifacts
written by any other version of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad


# table rows per kernel table that are checked against quad
SPOT_CELLS = 12


class CheckFailed(AssertionError):
    """An artifact contradicts what the method must produce."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------------ readers


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and raw cells of a CLI CSV artifact, preamble skipped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _columns(path: Path, prefix: str) -> tuple[np.ndarray, list[str], list[list[str]]]:
    """The float matrix of the columns named ``prefix_0``, ``prefix_1``, ..."""
    header, rows = read_csv(path)
    idx = [i for i, name in enumerate(header) if name.startswith(prefix + "_")]
    return np.array([[float(r[i]) for i in idx] for r in rows]), header, rows


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def artifact_digest(out: Path) -> str:
    """sha256 over the names and bytes of every file an op wrote."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def artifact_bytes(out: Path) -> int:
    return sum(path.stat().st_size for path in out.iterdir())


# -------------------------------------------------------- reference integrals

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def lobe_integral(g, center: float, breaks=()) -> float:
    """int g(y) phi(y - center) dy by adaptive quadrature on center +- 14."""
    points = sorted(b - center for b in breaks if abs(b - center) < 14.0)
    value, _ = quad(lambda z: g(center + z) * _phi(z), -14.0, 14.0,
                    points=points or None, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


def reference_kernels(x_a: float, x_b: float, x_t: float) -> dict[str, float]:
    """P, Gamma, S, F, K from their defining integrals (``emlab.kernels``)."""

    def w(y):
        return 0.5 * (1.0 + math.tanh((y - x_a) * x_b))

    def mixture(g, sign):
        return 0.5 * (lobe_integral(g, x_t, (x_a,)) + sign * lobe_integral(g, -x_t, (x_a,)))

    return {
        "P": mixture(w, 1.0),
        "Gamma": mixture(lambda y: w(y) * y, 1.0),
        "S": mixture(w, -1.0),
        "F": lobe_integral(lambda u: math.tanh(u * x_b) * u, x_t, (0.0,)),
        "K": lobe_integral(lambda y: 0.5 * math.tanh(y * x_b), x_a, (0.0,)),
    }


def reference_loglik_1d(mu1: float, mu2: float, theta: float) -> float:
    """E log f(Y) for f = (phi(.-mu1) + phi(.-mu2))/2, Y ~ (N(theta,1) + N(-theta,1))/2,
    written directly from the two densities."""

    def log_f(y):
        return (np.logaddexp(-0.5 * (y - mu1) ** 2, -0.5 * (y - mu2) ** 2)
                - math.log(2.0) - 0.5 * math.log(2.0 * math.pi))

    mid = (0.5 * (mu1 + mu2),)
    return 0.5 * (lobe_integral(log_f, theta, mid) + lobe_integral(log_f, -theta, mid))


# ------------------------------------------------------------------ checks


def _sign_target(start, theta) -> np.ndarray:
    return float(np.sign(np.dot(start, theta))) * np.asarray(theta)


def check_free(out: Path, op) -> None:
    """Free means: a converged run ends within 1e-6 of (0, sign<b0,theta*> theta*)."""
    cfg = op.config
    summary = read_json(out / "summary.json")
    _require(summary["converged"], f"did not converge in {summary['steps']} steps")
    target = _sign_target(cfg["init"]["b"], cfg["model"]["theta_star"])
    a = np.array(summary["final_state"]["a"])
    b = np.array(summary["final_state"]["b"])
    _require(np.linalg.norm(a) <= 1e-6, f"final |a| = {np.linalg.norm(a):.3e} > 1e-6")
    gap = np.linalg.norm(b - target)
    _require(gap <= 1e-6, f"final |b - target| = {gap:.3e} > 1e-6")
    a_rows, header, rows = _columns(out / "trajectory.csv", "a")
    b_rows, _, _ = _columns(out / "trajectory.csv", "b")
    _require(len(rows) == summary["steps"], f"{len(rows)} rows for {summary['steps']} steps")
    _require(list(a_rows[0]) == cfg["init"]["a"] and list(b_rows[0]) == cfg["init"]["b"],
             "first row is not the initial state")
    p = np.array([float(r[header.index("p")]) for r in rows])
    _require(bool(np.all((p > 0.0) & (p < 1.0))), "posterior mass p outside (0, 1)")


def _locked_iterates(out: Path, op) -> np.ndarray:
    theta, _, rows = _columns(out / "trajectory.csv", "theta")
    summary = read_json(out / "summary.json")
    _require(len(rows) == summary["steps"] + 1, f"{len(rows)} rows for {summary['steps']} steps")
    _require(list(theta[0]) == op.config["init"]["theta"], "first row is not theta_0")
    return theta


def check_locked(out: Path, op) -> None:
    """Locked means, off the orthogonal slice: the run ends within 1e-6 of
    sign<theta_0, theta*> theta*."""
    theta = _locked_iterates(out, op)
    target = _sign_target(op.config["init"]["theta"], op.config["model"]["theta_star"])
    gap = np.linalg.norm(theta[-1] - target)
    _require(gap <= 1e-6, f"final |theta - target| = {gap:.3e} > 1e-6")


def check_orthogonal(out: Path, op) -> None:
    """Locked means on the orthogonal slice.

    Every iterate stays bitwise orthogonal to theta*, the norm s_t shrinks
    strictly for the whole budget, and every step follows EM's exact decay
    law on the slice, theta_{t+1} = theta_t E[sech^2(s_t g)], whose expansion
    gives s_{t+1}^-2 - s_t^-2 = 2 - s_t^2 + c s_t^4 with 0 <= c <= 10/3.  A
    stalled update (increment near 0) or a geometric one (increment growing
    like s_t^-2) leaves that band at once.
    """
    theta = _locked_iterates(out, op)
    star = op.config["model"]["theta_star"]
    _require(len(theta) == op.config["stop"]["max_iters"] + 1, "budget not used in full")
    for t, row in enumerate(theta):
        dot = sum(x * y for x, y in zip(row, star))
        _require(dot == 0.0, f"theta_{t} . theta* = {dot!r}, not exactly 0.0")
    s = np.linalg.norm(theta, axis=1)
    _require(bool(np.all(s[1:] < s[:-1])), "norm does not shrink strictly")
    inc = 1.0 / s[1:] ** 2 - 1.0 / s[:-1] ** 2
    slack = 1e-10 / s[1:] ** 2
    law = 2.0 - s[:-1] ** 2
    bad = np.flatnonzero((inc < law - slack) | (inc > law + (10.0 / 3.0) * s[:-1] ** 4 + slack))
    _require(bad.size == 0, "decay law broken at t = "
             + ", ".join(f"{t} (increment {inc[t]!r}, law {law[t]!r})" for t in bad[:3]))


def _slope(x, y) -> float:
    lx = [math.log(v) for v in x]
    ly = [math.log(v) for v in y]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((u - mx) * (v - my) for u, v in zip(lx, ly))
            / sum((u - mx) ** 2 for u in lx))


def check_ladder(out: Path, op) -> None:
    """Consistency ladder: the median sup-discrepancy falls strictly with n and
    the final error falls like n^(-1/2) (least-squares slope in [-0.65, -0.35])."""
    doc = read_json(out / "consistency.json")
    _require(doc["n_ladder"] == op.config["n_ladder"], "ladder differs from the config")
    sups = doc["sup_discrepancy"]
    _require(all(b < a for a, b in zip(sups, sups[1:])),
             f"median sup-discrepancy not strictly decreasing: {sups}")
    slope = _slope(doc["n_ladder"], doc["final_error"])
    _require(abs(slope - doc["slope"]) <= 1e-9,
             f"reported slope {doc['slope']!r} but the final errors give {slope!r}")
    _require(-0.65 <= slope <= -0.35, f"final-error slope {slope:.4f} outside [-0.65, -0.35]")


def check_sample(out: Path, op) -> None:
    """Sample run: the whole budget is used and p stays in (0, 1)."""
    summary = read_json(out / "summary.json")
    _require(summary["steps"] == op.config["stop"]["max_iters"], "budget not used in full")
    header, rows = read_csv(out / "trajectory.csv")
    p = np.array([float(r[header.index("p")]) for r in rows])
    _require(bool(np.all((p > 0.0) & (p < 1.0))), "posterior mass p outside (0, 1)")


def check_pair(out: Path, op, ref: Path) -> None:
    """The mu-form run agrees with the ab-form run on the same data to 1e-10
    in a, b and p on every row."""
    check_sample(out, op)
    ours = _state_matrix(out / "trajectory.csv")
    theirs = _state_matrix(ref / "trajectory.csv")
    _require(ours.shape == theirs.shape, f"{ours.shape[0]} rows vs {theirs.shape[0]}")
    gap = float(np.max(np.abs(ours - theirs)))
    _require(gap <= 1e-10, f"ab and mu forms differ by {gap:.3e} > 1e-10")


def _state_matrix(path: Path) -> np.ndarray:
    header, rows = read_csv(path)
    idx = [i for i, h in enumerate(header) if h[:2] in ("a_", "b_") or h == "p"]
    return np.array([[float(r[i]) for i in idx] for r in rows])


def check_kernels(out: Path, op) -> None:
    """Kernel table: identities on every row, quad on a seeded subset of rows.

    Identities: Gamma(0, x_b, x_t) = F/2, S = 0 at x_t = 0, P = 1/2 at x_b = 0,
    and 0 < P < 1; all to 1e-9.
    """
    header, raw = read_csv(out / "kernels.csv")
    rows = [dict(zip(header, map(float, r))) for r in raw]
    axes = op.config["grid"]
    _require(len(rows) == math.prod(ax["count"] for ax in axes.values()), "wrong cell count")
    for r in rows:
        where = f"at (x_a, x_b, x_theta) = ({r['x_a']!r}, {r['x_b']!r}, {r['x_theta']!r})"
        _require(0.0 < r["P"] < 1.0, f"P = {r['P']!r} outside (0, 1) {where}")
        if r["x_a"] == 0.0:
            _require(abs(r["Gamma"] - 0.5 * r["F"]) <= 1e-9, f"Gamma != F/2 {where}")
        if r["x_theta"] == 0.0:
            _require(abs(r["S"]) <= 1e-9, f"S = {r['S']!r} != 0 {where}")
        if r["x_b"] == 0.0:
            _require(abs(r["P"] - 0.5) <= 1e-9, f"P = {r['P']!r} != 1/2 {where}")
    rng = np.random.default_rng(op.seed)
    for i in rng.choice(len(rows), size=min(SPOT_CELLS, len(rows)), replace=False):
        r = rows[i]
        ref = reference_kernels(r["x_a"], r["x_b"], r["x_theta"])
        for name, value in ref.items():
            _require(abs(r[name] - value) <= 1e-9,
                     f"{name} = {r[name]!r} but quad gives {value!r} at row {i}")


def check_landscape(out: Path, op) -> None:
    """Landscape slice: G(a, b) = G(a, -b) on every cell (label swap), and for
    d = 1 every cell matches quad of E log f(Y) to 1e-9."""
    header, raw = read_csv(out / "landscape.csv")
    cells = np.array([[float(v) for v in r] for r in raw])
    sl = op.config["slice"]
    _require(len(cells) == sl["a_steps"] * sl["b_steps"], "wrong cell count")
    grid = cells.reshape(sl["a_steps"], sl["b_steps"], 3)
    mirror = grid[:, ::-1, :]
    _require(bool(np.all(np.abs(grid[:, :, 1] + mirror[:, :, 1]) <= 1e-12)),
             "b offsets are not symmetric about 0")
    gap = np.abs(grid[:, :, 2] - mirror[:, :, 2])
    _require(bool(np.all(gap <= 1e-10 * np.maximum(1.0, np.abs(grid[:, :, 2])))),
             f"G(a, b) != G(a, -b): largest gap {float(np.max(gap)):.3e}")
    theta = op.config["model"]["theta_star"]
    if len(theta) == 1:
        axis = 1.0 if theta[0] >= 0.0 else -1.0
        for da, db, g in cells:
            ref = reference_loglik_1d((da - db) * axis, (da + db) * axis, theta[0])
            _require(abs(g - ref) <= 1e-9,
                     f"G = {g!r} but quad gives {ref!r} at (a, b) = ({da!r}, {db!r})")


# ------------------------------------------------------------- units of work


def _population_steps(out: Path, op) -> float:
    return float(read_json(out / "summary.json")["steps"])


def _sample_point_steps(out: Path, op) -> float:
    summary = read_json(out / "summary.json")
    return float(summary["n"] * summary["steps"])


def _ladder_point_steps(out: Path, op) -> float:
    # consistency.json does not record each trial's steps, so this assumes every
    # trial runs its T steps; a traced run compares it with the steps counted
    doc = read_json(out / "consistency.json")
    return float(sum(doc["n_ladder"]) * doc["config"]["T"] * doc["trials"])


def _csv_cells(name: str):
    return lambda out, op: float(len(read_csv(out / name)[1]))


# kind -> (check, work): work counts the op's units from its artifacts
KINDS = {
    "free": (check_free, _population_steps),
    "locked": (check_locked, _population_steps),
    "orthogonal": (check_orthogonal, _population_steps),
    "ladder": (check_ladder, _ladder_point_steps),
    "sample": (check_sample, _sample_point_steps),
    "pair": (check_pair, _sample_point_steps),
    "kernels": (check_kernels, _csv_cells("kernels.csv")),
    "landscape": (check_landscape, _csv_cells("landscape.csv")),
}
