"""The benchmark's workloads: inputs made from a seed, ops, and their oracles.

A pass is the workload's whole job, run as a closed loop in one thread: each
op starts when the previous one has returned.  Ops are grouped by parameter
set; the group's first op builds the ModelParams the later ops of the group
use, so an op whose group could not build its parameters fails too.

An op's `run` makes the library calls and returns a tuple of plain numbers
and strings, which is what the traced run compares bit for bit.  Its
`check` holds the oracle and raises on a miss; it is not timed.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles

STUDY_COUPLING = 0.3
CUTOFFS = (0.0, 1e-3)
CURVE_POINTS = 201
THERMO_POINTS = 41
SWEEP_COUPLINGS = 12
SWEEP_RANGE = (0.3, 0.12)
SWEEP_THERMO = (0.5, 0.9, 1.1, 1.5)
# Couplings are jittered within +-5% of the log step (+-0.4% of the
# coupling) around each nominal point, far from the weak-coupling defect: c_v
# below t_c turns wrong from u ~ 0.113, f'(t_c) from ~ 0.1025, c_v above t_c
# from ~ 0.1001, and solve_tc raises NoBracket below ~ 0.054.
SWEEP_JITTER = 0.05
# The defect region, probed once per weak-sweep run outside the measured
# workload and reported, so the defect stays visible while every measured op
# must pass.  Nominal couplings, no jitter: the report is the same every run.
DEFECT_RANGE = (0.11, 0.04)
DEFECT_COUPLINGS = 6

WORKLOADS = ("study", "certify", "weak-sweep")


@dataclass
class Group:
    u0n0: float
    eps: float
    params: object = None
    error: str | None = None


@dataclass
class Op:
    kind: str
    group: Group
    run: Callable
    check: Callable


def _tc_op(lib, group):
    def run():
        p = lib.model.build_params(u0n0=group.u0n0, eps=group.eps)
        group.params = p
        point = lib.gap.solve_gap_at(p.t_c, p)
        f_prime, _ = lib.gap.gap_derivatives_at(p.t_c, p, point)
        return (p.t_c, f_prime)

    def check(out):
        t_c, f_prime = out
        p = group.params
        oracles.check_tc(t_c, p.u0n0, p.hbar_omega_d, p.k_b, p.eps)
        oracles.check_fprime(f_prime, t_c, p.hbar_omega_d, p.k_b, p.eps)

    return Op("tc", group, run, check)


def _thermo_op(lib, group, ratio):
    def run():
        p = _params(group)
        point = lib.thermo.thermodynamic_potential(ratio * p.t_c, p)
        return (point.t, point.omega, point.omega_t, point.omega_tt, point.entropy, point.c_v)

    def check(out):
        t, omega, _, _, entropy, c_v = out
        p = group.params
        if t > p.t_c:
            oracles.check_normal_cv(c_v, t, p.n0, p.k_b, p.hbar_omega_d)
        else:
            oracles.check_superconducting_point(omega, entropy, c_v, t, p.n0, p.k_b)

    return Op("thermo", group, run, check)


def _curve_op(lib, group):
    def run():
        p = _params(group)
        curve = lib.gap.sample_gap_curve(p, CURVE_POINTS)
        return tuple((q.t, q.f, q.f_prime, q.f_second, q.residual) for q in curve.points)

    def check(out):
        p = group.params
        ts, fs, _, _, residuals = zip(*out)
        oracles.check_curve(ts, fs, residuals, p.t_c, p.delta**2)

    return Op("curve", group, run, check)


def _jump_op(lib, group):
    def run():
        p = _params(group)
        closed = lib.thermo.second_derivative_jump(p)
        measured = lib.thermo.measured_second_derivative_jump(p).jump
        cv_jump = lib.thermo.specific_heat_jump(p) if p.eps == 0.0 else None
        return (closed, measured, cv_jump)

    def check(out):
        closed, measured, cv_jump = out
        oracles.check_jump(measured, closed, cv_jump, group.params.t_c)

    return Op("jump", group, run, check)


def _verify_op(lib, group):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(["verify", "--format", "json"])
        return (code, buf.getvalue())

    def check(out):
        code, text = out
        oracles.check_verify_report(code, json.loads(text))

    return Op("verify", group, run, check)


def _params(group):
    if group.params is None:
        raise RuntimeError(f"no parameters for u0n0={group.u0n0!r}: {group.error}")
    return group.params


def _jittered_grid(rng, lo, hi, n):
    """n points on [lo, hi], each moved uniformly within a quarter cell."""
    step = (hi - lo) / (n - 1)
    return [lo + step * (i + rng.uniform(-0.25, 0.25)) for i in range(n)]


def log_spaced(hi, lo, n, rng=None):
    """n couplings log-spaced from hi down to lo, each moved uniformly within
    SWEEP_JITTER of the log step when an rng is given."""
    log_step = math.log(hi / lo) / (n - 1)
    jitter = (lambda: rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)) if rng else (lambda: 0.0)
    return [hi * math.exp((-k + jitter()) * log_step) for k in range(n)]


def _sweep_ops(lib, couplings, rng):
    ops = []
    for eps in CUTOFFS:
        for u in couplings:
            g = Group(u, eps)
            ops.append(_tc_op(lib, g))
            for r in SWEEP_THERMO:
                ops.append(_thermo_op(lib, g, r * (1.0 + rng.uniform(-0.02, 0.02))))
    return ops


def defect_ops(lib):
    """The weak-sweep ops at the defect region's nominal couplings."""
    couplings = log_spaced(*DEFECT_RANGE, DEFECT_COUPLINGS)
    return _sweep_ops(lib, couplings, random.Random("known-defect"))


def first_params_kwargs(workload, seed):
    """Arguments of the workload's first build_params call."""
    group = make_pass(None, workload, seed)[0].group
    return {"u0n0": group.u0n0, "eps": group.eps}


def make_pass(lib, workload, seed):
    """Fresh ops for one pass; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "study":
        for eps in CUTOFFS:
            g = Group(STUDY_COUPLING, eps)
            ops.append(_tc_op(lib, g))
            ops.append(_curve_op(lib, g))
            ratios = _jittered_grid(rng, 0.5, 1.5, THERMO_POINTS)
            ops.extend(_thermo_op(lib, g, r) for r in ratios)
            ops.append(_jump_op(lib, g))
    elif workload == "certify":
        ops.append(_verify_op(lib, Group(STUDY_COUPLING, 0.0)))
    elif workload == "weak-sweep":
        ops = _sweep_ops(lib, log_spaced(*SWEEP_RANGE, SWEEP_COUPLINGS, rng), rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return ops
