"""The benchmark's workloads: which CLI invocations one round makes, and how
each invocation's outputs are checked.

Inputs come from the seed alone.  Every parameter a check depends on is
passed to the CLI explicitly with --set, so the check and the run agree on
the physics even where the value equals the program's default.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Invocation:
    """One `locland <experiment>` run and the checks on what it writes.

    `check` names the function in checks.py that reads the outputs; it runs
    in a separate process so that this one stays small (see run.py).
    """

    tag: str
    experiment: str
    params: dict
    check: str
    seed: int | None = None

    def argv(self, out_dir) -> list:
        args = [self.experiment, "--out", str(out_dir), "--workers", "1"]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        for key, value in self.params.items():
            args += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: list
    #: (invocation tag, check name) pairs that fail on a known fault; they
    #: count as failed operations but do not make the run incorrect
    known_failures: frozenset = field(default_factory=frozenset)


def aah_lift(seed: int) -> Workload:
    """Driven AAH chain at d = 80 x 13 = 1040 over six drive frequencies in [1, 10].

    The seed draws the quasiperiodic phase theta in [0.01, 0.02]; sizes and
    the frequency grid stay fixed, so every seed does the same amount of
    LAPACK work.  The range stays near the reference theta = 0 because
    v_max at a single frequency swings by orders of magnitude with theta:
    over the whole circle the six-point variance ratio falls below 10 at
    some phases (3e-3 at theta = 1.757).  It also avoids theta in
    [0.0015, 0.006], where sigma_min^2 / sigma_max^2 comes within a factor
    of 10 of rcond at some frequency and the cutoff fault flips v_max (see
    CHANGES.md); on [0.01, 0.02] that ratio stays above 7.8e-11 and the
    variance ratio above 1e10.
    """
    theta = 0.01 + 0.01 * random.Random(seed).random()
    params = {
        "n_sites": 80,
        "hopping": 1.0,
        "lambda0": 2.8,
        "amplitude": 3.7,
        "alpha": GOLDEN_RATIO_CONJUGATE,
        "theta": theta,
        "omega_min": 1.0,
        "omega_max": 10.0,
        "omega_count": 6,
        "truncation": 6,
        "rcond": 1e-12,
    }
    return Workload("aah-lift", [Invocation("aah", "aah", params, "check_aah")])


def cdt_duo_plane(seed: int) -> Workload:
    """Two-tone two-level system on a 7 x 7 amplitude plane (d = 2 x 13 x 13 = 338), 8 periods.

    The seed draws the upper end of the amplitude range in [9.75, 10]; the
    plane size and the step count stay fixed.
    """
    amp_max = 10.0 - 0.25 * random.Random(seed).random()
    params = {
        "j_coupling": 1.0,
        "omega1": 10.0,
        "omega2_ratio": math.sqrt(2.0),
        "amp_min": 0.0,
        "amp_max": amp_max,
        "a_count": 7,
        "b_count": 7,
        "truncation1": 6,
        "truncation2": 6,
        "n_periods": 8,
        "steps_per_period": 2000,
    }
    return Workload("cdt-duo-plane", [Invocation("cdt-duo", "cdt-duo", params, "check_cdt_duo")])


#: r values where the hn landscape at N = 200 loses its skin-effect direction
#: to the rcond = 1e-24 cutoff and its peak leaves the edge
HN200_CUTOFF_FAULT = ("0.700", "0.725", "0.750", "1.300")


def small_sweeps(seed: int) -> Workload:
    """Every small-operator experiment at its default size.

    Only `bounds` takes the seed (its random Hermitian matrix); the hn
    sweeps are fixed so that the known cutoff fault fails the same checks
    on every seed.
    """
    hn = {"t_left": 1.0, "r_min": 0.7, "r_max": 1.3, "r_count": 25, "rcond": 1e-24}
    invocations = [
        Invocation("hn-120", "hn", {"n_sites": 120, **hn}, "check_hn"),
        Invocation("hn-200", "hn", {"n_sites": 200, **hn}, "check_hn"),
    ]
    for m in (4, 6, 8):
        invocations.append(
            Invocation(f"cdt-mono-m{m}", "cdt-mono", {"truncation": m}, "check_cdt_mono")
        )
    invocations += [
        Invocation("ssh", "ssh", {}, "check_builtin"),
        Invocation("bbh", "bbh", {}, "check_builtin"),
        Invocation("bounds", "bounds", {}, "check_builtin", seed=seed),
    ]
    known = frozenset(("hn-200", f"edge[r={r}]") for r in HN200_CUTOFF_FAULT)
    return Workload("small-sweeps", invocations, known)


WORKLOADS = {"aah-lift": aah_lift, "cdt-duo-plane": cdt_duo_plane, "small-sweeps": small_sweeps}
