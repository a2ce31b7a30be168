"""Program mutants and the exact set of battery checks each one fails.

Each row replaces one piece of the program, never a check or its bound,
and runs the whole battery.  It names the checks that must fail; every
other check must pass, so a mutant that breaks everything fails its row.
The rows without a mutant are the duals: the same scenarios pass every
check unmodified.
"""

import os

import numpy as np
import pytest

from invariantlab import invariants, lindblad, runner
from invariantlab.operators import DensityMatrix, FockOperator
from invariantlab.scenario import build_scenario, load_scenario, parse_settings
from invariantlab.schedules import ConstantSchedule

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

BOTH = """\
omega.kind = constant
omega.value = 1.0
kappa.value = 0.1
basis.dim = 20
run.t_max = 2.0
run.backend = both
"""


def _adiabatic():
    return load_scenario(os.path.join(SCENARIOS, "adiabatic.cfg"))


def _both():
    return build_scenario(parse_settings(BOTH))


def _second_order_series(monkeypatch):
    """The slow-motion series without its rate-squared terms: its
    truncation error is second order, so halving the rate divides the
    deviation by about 4 instead of 8."""
    def series(omega_s, kappa_s, t):
        w = np.asarray(omega_s.eval(t, 0), dtype=float)
        out = (w ** -0.5
               - kappa_s.eval(t, 0) * omega_s.eval(t, 1) / (8.0 * w ** 3.5))
        return out if np.ndim(t) else float(out)

    monkeypatch.setattr(runner, "adiabatic_rho", series)


def _frictionless_first_moments(monkeypatch):
    """The mean equations integrated without their friction terms."""
    evolve = runner.evolve_first_moments

    def undamped(omega_s, kappa_s, *args, **kwargs):
        return evolve(omega_s, ConstantSchedule(0.0), *args, **kwargs)

    monkeypatch.setattr(runner, "evolve_first_moments", undamped)


def _sign_flipped_su11_generator(monkeypatch):
    """K3 passed to the commutation-relation check with its sign flipped:
    [K1, K2] = -i K3 no longer holds, and nothing else reads the call."""
    check = runner.check_su11_relations

    def flipped(k1, k2, k3, interior_dim):
        return check(k1, k2, FockOperator(-k3.entries), interior_dim)

    monkeypatch.setattr(runner, "check_su11_relations", flipped)


def _half_jump_term(monkeypatch):
    """The density right-hand side's jump sandwich at half strength, the
    factor 2 of 2 alpha L rho L^dag lost: the kernel's C = [L, rho] =
    X - X^dag with X = L rho becomes L rho - rho L / 2, formed as
    (C + X) / 2, and the generator no longer preserves the trace.
    ``lindblad``'s binding of ``_with_dagger`` forms only C: the record
    reads its health through ``operators``' own.  The observable
    transport steps the same kernel, so the drift probe sees it too."""
    with_dagger = lindblad._with_dagger

    def halved(ufunc, arr, out=None):
        c = with_dagger(ufunc, arr, out)
        c += arr
        c *= 0.5
        return c

    monkeypatch.setattr(lindblad, "_with_dagger", halved)


def _off_discriminant_invariant(monkeypatch):
    """The invariant's K2 coefficient c2 = rhodot^2 + 1/rho^2 scaled by
    1 + 1e-5: c1 c2 - c3^2 leaves its unit value, so the invariant's
    spectrum is no longer the fixed ladder n + 1/2 and it no longer
    solves the operator equation.  ``invariants.invariant_at``, the
    spectrum series and the expectation series all read the
    coefficients here."""
    weak = invariants._weak_coefficients

    def off(r, v):
        c1, c2, c3 = weak(r, v)
        return c1, c2 * (1.0 + 1e-5), c3

    monkeypatch.setattr(invariants, "_weak_coefficients", off)


def _non_positive_initial_state(monkeypatch):
    """The initial state prepared with 1e-7 of population moved from Fock
    level 10, which holds 1.6e-10, to level 8: trace and Hermiticity
    stay exact, one eigenvalue sits at -1e-7, below the soft floor and
    above the hard one the density run aborts at."""
    build = runner.build_state

    def shifted(*args, **kwargs):
        rho = build(*args, **kwargs).entries.copy()
        rho[8, 8] += 1e-7
        rho[10, 10] -= 1e-7
        return DensityMatrix(rho, validate=False)

    monkeypatch.setattr(runner, "build_state", shifted)


@pytest.mark.parametrize("scenario, mutant, failing", [
    (_adiabatic, None, set()),
    (_adiabatic, _second_order_series, {"adiabatic-scaling"}),
    (_both, None, set()),
    (_both, _frictionless_first_moments, {"backend-agreement"}),
    (_both, _sign_flipped_su11_generator, {"su11-algebra"}),
    # state-trace cannot fail alone: a trace leak moves the conserved
    # expectation and the moments, and the shared kernel moves the probe
    (_both, _half_jump_term, {"state-trace", "conservation",
                              "backend-agreement", "drift-crosscheck"}),
    # the residual reads the same coefficients as the spectrum
    (_both, _off_discriminant_invariant, {"invariant-residual",
                                          "spectrum-constancy"}),
    (_both, _non_positive_initial_state, {"state-positivity"}),
], ids=["adiabatic", "adiabatic-second-order-series", "both",
        "both-frictionless-first-moments", "both-sign-flipped-su11-generator",
        "both-half-jump-term", "both-off-discriminant-invariant",
        "both-non-positive-initial-state"])
def test_a_mutant_fails_exactly_its_checks(monkeypatch, scenario, mutant,
                                           failing):
    s = scenario()
    if mutant is not None:
        mutant(monkeypatch)
    report = runner.verify_scenario(s)
    assert {c.name for c in report.checks if not c.passed} == failing


# The battery's resolution: one jump coefficient scaled by (1 + eps) on
# the BOTH scenario, eps on a fixed ladder, and the exact set of checks
# that fail at each rung.
JUMP_COEFFICIENT_INDEX = {"alpha": 0, "a2": 1}
_A2_FAILS = ("constraint-identities", "invariant-residual",
             "backend-agreement", "conservation")
RESOLUTION_LADDER = [
    ("a2", 1e-8, set(_A2_FAILS[:1])),
    ("a2", 1e-6, set(_A2_FAILS[:2])),
    ("a2", 1e-4, set(_A2_FAILS[:3])),
    ("a2", 1e-2, set(_A2_FAILS)),
    ("alpha", 1e-8, set()),
    ("alpha", 1e-6, {"constraint-identities"}),
    ("alpha", 1e-4, {"constraint-identities", "backend-agreement"}),
    ("alpha", 1e-2, {"constraint-identities", "backend-agreement"}),
]


def _scaled_jump_coefficient(monkeypatch, name, eps):
    """``lindblad._jump_coefficients`` with its ``name`` output scaled by
    1 + eps after its own identity check has passed, so every reader of
    ``LindbladModel.coefficients`` sees the scaled coefficient."""
    coefficients = lindblad._jump_coefficients
    i = JUMP_COEFFICIENT_INDEX[name]

    def scaled(kappa, r, v):
        out = list(coefficients(kappa, r, v))
        out[i] = out[i] * (1.0 + eps)
        return tuple(out)

    monkeypatch.setattr(lindblad, "_jump_coefficients", scaled)


@pytest.mark.parametrize("name, eps, failing", RESOLUTION_LADDER,
                         ids=[f"{name}-{eps:g}"
                              for name, eps, _ in RESOLUTION_LADDER])
def test_a_scaled_jump_coefficient_fails_exactly_its_rungs_checks(
        monkeypatch, name, eps, failing):
    s = _both()
    _scaled_jump_coefficient(monkeypatch, name, eps)
    report = runner.verify_scenario(s)
    assert {c.name for c in report.checks if not c.passed} == failing
