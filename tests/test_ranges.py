"""The valid range of every numeric input, declared once beside its field.

``RANGES`` pins each declaration, so a range that is loosened, narrowed or
dropped fails here.  Each interval is then checked at its edges, at NaN and
both infinities, and on any float, against this file's own reading of the
interval's text.  This file is the one home of single-field range cases;
a per-class test checks only what compares fields.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from perchsim import autopilot, claw, harness, leg, perception, plant, pso
from perchsim import touchdown
from perchsim.config import check_ranges

POS, NON_NEG, FINITE = "(0, inf)", "[0, inf)", "(-inf, inf)"
# a Philox key word (a mission's or a swarm's); FullPerch flies a run's
# seed and the next eight
MISSION_SEED, RUN_SEED = f"[0, {2**64 - 1}]", f"[0, {2**64 - 9}]"

DECLARED = {
    "LoopGains": dict.fromkeys(("kp", "ki", "kd", "out_min", "out_max"),
                               FINITE) | {"integrator_clamp": NON_NEG},
    "MissionConfig": {
        "launch_speed_mps": "[0, 5.0]", "pitch_setpoint_deg": "[0, 45]",
        "altitude_setpoint_m": "(0, 5)", "disturbance_sigma_force_n": NON_NEG,
        "disturbance_sigma_moment_nm": NON_NEG,
        "launch_lateral_offset_m": FINITE, "launch_altitude_offset_m": FINITE,
        "seed": MISSION_SEED, "mass_kg": POS},
    "RunConfig": {"seed": RUN_SEED},
    "BranchSpec": {"diameter_m": POS, "x_m": FINITE, "z_m": FINITE},
    "ClawGeometry": dict.fromkeys(("d_e", "trigger_lever", "claw_inertia"),
                                  POS),
    "LaunchProfile": {"target_speed_mps": "[0, 5.0]", "rail_length_m": POS,
                      "lateral_offset_m": FINITE},
    "LegParams": dict.fromkeys(
        ("link_length_m", "leg_mass_kg", "leg_spring_rate_n_m"), POS),
    "SensorSpec": {
        "ifov_arcmin": POS, "read_hz": POS,
        "noise_sigma": NON_NEG, "threshold_fraction": "(0, 1]",
        "min_run_px": "[1, inf)", "dark_level": "[0, 1)"},
    "LegPdGains": {"kp_deg_per_px": NON_NEG, "kd_deg_s_per_px": NON_NEG,
                   "rate_limit_dps": POS},
    "PsoConfig": {"particles": "[2, inf)", "iterations": NON_NEG,
                  "seed": MISSION_SEED},
    # any finite pitch: the 80-pass oracle test classifies 120 deg
    "TouchdownState": {
        "speed_mps": NON_NEG, "theta_leg_deg": "[0, 90]",
        "psi_branch_deg": FINITE, "body_pitch_deg": FINITE, "mass_kg": POS},
}
RANGES = {f"{cls}.{name}": interval for cls, table in DECLARED.items()
          for name, interval in table.items()}

CLASSES = {cls.__name__: cls
           for mod in (autopilot, claw, harness, leg, perception, plant, pso,
                       touchdown)
           for cls in vars(mod).values()
           if dataclasses.is_dataclass(cls) and isinstance(cls, type)
           and cls.__module__ == mod.__name__}

# the arguments a class needs beyond its defaults
REQUIRED = {"LoopGains": {"kp": 1.0}, "PsoConfig": {"bounds": [(0.0, 1.0)]},
            "RunConfig": {"scenario": harness.Scenario.FULL_PERCH}}


def build(cls_name, **values):
    return CLASSES[cls_name](**{**REQUIRED.get(cls_name, {}), **values})


def exact(end):
    """An interval end read from its text: an integer exactly, as an int."""
    return int(end) if end.lstrip("-").isdigit() else float(end)


def inside(interval, value):
    """Whether ``value`` lies in ``interval``, read from its text: a bool,
    Python's or numpy's, lies in none."""
    if isinstance(value, (bool, np.bool_)):
        return False
    lo, hi = (exact(end) for end in interval[1:-1].split(", "))
    return ((lo < value or interval[0] == "[" and lo == value)
            and (value < hi or interval[-1] == "]" and value == hi))


def assert_checked(key, value):
    """``check_ranges`` passes ``value`` in field ``key`` exactly when it
    lies in the field's interval and, in an integer field, is an int, and
    otherwise names the field."""
    cls_name, name = key.split(".")
    obj = build(cls_name)
    object.__setattr__(obj, name, value)  # past the frozen guard
    if not inside(RANGES[key], value):
        problem = f"must lie in {RANGES[key]}"
    elif key in INTEGER_FIELDS and type(value) is not int:
        problem = "must be an integer"
    else:
        check_ranges(obj)
        return
    with pytest.raises(ValueError) as err:
        check_ranges(obj)
    assert str(err.value) == f"{key} {problem}, got {value!r}"


def test_declarations_match_table():
    declared = {f"{name}.{f.name}": f.metadata["range"][0]
                for name, cls in CLASSES.items()
                for f in dataclasses.fields(cls) if "range" in f.metadata}
    assert declared == RANGES


@pytest.mark.parametrize("key", sorted(RANGES))
def test_interval_edges(key):
    # bools compare as 0 and 1, but lie in no interval
    values = [math.nan, -math.inf, math.inf, True, False, np.True_, np.False_]
    for text in RANGES[key][1:-1].split(", "):
        end = exact(text)
        values += [math.nextafter(end, -math.inf), float(end),
                   math.nextafter(end, math.inf)]
        if isinstance(end, int):   # and the integers either side, past 2**53
            values += [end - 1, end, end + 1]
    for value in values:
        assert_checked(key, value)


@given(key=st.sampled_from(sorted(RANGES)), value=st.floats())
def test_any_float(key, value):
    assert_checked(key, value)


@pytest.mark.parametrize("key", sorted(RANGES))
def test_constructor_checks_ranges(key):
    # None, a bool and every other non-number lie outside every interval too
    cls_name, name = key.split(".")
    for value in (math.nan, None, "0.5", True, np.False_):
        with pytest.raises(ValueError) as err:
            build(cls_name, **{name: value})
        assert str(err.value) == (f"{key} must lie in {RANGES[key]}, "
                                  f"got {value!r}")


# every field declared ranged(..., integer=True)
INTEGER_FIELDS = ("MissionConfig.seed", "PsoConfig.iterations",
                  "PsoConfig.particles", "PsoConfig.seed", "RunConfig.seed")


def test_integer_declarations():
    declared = {f"{name}.{f.name}" for name, cls in CLASSES.items()
                for f in dataclasses.fields(cls) if f.metadata.get("integer")}
    assert declared == set(INTEGER_FIELDS)


# a bool lies in no interval, which test_interval_edges checks
@pytest.mark.parametrize("key", INTEGER_FIELDS)
@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(4.0)])
def test_integer_fields_reject_floats_and_bools(key, value):
    assert_checked(key, value)


@pytest.mark.parametrize("key", INTEGER_FIELDS)
def test_constructor_checks_integers(key):
    cls_name, name = key.split(".")
    with pytest.raises(ValueError, match=f"^{key} must be an integer, "):
        build(cls_name, **{name: 2.5})


@pytest.mark.parametrize("key", INTEGER_FIELDS)
def test_integer_fields_take_numpy_integers(key):
    cls_name, name = key.split(".")
    assert getattr(build(cls_name, **{name: np.int64(3)}), name) == 3


def test_pso_seed_is_a_philox_key_word():
    with pytest.raises(ValueError, match=r"^PsoConfig.seed must lie in "):
        build("PsoConfig", seed=-1)
    assert build("PsoConfig", seed=2**64 - 1).seed == 2**64 - 1
