"""Every subcommand on small random configs ends in one of the four exit codes.

The strategy draws configs for all five subcommands and runs each through
``run_cli`` in-process: the run must exit 0, 1, 2 or 3 and let no
exception escape, a numpy RuntimeWarning included (the suite turns those
into errors).  The draws stay small so the whole sweep costs seconds:
truncation <= 60, dt >= 0.01 and t_final a whole 0 .. 200 steps of dt (in
the rare draw None, or a float <= 2, mostly off the grid), m_max <= 8.
Soliton speeds either do not approach the vertex (alpha in [0, pi], which
the scattering launches refuse before the first step, alpha = 0 included)
or are kept above 0.59 sinh(beta) / beta, so a derived measurement time
stays short.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from alnet import EXPERIMENTS
from alnet.cli import EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_NUMERICAL, EXIT_OK, run_cli
from conftest import PROPERTY_SETTINGS

TOPOLOGIES = (
    {"gammas": [1.0, 1.5, 3.0]},  # the sum rule holds
    {"gammas": [0.5, 1.5, 3.0]},  # it does not
    {"gammas": [1.0, 1.0]},
    {"tree": {"gamma": 1.0, "children": [
        {"gamma": 2.0, "length": 3, "children": [{"gamma": 4.0}, {"gamma": 4.0}]},
        {"gamma": 2.0},
    ]}},
)


def mostly(draw, usual, rare):
    """A draw from ``usual`` about four times in five, from ``rare`` otherwise."""
    return draw(rare if draw(st.integers(1, 100)) <= 20 else usual)


@st.composite
def small_configs(draw):
    command = draw(st.sampled_from(EXPERIMENTS))
    topology = dict(draw(st.sampled_from(TOPOLOGIES)), truncation=mostly(
        draw, st.integers(2, 60), st.integers(0, 1)
    ))
    alpha = mostly(
        draw,
        st.floats(math.pi + 0.3, 2 * math.pi - 0.3),  # v >= 0.59 sinh(beta) / beta
        st.one_of(st.just(0.0), st.floats(0.0, math.pi)),  # v <= 0, refused by every launch
    )
    soliton = {
        "alpha": alpha,
        "beta": mostly(draw, st.floats(0.05, 3.0), st.floats(3.0, 1e3)),
        "n0": draw(st.floats(-60.0, 60.0)),  # on both sides of the vertex
    }
    dt = mostly(draw, st.floats(0.01, 0.2), st.floats(0.2, 10.0))
    sim = {
        "dt": dt,
        # a t_final off the dt grid exits 1 before the run
        "t_final": mostly(
            draw, st.integers(0, 200).map(lambda k: k * dt), st.one_of(st.none(), st.floats(0.0, 2.0))
        ),
        "output_stride": draw(st.integers(1, 30)),
    }
    config = {
        "experiment": command,
        "topology": topology,
        "soliton": soliton,
        "sim": sim,
        "m_max": draw(st.integers(1, 8)),
        "ratios": mostly(
            draw, st.lists(st.floats(0.05, 0.95), max_size=3), st.lists(st.floats(-0.2, 1.2), max_size=3)
        ),
        "snapshot_times": draw(st.lists(st.floats(0.0, 3.0), max_size=2)),
    }
    return command, config


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(small_configs())
def test_every_run_exits_with_a_typed_code(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code = run_cli([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INCONCLUSIVE)
