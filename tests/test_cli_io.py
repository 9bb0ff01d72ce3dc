import contextlib
import filecmp
import json
import math
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import alnet
from alnet import (
    DEFAULT_RATIO_GRID,
    EXPERIMENTS,
    DivergenceError,
    InvalidParameterError,
    RunConfig,
    RunOutputs,
    SimConfig,
    SolitonParams,
    bond_field,
    build_chain,
    build_star,
    load_config,
    parse_config,
    serialize_config,
    write_outputs,
)
from alnet.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_NUMERICAL,
    EXIT_OK,
    _DISPATCH,
    run_cli,
)
from alnet.conserved import M_MAX_LIMIT
from alnet.topology import KIND_INCOMING, KIND_INTERNAL, KIND_LEAF
from conftest import ALPHA_FIG4, PROPERTY_SETTINGS, audit, zero_state

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def config_dict(**overrides):
    cfg = {
        "experiment": "simulate",
        "topology": {"gammas": [1.0, 1.0], "truncation": 40},
        "soliton": {"alpha": ALPHA_FIG4, "beta": 0.2, "n0": -10.0},
        "sim": {"dt": 0.01, "t_final": 1.0, "output_stride": 50},
    }
    cfg.update(overrides)
    return cfg


def tree_topology(**node):
    # one internal bond of 3 sites below the root; ``node`` edits that bond
    internal = {"gamma": 2.0, "length": 3, "children": [{"gamma": 4.0}, {"gamma": 4.0}]}
    internal.update(node)
    return {"tree": {"gamma": 1.0, "children": [internal, {"gamma": 2.0}]}, "truncation": 40}


def bond_topology(**entry):
    # the same tree as explicit bond entries; ``entry`` edits the internal bond
    internal = {"label": "11", "gamma": 2.0, "length": 3, "kind": KIND_INTERNAL}
    internal.update(entry)
    leaves = [{"label": l, "gamma": 4.0, "length": 40, "kind": KIND_LEAF} for l in ("111", "112")]
    root = {"label": "1", "gamma": 1.0, "length": 40, "kind": KIND_INCOMING}
    leaf = {"label": "12", "gamma": 2.0, "length": 40, "kind": KIND_LEAF}
    return {"bonds": [root, internal, *leaves, leaf], "truncation": 40}


def write_config(tmp_path, **overrides):
    cfg = config_dict(out=str(tmp_path / "results"), **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestConfigParsing:
    def test_round_trip_is_exact(self):
        cfg = parse_config(
            config_dict(
                m_max=5,
                ratios=[0.2, 0.7],
                snapshot_times=[0.0, 0.5],
                out="elsewhere",
            )
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults(self):
        cfg = parse_config(
            {
                "experiment": "bifurcation",
                "topology": {"gammas": [1.0, 1.5, 3.0], "truncation": 50},
                "soliton": {"alpha": 0.1, "beta": 0.1, "n0": -20.0},
            }
        )
        assert cfg.sim == SimConfig()
        assert cfg.out == "results"
        assert cfg.m_max == 4
        assert cfg.ratios == () and cfg.snapshot_times == ()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(unknown=1),
            lambda d: d.pop("experiment"),
            lambda d: d.pop("topology"),
            lambda d: d.pop("soliton"),
            lambda d: d["soliton"].update(speed=2.0),
            lambda d: d["soliton"].pop("beta"),
            lambda d: d["sim"].update(steps=10),
            lambda d: d["sim"].update(output_stride=2.5),
            lambda d: d["sim"].update(output_stride=True),
            lambda d: d.update(soliton=[1, 2, 3]),
            lambda d: d.update(sim="fast"),
            # values of the wrong JSON type
            lambda d: d["soliton"].update(alpha=None),
            lambda d: d.update(topology={"tree": {"gamma": 1.0, "children": 3}}),
            lambda d: d["topology"].update(gammas=5),
            lambda d: d.update(ratios=5),
            lambda d: d["soliton"].update(alpha="x"),
            lambda d: d["sim"].update(dt="x"),
            lambda d: d["sim"].update(t_final="x"),
            lambda d: d["topology"].update(gammas=[1.0, 1.5, "x"]),
            lambda d: d.update(ratios="x"),
            lambda d: d.update(snapshot_times=[0.0, "x"]),
            # lengths that are not integers
            lambda d: d.update(topology=tree_topology(length=3.7)),
            lambda d: d.update(topology=bond_topology(length=50.9)),
            lambda d: d.update(topology=bond_topology(length="3")),
            # unknown keys, more than one topology form, a misspelt "children"
            lambda d: d["topology"].update(shape="star"),
            lambda d: d.update(topology=tree_topology(colour="red")),
            lambda d: d.update(topology=bond_topology(note="internal")),
            lambda d: d["topology"].update(tree={"gamma": 1.0, "children": [{"gamma": 1.0}]}),
            lambda d: d.update(topology=tree_topology(childs=[{"gamma": 4.0}, {"gamma": 4.0}])),
            # no field is boolean, and out names a directory
            lambda d: d["sim"].update(dt=True),
            lambda d: d["soliton"].update(alpha=True),
            lambda d: d.update(out=None),
            # strings where a list belongs, and a star without bonds
            lambda d: d.update(ratios="12"),
            lambda d: d.update(snapshot_times="0"),
            lambda d: d["topology"].update(gammas="132"),
            lambda d: d["topology"].update(gammas=[]),
        ],
    )
    def test_malformed_configs_are_rejected(self, mutate):
        data = config_dict()
        mutate(data)
        with pytest.raises(InvalidParameterError):
            parse_config(data)

    def test_run_config_validation(self):
        good = parse_config(config_dict())
        with pytest.raises(InvalidParameterError):
            parse_config(config_dict(experiment="explode"))
        with pytest.raises(InvalidParameterError):
            parse_config(config_dict(m_max=0))
        with pytest.raises(InvalidParameterError):
            parse_config(config_dict(m_max=True))
        with pytest.raises(InvalidParameterError):
            parse_config(config_dict(snapshot_times=[-1.0]))
        assert good.experiment in EXPERIMENTS
        assert isinstance(good.topology.truncation, int)

    def test_nested_topologies_parse(self):
        # the two topologies the rejection inputs above edit, unedited
        tops = [
            parse_config(config_dict(topology=t)).topology
            for t in (tree_topology(), bond_topology(), bond_topology(label=11))
        ]
        assert tops[0] == tops[1] == tops[2]
        assert tops[0].bond("11").kind == KIND_INTERNAL

    def test_serialized_text_is_pinned(self):
        cfg = parse_config(
            {
                "experiment": "sweep",
                "topology": {"gammas": [1.0, 1.5, 3.0], "truncation": 3},
                "soliton": {"alpha": 0.5, "beta": 0.25, "n0": -2.5, "phi0": 1.0},
                "sim": {"dt": 0.125, "t_final": 2.0, "output_stride": 4},
                "out": "pinned",
                "m_max": 3,
                "ratios": [0.25, 0.75],
                "snapshot_times": [0.0, 1.0],
            }
        )
        assert json.dumps(serialize_config(cfg), sort_keys=True) == (
            '{"experiment": "sweep", "m_max": 3, "out": "pinned", "ratios": [0.25, 0.75], '
            '"sim": {"dt": 0.125, "output_stride": 4, "t_final": 2.0}, '
            '"snapshot_times": [0.0, 1.0], '
            '"soliton": {"alpha": 0.5, "beta": 0.25, "n0": -2.5, "phi0": 1.0}, '
            '"topology": {"bonds": ['
            '{"gamma": 1.0, "kind": "incoming-semi-infinite", "label": "1", "length": 3}, '
            '{"gamma": 1.5, "kind": "leaf-semi-infinite", "label": "11", "length": 3}, '
            '{"gamma": 3.0, "kind": "leaf-semi-infinite", "label": "12", "length": 3}'
            '], "truncation": 3}}'
        )

    def test_load_config_failures(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="cannot read"):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidParameterError, match="not valid JSON"):
            load_config(bad)

    def test_load_config_reads_files(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.experiment == "simulate"
        assert cfg.topology.truncation == 40

    def test_default_ratio_grid_spans_the_open_interval(self):
        assert DEFAULT_RATIO_GRID[0] == pytest.approx(0.1)
        assert DEFAULT_RATIO_GRID[-1] == pytest.approx(0.9)
        assert all(0 < r < 1 for r in DEFAULT_RATIO_GRID)


class TestWriteOutputs:
    def test_summary_only(self, tmp_path):
        manifest = write_outputs(RunOutputs(summary={"pi": math.pi}), tmp_path)
        assert manifest == ["summary.json"]
        back = json.loads((tmp_path / "summary.json").read_text())
        assert back["pi"] == math.pi

    def test_summary_keys_are_sorted(self, tmp_path):
        write_outputs(RunOutputs(summary={"b": 1, "a": 2, "c": 3}), tmp_path)
        text = (tmp_path / "summary.json").read_text()
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')

    def test_partial_norms_round_trip(self, tmp_path):
        times = np.array([0.0, 1.0 / 3.0])
        series = {
            "1": np.array([math.pi, 1e-17]),
            "11": np.array([0.1, 2.0 / 3.0]),
        }
        write_outputs(
            RunOutputs(summary={}, partial_norms=(times, series)), tmp_path
        )
        lines = (tmp_path / "partial_norms.csv").read_text().splitlines()
        assert lines[0] == "time,bond_1,bond_11,total"
        for i, line in enumerate(lines[1:]):
            t, a, b, tot = (float(x) for x in line.split(","))
            assert t == times[i]
            assert a == series["1"][i]
            assert b == series["11"][i]
            assert tot == series["1"][i] + series["11"][i]

    def test_drift_csv_layout(self, tmp_path):
        top = build_chain(1.0, truncation=4)
        report = audit([zero_state(top)], top, m_max=3)
        write_outputs(RunOutputs(summary={}, drift=report), tmp_path)
        lines = (tmp_path / "drift.csv").read_text().splitlines()
        assert lines[0] == "time,N,ReZ,ImZ,E,J,ReC2,ImC2,ReC3,ImC3"
        assert len(lines) == 2

    def test_snapshots_need_topology(self, tmp_path):
        st = zero_state(build_chain(1.0, truncation=4))
        with pytest.raises(InvalidParameterError):
            write_outputs(
                RunOutputs(summary={}, snapshots=((0.0, st),)), tmp_path
            )

    def test_snapshot_files_and_naming(self, tmp_path):
        top = build_chain(2.0, truncation=3)
        st = zero_state(top)
        st.data[:] = [1 + 2j, 0, 0, 3 - 4j, 0, 0]
        manifest = write_outputs(
            RunOutputs(
                summary={}, snapshots=((0.0, st), (12.25, st)), topology=top
            ),
            tmp_path,
        )
        assert manifest == ["summary.json", "snapshots/t_0.0000.csv", "snapshots/t_12.2500.csv"]
        lines = (tmp_path / "snapshots/t_0.0000.csv").read_text().splitlines()
        assert lines[0] == "bond,site,re,im"
        assert lines[1] == "1,-2,1,2"
        assert lines[4] == "11,1,3,-4"
        assert len(lines) == 7

    def test_a_summary_only_run_empties_an_earlier_runs_outputs(self, tmp_path):
        top = build_chain(2.0, truncation=3)
        st = zero_state(top)
        full = RunOutputs(
            summary={}, config_echo={}, partial_norms=(np.array([0.0]), {"1": np.array([1.0])}),
            drift=audit([st], top, m_max=2), snapshots=((0.0, st),), topology=top,
        )
        assert len(write_outputs(full, tmp_path)) == 5
        (tmp_path / "other.csv").write_text("")
        assert write_outputs(RunOutputs(summary={}), tmp_path) == ["summary.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.csv", "summary.json"]

    def test_a_write_that_fails_partway_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # the second run's snapshot fails after its header: the earlier run's
        # file keeps every byte, and no partial file is left under any name
        top = build_chain(2.0, truncation=3)
        st = zero_state(top)
        st.data[:] = [1 + 2j, 0, 0, 3 - 4j, 0, 0]
        outputs = RunOutputs(summary={}, snapshots=((0.0, st), (1.0, st)), topology=top)
        write_outputs(outputs, tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        def failing(state, topology, start, stop):
            raise OSError("No space left on device")  # after the header

        monkeypatch.setattr("alnet.io._snapshot_rows", failing)
        with pytest.raises(InvalidParameterError, match="No space left"):
            write_outputs(outputs, tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        with pytest.raises(InvalidParameterError):
            write_outputs(outputs, tmp_path / "fresh")
        assert [p.name for p in (tmp_path / "fresh").rglob("*") if p.is_file()] == ["summary.json"]

    def test_a_failed_write_removes_the_empty_snapshots_directory_it_made(self, tmp_path, monkeypatch):
        top = build_chain(2.0, truncation=3)
        outputs = RunOutputs(summary={}, snapshots=((0.0, zero_state(top)),), topology=top)

        def failing(state, topology, start, stop):
            raise OSError("No space left on device")  # after the header

        monkeypatch.setattr("alnet.io._snapshot_rows", failing)
        with pytest.raises(InvalidParameterError, match="No space left"):
            write_outputs(outputs, tmp_path / "fresh")
        assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == ["summary.json"]
        # a snapshots/ that was there before the call is not this call's to remove
        (tmp_path / "kept" / "snapshots").mkdir(parents=True)
        with pytest.raises(InvalidParameterError, match="No space left"):
            write_outputs(outputs, tmp_path / "kept")
        assert (tmp_path / "kept" / "snapshots").is_dir()

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_row_ranges_join_to_the_plain_rows(self, data):
        top = build_star((1.0, 1.5, 3.0), truncation=3)
        word = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-300, -1e-300]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        words = st.lists(word, min_size=top.n_sites, max_size=top.n_sites)
        state = zero_state(top)
        state.data.real, state.data.imag = data.draw(words), data.draw(words)
        split = data.draw(st.integers(0, top.n_sites))
        plain = "".join(
            f"{label},{site},{re:.17g},{im:.17g}\n"
            for label in top.labels
            for site, re, im in zip(
                top.site_coordinates(label).tolist(),
                bond_field(state, top, label).real.tolist(),
                bond_field(state, top, label).imag.tolist(),
            )
        )
        rows = alnet.io._snapshot_rows
        assert rows(state, top, 0, split) + rows(state, top, split, top.n_sites) == plain

    def test_unwritable_directory_is_a_config_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(InvalidParameterError, match="cannot write"):
            write_outputs(RunOutputs(summary={}), blocker / "sub")


class TestCli:
    def test_simulate_writes_everything(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, snapshot_times=[0.6])
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_OK
        out = Path(cfg["out"])
        assert (out / "summary.json").is_file()
        assert (out / "config_echo.json").is_file()
        assert (out / "partial_norms.csv").is_file()
        # 0.6 is matched to the nearest observation time, 0.5
        assert (out / "snapshots/t_0.5000.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "simulate"
        # 2 beta, minus the tail mass outside the 80-site box
        assert summary["total_norm"] == pytest.approx(0.4, abs=1e-4)
        assert set(summary["final_fractions"]) == {"1", "11"}
        echo = json.loads((out / "config_echo.json").read_text())
        assert parse_config(echo) == load_config(path)
        printed = capsys.readouterr().out.splitlines()
        assert f"wrote {cfg['out']}/summary.json" in printed

    def test_default_snapshots_are_first_and_last(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_OK
        snaps = sorted(p.name for p in (Path(cfg["out"]) / "snapshots").iterdir())
        assert snaps == ["t_0.0000.csv", "t_1.0000.csv"]

    def test_config_echo_reproduces_the_run(self, tmp_path):
        path, cfg = write_config(
            tmp_path, topology=tree_topology(), m_max=3, snapshot_times=[0.0, 0.5]
        )
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_OK
        first = Path(cfg["out"])
        again = tmp_path / "again"
        echo = first / "config_echo.json"
        argv = ["conserved-audit", "--config", str(echo), "--out", str(again)]
        assert run_cli(argv) == EXIT_OK
        names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
        assert len(names) == 6
        for name in names:
            if name.name != "config_echo.json":
                assert (first / name).read_bytes() == (again / name).read_bytes(), name
        echoes = [json.loads((d / "config_echo.json").read_text()) for d in (first, again)]
        assert echoes[1].pop("out") == str(again)
        echoes[0].pop("out")
        assert echoes[0] == echoes[1]

    def test_malformed_value_exits_1_without_a_traceback(self, tmp_path):
        path, cfg = write_config(tmp_path, soliton={"alpha": None, "beta": 0.2, "n0": -10.0})
        env = dict(os.environ, PYTHONPATH=str(Path(alnet.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "alnet.cli", "simulate", "--config", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("alnet: invalid configuration:")
        assert "Traceback" not in proc.stderr
        assert not Path(cfg["out"]).exists()

    def test_snapshot_past_the_run_exits_1(self, tmp_path, capsys):
        # the run ends at t = 1 and observes every 0.5: 1.5 is one interval
        # past it and maps to t = 1, 1.6 lies beyond
        path, cfg = write_config(tmp_path, snapshot_times=[1.5])
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_OK
        assert (Path(cfg["out"]) / "snapshots" / "t_1.0000.csv").is_file()
        shutil.rmtree(cfg["out"])
        for late in (1.6, 5.0):
            path, cfg = write_config(tmp_path, snapshot_times=[0.0, late])
            assert run_cli(["simulate", "--config", str(path)]) == EXIT_CONFIG
            assert "past the run" in capsys.readouterr().err
            assert not Path(cfg["out"]).exists()

    def test_snapshots_that_share_a_file_name_exit_1_before_writing(self, tmp_path, capsys):
        # observations 1e-5 apart all print as t_0.0000: one file would overwrite the other
        sim = {"dt": 1e-5, "t_final": 1e-4, "output_stride": 1}
        path, cfg = write_config(tmp_path, sim=sim, snapshot_times=[1e-5, 2e-5, 7e-5])
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "snapshot times 1e-05 and 2e-05 both write snapshots/t_0.0000.csv" in err
        assert not Path(cfg["out"]).exists()

    def test_a_rerun_leaves_no_output_of_an_earlier_run(self, tmp_path):
        # the audit writes drift.csv and two snapshots that a later simulate
        # into the same directory does not; files of other names stay
        out = tmp_path / "out"
        path, _ = write_config(tmp_path, snapshot_times=[0.5, 1.0])
        assert run_cli(["conserved-audit", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "drift.csv").is_file() and (out / "snapshots" / "t_0.5000.csv").is_file()
        (out / "notes.txt").write_text("mine")
        (out / "snapshots" / "notes.txt").write_text("mine")
        path, _ = write_config(tmp_path, snapshot_times=[0.0])
        assert run_cli(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert files == {
            "summary.json", "config_echo.json", "partial_norms.csv", "snapshots/t_0.0000.csv",
            "notes.txt", "snapshots/notes.txt",
        }

    def test_every_experiment_has_a_subcommand(self):
        assert set(_DISPATCH) == set(EXPERIMENTS)

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "none.json")
        assert run_cli(["simulate", "--config", missing]) == EXIT_CONFIG
        assert "invalid configuration" in capsys.readouterr().err

    def test_simulate_requires_t_final(self, tmp_path, capsys):
        # conserved-audit launches through the same path and needs it too
        path, cfg = write_config(tmp_path, sim={"dt": 0.01})
        for command in ("simulate", "conserved-audit"):
            assert run_cli([command, "--config", str(path)]) == EXIT_CONFIG
            assert "sim.t_final" in capsys.readouterr().err
            assert not Path(cfg["out"]).exists()

    @pytest.mark.parametrize("command", ["bifurcation", "simulate"])
    def test_launch_without_amplitude_exits_1(self, tmp_path, capsys, command):
        # so far from the graph that the profile underflows to zero on every
        # site: there is no norm to take fractions of
        path, cfg = write_config(
            tmp_path,
            experiment=command,
            topology={"gammas": [1.0, 1.5, 3.0], "truncation": 40},
            soliton={"alpha": ALPHA_FIG4, "beta": 0.2, "n0": -1e5},
        )
        assert run_cli([command, "--config", str(path)]) == EXIT_CONFIG
        assert "zero amplitude" in capsys.readouterr().err
        assert not Path(cfg["out"]).exists()

    def test_a_beta_that_overflows_exits_1(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, soliton={"alpha": ALPHA_FIG4, "beta": 800.0, "n0": -10.0})
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert "invalid configuration" in capsys.readouterr().err
        assert not Path(cfg["out"]).exists()

    def test_broken_rule_rejects_sum_rule_couplings(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            experiment="broken-rule",
            topology={"gammas": [1.0, 1.5, 3.0], "truncation": 150},
            soliton={"alpha": ALPHA_FIG4, "beta": 0.1, "n0": -60.0},
            sim={"dt": 0.01},
        )
        assert run_cli(["broken-rule", "--config", str(path)]) == EXIT_CONFIG

    def test_divergence_exits_2(self, tmp_path, capsys):
        # truncation 100 keeps the launch clear of the walls, so the step diverges first
        path, _ = write_config(
            tmp_path,
            topology={"gammas": [1.0, 1.0], "truncation": 100},
            sim={"dt": 50.0, "t_final": 500.0},
        )
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "conserved-audit", "broken-rule", "sweep"])
    def test_an_overflowing_step_exits_2_without_a_numpy_warning(self, tmp_path, capsys, command):
        # |psi|^2 = sinh(300)^2 is finite at the launch, and the first step overflows;
        # the suite turns a numpy RuntimeWarning into an error.  The leaves are
        # long enough for a scattering run to measure its peaks.
        path, _ = write_config(
            tmp_path,
            topology={"gammas": [0.5, 1.5, 3.0], "truncation": 130},
            soliton={"alpha": ALPHA_FIG4, "beta": 300.0, "n0": -10.0},
            sim={"dt": 0.01, "t_final": 1.0, "output_stride": 50},
        )
        assert run_cli([command, "--config", str(path)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_a_launch_at_the_wall_exits_3_before_the_first_step(self, tmp_path, capsys):
        # at truncation 20 the soliton at n0 = -10 puts |psi|^2 = 6.1e-3 on the guard sites
        path, _ = write_config(
            tmp_path,
            topology={"gammas": [1.0, 1.0], "truncation": 20},
            sim={"dt": 50.0, "t_final": 500.0},
        )
        with mock.patch("alnet.dynamics.step", wraps=alnet.dynamics.step) as spy:
            assert run_cli(["simulate", "--config", str(path)]) == EXIT_INCONCLUSIVE
        assert spy.call_count == 0
        assert "truncated end of bond '1'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "conserved-audit"])
    def test_a_run_into_the_wall_exits_3(self, tmp_path, capsys, command):
        # configs/chain.json at --t-final 400 reaches bond 11's wall; a shorter
        # chain and a longer step reach it sooner
        argv = [command, "--config", str(CONFIGS / "chain.json"), "--out", str(tmp_path / "out"),
                "--truncation", "100", "--dt", "0.05"]
        assert run_cli(argv) == EXIT_OK
        assert run_cli([*argv, "--t-final", "120"]) == EXIT_INCONCLUSIVE
        err = capsys.readouterr().err
        assert "inconclusive run: field reached the truncated end of bond '11'" in err

    def test_a_wide_launch_at_the_wall_exits_3(self, tmp_path, capsys):
        # configs/chain.json at beta = 0.004: the guard sites hold |psi|^2 = 1.2e-5,
        # 75% of the peak density and far above the run's norm times the tolerance
        config = json.loads((CONFIGS / "chain.json").read_text())
        config["soliton"]["beta"] = 0.004
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(config))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--t-final", "400"]
        with mock.patch("alnet.dynamics.step", wraps=alnet.dynamics.step) as spy:
            assert run_cli(argv) == EXIT_INCONCLUSIVE
        assert spy.call_count == 0
        assert "truncated end of bond '1' (|psi|^2 = 1.197e-05)" in capsys.readouterr().err

    def test_short_leaves_exit_3(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            experiment="bifurcation",
            topology={"gammas": [1.0, 1.5, 3.0], "truncation": 100},
            soliton={"alpha": ALPHA_FIG4, "beta": 0.1, "n0": -60.0},
            sim={"dt": 0.01},
        )
        assert run_cli(["bifurcation", "--config", str(path)]) == EXIT_INCONCLUSIVE
        assert "inconclusive" in capsys.readouterr().err

    def test_audit_accepts_one_site_internal_bonds(self, tmp_path):
        config = json.loads((CONFIGS / "tree_audit.json").read_text())
        for child in config["topology"]["tree"]["children"]:
            child["length"] = 1
        config["sim"]["t_final"] = 5.0
        config["out"] = str(tmp_path / "results")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "results" / "summary.json").read_text())
        assert max(summary["max_relative_drifts"].values()) < 1e-6

    def test_audit_runs_every_order_on_a_broken_rule(self, tmp_path):
        # the ladder runs on the graph itself, so no order needs the sum rule
        path, cfg = write_config(
            tmp_path, topology={"gammas": [0.5, 1.5, 3.0], "truncation": 40}, m_max=6
        )
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_OK
        summary = json.loads((Path(cfg["out"]) / "summary.json").read_text())
        assert not summary["sum_rule_satisfied"]
        assert set(summary["max_relative_drifts"]) == {"N", "E", "J", "C2", "C3", "C4", "C5", "C6"}

    def test_snapshot_past_the_run_exits_1_before_integrating(self, tmp_path, capsys, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the snapshot times")

        monkeypatch.setattr("alnet.experiments.evolve", no_integration)
        cfg = json.loads((CONFIGS / "chain.json").read_text())
        path = tmp_path / "late.json"
        path.write_text(json.dumps(dict(cfg, snapshot_times=[2000.0])))
        for command in ("simulate", "conserved-audit"):
            argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
            assert run_cli(argv) == EXIT_CONFIG
            assert "past the run" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["fig4", "broken_rule"])
    def test_snapshot_past_the_measured_end_exits_1_before_integrating(
        self, tmp_path, capsys, monkeypatch, name
    ):
        # a scattering run derives its end (163 here) before the first step
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the snapshot times")

        monkeypatch.setattr("alnet.experiments.evolve", no_integration)
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        path = tmp_path / "late.json"
        path.write_text(json.dumps(dict(cfg, snapshot_times=[0.0, 165.0])))
        argv = [cfg["experiment"], "--config", str(path), "--out", str(tmp_path / "out")]
        assert run_cli(argv) == EXIT_CONFIG
        assert "snapshot time 165 lies past the run's end 163" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_snapshot_past_a_given_end_exits_1_before_integrating(
        self, tmp_path, capsys, monkeypatch
    ):
        # a sweep writes no snapshots, but a given t_final still bounds them;
        # it is past the derived measurement time, 142, which a run must reach
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the snapshot times")

        monkeypatch.setattr("alnet.experiments.evolve", no_integration)
        cfg = json.loads((CONFIGS / "sweep.json").read_text())
        sim = dict(cfg["sim"], t_final=150.0)
        path = tmp_path / "late.json"
        path.write_text(json.dumps(dict(cfg, sim=sim, snapshot_times=[50.0, 5000.0])))
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out")]
        assert run_cli(argv) == EXIT_CONFIG
        assert "snapshot time 5000 lies past the run's end 150" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_snapshot_past_the_derived_end_exits_1_before_integrating(
        self, tmp_path, capsys, monkeypatch
    ):
        # with t_final null the sweep derives its end (142) from the launch, as
        # bifurcation does, and checks the snapshot times after the launch
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the snapshot times")

        monkeypatch.setattr("alnet.experiments.evolve", no_integration)
        cfg = json.loads((CONFIGS / "sweep.json").read_text())
        path = tmp_path / "late.json"
        path.write_text(json.dumps(dict(cfg, snapshot_times=[50.0, 5000.0])))
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out")]
        assert run_cli(argv) == EXIT_CONFIG
        assert "snapshot time 5000 lies past the run's end 142" in capsys.readouterr().err
        cfg["soliton"]["n0"] = 20.0  # also launched past the vertex: the launch refuses first
        path.write_text(json.dumps(dict(cfg, snapshot_times=[5000.0])))
        assert run_cli(argv) == EXIT_INCONCLUSIVE
        assert "of its norm off bond '1'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_audit_refuses_recursion_orders_before_integrating(self, tmp_path, capsys, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("conserved-audit integrated before checking m_max")

        monkeypatch.setattr("alnet.experiments.evolve", no_integration)
        argv = ["conserved-audit", "--config", str(CONFIGS / "broken_rule.json"),
                "--t-final", "100", "--m-max", "0", "--out", str(tmp_path / "out")]
        assert run_cli(argv) == EXIT_CONFIG
        assert "m_max" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [0.0, -ALPHA_FIG4], ids=["still", "receding"])
    def test_scattering_without_an_approach_exits_3_before_integrating(
        self, tmp_path, capsys, monkeypatch, alpha
    ):
        # a given t_final is checked against the derived measurement time,
        # which needs a soliton that moves toward the vertex
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated a soliton that never reaches the vertex")

        monkeypatch.setattr("alnet.experiments.evolve", no_integration)
        for command, name in (("broken-rule", "broken_rule"), ("bifurcation", "fig4")):
            cfg = json.loads((CONFIGS / f"{name}.json").read_text())
            cfg["topology"]["truncation"] = 100
            cfg["soliton"]["alpha"] = alpha
            cfg["sim"]["t_final"] = 1.0
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            argv = [command, "--config", str(path), "--out", str(tmp_path / name)]
            assert run_cli(argv) == EXIT_INCONCLUSIVE
            assert "toward the vertex" in capsys.readouterr().err
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize(
        "command, name, extra",
        [("bifurcation", "tree_audit", []), ("sweep", "sweep", ["--t-final", "30"]),
         ("broken-rule", "broken_rule", ["--t-final", "40"])],
        ids=["bifurcation", "sweep", "broken-rule"],
    )
    def test_a_t_final_short_of_the_measurement_exits_3_before_the_first_step(
        self, tmp_path, capsys, command, name, extra
    ):
        # tree_audit.json's t_final 30 ends the run with the soliton still on
        # bond 1, as --t-final 40 does on broken_rule.json; each reported its
        # reflection as if scattered (0.973 and 0.99999999) and exited 0.  The
        # sweep's derived end is 142, so 30 is short of it too
        argv = [command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path / "out"),
                *extra]
        with mock.patch("alnet.dynamics.step", wraps=alnet.dynamics.step) as spy:
            assert run_cli(argv) == EXIT_INCONCLUSIVE
        assert spy.call_count == 0
        assert "ends the run before its measurement time" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_launch_past_the_vertex_exits_3_before_integrating(self, tmp_path, capsys, monkeypatch):
        # at n0 = +20 the soliton is already split over the leaves; fig4 would
        # report T = 2/3, 1/3 with nothing scattered
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated a launch past the vertex")

        monkeypatch.setattr("alnet.experiments.evolve", no_integration)
        for command, name in (("bifurcation", "fig4"), ("sweep", "sweep"), ("broken-rule", "broken_rule")):
            cfg = json.loads((CONFIGS / f"{name}.json").read_text())
            cfg["soliton"]["n0"] = 20.0
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            argv = [command, "--config", str(path), "--out", str(tmp_path / name)]
            assert run_cli(argv) == EXIT_INCONCLUSIVE
            assert "of its norm off bond '1'" in capsys.readouterr().err
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize(
        "command, name",
        [("simulate", "chain"), ("conserved-audit", "chain"), ("bifurcation", "fig4"),
         ("sweep", "sweep"), ("broken-rule", "broken_rule")],
    )
    def test_a_t_final_of_zero_steps_exits_1(self, tmp_path, capsys, command, name):
        # 0.05 rounds to zero steps of dt: the run would stop at t = 0 and report t_final 0.05
        argv = [command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path / "out"),
                "--dt", "1e300", "--t-final", "0.05"]
        assert run_cli(argv) == EXIT_CONFIG
        assert "off the grid of dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["tree_audit", "chain"])
    def test_a_sweep_refuses_a_topology_other_than_a_two_leaf_star_before_the_first_step(
        self, tmp_path, capsys, name
    ):
        # the sweep builds its own stars from the ratios: on the tree it wrote
        # the rows of three-bond stars and echoed the seven-bond tree, exit 0
        argv = ["sweep", "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path / "out"),
                "--t-final", "150"]
        with mock.patch("alnet.dynamics.step", wraps=alnet.dynamics.step) as spy:
            assert run_cli(argv) == EXIT_CONFIG
        assert spy.call_count == 0
        assert "takes only the topology's truncation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dt, t_final", [("0.03", "0.05"), ("0.01", "50.005"), ("1e-320", "1")])
    def test_a_t_final_off_the_dt_grid_exits_1(self, tmp_path, capsys, dt, t_final):
        # 0.05 at dt 0.03 ran two steps to t = 0.06 and reported t_final 0.05
        cfg = json.loads((CONFIGS / "chain.json").read_text())
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(dict(cfg, snapshot_times=[])))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                "--dt", dt, "--t-final", t_final]
        assert run_cli(argv) == EXIT_CONFIG
        assert "off the grid of dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_errors_raise_system_exit(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            run_cli(["unknown-command", "--config", "x.json"])

    def test_subcommand_overrides_config_experiment(self, tmp_path):
        # config says simulate; invoking conserved-audit must win
        path, cfg = write_config(tmp_path, m_max=2)
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_OK
        out = Path(cfg["out"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "conserved-audit"
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["experiment"] == "conserved-audit"
        lines = (out / "drift.csv").read_text().splitlines()
        assert lines[0] == "time,N,ReZ,ImZ,E,J,ReC2,ImC2"
        assert summary["max_relative_drifts"]["N"] < 1e-8

    def test_m_max_flag_overrides_config(self, tmp_path):
        path, cfg = write_config(tmp_path, m_max=2)
        code = run_cli(
            ["conserved-audit", "--config", str(path), "--m-max", "3"]
        )
        assert code == EXIT_OK
        lines = (Path(cfg["out"]) / "drift.csv").read_text().splitlines()
        assert lines[0] == "time,N,ReZ,ImZ,E,J,ReC2,ImC2,ReC3,ImC3"

    def test_m_max_above_its_bound_exits_1(self, tmp_path, capsys):
        # the ladder's scratch is two (m_max, n) complex arrays; the bound itself still runs
        path, cfg = write_config(
            tmp_path,
            topology={"gammas": [1.0, 1.0], "truncation": 10},
            soliton={"alpha": ALPHA_FIG4, "beta": 2.0, "n0": -4.0},
            sim={"dt": 0.01, "t_final": 0.1, "output_stride": 5},
        )
        argv = ["conserved-audit", "--config", str(path), "--m-max"]
        assert run_cli(argv + [str(M_MAX_LIMIT + 1)]) == EXIT_CONFIG
        assert f"m_max must be an integer from 1 to {M_MAX_LIMIT}" in capsys.readouterr().err
        assert not Path(cfg["out"]).exists()
        with pytest.raises(InvalidParameterError):
            parse_config(dict(cfg, m_max=M_MAX_LIMIT + 1))
        assert run_cli(argv + [str(M_MAX_LIMIT)]) == EXIT_OK
        header = (Path(cfg["out"]) / "drift.csv").read_text().splitlines()[0]
        assert header.endswith(f"ReC{M_MAX_LIMIT},ImC{M_MAX_LIMIT}")

    def test_truncation_flag_overrides_topology(self, tmp_path):
        path, cfg = write_config(tmp_path)
        code = run_cli(
            ["simulate", "--config", str(path), "--truncation", "60"]
        )
        assert code == EXIT_OK
        echo = json.loads((Path(cfg["out"]) / "config_echo.json").read_text())
        assert echo["topology"]["truncation"] == 60
        assert all(b["length"] == 60 for b in echo["topology"]["bonds"])

    def test_reruns_are_bitwise_identical(self, tmp_path):
        path, cfg = write_config(tmp_path, snapshot_times=[0.0, 1.0])
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_OK
        first = tmp_path / "first"
        shutil.copytree(cfg["out"], first)
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_OK
        comparison = filecmp.dircmp(first, cfg["out"])

        def assert_identical(cmp):
            assert not cmp.left_only and not cmp.right_only
            match, mismatch, errors = filecmp.cmpfiles(
                cmp.left, cmp.right, cmp.common_files, shallow=False
            )
            assert not mismatch and not errors
            for sub in cmp.subdirs.values():
                assert_identical(sub)

        assert_identical(comparison)


class TestAuditWorker:
    """``conserved-audit`` computes its snapshots in a forked worker; the in-process path is the reference.

    ``worker_forks`` gives every run two usable CPUs and counts the forks;
    deleting ``os.fork`` forces the in-process path.
    """

    # configs/chain.json on a short chain with a long step: its field reaches
    # bond 11's wall at t = 120
    WALL = ["--config", str(CONFIGS / "chain.json"), "--truncation", "100", "--dt", "0.05",
            "--t-final", "120"]

    @staticmethod
    def assert_no_child_is_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_divergence_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(DivergenceError("11", 5, 1.0, "C_6 overflows")))
        assert isinstance(error, DivergenceError)
        assert str(error) == "C_6 overflows on bond '11' at site 5 (t=1)"
        assert (error.bond, error.site, error.time) == ("11", 5, 1.0)

    @pytest.mark.parametrize(
        "name, extra",
        [("tree_audit", []), ("broken_rule", ["--t-final", "163", "--m-max", "6"])],
        ids=["tree-audit", "broken-rule"],
    )
    def test_the_worker_writes_the_in_process_bytes(self, tmp_path, capfd, monkeypatch, worker_forks, name, extra):
        # capfd reads file descriptors 1 and 2, which the worker shares
        argv = ["conserved-audit", "--config", str(CONFIGS / f"{name}.json"), *extra]
        assert run_cli([*argv, "--out", str(tmp_path / "worker")]) == EXIT_OK
        assert len(worker_forks) == 1
        worker_out, worker_err = capfd.readouterr()
        monkeypatch.delattr(os, "fork")
        assert run_cli([*argv, "--out", str(tmp_path / "in-process")]) == EXIT_OK
        for file in ("drift.csv", "summary.json"):
            assert (tmp_path / "worker" / file).read_bytes() == (tmp_path / "in-process" / file).read_bytes()
        self.assert_no_child_is_left()
        # nothing on stderr, and each wrote line once: the in-process run's stdout
        assert worker_err == ""
        wrote = [line for line in worker_out.splitlines() if line.startswith("wrote ")]
        assert wrote and len(set(wrote)) == len(wrote)
        assert worker_out.replace(str(tmp_path / "worker"), str(tmp_path / "in-process")) == capfd.readouterr().out

    def test_every_exit_leaves_no_child(self, tmp_path, capsys, monkeypatch, worker_forks):
        ok, _ = write_config(tmp_path, m_max=6)
        assert run_cli(["conserved-audit", "--config", str(ok)]) == EXIT_OK
        self.assert_no_child_is_left()
        # a soliton's C_m is -(2/m) sinh(m beta) e^(i m alpha): at beta 30 the
        # launch's |psi|^2 is finite and C_32 is not, and the steps overflow too
        path, _ = write_config(
            tmp_path, m_max=M_MAX_LIMIT, soliton={"alpha": ALPHA_FIG4, "beta": 30.0, "n0": -10.0}
        )
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == f"alnet: numerical failure: C_{M_MAX_LIMIT} overflows at the largest |q| on bond '1' at site -10 (t=0)\n"
        self.assert_no_child_is_left()
        assert run_cli(["conserved-audit", *self.WALL, "--out", str(tmp_path / "wall")]) == EXIT_INCONCLUSIVE
        assert "truncated end of bond '11'" in capsys.readouterr().err
        self.assert_no_child_is_left()

        guard, calls = alnet.experiments._check_boundaries, []

        def interrupted_guard(*args):
            calls.append(args)
            if len(calls) == 2:  # at the second observation, after the fork
                raise KeyboardInterrupt
            guard(*args)

        monkeypatch.setattr("alnet.experiments._check_boundaries", interrupted_guard)
        ok, _ = write_config(tmp_path, m_max=6)
        with pytest.raises(KeyboardInterrupt):
            run_cli(["conserved-audit", "--config", str(ok)])
        self.assert_no_child_is_left()
        assert len(worker_forks) == 4

    def test_a_snapshot_error_comes_before_a_later_guard(self, tmp_path, capsys, monkeypatch, worker_forks):
        argv = ["conserved-audit", *self.WALL, "--out", str(tmp_path / "out")]
        real = alnet.conserved.snapshot
        seen = []

        def recording(state, topology, m_max, workspace=None):
            seen.append(state.time)
            return real(state, topology, m_max, workspace)

        def failing(state, topology, m_max, workspace=None):
            if state.time == seen[-1]:  # the guard trips at the next observation
                raise DivergenceError("11", 7, state.time, "planted")
            return real(state, topology, m_max, workspace)

        with monkeypatch.context() as in_process:
            in_process.delattr(os, "fork")
            in_process.setattr("alnet.conserved.snapshot", recording)
            assert run_cli(argv) == EXIT_INCONCLUSIVE
            capsys.readouterr()
            in_process.setattr("alnet.conserved.snapshot", failing)
            assert run_cli(argv) == EXIT_NUMERICAL
        serial = capsys.readouterr().err
        assert serial == f"alnet: numerical failure: planted on bond '11' at site 7 (t={seen[-1]:g})\n"
        monkeypatch.setattr("alnet.conserved.snapshot", failing)
        assert run_cli(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == serial
        assert len(worker_forks) == 1
        self.assert_no_child_is_left()

    def test_a_refusal_before_the_first_step_forks_nothing(self, tmp_path, capsys, worker_forks):
        path, _ = write_config(tmp_path, snapshot_times=[5.0])
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_CONFIG
        assert "past the run" in capsys.readouterr().err
        path, _ = write_config(tmp_path, topology={"gammas": [1.0, 1.0], "truncation": 20},
                               sim={"dt": 0.01, "t_final": 1.0})
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_INCONCLUSIVE
        assert "truncated end of bond '1'" in capsys.readouterr().err
        assert worker_forks == []
        self.assert_no_child_is_left()


def temp_fds() -> list[str]:
    """What this process's open descriptors name under the temporary directory."""
    fds = Path("/proc/self/fd")
    names = []
    for fd in fds.iterdir():
        with contextlib.suppress(OSError):
            names.append(os.readlink(fd))
    return sorted(name for name in names if name.startswith(tempfile.gettempdir()))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="reads the open descriptors in /proc")
class TestFormatterChildren:
    """Snapshot files formatted by forked children: ``FORK_SITES`` at 0 forks one for every file."""

    CHAIN = ["--config", str(CONFIGS / "chain.json")]  # snapshots at 0, 25 and 50 of 50

    @pytest.fixture
    def formatter_forks(self, monkeypatch, worker_forks):
        monkeypatch.setattr("alnet.io.FORK_SITES", 0)
        return worker_forks

    @pytest.mark.parametrize("failure", ["guard", "divergence"])
    def test_a_run_that_fails_after_a_handoff_writes_nothing(self, tmp_path, capsys, monkeypatch, formatter_forks, failure):
        # the picks at 0, 25 and 50 go to children at the observations 5, 30 and 55
        out = tmp_path / "out"
        before = temp_fds()
        if failure == "guard":
            expected, forks = EXIT_INCONCLUSIVE, 3  # the field reaches the wall at t = 120
        else:
            guard, calls = alnet.experiments._check_boundaries, []

            def diverging(*args):
                calls.append(args)
                if len(calls) == 8:  # t = 35
                    raise DivergenceError("11", 3, 35.0, "planted")
                guard(*args)

            monkeypatch.setattr("alnet.experiments._check_boundaries", diverging)
            expected, forks = EXIT_NUMERICAL, 2
        assert run_cli(["simulate", *TestAuditWorker.WALL, "--out", str(out)]) == expected
        capsys.readouterr()
        assert len(formatter_forks) == forks
        assert not out.exists()
        TestAuditWorker.assert_no_child_is_left()
        assert temp_fds() == before

    def test_a_failed_fork_or_child_falls_back_to_in_process(self, tmp_path, capfd, monkeypatch, formatter_forks):
        out = tmp_path / "out"
        argv = ["simulate", *self.CHAIN, "--out", str(out)]
        with monkeypatch.context() as in_process:
            in_process.setattr("alnet.io.FORK_SITES", 10**12)
            assert run_cli(argv) == EXIT_OK
        reference = {p: p.read_bytes() for p in out.rglob("*.csv")}
        stdout = capfd.readouterr().out
        before = temp_fds()

        def no_fork():
            raise OSError("Resource temporarily unavailable")

        with monkeypatch.context() as failing:
            failing.setattr(os, "fork", no_fork)
            assert run_cli(argv) == EXIT_OK
        assert formatter_forks == []
        monkeypatch.setattr("alnet.io._format_into", lambda *args: sys.exit(3))
        assert run_cli(argv) == EXIT_OK
        assert len(formatter_forks) == 3
        assert {p: p.read_bytes() for p in out.rglob("*.csv")} == reference
        assert capfd.readouterr() == (stdout * 2, "")
        TestAuditWorker.assert_no_child_is_left()
        assert temp_fds() == before

    def test_ctrl_c_to_the_group_prints_nothing_from_a_formatter(self, tmp_path):
        # a formatter that survives a Ctrl-C of its own, then lives until it
        # is ended: the run waits for it in the write
        marker = tmp_path / "formatter.pid"
        code = "\n".join([
            "import os, signal, time",
            "import alnet.io",
            "from alnet.cli import main",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "alnet.io.FORK_SITES = 0",
            "def sleeping(*args):",
            "    os.kill(os.getpid(), signal.SIGINT)",
            f"    with open({str(marker)!r}, 'a') as fh:",
            "        fh.write(f'{os.getpid()}\\n')",
            "    time.sleep(60)",
            "alnet.io._format_into = sleeping",
            "main()",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(alnet.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "simulate", *self.CHAIN, "--out", str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
        )
        try:
            for _ in range(200):
                if marker.exists():
                    break
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode != 0 and stdout == ""
        # the parent's own KeyboardInterrupt, and no line from a child
        assert stderr.count("Traceback") == 1 and stderr.rstrip().endswith("KeyboardInterrupt")
        assert "Process" not in stderr
        for pid in map(int, marker.read_text().split()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert not (tmp_path / "out").exists()
