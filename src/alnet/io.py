"""Run configuration (JSON) and result serialization (JSON + CSV).

All floating-point values in CSV files are printed with 17 significant
digits and JSON uses Python's shortest-round-trip repr, so every output
parses back to the exact binary value.  File names and row order are
fully deterministic: identical configs produce bitwise-identical files.
Each file is written whole or not at all: it goes to a hidden ``.part``
sibling first and is renamed over its name only once complete.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .conserved import DriftReport, _check_m_max
from .dynamics import SimConfig
from .errors import InvalidParameterError, TopologyError
from .soliton import SolitonParams
from .state import FieldState, bond_field
from .topology import BondSpec, GraphTopology, build_star, build_tree

EXPERIMENTS = ("simulate", "bifurcation", "sweep", "broken-rule", "conserved-audit")
DEFAULT_RATIO_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# what write_outputs may write besides summary.json, which every run writes
OUTPUT_FILES = ("config_echo.json", "partial_norms.csv", "drift.csv", "snapshots/t_*.csv")


@dataclass(frozen=True)
class RunConfig:
    """One experiment invocation: what to run, on what, and where to write."""

    experiment: str
    topology: GraphTopology
    soliton: SolitonParams
    sim: SimConfig = SimConfig()
    out: str = "results"
    m_max: int = 4
    ratios: tuple[float, ...] = ()
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidParameterError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        _check_m_max(self.m_max)
        if not isinstance(self.out, str):
            raise InvalidParameterError("out must be a string")
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(
            self, "snapshot_times", tuple(float(t) for t in self.snapshot_times)
        )
        for t in self.snapshot_times:
            if not math.isfinite(t) or t < 0:
                raise InvalidParameterError("snapshot times must be finite and >= 0")


def _fields_of(cls, data, what: str) -> Mapping:
    """``data``, checked to be an object whose keys are ``cls``'s field names.

    Every field without a default must be present; the dataclass's own
    defaults fill the rest when it is built from ``data``.
    """
    if not isinstance(data, Mapping):
        raise InvalidParameterError(f"{what} must be a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidParameterError(f"unknown {what} keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in data:
            raise InvalidParameterError(f"{what} is missing required key {f.name!r}")
    return data


def _check_json_types(value, key: str = "config") -> None:
    """Reject ``true``/``false`` anywhere and anything but a list for a list key."""
    if isinstance(value, bool):
        raise InvalidParameterError(f"{key} cannot be true or false: no config field is boolean")
    # a string would otherwise be read as the list of its characters; build_star checks gammas
    if key in ("ratios", "snapshot_times") and not isinstance(value, (list, tuple)):
        raise InvalidParameterError(f"{key} must be a list")
    if isinstance(value, Mapping):
        for k, v in value.items():
            _check_json_types(v, k)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _check_json_types(v, f"{key} entry")


def parse_config(data: Mapping) -> RunConfig:
    """Build a RunConfig from a decoded JSON object.

    The dataclasses are the schema: each section's keys are its
    dataclass's fields, fields without a default are required and the
    defaults fill absent keys.  Unknown keys and malformed values all
    raise InvalidParameterError (TopologyError for a bond set that is not
    a rooted tree), among them ``true``/``false`` anywhere and a string
    or number where a list belongs.
    """
    try:
        _check_json_types(data)
        data = dict(_fields_of(RunConfig, data, "config"))
        data["topology"] = topology_from_dict(data["topology"])
        data["soliton"] = SolitonParams(**_fields_of(SolitonParams, data["soliton"], "soliton"))
        if "sim" in data:
            data["sim"] = SimConfig(**_fields_of(SimConfig, data["sim"], "sim"))
        return RunConfig(**data)
    except (InvalidParameterError, TopologyError):
        raise
    except (TypeError, ValueError) as exc:
        # float(None), len(5) and the like: a value of the wrong JSON type
        raise InvalidParameterError(f"malformed value: {exc}") from None


def topology_from_dict(data: Mapping) -> GraphTopology:
    """Build a topology from exactly one of three forms, plus an optional ``truncation``.

    ``{"bonds": [...]}`` lists every bond with the fields of BondSpec; it
    is the form ``dataclasses.asdict`` gives a GraphTopology, so
    ``topology_from_dict(asdict(t)) == t``.  ``{"gammas": [...]}`` builds a
    star graph (two entries make a two-bond graph, the uniform chain when
    they are equal) and ``{"tree": ...}`` a tree from ``build_tree``'s
    nested nodes.  Unknown keys are errors.
    """
    if not isinstance(data, Mapping):
        raise InvalidParameterError("topology must be a JSON object")
    forms = set(data) - {"truncation"}
    if len(forms) != 1 or not forms <= {"gammas", "tree", "bonds"}:
        raise InvalidParameterError(
            f"topology takes one of 'gammas', 'tree' or 'bonds' and an optional "
            f"'truncation', not {sorted(data)}"
        )
    truncation = data.get("truncation", 400)
    if "gammas" in data:
        return build_star(data["gammas"], truncation)
    if "tree" in data:
        return build_tree(data["tree"], truncation)
    bonds = (BondSpec(**_fields_of(BondSpec, entry, "bond entry")) for entry in data["bonds"])
    return GraphTopology(tuple(bonds), truncation)


def serialize_config(config: RunConfig) -> dict:
    """The config as its dataclasses' fields: parse_config(serialize_config(c)) == c.

    The topology takes its ``{"bonds": [...], "truncation": n}`` form.
    """
    return asdict(config)


def load_config(path: str | Path) -> RunConfig:
    """Read and parse a JSON config file; all failures become config errors."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read config {p}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"config {p} is not valid JSON: {exc}") from None
    return parse_config(data)


# -- result emission --------------------------------------------------------


@dataclass
class RunOutputs:
    """Everything one experiment wants on disk.

    ``partial_norms`` is (times, {bond label: series}); ``snapshots`` is a
    sequence of (time, state) pairs and needs ``topology`` for the flat
    layout.  Only ``summary`` is mandatory.
    """

    summary: dict
    config_echo: dict | None = None
    partial_norms: tuple[np.ndarray, dict[str, np.ndarray]] | None = None
    drift: DriftReport | None = None
    snapshots: tuple[tuple[float, FieldState], ...] = ()
    topology: GraphTopology | None = None


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _snapshot_chunks(state: FieldState, topology: GraphTopology) -> Iterator[str]:
    """A snapshot CSV's header, then one chunk of rows per bond."""
    yield "bond,site,re,im\n"
    for label in topology.labels:
        a = bond_field(state, topology, label)
        yield "".join(
            f"{label},{site},{re:.17g},{im:.17g}\n"
            for site, re, im in zip(
                topology.site_coordinates(label).tolist(), a.real.tolist(), a.imag.tolist()
            )
        )


def write_outputs(outputs: RunOutputs, directory: str | Path) -> list[str]:
    """Write every populated section; returns the manifest of files written.

    Manifest entries are paths relative to ``directory``, in write order.
    Two snapshot times that share a file name raise InvalidParameterError
    before anything is written.  A write that fails leaves each file
    name holding either nothing, an earlier run's file or the new file
    whole, never part of one.  After the write, every file an earlier
    run could have left there (``OUTPUT_FILES``) that this run did not
    write is removed, and ``snapshots/`` too if that empties it; files of
    any other name are never touched.  After a failed write, a
    ``snapshots/`` that this call made and left empty is removed.
    """
    root = Path(directory)
    if outputs.snapshots and outputs.topology is None:
        raise InvalidParameterError("snapshots need the topology for their layout")
    snapshot_files: dict[str, float] = {}
    for t, _ in outputs.snapshots:
        name = f"snapshots/t_{t:.4f}.csv"
        if name in snapshot_files:
            raise InvalidParameterError(
                f"snapshot times {snapshot_files[name]!r} and {float(t)!r} both write {name}"
            )
        snapshot_files[name] = float(t)
    snapshots = root / "snapshots"
    earlier = snapshots.exists()
    try:
        root.mkdir(parents=True, exist_ok=True)
        manifest: list[str] = []

        def emit(name: str, chunks: Iterable[str]):
            target = root / name
            target.parent.mkdir(parents=True, exist_ok=True)
            part = target.with_name(f".{target.name}.part")
            try:
                with open(part, "w") as fh:
                    fh.writelines(chunks)
                os.replace(part, target)
            finally:
                part.unlink(missing_ok=True)
            manifest.append(name)

        emit("summary.json", [_json_text(outputs.summary)])
        if outputs.config_echo is not None:
            emit("config_echo.json", [_json_text(outputs.config_echo)])
        if outputs.partial_norms is not None:
            times, series = outputs.partial_norms
            labels = sorted(series)
            lines = ["time," + ",".join(f"bond_{l}" for l in labels) + ",total"]
            for i, t in enumerate(times):
                row = [series[l][i] for l in labels]
                lines.append(",".join(_fmt(x) for x in [t, *row, sum(row)]))
            emit("partial_norms.csv", ["\n".join(lines) + "\n"])
        if outputs.drift is not None:
            snaps = outputs.drift.snapshots
            n_c = len(snaps[0].C) if snaps else 0
            header = ["time", "N", "ReZ", "ImZ", "E", "J"]
            for m in range(2, 2 + n_c):
                header += [f"ReC{m}", f"ImC{m}"]
            lines = [",".join(header)]
            for s in snaps:
                row = [s.time, s.N, s.Z.real, s.Z.imag, s.E, s.J]
                for c in s.C:
                    row += [c.real, c.imag]
                lines.append(",".join(_fmt(x) for x in row))
            emit("drift.csv", ["\n".join(lines) + "\n"])
        for name, (_, state) in zip(snapshot_files, outputs.snapshots):
            emit(name, _snapshot_chunks(state, outputs.topology))
        written = set(manifest)
        for path in (p for pattern in OUTPUT_FILES for p in root.glob(pattern)):
            if path.is_file() and path.relative_to(root).as_posix() not in written:
                path.unlink()
        _remove_if_empty(snapshots)
        return manifest
    except OSError as exc:
        if not earlier:
            with contextlib.suppress(OSError):  # the failed write is the error to report
                _remove_if_empty(snapshots)
        raise InvalidParameterError(f"cannot write outputs under {root}: {exc}") from None


def _remove_if_empty(directory: Path) -> None:
    if directory.is_dir() and not any(directory.iterdir()):
        directory.rmdir()
