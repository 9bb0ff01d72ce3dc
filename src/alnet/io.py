"""Run configuration (JSON) and result serialization (JSON + CSV).

All floating-point values in CSV files are printed with 17 significant
digits and JSON uses Python's shortest-round-trip repr, so every output
parses back to the exact binary value.  File names and row order are
fully deterministic: identical configs produce bitwise-identical files.
Each file is written whole or not at all: it goes to a hidden ``.part``
sibling first and is renamed over its name only once complete.

A snapshot file holds one row per lattice site, and on a big state most
of its time is the float format of those rows, which ``SnapshotFiles``
hands to forked children while the run steps on; ``write_outputs`` copies
their files after the rows it formats itself, so the bytes are those of
the in-process format.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .conserved import DriftReport, _check_m_max
from .dynamics import SimConfig
from .errors import InvalidParameterError, TopologyError
from .forked import FORK_SITES, Child, NoAnswer, fits
from .soliton import SolitonParams
from .state import FieldState
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
    sequence of (time, rows) pairs, each rows a state or the
    ``SnapshotRows`` that ``SnapshotFiles.add`` returned for it, and needs
    ``topology`` for the flat layout.  Only ``summary`` is mandatory.
    """

    summary: dict
    config_echo: dict | None = None
    partial_norms: tuple[np.ndarray, dict[str, np.ndarray]] | None = None
    drift: DriftReport | None = None
    snapshots: tuple[tuple[float, FieldState | SnapshotRows], ...] = ()
    topology: GraphTopology | None = None


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _json_text(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _snapshot_rows(state: FieldState, topology: GraphTopology, start: int, stop: int) -> str:
    """Rows ``[start, stop)`` of a snapshot CSV, one ``bond,site,re,im`` row per flat site.

    A row whose two words are both +0 is ``bond,site,0,0``, the text that
    ``.17g`` gives them, written without a float format.
    """
    chunks = []
    for label in topology.labels:
        bond = topology.slices[label]
        lo, hi = max(bond.start, start), min(bond.stop, stop)
        if lo >= hi:
            continue
        a = state.data[lo:hi]
        zero = ~a.view(np.uint64).reshape(-1, 2).any(axis=1)
        sites = topology.site_coordinates(label)[lo - bond.start : hi - bond.start]
        chunks.append("".join(
            f"{label},{site},0,0\n" if z else f"{label},{site},{re:.17g},{im:.17g}\n"
            for site, re, im, z in zip(sites.tolist(), a.real.tolist(), a.imag.tolist(), zero.tolist())
        ))
    return "".join(chunks)


def _format_into(file, state: FieldState, topology: GraphTopology, start: int, stop: int) -> None:
    """A formatter child's work: rows ``[start, stop)`` of ``state`` into ``file``."""
    file.write(_snapshot_rows(state, topology, start, stop).encode())
    file.flush()


class SnapshotRows:
    """The rows of one snapshot file: a range that a forked child formats, the rest formatted here.

    ``fork`` hands rows ``[start, n)`` to a child that writes them into an
    unlinked temporary file; ``chunks`` formats rows ``[0, start)`` itself,
    then waits for the child and copies its file.  A failed fork, or a
    child that exits nonzero, leaves every row to be formatted here, so the
    bytes are the same either way.  Once a child has written every row,
    the state is dropped.  ``close`` ends a child still running and closes
    its file.
    """

    def __init__(self, state: FieldState, topology: GraphTopology):
        self.state, self.topology = state, topology
        self.start = topology.n_sites  # the child's first row
        self.child = self.file = None

    def fork(self, start: int) -> None:
        with contextlib.suppress(OSError, NoAnswer):
            file = tempfile.TemporaryFile()
            try:
                self.child = Child(_format_into, file, self.state, self.topology, start, self.topology.n_sites)
            except BaseException:
                file.close()
                raise
            self.file, self.start = file, start

    def settle(self, wait: bool) -> None:
        """Reap a child that has ended, after waiting for it if ``wait``: keep its file, or fall back."""
        if self.child is None:
            return
        try:
            if not self.child.ended(wait):
                return
            if self.start == 0:
                self.state = None
        except NoAnswer:
            self.file.close()
            self.file, self.start = None, self.topology.n_sites
        self.child.close()
        self.child = None

    def chunks(self) -> Iterator[bytes]:
        start, n = self.start, self.topology.n_sites
        yield b"bond,site,re,im\n"
        if start:
            yield _snapshot_rows(self.state, self.topology, 0, start).encode()
        self.settle(wait=True)
        if self.file is not None:
            self.file.seek(0)
            yield from iter(lambda: self.file.read(1 << 20), b"")
        elif start < n:  # the child failed: its rows too
            yield _snapshot_rows(self.state, self.topology, start, n).encode()

    def close(self) -> None:
        for part in (self.child, self.file):
            if part is not None:
                part.close()
        self.child = self.file = None


def _half_work_row(state: FieldState) -> int:
    """The row that halves the time to format ``state``'s rows, by the rows' estimated costs.

    On big-star's 60k-site file a row of two +0 words took about 0.3 us and
    any other row about 2.2 us, and most of the other rows lie in the first
    half of the layout.
    """
    words = state.data.view(np.uint64)
    cost = np.where(words[0::2] | words[1::2], 22, 3).cumsum()
    return int(np.searchsorted(cost, cost[-1] / 2)) + 1


class SnapshotFiles(contextlib.AbstractContextManager):
    """The snapshot files of one run: ``add`` takes each pick once it is final, and starts its formatting.

    On a state of at least ``FORK_SITES`` sites, where ``fits`` allows a
    child beside the run, a pick made final before the run's last
    observation goes whole to a forked formatter; one final only at the
    run's end is split where its estimated formatting time halves
    (``_half_work_row``), its last rows to a child and its first rows
    formatted in ``write_outputs``.  A smaller state is formatted whole in
    ``write_outputs``.  ``add`` returns the file's ``SnapshotRows``, what
    ``write_outputs`` takes in place of the state, and first reaps the
    children that have ended.  Use it as a context manager: leaving it
    ends every child and closes its file, on every exit.
    """

    def __init__(self, topology: GraphTopology):
        self.topology = topology
        self.files: list[SnapshotRows] = []

    def add(self, state: FieldState, at_end: bool) -> SnapshotRows:
        for rows in self.files:
            rows.settle(wait=False)
        rows = SnapshotRows(state, self.topology)
        n = self.topology.n_sites
        if n >= FORK_SITES and fits():
            rows.fork(_half_work_row(state) if at_end else 0)
        self.files.append(rows)
        return rows

    def __exit__(self, exc_type, exc, tb) -> None:
        for rows in self.files:
            rows.close()


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

        def emit(name: str, chunks: Iterable[bytes]):
            target = root / name
            target.parent.mkdir(parents=True, exist_ok=True)
            part = target.with_name(f".{target.name}.part")
            try:
                with open(part, "wb") as fh:
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
            emit("partial_norms.csv", [("\n".join(lines) + "\n").encode()])
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
            emit("drift.csv", [("\n".join(lines) + "\n").encode()])
        for name, (_, rows) in zip(snapshot_files, outputs.snapshots):
            if isinstance(rows, FieldState):
                rows = SnapshotRows(rows, outputs.topology)
            emit(name, rows.chunks())
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
