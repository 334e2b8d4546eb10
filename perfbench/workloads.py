"""The four benchmark workloads: seeded inputs, commands and output checks.

Each workload writes its INI files from the benchmark seed into a fresh
directory; the program sees only those files. ``configs/*.ini`` are never
read or written.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import re
from dataclasses import dataclass
from pathlib import Path

#: final energy_residual and entropy_residual may not exceed these. The
#: continuous inequalities say residual <= 0; the discrete values sit near
#: -1e-8 on these grids, so a positive excess beyond the tolerance means
#: the balance broke.
ENERGY_TOL = 1e-6
ENTROPY_TOL = 1e-8

#: observed L2 orders of the mms-verify workload (coarse->mid, mid->fine),
#: to 2 decimals; the gate of any change to the manufactured sources
RECORDED_ORDERS = {
    "rho": ("1.95", "1.93"),
    "mx": ("1.99", "2.00"),
    "my": ("1.99", "2.00"),
    "eta": ("1.98", "2.00"),
    "t11": ("1.76", "1.94"),
    "t12": ("1.99", "2.00"),
    "t22": ("1.75", "1.93"),
}

#: Sobol pairs the lemma scan draws (2^20)
LEMMA_SAMPLES = 1 << 20

_PARAMS_SHEAR = """\
[params]
gamma = 2.0
mu_s = 0.2
eps = 0.02
k = 1.0
lam = 1.0
zfrak = 0.5
l = 1.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # oldb2d subcommand
    state_cells: int      # cells of the largest grid the command steps
    boundary_mode: str = "periodic"


WORKLOADS = {w.name: w for w in (
    Workload("shear-256", "run", 256 * 256),
    Workload("walls-compare", "compare", 64 * 64, "physical"),
    Workload("mms-verify", "verify", 64 * 64),
    Workload("lemma-scan", "lemma-check", 0),
)}


def sub_seed(name: str, seed: int) -> int:
    """Seed handed to the program, derived from the benchmark seed."""
    return random.Random(f"{name}:{seed}").randrange(1, 2 ** 31 - 1)


def write_inputs(name: str, seed: int, dirpath: Path) -> list:
    """Write the workload's INI files into ``dirpath``; returns the
    subcommand and its arguments."""
    s = sub_seed(name, seed)
    if name == "shear-256":
        path = dirpath / "shear.ini"
        path.write_text(
            "[grid]\nnx = 256\nny = 256\nboundary_mode = periodic\n\n"
            + _PARAMS_SHEAR
            + f"\n[initial]\npreset = shear-layer\ndelta0 = 1e-3\nseed = {s}\n"
            "\n[time]\nt_end = 0.0003\ncfl = 0.4\nsnapshot_stride = 10\n"
            "\n[diagnostics]\nsup_rho_threshold = auto\nalpha = 3.0\n")
        return ["run", str(path)]
    if name == "walls-compare":
        base = ("[grid]\nnx = 64\nny = 64\nboundary_mode = physical\n\n"
                "[initial]\npreset = gaussian-bump\n{extra}\n"
                "[time]\nt_end = 0.005\ndt = 5e-5\nsnapshot_stride = 1\n")
        ref, weak = dirpath / "ref.ini", dirpath / "weak.ini"
        ref.write_text(base.format(extra=""))
        weak.write_text(base.format(extra=f"delta0 = 1e-3\nseed = {s}\n"))
        return ["compare", str(ref), str(weak)]
    if name == "mms-verify":
        # the manufactured solution has no free seed: its recorded orders
        # are the gate, so the input is the same for every benchmark seed
        path = dirpath / "mms.ini"
        path.write_text(
            "[grid]\nnx = 16\nny = 16\n\n"
            "[initial]\npreset = mms:periodic-smooth\n\n"
            "[verify]\nlevels = 16,32,64\nt_end = 0.01\ndt_over_dx2 = 0.5\n")
        return ["verify", str(path)]
    if name == "lemma-scan":
        path = dirpath / "lemma.ini"
        path.write_text(
            "[grid]\nnx = 16\nny = 16\n\n"
            "[params]\nzfrak = 0.0\nl = 1.0\n\n"
            f"[lemma]\ncorrected = true\nsamples = {LEMMA_SAMPLES}\n"
            f"seed = {s}\n")
        return ["lemma-check", str(path)]
    raise ValueError(f"unknown workload {name!r}")


# --- output checks ----------------------------------------------------------


@dataclass
class Outcome:
    """Result of checking one run's outputs."""

    problems: list
    snapshots: int = 0        # rows of the time-series CSV
    pairs: int = 0            # Sobol pairs scanned (lemma-scan)
    digests: dict | None = None


def digests(outdir: Path, stdout: str) -> dict:
    """sha256 of every output file and of stdout; information only."""
    out = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for p in sorted(outdir.iterdir()):
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _read_csv(path: Path, problems: list):
    if not path.is_file():
        problems.append(f"missing {path.name}")
        return None, []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        problems.append(f"{path.name} has no data rows")
        return (rows[0] if rows else None), []
    return rows[0], rows[1:]


def _floats(header, rows, problems: list, name: str, allow_nan=()):
    """Columns of ``rows`` as floats; every value must be finite except the
    (row, column) cells listed in ``allow_nan``."""
    out = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"{name} row {i + 1} has {len(row)} fields, "
                            f"header has {len(header)}")
            return []
        vals = []
        for col, raw in zip(header, row):
            try:
                v = float(raw)
            except ValueError:
                problems.append(f"{name} row {i + 1} {col}: not a number {raw!r}")
                return []
            if not math.isfinite(v) and (i, col) not in allow_nan:
                problems.append(f"{name} row {i + 1} {col}: non-finite {raw}")
            vals.append(v)
        out.append(dict(zip(header, vals)))
    return out


def _check_series(outdir: Path, stem: str, compare: bool, boundary_mode: str,
                  problems: list) -> int:
    from oldb2d import snapshot_io

    header, rows = _read_csv(outdir / f"{stem}.csv", problems)
    if header is None:
        return 0
    expected = list(snapshot_io.COMPARE_COLUMNS if compare
                    else snapshot_io.BASE_COLUMNS)
    if header != expected:
        problems.append(f"{stem}.csv header differs from the documented columns")
        return len(rows)
    table = _floats(header, rows, problems, f"{stem}.csv")
    if not table:
        return len(rows)
    final = table[-1]
    if final["energy_residual"] > ENERGY_TOL:
        problems.append(f"final energy_residual {final['energy_residual']!r} "
                        f"> {ENERGY_TOL}")
    if compare and final["entropy_residual"] > ENTROPY_TOL:
        problems.append(f"final entropy_residual {final['entropy_residual']!r} "
                        f"> {ENTROPY_TOL}")

    snap = outdir / f"{stem}_{len(rows) - 1:06d}.bin"
    if not snap.is_file():
        problems.append(f"missing final snapshot {snap.name}")
        return len(rows)
    try:
        state = snapshot_io.read_snapshot(snap, boundary_mode=boundary_mode)
    except (snapshot_io.SnapshotFormatError, ValueError) as e:
        problems.append(f"final snapshot does not read back: {e}")
        return len(rows)
    if repr(float(state.t)) != rows[-1][0]:
        problems.append(f"final snapshot t={state.t!r} but last CSV row "
                        f"t={rows[-1][0]}")
    again = outdir.parent / f"{outdir.name}.roundtrip.bin"
    snapshot_io.write_snapshot(again, state)
    try:
        if again.read_bytes() != snap.read_bytes():
            problems.append("final snapshot does not round-trip bitwise")
    finally:
        again.unlink()
    return len(rows)


def _check_convergence(outdir: Path, problems: list) -> None:
    header, rows = _read_csv(outdir / "convergence.csv", problems)
    if header is None:
        return
    if header != ["field", "n", "l2_error", "linf_error", "l2_order"]:
        problems.append("convergence.csv header differs from the documented columns")
        return
    # the coarsest level of each field has no order: nan by definition
    firsts, seen = set(), set()
    for i, row in enumerate(rows):
        if row and row[0] not in seen:
            seen.add(row[0])
            firsts.add((i, "l2_order"))
    numeric = [r[1:] for r in rows]
    table = _floats(header[1:], numeric, problems, "convergence.csv",
                    allow_nan=firsts)
    if not table:
        return
    orders = {}
    for row, vals in zip(rows, table):
        if not math.isnan(vals["l2_order"]):
            orders.setdefault(row[0], []).append("%.2f" % vals["l2_order"])
    for f, want in RECORDED_ORDERS.items():
        got = tuple(orders.get(f, ()))
        if got != want:
            problems.append(f"observed L2 orders of {f} are {list(got)}, "
                            f"recorded {list(want)}")


_LEMMA_LINE = re.compile(
    r"^(?P<kind>[HG]) bound \[corrected\]: (?P<status>PASS|FAIL), "
    r"(?P<n>\d+) samples .*min slack (?P<slack>\S+) at", re.M)


def _check_lemma(stdout: str, problems: list) -> int:
    found = {m["kind"]: m for m in _LEMMA_LINE.finditer(stdout)}
    pairs = 0
    for kind in ("H", "G"):
        m = found.get(kind)
        if m is None:
            problems.append(f"no {kind} bound certificate in stdout")
            continue
        if m["status"] != "PASS":
            problems.append(f"{kind} bound {m['status']}")
        slack = float(m["slack"])
        if not slack >= 0.0:
            problems.append(f"{kind} bound min slack {slack!r} < 0")
        if int(m["n"]) != LEMMA_SAMPLES:
            problems.append(f"{kind} scan drew {m['n']} pairs, "
                            f"asked for {LEMMA_SAMPLES}")
        pairs = int(m["n"])
    return pairs


def check(name: str, returncode: int, outdir: Path, stdout: str) -> Outcome:
    """Check one run's exit code and outputs against the workload's rules."""
    w = WORKLOADS[name]
    out = Outcome(problems=[])
    if returncode != 0:
        out.problems.append(f"exit code {returncode}, expected 0")
    if w.command == "run":
        out.snapshots = _check_series(outdir, "run", False, w.boundary_mode,
                                      out.problems)
    elif w.command == "compare":
        out.snapshots = _check_series(outdir, "compare", True, w.boundary_mode,
                                      out.problems)
    elif w.command == "verify":
        _check_convergence(outdir, out.problems)
    else:
        out.pairs = _check_lemma(stdout, out.problems)
    if os.path.isdir(outdir):
        out.digests = digests(outdir, stdout)
    return out
