"""Digest every output of the ``configs/*.ini`` header commands and of
the four benchmark workloads.

Usage: python scripts/output_digests.py

Each config's header comment names the command that runs it (a line
``# oldb2d ...``). Every such command runs once, with ``--threads 1`` and
``PYTHONHASHSEED=0``, in a fresh temporary directory that holds a copy of
``configs/``. Then each workload of ``perfbench/workloads.py`` runs once
the same way, on the inputs its ``write_inputs`` writes for benchmark
seed 1, in its own directory ``perfbench/<workload>/``. The script prints
one line per command with its exit code, then a sorted ``sha256  name``
list of every file the commands wrote and of each command's stdout and
stderr. Streams are labelled by the command text (by the workload's name
for a workload), so a config added later adds lines without renaming
others. Run it on two checkouts and diff the two listings to check that
a change keeps every output byte.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)

#: the benchmark seed the workloads' inputs are written for
BENCH_SEED = 1


def header_commands(configs: Path) -> list:
    """oldb2d argument lists from the ``# oldb2d`` header lines."""
    cmds = []
    for ini in sorted(configs.glob("*.ini")):
        for line in ini.read_text().splitlines():
            if line.startswith("# oldb2d "):
                cmds.append(shlex.split(line[len("# oldb2d "):]))
    return cmds


def main() -> int:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    digests = []

    def run(label: str, args: list, cwd: Path) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "oldb2d.cli", "--threads", "1", *args],
            cwd=cwd, env=env, capture_output=True)
        print(f"exit {proc.returncode}  {label}")
        for stream in ("stdout", "stderr"):
            digests.append((hashlib.sha256(getattr(proc, stream)).hexdigest(),
                            f"{label} {stream}"))

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "configs", work / "configs")
        for args in header_commands(ROOT / "configs"):
            run(f"oldb2d {shlex.join(args)}", args, work)
        for name in workloads.WORKLOADS:
            wdir = work / "perfbench" / name
            wdir.mkdir(parents=True)
            args = workloads.write_inputs(name, BENCH_SEED, wdir)
            run(f"perfbench {name} seed {BENCH_SEED}",
                ["--out", str(wdir / "out"), *args], wdir)
        for path in sorted(work.rglob("*")):
            rel = path.relative_to(work)
            if path.is_file() and rel.parts[0] != "configs":
                digests.append((hashlib.sha256(path.read_bytes()).hexdigest(),
                                str(rel)))
    for digest, name in sorted(digests, key=lambda d: d[1]):
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
