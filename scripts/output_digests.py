"""Digest every output of the ``configs/*.ini`` header commands.

Usage: python scripts/output_digests.py

Each config's header comment names the command that runs it (a line
``# oldb2d ...``). Every such command runs once, with ``--threads 1`` and
``PYTHONHASHSEED=0``, in a fresh temporary directory that holds a copy of
``configs/``. The script prints one line per command with its exit code,
then a sorted ``sha256  name`` list of every file the commands wrote and
of each command's stdout and stderr. Streams are labelled by the command
text, so a config added later adds lines without renaming others. Run it
on two checkouts and diff the two listings to check that a change keeps
every output byte.
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
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "configs", work / "configs")
        for args in header_commands(ROOT / "configs"):
            proc = subprocess.run(
                [sys.executable, "-m", "oldb2d.cli", "--threads", "1", *args],
                cwd=work, env=env, capture_output=True)
            print(f"exit {proc.returncode}  oldb2d {shlex.join(args)}")
            for stream in ("stdout", "stderr"):
                data = getattr(proc, stream)
                digests.append((hashlib.sha256(data).hexdigest(),
                                f"oldb2d {shlex.join(args)} {stream}"))
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
