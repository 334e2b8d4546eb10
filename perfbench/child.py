"""One benchmarked ``oldb2d`` process.

Usage: python perfbench/child.py RECORD [--trace] -- <oldb2d arguments>

Runs ``oldb2d.cli.main`` the way the ``oldb2d`` console script does, after
installing the solve-entry hook and, with ``--trace``, every span wrapper
of :mod:`tracer`. When the command returns, a JSON record of the hook's
counts and the spans is written to RECORD and the command's exit code is
returned.
"""

import sys

import tracer


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    own, cli_args = argv[:sep], argv[sep + 1:]
    record_path, traced = own[0], "--trace" in own[1:]
    hook = tracer.SolveHook()
    spans = tracer.Tracer() if traced else None
    tracer.install(hook, spans)

    from oldb2d import cli
    try:
        return cli.main(cli_args)
    finally:
        import json
        record = {"first_entry": hook.first_entry, "steps": hook.steps,
                  "cell_steps": hook.cell_steps}
        if spans is not None:
            record["spans"] = spans.spans
            record["held_bytes_peak"] = spans.held_bytes_peak
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
