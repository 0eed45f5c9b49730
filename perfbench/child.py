"""Fresh-process probes for the end-to-end metrics that need a new interpreter.

    child.py setup CONFIG      import entgrover.cli, parse CONFIG, print "ready"
    child.py rss ARGV...       run entgrover.cli.main(ARGV) once, print peak RSS

The parent puts the package's ``src`` directory on PYTHONPATH.
"""
from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        import entgrover.cli  # noqa: F401  (the import is what is timed)
        from entgrover import harness

        harness.load_scenario(rest[0])
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if mode == "rss":
        import contextlib
        import io
        import json
        import resource

        from entgrover import cli

        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(rest)
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"rc": rc, "maxrss_kb": maxrss_kb}))
        return 0
    print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
