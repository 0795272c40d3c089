"""Write a run's input code files with `listlab code make`, in a fresh interpreter.

    python3 bench/setup_codes.py <src dir> <manifest.json>

The manifest is a JSON list of [path, argv] pairs. Each file holds the
canonical region of the `code make` report (the report without its meta
block, as listlab.reports.canonical_bytes writes it), so one seed always
yields byte-identical files. `run.py` times this whole process as the
benchmark's set-up.
"""

import contextlib
import io
import json
import sys
from pathlib import Path


def main() -> int:
    src, manifest = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from listlab.cli import main as cli_main
    from listlab.reports import canonical_bytes

    with open(manifest, encoding="utf-8") as fh:
        entries = json.load(fh)
    for path, argv in entries:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(argv)
        if rc != 0:
            print(f"code make exited {rc}: {argv}", file=sys.stderr)
            return 1
        Path(path).write_bytes(canonical_bytes(json.loads(out.getvalue())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
