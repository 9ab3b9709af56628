"""Freeze the cli-batch reference envelopes into `golden/cli.json`.

    python3 bench/capture.py

Runs every variant of the cli-batch table once through the CLI and keeps
a SHA-256 of each rational envelope and the parsed float envelopes.  The
file was captured at the commit that introduced the benchmark; it is
the regression reference, so it is not regenerated to make a failing
check pass.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("KEYSEC_NUMERIC_MODE", None)
os.chdir(ROOT)

import calls  # noqa: E402
import cases  # noqa: E402


def main() -> int:
    cases.write_cli_files()
    golden = {}
    for command, mode, variants in cases.cli_table():
        for variant in variants:
            argv = cases.cli_argv(command, mode, variant)
            code, stdout = calls.cli_subprocess(argv)
            if code != 0:
                print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
            golden[" ".join(argv)] = cases.envelope_record(stdout, mode)
    cases.GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(golden[k], sort_keys=True)}" for k in sorted(golden)]
    cases.GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(golden)} envelopes -> {cases.GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
