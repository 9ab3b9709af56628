"""The demos print what they printed when their output was frozen.

Each demo in `demos/` runs as ``__main__`` in one fresh interpreter, and a
SHA-256 of its stdout is compared with the value frozen below.  A demo
whose output changes on purpose gets its new hash here in the same change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import keysec

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: SHA-256 of each demo's stdout
FROZEN = {
    "01_distance_vs_information.py": "d6b466d855e72bc842a7a50937650ce2b1782f94672a489770a7b3a70eb9de3e",
    "02_worst_keys_at_fixed_distance.py": "8b5f9787a5e44dda0c601faa8603cd85749f700f535954e8ff2b6b4df4d8d500",
    "03_partial_key_exposure.py": "7eb21720dbfa8190ba574c34d147c9768420f8e03ff4dc0fd064f8e8b6fe3d03",
    "04_mac_forgery_with_biased_keys.py": "55f3204c4ca27bb267608bcdd9d1061cf6e8be8cced1b569ebcbc20b5dff4afb",
    "05_code_structure_leaks.py": "d771449a80862701cf0570a9184f189784124970037b61f1a2e1d54d84009c61",
    "06_security_budget_arithmetic.py": "368be60d8629a41415a3bdd9dcf178f656e8dac660bde26dfa8a4c889ac9b0a6",
    "07_intercept_resend_visibility.py": "1ca64fa2b84720639bf8e37f33483bc6fdbb409e23934396e7bed854775a66bb",
}

#: run each demo path of a JSON list from stdin as __main__; print the SHA-256 of each one's stdout
_RUN = """import contextlib, hashlib, io, json, runpy, sys
shas = {}
for path in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(path, run_name="__main__")
    shas[path] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps(shas))"""


def test_demos_print_their_frozen_output():
    demos = sorted(DEMOS.glob("*.py"))
    assert [path.name for path in demos] == sorted(FROZEN)
    src = str(Path(keysec.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "KEYSEC_NUMERIC_MODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUN], input=json.dumps([str(path) for path in demos]),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    shas = json.loads(proc.stdout)
    assert {Path(path).name: sha for path, sha in shas.items()} == FROZEN
