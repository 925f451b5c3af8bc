"""Write every golden output of tests/test_golden.py under OUT_DIR.

Usage (from the repository root):

    PYTHONPATH=src python tests/regenerate_golden.py OUT_DIR

This runs `test_golden.regenerate` and then drops the `config` block from
each JSON report, as the committed files under tests/data/golden are
stored, so a file of OUT_DIR can be compared with (or copied over) its
committed counterpart byte for byte. It then runs each demo as
`test_golden.test_demo_prints_golden_bytes` does and writes its stdout to
OUT_DIR/demos/NAME.txt. Copy only the files whose change is intended; the
forecast goldens must not move when only the fit does.
"""

import argparse
import json
import tempfile
from pathlib import Path

from pm25cast.data import _write_json

import test_golden


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory to write the outputs to")
    out = parser.parse_args(argv).out_dir
    out.mkdir(parents=True, exist_ok=True)
    test_golden.regenerate(out)
    for path in sorted(out.rglob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.pop("config", None)
        _write_json(payload, path)
    (out / "demos").mkdir(exist_ok=True)
    for demo in sorted(test_golden.DEMO_DATA.parent.glob("*.py")):
        with tempfile.TemporaryDirectory() as cwd:
            done = test_golden.run_demo(demo.stem, cwd)
        if done.returncode != 0:
            raise SystemExit(f"{demo.name} exited {done.returncode}:\n{done.stderr.decode()}")
        (out / "demos" / f"{demo.stem}.txt").write_bytes(done.stdout)


if __name__ == "__main__":
    main()
