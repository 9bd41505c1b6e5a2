import os
import shutil
import subprocess
import sys
from pathlib import Path

from tlimm import cli

from mutants import MUTANTS

SRC = Path(cli.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def test_the_checks_kill_every_registered_mutant(tmp_path):
    """Each register entry's old text occurs exactly once in its file.  A
    "verify" entry, planted in a copy of src, makes its one (suite, n) run
    exit 4 with a FAIL line; a "test" entry names a test that exists.  The
    copy carries no bytecode and none is written, so no stale module runs."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(src)}
    survivors = []
    for mutant in MUTANTS:
        path = src / "tlimm" / mutant.file
        text = path.read_text()
        assert text.count(mutant.old) == 1, mutant.name
        if mutant.suite is None:
            test_file, _, test_id = mutant.test.partition("::")
            assert mutant.reason and f"def {test_id.partition('[')[0]}(" in (
                TESTS.parent / test_file).read_text(), mutant.name
            continue
        path.write_text(text.replace(mutant.old, mutant.new))
        try:
            done = subprocess.run(
                [sys.executable, "-B", "-m", "tlimm.cli", "verify",
                 "--suite", mutant.suite, "--n", str(mutant.n)],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        finally:
            path.write_text(text)
        lines = done.stdout.splitlines()
        if not (done.returncode == cli.EXIT_MISMATCH
                and lines and lines[0].startswith(f"{mutant.suite} n={mutant.n}:")
                and any(line.startswith("  FAIL ") for line in lines)):
            survivors.append((mutant.name, done.returncode, done.stderr[-200:]))
    assert survivors == []
