"""The checked-in generated files match their generators, and the example
scripts still run against the library."""

import io
import subprocess
import sys
from pathlib import Path

from conftest import DATA_DIR
from crimeminer.preprocess import write_unified_jsonl
from crimeminer.synthetic import generate_synthetic_dataset

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_packaged_la_mapping_is_the_generator_output(tmp_path):
    out = tmp_path / "la_type_mapping.json"
    result = run_script("build_la_mapping.py", "--output", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (REPO / "src" / "crimeminer" / "data" / "la_type_mapping.json").read_bytes()


def test_synthetic_fixture_is_the_generator_output():
    # What scripts/make_synthetic_fixture.py writes; running it would overwrite the fixture.
    buffer = io.StringIO()
    write_unified_jsonl(generate_synthetic_dataset(), buffer)
    assert buffer.getvalue().encode() == (DATA_DIR / "synthetic_crimes.jsonl").read_bytes()


def test_synthetic_experiment_runs(tmp_path):
    result = run_script("run_synthetic_experiment.py", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "cv_dt.json").exists() and (tmp_path / "day_frequencies.csv").exists()
