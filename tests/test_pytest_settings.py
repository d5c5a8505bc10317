"""The project's pytest settings keep a failing property test readable."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_failing_property_reports_falsifying_example(tmp_path):
    # filterwarnings turns warnings into errors; a warning raised inside
    # hypothesis' report hook must not replace the report with an INTERNALERROR
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(x):
            assert x < 5
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode != 0, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
