"""``setup.py`` describes the package that is actually in the tree."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).parent.parent


def test_setup_names_the_package_and_its_version():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert out == ["repro", repro.__version__]


def test_every_source_directory_is_a_package():
    """``find_packages`` installs only directories with an
    ``__init__.py``; a module directory without one would be left out of
    an installed package."""
    src = ROOT / "src"
    missing = [
        str(d.relative_to(src)) for d in (src / "repro").rglob("*")
        if d.is_dir() and any(d.glob("*.py"))
        and not (d / "__init__.py").is_file()
    ]
    assert missing == []
