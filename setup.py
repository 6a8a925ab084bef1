"""Setup shim: the package's build metadata.

``src/repro`` is the one package, laid out under ``src/``.  A plain
``setup.py`` (no ``pyproject.toml``) keeps ``pip install -e .`` working
on minimal environments that lack the ``wheel`` package (pip then falls
back to the legacy ``setup.py develop`` code path, which has no wheel
dependency).  The version is read from ``repro.__version__`` without
importing the package, so the two never disagree.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(
        r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
    ).group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
