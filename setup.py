"""Package metadata for ``repro`` (SkySR: sequenced route queries with a
semantic hierarchy).

The runtime is pure standard library; numpy is an optional accelerator
for the bulk multi-source sweeps (``pip install .[numpy]``).  The
version is read from ``src/repro/__init__.py`` without importing the
package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Skyline sequenced route (SkySR) queries over road networks "
        "with a semantic category hierarchy"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={"numpy": ["numpy"]},
)
