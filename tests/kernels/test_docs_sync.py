"""The kernel docs are documented-by-construction: diff them vs the kernels.

docs/ARCHITECTURE.md's "Kernels" section promises to catalogue the six
public kernels of :mod:`repro.core.kernels` and the oracles they are
tested against.  These tests enforce the promise literally, the same way
``tests/obs/test_docs.py`` pins the observability docs: a public kernel
cannot be added (or renamed) without the docs following, and the docs
cannot invent kernels the module does not define.
"""

from __future__ import annotations

import pathlib
import re

from repro.core import kernels

from . import oracle

ROOT = pathlib.Path(__file__).resolve().parents[2]
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"


def _kernels_section() -> str:
    """The text of the ``## Kernels`` section of ARCHITECTURE.md."""
    text = ARCHITECTURE.read_text()
    assert "## Kernels" in text, "ARCHITECTURE.md lost its Kernels section"
    return text.split("## Kernels", 1)[1].split("\n## ", 1)[0]


class TestKernelTableSync:
    """The ARCHITECTURE.md kernel table covers exactly the public kernels."""

    def test_every_registered_kernel_is_documented(self):
        """No public kernel can exist without a doc table row."""
        section = _kernels_section()
        missing = [name for name in oracle.ORACLES if f"`{name}`" not in section]
        assert not missing, f"ARCHITECTURE.md missing kernels: {missing}"

    def test_no_phantom_kernels_in_table(self):
        """Kernel-shaped rows in the doc table are all public kernels."""
        section = _kernels_section()
        rows = re.findall(r"^\| `([a-z0-9_]+)` \|", section, re.MULTILINE)
        phantom = [name for name in rows if name not in oracle.ORACLES]
        assert not phantom, f"doc lists kernels that do not exist: {phantom}"
        assert set(rows) == set(oracle.ORACLES)
        assert set(rows) <= set(kernels.__all__)

    def test_both_modes_are_documented(self):
        """The section names both the production module and the oracles."""
        section = _kernels_section()
        assert "repro.core.kernels" in section
        assert "tests/kernels/oracle.py" in section
