"""The names ``import microgest`` exports are the list README gives.

README's "The public API" section lists the exported names one line per
module.  The list must equal the package's public names, each bound to the
object of the module its line names, so the text cannot drift from
``__init__.py``.
"""

import importlib
import inspect
import re
from pathlib import Path

import microgest

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_exports() -> dict[str, str]:
    """Each name of README's export list, the section's first list, mapped
    to its module."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### The public API", 1)[1]
    listing = re.search(r"(?:^- .*\n)+", section, re.MULTILINE).group(0)
    exports = {}
    for module, names in re.findall(r"^- `(\w+)`: (.*)$", listing, re.MULTILINE):
        for name in re.findall(r"`(\w+)`", names):
            assert name not in exports, f"{name} is listed twice"
            exports[name] = module
    return exports


def test_the_package_exports_exactly_the_names_readme_lists():
    public = {
        name for name, value in vars(microgest).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    exports = _readme_exports()
    assert set(exports) == public
    for name, module in exports.items():
        source = importlib.import_module(f"microgest.{module}")
        assert getattr(microgest, name) is getattr(source, name), (name, module)
