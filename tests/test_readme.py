"""README's "Library example" block runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_library_example(), str(README), "exec"), namespace)
    sr = namespace["sr"]
    f = namespace["f"]
    assert sr.hausdorff_mnc(f).lo == sr.hausdorff_mnc(f).hi == 1.0
    assert sr.essential_spectral_radius(f).contains(1.0)
    assert sr.gripenberg_bracket(namespace["pair"], 1e-6).contains((1 + math.sqrt(5)) / 2)
    assert namespace["report"].verdict == "pass"
    assert out.getvalue().splitlines()[-1] == "pass"
