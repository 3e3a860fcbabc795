import contextlib
import io
import re
from pathlib import Path

import numpy as np

import mfgsolver


def test_every_exported_name_resolves():
    missing = [name for name in mfgsolver.__all__ if not hasattr(mfgsolver, name)]
    assert missing == []
    assert len(set(mfgsolver.__all__)) == len(mfgsolver.__all__)


def test_readme_library_example_runs():
    # The README's one python block, run as written; its first print is the
    # equilibrium mean field, commented as [0.6444 0.3556].
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    mean_field = np.array(out.getvalue().splitlines()[0].strip("[]").split(), dtype=float)
    np.testing.assert_array_equal(np.round(mean_field, 4), [0.6444, 0.3556])
