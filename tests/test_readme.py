"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs_as_documented(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(code, namespace)
    capsys.readouterr()
    flip_f, flip_d = namespace["flip"]
    assert abs(flip_f - 2.0 / 3.0) < 1e-15
    assert abs(flip_d - 2.0 / (3.0 * np.sqrt(5.0))) < 1e-15
    (best_f,), (best_d,) = namespace["best"]
    assert best_f == 2.0 / 3.0
    assert best_d == 0.0
