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
    flip = namespace["one_qubit_stats"](namespace["flip"])
    assert abs(flip.avg_fidelity - 2.0 / 3.0) < 1e-15
    assert abs(flip.deviation - 2.0 / (3.0 * np.sqrt(5.0))) < 1e-15
    best = namespace["stochastic_map_stats"](namespace["best"])
    assert best.avg_fidelity == 2.0 / 3.0
    assert best.deviation == 0.0
