"""The README's Library example runs and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_the_ranks_and_a_passing_report(capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    ranks, report = capsys.readouterr().out.splitlines()
    assert ranks == "[1, 3, 2]"
    lines = ast.literal_eval(report)
    assert lines[-1] == "PASS overall"
    assert all(line.startswith("PASS ") for line in lines)
