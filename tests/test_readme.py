"""README's Quick start block runs and prints what README shows."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_the_response_times_readme_shows():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = ast.literal_eval(out.getvalue())
    # the comment under print() shows the leading digits of each value
    shown = dict(re.findall(r"'(\w+)': (\d+\.\d+)\.\.\.", block))
    assert set(shown) == set(printed) == {
        "accept_publication_response_time", "notification_response_time"
    }
    for name, digits in shown.items():
        assert repr(printed[name]).startswith(digits), (name, printed[name], digits)
