import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs():
    """The README's library example runs against the current API."""
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
