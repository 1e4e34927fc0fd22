import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    # a renamed or removed name in the sketch fails here as an ImportError or NameError
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert block is not None, "README.md lost its library sketch"
    exec(compile(block.group(1), f"{README}:Library sketch", "exec"), {})
    exact, delta, cv = map(float, capsys.readouterr().out.split())
    assert delta < exact  # a fit scores its own measurement better than new ones
