from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_what_its_comments_say(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Python quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # each print(...) line ends in a comment holding the line it prints
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    assert expected
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
