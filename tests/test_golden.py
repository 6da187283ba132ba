"""Every output of the corpus in golden.py against the digests committed
in golden.json."""

import json

import golden


def test_outputs_match_the_corpus(tmp_path):
    """A differing entry is an output that moved: mend the program, or, if
    the move is intended, rewrite golden.json (``python tests/golden.py``)
    and list each changed entry in CHANGES.md."""
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.corpus(tmp_path)
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, f"{len(changed)} corpus entries differ: {changed}"
