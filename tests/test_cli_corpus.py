"""Every run of the CLI corpus (tools/cli_corpus.txt), with each --res set
to 9,9, ends in a defined way: exit 0, exit 1 with a JSON error of a known
code, or exit 2 with a usage message.  Only outcomes that hold on any
machine are checked; the bytes of the outputs are compared between two
trees on one machine by tools/corpus.py."""

import importlib.util
import json
from pathlib import Path

from zmclab import errors

_spec = importlib.util.spec_from_file_location(
    "corpus", Path(__file__).resolve().parent.parent / "tools" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

CODES = {cls.code for cls in vars(errors).values() if isinstance(cls, type)
         and issubclass(cls, errors.ZmcError)} | {"invalid-input"}
#: the codes that the corpus header lists as out of the CLI's reach
UNREACHABLE = {"zero-derivative", "domain-violation", "solver-failure",
               "max-iterations", "error"}
VERBS = {"classify", "residual", "curvature", "fluid", "detect",
         "verify-lines", "dualize", "solve", "examples", "export"}


def test_corpus_runs_end_in_a_defined_way(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    corpus.write_inputs(inputs)
    problems, ran, refused = [], set(), set()
    for number, template in corpus.load():
        out = tmp_path / str(number)
        out.mkdir()
        argv = [a.replace("{out}", str(out)).replace("{inputs}", str(inputs))
                for a in template]
        argv = ["9,9" if k and argv[k - 1] == "--res" else a
                for k, a in enumerate(argv)]
        code, _, stderr = corpus.run_one(argv)
        if code == 0:
            ran.add(argv[0])
        elif code == 1:
            refused.add(json.loads(stderr)["error"])
        elif not (code == 2 and "usage" in stderr):
            problems.append((number, code, stderr))
    assert problems == []
    # every verb succeeds somewhere, and the errors are exactly the codes
    # the CLI can reach
    assert ran == VERBS
    header = corpus.CORPUS.read_text().split("\n\n")[0]
    assert all(f"#   {code} " in header for code in UNREACHABLE)
    assert refused == CODES - UNREACHABLE
