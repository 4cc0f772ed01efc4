"""Golden outputs: one sha256 per command over its exit code, stdout and
stderr, checked against ``data/outputs.json``.

The commands are ``info``, ``multiplier``, ``bounds`` and ``kernel`` in
every format over the corpus, the four large ``ladder`` specs, the
``.lie`` files in ``data``, a file with ``p/q`` coefficients and seeded
dense basis changes (most of whose adapted tables have non-integral
entries), ``verify corpus`` at every ``--max-dim`` and with ``--json``
and ``--parallel``, and ``verify lemma`` at arities 3 to 13.  Every
command runs in this process through ``cli.main``.

A change meant to alter an output re-records the digests with

    PYTHONPATH=src python tests/test_outputs.py

and says in its description which commands moved and why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from helpers import _change_basis, _seeded_unimodular

from nilmult.catalog import build, default_manifest, serialize
from nilmult.cli import main

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "outputs.json"

FORMATS = ("table", "json", "csv")
LADDER = ("filiform:30", "heisenberg:15", "freenil:3,4", "freenil:2,7")
# (source, seed): the first two keep integral adapted tables, the rest do not.
DENSE = (("heisenberg:5", 1), ("freenil:3,2", 1), ("filiform:5", 3),
         ("filiform:7", 1), ("freenil:2,4", 1), ("filiform:9", 1))
RATIONAL = ("algebra rational\ndim 5\n"
            "bracket 1 2 -> 1/2*3\nbracket 1 3 -> 2/3*4\n"
            "bracket 1 4 -> -3/5*5\nbracket 2 3 -> 1/7*5\nend\n")


def _write_inputs(root: Path) -> dict[str, Path]:
    """label -> path of each .lie input: the data files as they are, the
    rational text and the dense copies written under ``root``."""
    files = {f"data/{path.name}": path for path in sorted(DATA.glob("*.lie"))}
    files["rational.lie"] = root / "rational.lie"
    files["rational.lie"].write_text(RATIONAL)
    for spec, seed in DENSE:
        source = build(spec)
        label = f"dense/{spec}@{seed}"
        files[label] = root / f"dense-{spec.replace(':', '-').replace(',', '-')}-{seed}.lie"
        files[label].write_text(
            serialize(_change_basis(source, _seeded_unimodular(source.dim, random.Random(seed)))))
    return files


def _commands(files: dict[str, Path]):
    """(label, argv) of every covered command, in a fixed order; a label
    names a file by its key in ``files``, never by its path."""
    specs = [(spec, spec) for spec in (*default_manifest(), *LADDER)]
    specs += [(f"file:{label}", f"file:{path}") for label, path in files.items()]
    for label, spec in specs:
        for command in ("info", "multiplier", "bounds", "kernel"):
            for fmt in FORMATS:
                yield f"{command} {label} --format {fmt}", [command, spec, "--format", fmt]
        yield f"bounds {label} --strict-remark", ["bounds", spec, "--strict-remark"]
    for max_dim in (None, *range(0, 15)):
        limit = [] if max_dim is None else ["--max-dim", str(max_dim)]
        for fmt in FORMATS:
            argv = ["verify", "corpus", *limit, "--format", fmt]
            yield " ".join(argv), argv
    for extra in (["--json"], ["--parallel"], ["--json", "--parallel"], ["--strict-remark"]):
        argv = ["verify", "corpus", *extra]
        yield " ".join(argv), argv
    for arity in (2, *range(3, 14), 19):  # 2 and 19 lie outside the accepted range
        for fmt in FORMATS:
            argv = ["verify", "lemma", "--arity-max", str(arity), "--format", fmt]
            yield " ".join(argv), argv


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(root: Path) -> dict[str, str]:
    return {label: _digest(argv) for label, argv in _commands(_write_inputs(root))}


def test_every_command_prints_what_it_printed_when_recorded(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    got = _digests(tmp_path)
    assert list(got) == list(recorded), "the covered commands changed; re-record the digests"
    differing = [label for label in got if got[label] != recorded[label]]
    assert not differing, (f"{len(differing)} of {len(got)} commands changed their output, "
                           f"the first: nilmult {differing[0]}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        digests = _digests(Path(root))
    DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
