"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every fixed command of the workloads once, on the checkout it sits
in, and writes ``expected.json``: the SHA-256 of each stdout, the ladder's
boundary ranks, and the ``kernel`` report of each source algebra of the
``dense`` workload.  Run it only on a commit whose outputs are trusted;
the benchmark then requires every later commit to print the same bytes.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKDIR, nilmult_env, spawn
from workloads import CLOSED_FORM_DIM_M, DENSE_SOURCES, LADDER, LEMMA_ARITY, digest


def main() -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    env = nilmult_env()
    reference = ["verify corpus", "verify corpus --parallel",
                 f"verify lemma --arity-max {LEMMA_ARITY}"]
    reference += [f"multiplier {spec}" for spec in LADDER]
    reference += [f"kernel {spec} --format json" for spec in DENSE_SOURCES]
    expected = {"digests": {}, "ladder_ranks": {}, "dense_sources": {}}
    for text in reference:
        code, out, err, _, _ = spawn([sys.executable, "-m", "nilmult", *text.split()], env)
        if code != 0:
            raise SystemExit(f"{text}: exit code {code}\n{err}")
        expected["digests"][text] = digest(out)
        words = text.split()
        if words[0] == "multiplier":
            _, n, r2, r3, dim_m = out.splitlines()[1].split()
            closed = CLOSED_FORM_DIM_M.get(words[1])
            if closed is not None and int(dim_m) != closed:
                raise SystemExit(f"{text}: dim_M {dim_m}, closed form {closed}")
            expected["ladder_ranks"][words[1]] = [int(r2), int(r3)]
        elif words[0] == "kernel":
            report = json.loads(out)
            del report["name"]
            expected["dense_sources"][words[1]] = report
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
