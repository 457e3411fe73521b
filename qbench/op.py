"""One benchmark op: a fresh interpreter that runs qanneal CLI commands.

Usage: python op.py SPEC

SPEC is a JSON file with keys ``src`` (directory holding the ``qanneal``
package), ``commands`` (a list of argv lists), ``trace`` (bool) and
``result`` (path of the JSON result this op writes).  The op imports
``qanneal.cli`` from ``src`` and times each ``qanneal.cli.main(argv)`` call;
it stops at the first command that exits nonzero.  With ``trace`` the layer
tracer is installed first and its spans are reduced to per-layer metrics
after the last command.
"""

import json
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import qanneal.cli as cli
    from qanneal import circuit

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, op_metrics, span_summary

        tracer = Tracer()
        tracer.install()

    # the oracle compares the gate-level post-selection probability with its own P0
    probabilities = []
    postselect = circuit.postselect_zero

    def probed_postselect(*args, **kwargs):
        state, probability = postselect(*args, **kwargs)
        probabilities.append(probability)
        return state, probability

    circuit.postselect_zero = probed_postselect

    first_call = time.monotonic()
    calls = []
    for argv in spec["commands"]:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        calls.append({"argv": argv, "code": code, "seconds": time.perf_counter() - start})
        if code != 0:
            break

    result = {"first_call": first_call, "calls": calls, "probabilities": probabilities}
    if tracer is not None:
        tracer.uninstall()
        result.update(op_metrics(tracer.spans))
        result["spans"] = span_summary(tracer.spans)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if all(c["code"] == 0 for c in calls) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
