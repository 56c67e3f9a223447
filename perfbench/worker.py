"""One benchmark process: write a workload's inputs, or run one timed pass.

Started fresh by run.py for every set-up and every pass, with the checkout's
`src` and this directory on PYTHONPATH and BLAS/OpenMP pinned to one thread.
Writes its result as JSON to `--result`.
"""

from __future__ import annotations

import argparse
import json
import logging
from pathlib import Path

import stancecast
import stancecast.pipeline  # noqa: F401  (loaded before the tracer installs)
import workloads
from tracer import Tracer

CHECKOUT_SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--reruns", type=int, default=0)
    parser.add_argument("--spans", type=Path, help="trace the pass and write its spans here")
    args = parser.parse_args()
    if CHECKOUT_SRC not in Path(stancecast.__file__).resolve().parents:
        raise SystemExit(f"stancecast imported from {stancecast.__file__}, not {CHECKOUT_SRC}")
    # Repaired-defect warnings would go to stderr on every stage.
    logging.basicConfig(level=logging.ERROR)

    if args.mode == "setup":
        result = workloads.do_setup(args.workload, args.seed, args.inputs)
    else:
        tracer = None
        if args.spans:
            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
            tracer.install()
        result = workloads.do_run(args.workload, args.seed, args.inputs, args.out,
                                  args.reruns, tracer)
        if tracer is not None:
            tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
