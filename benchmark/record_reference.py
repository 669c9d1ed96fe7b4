"""Record the reference table the benchmark checks outputs against.

    python3 benchmark/record_reference.py

Run from the checkout root with BLAS pinned to one thread (this script pins
it).  It writes benchmark/reference.json: mu1 of every state the stability
workload classifies, and the counterexample cases that raise at
the recorded commit.  Re-record only when a change is meant to move these
values, and say so with the old and new values.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402

run.prepare_import_path(os.getcwd())

import cylreact  # noqa: E402
import workloads as w  # noqa: E402


def main() -> int:
    mu1 = {}
    for p in w.stability_problems():
        model, reaction, grid, init, top = p.build()
        solve = cylreact.solve_newton(model, reaction, grid, init,
                                      tol=w.NEWTON_TOL, top_bc=top)
        if not solve.converged:
            raise SystemExit(f"{p.key}: Newton did not converge")
        rep = cylreact.classify(solve.u, model, reaction)
        mu1[p.key] = rep.mu1
        print(f"{p.key}: mu1 {rep.mu1!r} {rep.classification}", flush=True)
    known = {}
    for case in w.nonlocal_cases(np.random.default_rng(0)):
        if case.kind != "counterexample":
            continue
        try:
            case.run(w.OpContext(workdir="."))
        except cylreact.NoRootError:
            known[case.name] = "NoRootError"
            print(f"{case.name}: NoRootError", flush=True)
    reference = {
        "recorded_at": run._git_commit(os.getcwd()),
        "provenance": run.provenance("reference", 0, False),
        "mu1": mu1, "known_failures": known,
    }
    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
