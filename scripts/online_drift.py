"""Online runs against geometrically drifting data.

Builds a random strongly convex instance, perturbs it with a geometric
drift stream, and reports how fast the iterates track the limit minimizer
along with the summability diagnostics of the drift terms.

Usage:
    python3 scripts/online_drift.py --dim 10 --rho 0.9
"""

import argparse

import numpy as np

from mmsubspace.model import HyperbolicPenalty, ProblemInstance, QuadraticData
from mmsubspace.solver import SolveOptions, reference_minimizer, run_online
from mmsubspace.stream import GeometricPerturbationStream, summability_report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=10)
    ap.add_argument("--rho", type=float, default=0.9)
    ap.add_argument("--scale", type=float, default=0.02,
                    help="perturbation size relative to the data norms")
    ap.add_argument("--max-iters", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    n = args.dim
    M = rng.standard_normal((n, n))
    quad = QuadraticData(M @ M.T + n * np.eye(n), rng.standard_normal(n) * n)
    pen = HyperbolicPenalty(0.5, 0.3)
    E = rng.standard_normal((n, n))
    E = 0.5 * (E + E.T)
    E *= args.scale * np.linalg.norm(quad.R) / np.linalg.norm(E)
    e = rng.standard_normal(n)
    e *= args.scale * (1 + np.linalg.norm(quad.r)) / np.linalg.norm(e)

    def make_stream():
        return GeometricPerturbationStream(quad, args.rho, E, e, penalty=pen)

    rep = summability_report(make_stream(), horizon=args.max_iters)
    print(f"sum ||dR|| = {rep.sum_dR:.6e} (closed form {rep.closed_form_dR:.6e})")
    print(f"sum ||dr|| = {rep.sum_dr:.6e} (closed form {rep.closed_form_dr:.6e})")

    ref = reference_minimizer(ProblemInstance(quad, pen))
    trace = run_online(make_stream(), strategy="3mg",
                       opts=SolveOptions(max_iters=args.max_iters, grad_tol=1e-12))
    print(f"iterations: {trace.n_steps}  converged: {trace.converged}")
    print(f"final distance to limit minimizer: "
          f"{np.linalg.norm(trace.final.h - ref.h):.3e}")
    chi_sum = sum(abs(rec.chi) for rec in trace.records if rec.chi)
    print(f"sum |chi_n| = {chi_sum:.6e}")
    marks = [1, 2, 5, 10, 20, 50, 100, 200, 500]
    for rec in trace.records:
        if rec.n in marks:
            d = np.linalg.norm(rec.h - ref.h)
            print(f"  n={rec.n:4d}  |grad| = {rec.grad_norm:.3e}  "
                  f"dist = {d:.3e}  obj = {rec.obj:.9g}")


if __name__ == "__main__":
    main()
