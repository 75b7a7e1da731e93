"""Compare subspace strategies on random batch instances.

Runs every strategy on a grid of random penalized problems and prints
iterations to tolerance, the certified worst-case rate, and the first
certified iteration for each combination.

Usage:
    python3 scripts/compare_subspaces.py --dims 5 20 --kinds hyperbolic fair
"""

import argparse

import numpy as np

from mmsubspace.problems import random_instance
from mmsubspace.rates import batch_rate_summary
from mmsubspace.solver import SolveOptions, reference_minimizer, run_batch
from mmsubspace.subspace import parse_strategy


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[5, 20, 50])
    ap.add_argument("--kinds", nargs="+", default=["hyperbolic", "fair"])
    ap.add_argument("--strategies", nargs="+",
                    default=["gradient", "3mg", "memory:5", "full"])
    ap.add_argument("--cond", type=float, default=50.0)
    ap.add_argument("--max-iters", type=int, default=1000)
    ap.add_argument("--grad-tol", type=float, default=1e-9)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'dim':>5s} {'penalty':10s} {'strategy':10s} {'iters':>6s} "
          f"{'conv':>5s} {'vartheta':>10s} {'n_eps':>6s}")
    for dim in args.dims:
        for kind in args.kinds:
            p = random_instance(dim, kind, rng, cond=args.cond)
            h1 = rng.standard_normal(dim)
            ref = reference_minimizer(p, tol=1e-12)
            for name in args.strategies:
                opts = SolveOptions(max_iters=args.max_iters,
                                    grad_tol=args.grad_tol, certify=True)
                trace = run_batch(p, h1=h1, strategy=parse_strategy(name), opts=opts)
                s = batch_rate_summary(p, trace, trace.setting("epsilon"), ref)
                vt = f"{s.vartheta:.6f}"
                ne = str(s.n_eps) if s.certified else "-"
                print(f"{dim:5d} {kind:10s} {name:10s} {trace.n_steps:6d} "
                      f"{str(trace.converged):>5s} {vt:>10s} {ne:>6s}")


if __name__ == "__main__":
    main()
