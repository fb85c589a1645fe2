"""Backtracking vs stepsize inflation on an ill-conditioned problem.

Spectral stepsizes estimate curvature from the last iterate pair, and on
badly scaled problems the estimate for one objective can be far too
optimistic for another. The standard remedy is Armijo backtracking (cut the
step until every objective decreases). The adaptive variant instead inflates
the offending per-objective stepsizes and re-solves the direction, keeping
the full unit step. This script runs both on the same ill-conditioned
two-objective quadratic and compares what each one paid.
"""

import numpy as np

from moprox import MCOProblem, SmoothComponent, SolverConfig, solve


def _bowl(diag, center):
    d = np.asarray(diag, dtype=float)
    c = np.asarray(center, dtype=float)
    return SmoothComponent(
        value=lambda x: 0.5 * float(np.dot(d * (x - c), x - c)),
        gradient=lambda x: d * (x - c),
        lipschitz=float(d.max()),
        strong_mu=float(d.min()),
    )


def main():
    # a flat bowl at the origin against a steep anisotropic one: curvatures
    # span four orders of magnitude and the Pareto set is a genuine curve.
    # starting far out along the soft axis keeps the spectral curvature
    # estimate of objective 2 stale for many iterations
    problem = MCOProblem(
        n=2,
        smooth=(
            _bowl([0.01, 0.01], [0.0, 0.0]),
            _bowl([100.0, 1.0], [1.0, 3.0]),
        ),
    )
    x0 = np.array([0.5, -80.0])

    for algo in ("bbpgmo", "abbpgmo"):
        report = solve(problem, x0, SolverConfig(algorithm=algo))
        recs = report.trace
        backtracks = int(recs.backtracks.sum())
        inflations = 0 if recs.inflations is None else int(recs.inflations.sum())
        print(f"{algo}:")
        print(f"  iterations      {report.iterations}")
        print(f"  backtracks      {backtracks}")
        print(f"  re-solves       {inflations}")
        print(f"  mean stepsize   {report.stepsize_mean:.3f}")

        print("  iter   alpha_1      alpha_2      t")
        for k, rec in enumerate(recs[:6]):
            a1, a2 = rec.alphas
            print(f"  {k:>4}   {a1:<10.4g}   {a2:<10.4g}   {rec.t:.4f}")
        print()

    # both land on the Pareto set; the adaptive run never cuts a step, it
    # pays with extra direction solves instead
    print("cost comparison (same starting point):")
    for algo in ("bbpgmo", "abbpgmo"):
        report = solve(problem, x0, SolverConfig(algorithm=algo))
        c = report.counters
        print(
            f"  {algo:>8}: F_evals {c.F_evals:>3}  grad_evals {c.grad_evals:>3}  "
            f"prox_evals {c.prox_evals:>3}  final x {np.round(report.x, 4)}"
        )


if __name__ == "__main__":
    main()
