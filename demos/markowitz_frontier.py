"""Tracing the mean-variance efficient frontier.

The portfolio problem minimizes (-expected return, variance) over the
probability simplex: eight securities, annual return data, long-only
weights. Solving from many random starting portfolios traces the Pareto
front. Each solve is one call; the sweep below collects the endpoints and
writes them to an SVG scatter next to this script.
"""

import os

import numpy as np

from moprox import SolverConfig, get_problem, solve
from moprox.svg import scatter_svg

OUT = os.path.join(os.path.dirname(__file__), "out", "markowitz")


def main():
    problem = get_problem("markowitz")
    rng = np.random.default_rng(7)
    starts = rng.dirichlet(np.ones(problem.n), size=60)

    cfg = SolverConfig(algorithm="bbpgmo")
    reports = [solve(problem, x0, cfg) for x0 in starts]
    solved = [r for r in reports if r.status == "critical_point"]
    print(f"{len(solved)}/{len(reports)} sweeps reached a critical point")

    # F1 is the negated expected return; flip it back for reading
    rets = np.array([-r.F[0] for r in solved])
    risks = np.array([r.F[1] for r in solved])
    order = np.argsort(rets)

    print("\n  exp. return   variance      max weight")
    for idx in order[:: max(1, len(order) // 10)]:
        top = float(np.max(solved[idx].x))
        print(f"    {rets[idx]:8.4f}    {risks[idx]:8.5f}    {top:8.3f}")

    lo, hi = rets.min(), rets.max()
    print(f"\nfrontier spans returns {lo:.4f} .. {hi:.4f}")
    print(f"iterations per solve: mean {np.mean([r.iterations for r in solved]):.1f}")

    os.makedirs(OUT, exist_ok=True)
    svg = scatter_svg(
        {"bbpgmo endpoints": (risks.tolist(), rets.tolist())},
        xlabel="portfolio variance",
        ylabel="expected gross return",
        title="markowitz efficient frontier",
    )
    path = os.path.join(OUT, "frontier.svg")
    with open(path, "w") as fh:
        fh.write(svg)
    print("wrote", os.path.relpath(path, os.path.dirname(__file__)))


if __name__ == "__main__":
    main()
