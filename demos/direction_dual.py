"""Anatomy of one descent direction.

A multiobjective proximal step needs a single direction that decreases every
objective at once. This script builds a two-objective toy problem, solves the
direction subproblem at a noncritical point through its dual, and prints the
pieces that the solvers consume: the simplex weights, the direction, the
per-objective model decreases, and the duality identity that ties them
together.
"""

import numpy as np

from moprox import Zero
from moprox.direction import DirectionResult, SubproblemInput, frank_wolfe_solve


def main():
    # two quadratic bowls with different centers pull in different directions
    centers = np.array([[0.0, 0.0], [4.0, 1.0]])
    x = np.array([3.0, -2.0])
    grads = np.stack([x - c for c in centers])
    alphas = np.array([1.0, 1.0])

    inp = SubproblemInput(x=x, grads=grads, alphas=alphas, kind=Zero())
    res = frank_wolfe_solve(inp)

    print("point x           ", x)
    print("gradients         ", grads[0], grads[1])
    print("dual weights      ", np.round(res.lam, 6))
    print("direction d       ", np.round(res.d, 6))
    print("model decreases   ", np.round(res.model_decrease, 6))
    print("dual certificate  ", f"{res.fw_gap:.2e}")

    # the direction is the steepest common-descent compromise: both scaled
    # model decreases are equal whenever both weights are active
    scaled = res.model_decrease / alphas
    print("\nscaled decreases  ", np.round(scaled, 10))

    # weak duality becomes equality at the solution: evaluating the primal
    # objective max_i <grad f_i, d> / alpha_i + ||d||^2 / 2 (g = 0 here) at d
    # reproduces the dual optimum -omega
    primal = float(np.max(grads @ res.d / alphas) + 0.5 * np.dot(res.d, res.d))
    print("primal at d       ", f"{primal:.12f}")
    print("dual optimum      ", f"{-res.omega:.12f}")
    print("gap               ", f"{abs(primal + res.omega):.2e}")

    # the primal direction is recovered from the weights by one prox call
    d_again = DirectionResult(inp, res.lam).d
    print("\nrecovered d       ", np.round(d_again, 6))
    print("matches           ", bool(np.allclose(d_again, res.d, atol=1e-12)))

    # at a Pareto-critical point the subproblem returns d = 0: the midpoint
    # of the two centers is critical because the gradients there point in
    # opposite directions
    x_crit = np.array([2.0, 0.5])
    grads_crit = np.stack([x_crit - c for c in centers])
    res_crit = frank_wolfe_solve(
        SubproblemInput(x=x_crit, grads=grads_crit, alphas=alphas, kind=Zero())
    )
    print("\nat the midpoint of the centers (Pareto critical):")
    print("||d||             ", f"{res_crit.d_norm:.2e}")


if __name__ == "__main__":
    main()
