"""Byte-identity fingerprint of a checkout's solver outputs.

Prints 38 lines: one per recorded perfbench campaign seed (31 lines), one
per nonsmooth kind over seeded random ``frank_wolfe_solve`` calls (4 lines),
one per exported campaign (2 lines) and one for the stress recipe:

* a campaign line covers every SolveReport field and every trace record
  field except the wall times and the ``f_evals`` counter (a fixed multiple
  of successful smooth evaluations, which a checkout may not have), for
  every trial and algorithm; a trace hashes as the list of its records, so
  a list of TraceRecords and a columnar ``Trace`` with equal records give
  the same line;
* a kind line covers d, lambda, fw_gap, model_decrease, -omega (the dual
  optimum), d_norm and the prox-call count of 400 inputs with m = 1..5,
  each solved cold and with three warm starts (a random multiplier, a
  vertex, the cold solution);
* an export line covers every file ``export_results`` writes for one
  seeded campaign of all six modes: the CSVs without their ``time_ms`` and
  ``time_ms_mean`` columns, and the SVGs. BK1 draws both scatters, the
  three-objective ``quadratic:n=3,m=3`` only the variable-space one;
* the stress line hashes the SolveReports of ``solve()`` at
  ``max_iters=100`` in every mode of ``STRESS_MODES`` on the problems of
  ``_stress_problem`` for seeds 0-199 without 5, as a campaign line hashes
  its reports. Unlike the recorded campaigns, these reach capped duals: the
  certified branch, the d_tol-capped stop and ``dual_failure``.

Each line holds two sha256 values, then its label and total prox-call count;
a kind line ends with the number of its 1,600 solves that ended capped
(``res.capped``), the stress line with its status counts. A checkout whose
``frank_wolfe_solve`` raises ``DualSolveError`` instead is fingerprinted
with its own copy of this tool, which hashes such a solve the same way.
The first (iterates) hashes all of the above but the prox-call counts, the
second (work) hashes those counts in the order they were produced (for an
export line, the ``prox_evals`` column of ``runs.csv``).

A refactor that must leave every iterate alone passes when the two outputs
are equal; one that only removes work passes when the first column is::

    python3 tools/fingerprint.py OLD_CHECKOUT > old.txt
    python3 tools/fingerprint.py > new.txt      # ROOT defaults to this one
    diff old.txt new.txt
    diff <(cut -d' ' -f1 old.txt) <(cut -d' ' -f1 new.txt)

The campaigns come from ROOT's ``perfbench/workloads.py`` and the stress
recipe from ROOT's ``tests/test_acceptance.py``; both are imported and not
changed. A full run takes about three and a half minutes on one core of a
2-core box, 30 s of it the stress line.

Words after ROOT keep only the lines whose label contains one of them; the
other lines are not computed. An m >= 3 change, which only the quad_m4
campaign and the kind lines reach, is checked with::

    python3 tools/fingerprint.py ROOT quad_m4 kind
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import os
import sys
import tempfile
from collections import Counter
from collections.abc import Sequence

import numpy as np

KIND_INPUTS = 400
EXPORT_PROBLEMS = ("BK1", "quadratic:n=3,m=3")
EXPORT_ALGOS = ("pgmo_ls", "pgmo_fixed", "pgmo_mu", "pgmo_separate", "bbpgmo",
                "abbpgmo:tau=3")
_TIME_COLUMNS = ("time_ms", "time_ms_mean")
_UNHASHED = ("time_s", "total_time", "f_evals")
_WORK = "prox_evals"


def _feed(h, value, work):
    """Hash value's bytes: arrays with dtype and shape, floats by hex, any
    sequence (a columnar trace too) as the list of its items. The values of
    ``prox_evals`` fields go to the list ``work`` instead."""
    if isinstance(value, np.ndarray):
        h.update(f"a{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(b"f" + value.hex().encode())
    elif isinstance(value, Sequence) and not isinstance(value, str):
        h.update(f"l{len(value)}".encode())
        for item in value:
            _feed(h, item, work)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name == _WORK:
                work.append(getattr(value, f.name))
            elif f.name not in _UNHASHED:
                h.update(f"|{f.name}=".encode())
                _feed(h, getattr(value, f.name), work)
    elif isinstance(value, dict):
        h.update(f"d{len(value)}".encode())
        for key, item in value.items():
            _feed(h, key, work)
            _feed(h, item, work)
    else:
        h.update(b"r" + repr(value).encode())
    h.update(b";")


def _wanted(label, filters):
    return not filters or any(word in label for word in filters)


def campaign_hashes(workloads, filters=()):
    from moprox import run_campaign

    for name, workload in workloads.WORKLOADS.items():
        workload.register()
        for seed in workload.seeds:
            label = f"campaign {name} seed {seed}"
            if not _wanted(label, filters):
                continue
            summary = run_campaign(workload.spec(seed))
            h, work = hashlib.sha256(), []
            _feed(h, summary.reports, work)
            yield label, h, work, ""


def _kind_inputs(make_kind, rng):
    from moprox import BoxIndicator, SimplexIndicator
    from moprox.direction import SubproblemInput

    for _ in range(KIND_INPUTS):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        kind = make_kind(rng, n, m)
        if isinstance(kind, SimplexIndicator):
            x = rng.dirichlet(np.ones(n))
        elif isinstance(kind, BoxIndicator):
            x = rng.uniform(kind.lower, kind.upper)
        else:
            x = rng.normal(size=n)
        grads = rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0)
        alphas = np.exp(rng.uniform(-3.0, 3.0, size=m))
        yield SubproblemInput(x=x, grads=grads, alphas=alphas, kind=kind)


def _hash_solve(h, work, inp, warm_lambda):
    from moprox import EvalCounters
    from moprox.direction import frank_wolfe_solve

    counters = EvalCounters()
    res = frank_wolfe_solve(inp, counters=counters, warm_lambda=warm_lambda)
    if res.capped:
        h.update(b"capped")
    values = (res.d, res.lam, res.fw_gap, res.model_decrease, -res.omega, res.d_norm)
    _feed(h, values, work)
    work.append(counters.prox_evals)
    return res


def kind_hashes(filters=()):
    from moprox import BoxIndicator, SimplexIndicator, WeightedL1, Zero

    makers = (
        ("Zero", lambda rng, n, m: Zero()),
        ("WeightedL1", lambda rng, n, m: WeightedL1(tuple(rng.uniform(0.0, 1.0, m)))),
        ("BoxIndicator", lambda rng, n, m: BoxIndicator((-1.5,) * n, (1.5,) * n)),
        ("SimplexIndicator", lambda rng, n, m: SimplexIndicator()),
    )
    for seed, (name, make_kind) in enumerate(makers):
        if not _wanted(f"kind {name}", filters):
            continue
        rng = np.random.default_rng(seed)
        h, work, capped = hashlib.sha256(), [], 0
        for inp in _kind_inputs(make_kind, rng):
            cold = _hash_solve(h, work, inp, None)
            capped += cold.capped
            m = inp.m
            for warm in (rng.dirichlet(np.ones(m)), np.eye(m)[int(rng.integers(m))],
                         cold.lam):
                capped += _hash_solve(h, work, inp, warm).capped
        yield f"kind {name}", h, work, f"  capped {capped}"


def export_hashes(filters=()):
    from moprox import ExperimentSpec, export_results, run_campaign

    for problem in EXPORT_PROBLEMS:
        label = f"export {problem}"
        if not _wanted(label, filters):
            continue
        spec = ExperimentSpec(problem=problem, algorithms=EXPORT_ALGOS, trials=10)
        h, work = hashlib.sha256(), []
        with tempfile.TemporaryDirectory() as out:
            for path in sorted(export_results(run_campaign(spec), out)):
                h.update(os.path.basename(path).encode())
                with open(path, newline="") as fh:
                    if not path.endswith(".csv"):
                        _feed(h, fh.read(), work)
                        continue
                    header, *rows = csv.reader(fh)
                for i, column in enumerate(header):
                    cells = [row[i] for row in rows]
                    if column == _WORK:
                        work.extend(map(int, cells))
                    elif column not in _TIME_COLUMNS:
                        _feed(h, (column, cells), work)
        yield label, h, work, ""


def stress_hashes(acceptance, filters=()):
    from moprox import SolverConfig, solve

    if not _wanted("stress", filters):
        return
    h, work, statuses = hashlib.sha256(), [], Counter()
    for seed in range(200):
        if seed == 5:
            continue
        problem, x0 = acceptance._stress_problem(seed)
        for mode in acceptance.STRESS_MODES:
            report = solve(problem, x0, SolverConfig(algorithm=mode, max_iters=100))
            statuses[report.status] += 1
            _feed(h, report, work)
    counts = ", ".join(f"{status} {k}" for status, k in statuses.most_common())
    yield "stress", h, work, f"  {counts}"


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else
                           os.path.join(os.path.dirname(__file__), os.pardir))
    sys.path[:0] = [os.path.join(root, d) for d in ("src", "perfbench", "tests")]
    import test_acceptance
    import workloads

    filters = argv[2:]
    for label, h, work, tail in itertools.chain(campaign_hashes(workloads, filters),
                                                kind_hashes(filters),
                                                export_hashes(filters),
                                                stress_hashes(test_acceptance, filters)):
        w = hashlib.sha256()
        _feed(w, work, None)
        print(f"{h.hexdigest()} {w.hexdigest()}  {label}  prox {sum(work)}{tail}",
              flush=True)


if __name__ == "__main__":
    main(sys.argv)
