"""Smoke tests of the benchmark's calls into qublogic.

``bench/worker.py --dump`` runs one round of a workload, checks every
output and prints how many queries failed.  A change to a function that
the benchmark calls with a signature of its own, such as
``find_frame_countermodel(xi, alpha, layer, 4, 4)``, ``eval_g2(f, e, lang)``
or ``canonical_qg_model(witness, formulas)``, fails its queries there.

The calls that only the traced run makes (``decide.qg_merge_atoms``
through ``grid_points``, and ``algebra.eval_big`` and ``algebra.eval_g2``
on ``probe_pairs``) are made here in this process, on one round's
queries, as ``bench/run.py --trace 1`` makes them.

The input and output digests of each workload's seed-1 round are pinned in
``tests/data/workload_digests.json``: a change that moves a printed
witness, verdict or report fails here, and one that means to updates that
file and names the outputs it moved.  Within one tree, the decide-refute
and models rounds run again under a second PYTHONHASHSEED and must give
the same digests: their formulas' atoms are collected in sets, and ordered
after that (``measures._compile`` slots them by their printed forms), so a
key, slot or witness that leaks hash order fails here.
"""

import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

WORKER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "worker.py"
DIGESTS = json.loads((pathlib.Path(__file__).resolve().parent / "data"
                      / "workload_digests.json").read_text())


def _dump(workload: str, env: dict) -> tuple[dict, str]:
    """The digest report of one ``--dump`` round, and the worker's stderr."""
    done = subprocess.run([sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
                           "--dump"], capture_output=True, text=True, timeout=300, check=True,
                          env=env)
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


@pytest.mark.parametrize("workload", ["decide-valid", "decide-refute", "models", "proofs-orders"])
def test_one_round_of_each_workload_has_no_failed_query(workload):
    report, stderr = _dump(workload, dict(os.environ))
    assert report["queries"] > 0 and report["failed"] == 0, (report, stderr)
    assert {k: report[k] for k in ("queries", "inputs", "outputs")} == DIGESTS[workload], report
    if workload in ("decide-refute", "models"):
        # unset, the first run's hash seed was random; either way this one differs
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        again, stderr = _dump(workload, dict(os.environ, PYTHONHASHSEED=seed))
        assert (again["inputs"], again["outputs"]) == (report["inputs"], report["outputs"]), \
            (report, again, stderr)


@pytest.mark.parametrize("workload", ["decide-valid", "decide-refute", "models", "proofs-orders"])
def test_the_calls_only_the_traced_run_makes_succeed(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(WORKER.parent))
    import worker

    from qublogic import algebra

    ctx = worker.Ctx()
    queries = worker.setup(SimpleNamespace(workload=workload, seed=1), ctx)
    for q in queries:
        if q.grid is not None:
            assert worker.grid_points(ctx, q) >= 1
    big, g2 = worker.probe_pairs(ctx, queries, 1)
    assert big or g2
    # a stand-in for the reference kernel: one pass over the pairs, unscaled
    ref = SimpleNamespace(block=lambda: 1.0)
    for fn, pairs in ((algebra.eval_big, big), (algebra.eval_g2, g2)):
        assert worker.run_probe(fn, pairs, ref, min_seconds=0) >= 0
