"""Smoke test of the benchmark's calls into qublogic.

``bench/worker.py --dump`` runs one round of a workload, checks every
output and prints how many queries failed.  A change to a function that
the benchmark calls with a signature of its own, such as
``find_frame_countermodel(xi, alpha, layer, 4, 4)``, ``eval_g2(f, e, lang)``
or ``canonical_qg_model(witness, formulas)``, fails its queries there.

Gap: the calls that only the traced run makes (``algebra.eval_big`` and
``decide.qg_merge_atoms``) are not made by ``--dump``, so this test does
not cover them.  It pins no digest: the determinism self-check compares
those between two trees.
"""

import json
import pathlib
import subprocess
import sys

import pytest

WORKER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "worker.py"


@pytest.mark.parametrize("workload", ["decide-valid", "decide-refute", "models", "proofs-orders"])
def test_one_round_of_each_workload_has_no_failed_query(workload):
    done = subprocess.run([sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
                           "--dump"], capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["queries"] > 0 and report["failed"] == 0, (report, done.stderr)
