"""BLAS runs on one thread for the science, whatever the launcher set.

OpenBLAS splits reductions by thread, so without the run-time pin the
campaign's digest followed ``OPENBLAS_NUM_THREADS`` (or the host's core
count when it is unset).  On a one-core host both subprocess runs below
use one thread anyway, so the comparison only bites where there are two
or more cores.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro.rct.pilot
from repro.core.campaign import ImpeccableCampaign
from repro.util import blas
from repro.util.blas import BLAS_PINNED, BLAS_UNPINNED, pin_blas_threads

from tests.core.test_stageunits import tiny_config

SRC = Path(__file__).resolve().parents[2] / "src"

#: the bench's full ``campaign_loop`` config (seed 3): its digest moves
#: with the BLAS thread count when nothing pins it
CAMPAIGN = """
from repro.core.campaign import CampaignConfig, ImpeccableCampaign
from repro.service.work import campaign_result_digest
cfg = CampaignConfig(
    iterations=1, s2_outliers_per_compound=1, compute_enrichment=False,
    failure_policy="drop_and_continue", seed=3, library_size=48,
    seed_train_size=12, cg_compounds=4, s2_top_compounds=3,
)
result = ImpeccableCampaign(cfg).run()
print(campaign_result_digest(result), result.blas, sep="|")
"""

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _campaign_digest(**threads: str) -> tuple[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(threads)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", CAMPAIGN], env=env, capture_output=True,
        text=True, check=True, timeout=600,
    ).stdout
    digest, note = out.strip().splitlines()[-1].split("|")
    return digest, note


def test_the_campaign_digest_does_not_depend_on_the_launcher():
    unset = _campaign_digest()
    pinned_by_env = _campaign_digest(OPENBLAS_NUM_THREADS="1")
    assert unset == pinned_by_env
    assert unset[1] == BLAS_PINNED


def test_pin_finds_the_bundled_openblas():
    assert pin_blas_threads() == BLAS_PINNED


def test_a_campaign_without_a_blas_setter_records_it(monkeypatch):
    monkeypatch.setattr(blas, "_setter", lambda: None)
    monkeypatch.setattr(repro.rct.pilot, "_worker_count", lambda: 1)
    assert pin_blas_threads() == BLAS_UNPINNED
    assert ImpeccableCampaign(tiny_config()).run().blas == BLAS_UNPINNED
