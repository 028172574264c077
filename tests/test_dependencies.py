"""The runtime depends on NumPy alone.

``scipy`` and ``networkx`` are test-side dependencies: the oracles in
``tests/chem`` and ``tests/docking`` compare against them.  These checks
run in fresh interpreters, because this test process has imported both.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=600,
    )


def test_entry_points_import_neither_scipy_nor_networkx(tmp_path):
    proc = _python(
        """
        import sys
        import repro, repro.cli, repro.core.campaign, repro.core.streaming, repro.service
        loaded = sorted(
            m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")
        )
        assert not loaded, loaded
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_campaign_hybrid_and_screen_run_with_both_blocked(tmp_path):
    proc = _python(
        """
        import sys
        sys.modules["scipy"] = sys.modules["networkx"] = None  # import raises

        import numpy as np
        from repro.chem.library import generate_library, write_library_shards
        from repro.chem.smiles import parse_smiles
        from repro.core.campaign import CampaignConfig, ImpeccableCampaign
        from repro.core.streaming import run_streamed_screen
        from repro.docking.engine import DockingEngine
        from repro.docking.lga import LGAConfig
        from repro.docking.receptor import make_receptor
        from repro.esmacs.protocol import EsmacsConfig
        from repro.surrogate.train import TrainConfig, train_surrogate
        from repro.ties.alchemical import build_hybrid

        md = dict(equilibration_ns=1, production_ns=4, steps_per_ns=4,
                  n_residues=40, record_every=4, minimize_iterations=10)
        result = ImpeccableCampaign(CampaignConfig(
            library_size=16, seed_train_size=6, iterations=1, cg_compounds=2,
            s2_top_compounds=1, s2_outliers_per_compound=1,
            cg=EsmacsConfig(replicas=3, **md), fg=EsmacsConfig(replicas=4, **md),
            compute_enrichment=False, seed=0,
        )).run()
        assert result.iterations[0].fg_results

        hybrid = build_hybrid(parse_smiles("c1ccccc1C"), parse_smiles("c1ccccc1CCC"))
        assert hybrid.n_beads == 9

        train = generate_library(12, seed=1, name="train")
        surrogate = train_surrogate(
            train.smiles(), np.linspace(-9.0, -5.0, len(train)),
            TrainConfig(epochs=2, width=4), seed=1,
        )
        engine = DockingEngine(make_receptor("3CLPro"), seed=1,
                               config=LGAConfig(population=8, generations=2))
        paths = write_library_shards("shards", 24, seed=2, shard_size=12)
        screen = run_streamed_screen(engine, surrogate, paths, keep_top=3,
                                     checkpoint_dir="ckpt", dock_shard_size=2)
        assert screen.records_streamed == 24 and len(screen.docked) == 3
        print("ok")
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
