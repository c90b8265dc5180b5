"""perfbench wraps herald functions by name: a rename or deletion, or a
per-layer metric the wrappers no longer feed, fails here."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_spans_install_on_src():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


AUGMENT_SCRIPT = """
import json, sys
from pathlib import Path
import spans
tracer = spans.Tracer()
spans.install(tracer)
from herald import pipeline
from herald.config import PipelineConfig
from herald.datastore import Direction, NLFLPair, Provenance
from herald.records import CorpusIndex
pairs = [NLFLPair(id=f"s{i}", formal_text="theorem t : True", informal_text=f"Claim {i}.",
                  direction=Direction.NL_TO_FL, provenance=Provenance.ORIGINAL)
         for i in range(5)]
out = Path(sys.argv[1])
pipeline.run_augment(CorpusIndex({}), PipelineConfig(), out, tactic=False, informal=True,
                     original_pairs=pairs)
metrics = spans.layer_metrics(tracer, wall_s=1.0, sys_s=0.0, latency_s=0.0,
                              max_in_flight=1, out_dir=out)
calls = sum(gateway.stats["provider_calls"] for gateway in tracer.gateways)
print(json.dumps({"attempted": metrics["augment.variants_attempted"], "calls": calls}))
"""


def test_traced_variants_attempted_counts_every_augmenter_call(tmp_path):
    # Informal augmentation's only provider calls are the augmenter's, so the
    # per-layer count reads what the provider was asked, and not 0.
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", AUGMENT_SCRIPT, str(tmp_path / "aug")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert counts["calls"] >= 5
    assert counts["attempted"] == counts["calls"]
