"""smCE at more distinct predictions than the property tests draw.

The chain DP once kept both shifted copies of every breakpoint, so its
breakpoint count doubled with each distinct prediction and the default
``report`` ran out of memory on a few dozen distinct scores.
"""

import json

import numpy as np
import pytest

from calmeasures import from_samples, smce, smce_lp_oracle
from calmeasures.cli import main


def test_smce_matches_lp_oracle_at_k100():
    rng = np.random.default_rng(100)
    vs = rng.uniform(0.0, 1.0, size=100)
    ys = (rng.random(100) < rng.uniform(0.0, 1.0, size=100)).astype(int)
    j = from_samples(list(zip(vs.tolist(), ys.tolist())))
    assert len(j.distinct_values()) == 100
    assert smce(j) == pytest.approx(smce_lp_oracle(j, grid=50), abs=1e-6)


def test_default_report_on_40_distinct_scores(tmp_path, capsys):
    rng = np.random.default_rng(40)
    p = tmp_path / "scores.csv"
    vs = rng.uniform(0.0, 1.0, size=40).tolist()
    rows = "".join(f"{v!r},{int(rng.random() < v)}\n" for v in vs)
    p.write_text("prediction,label\n" + rows)
    assert main(["report", str(p)]) == 0
    measures = json.loads(capsys.readouterr().out)["measures"]
    assert set(measures) == {"ece", "ece2", "smce", "cdl"}
    assert 0.0 <= measures["smce"] <= measures["ece"] + 1e-12
