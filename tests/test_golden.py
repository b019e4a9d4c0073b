"""Golden outputs: a small veteran pipeline must write the same bytes.

The table holds the sha256 of every file the pipeline writes. A change that
alters the random stream or the arithmetic on purpose regenerates the table
and says so; any other change must leave it alone. ``meta.json`` and
``gcomp_meta.json`` are hashed without the keys that hold checkout paths.
"""

import hashlib
import json

import numpy as np
import scipy

from causalpch.cli import main

from conftest import VETERAN_CSV

GOLDEN_SHA256 = {
    "ate.csv": "f3d4d1dd045b7c76048f838192e4dd80f8c2c60c5149bc4d1ef5405a9d697ec5",
    "draws.csv": "3288af79723be9381666ef4175bff81fbc019ba83eeed4488fe4429e40993087",
    "gcomp_meta.json": "40cef395bb89d24046aad76cac6f97fc9b843d3c0d1c0a721dae2e38a683d825",
    "hazard_export.csv": "817fda11b3d733cf550c49f9acb9c96c29a393c98e477dc5f8f64b3a65514f3c",
    "meta.json": "f684242fbf39bbecdd74d202cec90a9aa734480c8fa643834fefdab66b86b747",
    "psrf.csv": "aa15704eb88257427f5852d9b6975479d35756e3e0e1b184d6ef6504a845e7ac",
    "summary.csv": "cdcce45cf0a3a85b1028a9030229216f7e5c7d6d5aed7c405dbf3fd65f0e2059",
    "surv_ref.csv": "9cff82f143a8fc6286eb9fcbaaa24a03116a65e5af7b547eb4412074dded84ad",
    "surv_trt.csv": "f49818e51a4b3c46d2e7d4756dc6a7a3a5e271303a2d73fac2dce350b14236f9",
}

PATH_KEYS = ("data_path", "draws_file")


def digest(path) -> str:
    if path.suffix == ".json":
        meta = json.loads(path.read_text())
        for key in PATH_KEYS:
            meta.pop(key, None)
        data = json.dumps(meta, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def test_pipeline_outputs_match_golden_hashes(tmp_path):
    out = tmp_path
    draws, meta = str(out / "draws.csv"), str(out / "meta.json")
    steps = [
        ["fit", "--data", str(VETERAN_CSV), "--formula",
         "Surv(y, delta) ~ A*karno", "--model", "ar1", "--partitions", "20",
         "--chains", "2", "--warmup", "40", "--iters", "40", "--seed", "3",
         "--leapfrog-steps", "16", "--out-dir", str(out)],
        ["gcomp", "--draws", draws, "--meta", meta, "--B", "50",
         "--times", "100,365", "--out-dir", str(out)],
        ["summarize", "--file", draws, "--out", str(out / "summary.csv")],
        ["diag", "--files", draws, "--out", str(out / "psrf.csv")],
        ["hazard-export", "--draws", draws, "--meta", meta,
         "--out", str(out / "hazard_export.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]

    got = {p.name: digest(p) for p in sorted(out.iterdir())}
    changed = sorted(name for name in got.keys() | GOLDEN_SHA256.keys()
                     if got.get(name) != GOLDEN_SHA256.get(name))
    assert not changed, (
        f"outputs differ from the golden table: {changed} (numpy "
        f"{np.__version__}, scipy {scipy.__version__}; the table was made "
        f"with numpy 2.4.6 and scipy 1.17.1); got {got}")
