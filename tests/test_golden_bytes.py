"""Output bytes and eval metrics pinned across code changes.

`TestDeterminism` compares two runs of the same code; these digests pin the
`.imds` and `.cvnn` bytes themselves, so a refactor that shifts a random
draw, a layer order or an f32 rounding fails here. The eval pins hold the
BER and TAC accuracy that `immimo eval` reports for ML, SOMP (with illegal
supports to legalize) and the trained complex two-stage detector. Any intended change to
an output format must update the digests in the same change and say why.
The trained digests depend on floating-point summation order and were taken
with BLAS pinned to one thread (see conftest.py).
"""

import hashlib
import json

import pytest

from immimo.cli import main
from immimo.config import ExperimentConfig
from immimo.dataset import generate_arrays, table_for, write_dataset
from immimo.twostage import TrainConfig, build_aapd, build_se, train_full


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


DATASETS = {
    "4x1-static": (
        ExperimentConfig(n_t=4, n_u=1, n_r=4, t=16, m=4, seed=3),
        "49ff3697b7d2789c670ed293aeeb787664a3cda87bc1bac0e8eba80d4c3e414b",
    ),
    "8x2-csi-rho": (
        ExperimentConfig(n_t=8, n_u=2, n_r=8, t=16, m=4, seed=3,
                         csi_error_var=0.01, rho=0.5),
        "1aab6938dc66e18ede333e0e3cf46c0895e5f7a32eb95fba375025962877dbea",
    ),
}

SEED_BUILT = {
    "complex": (
        "6e6831714359cdf8cfd91490b0f2919fee37fe2305747cf845116af5d8f62fdc",
        "55e0ebafa173d0261d2edbf5208f3e1b3a4f3f3e4510a9d2a87914f0ea17b633",
    ),
    "real": (
        "fac5f741074d1486a03df36beeb96acf0f90d024e5ca45607737b244888c56f3",
        "195eb15a58bbc155e2a444196e7a985cf066b0d1b8a0c1686df49d97364b10a6",
    ),
}

TRAINED = {
    "complex": (
        "821e5750d667d01efd94080a4ed70bdd89604d41cb537442ac452c600a59edcd",
        "162e0a08d432cf35762a1e86af59f1c5eac0621f9e6e12a3950cfd35cea630db",
    ),
    "real": (
        "2779a6e6d6cdb5e2af23a9841fc6760e0a22194816d5818896520ef36cb09250",
        "83de4174c2e6f3b40e7b7f9d394a8fe9e5126044e9a48bc7cc23cbf2e22f2699",
    ),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_bytes(name, tmp_path):
    cfg, want = DATASETS[name]
    path = tmp_path / "d.imds"
    write_dataset(path, cfg, 15.0, 64, 0)
    assert _sha256(path) == want


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_seed_built_checkpoint_bytes(variant, tmp_path):
    aapd = build_aapd(4, 16, 4, variant, seed=3)
    se = build_se(2, 16, variant, seed=3)
    aapd.net.save(tmp_path / "a.cvnn")
    se.net.save(tmp_path / "s.cvnn")
    got = (_sha256(tmp_path / "a.cvnn"), _sha256(tmp_path / "s.cvnn"))
    assert got == SEED_BUILT[variant]


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_trained_checkpoint_bytes(variant, tmp_path):
    cfg = ExperimentConfig(n_t=4, n_u=2, n_r=4, t=8, m=4,
                           tac_preset="preset-4x2", seed=3)
    train = generate_arrays(cfg, 15.0, 200, 0)
    val = generate_arrays(cfg, 15.0, 100, 200)
    aapd, se, _ = train_full(train, val, TrainConfig(batch=50, max_epochs=2, seed=3),
                             table_for(cfg), variant=variant,
                             conv_channels=(4, 4), dense_units=(8, 8),
                             se_channels=(2, 2))
    aapd.net.save(tmp_path / "a.cvnn")
    se.net.save(tmp_path / "s.cvnn")
    got = (_sha256(tmp_path / "a.cvnn"), _sha256(tmp_path / "s.cvnn"))
    assert got == TRAINED[variant]


EVAL_CFG = """
n_t = 4
n_u = 2
n_r = 4
t = 8
m = 4
snr_db = 6
csi_error_var = 0.05
frames_train = 200
frames_val = 100
frames_test = 300
seed = 5
max_epochs = 2
batch = 50
conv_channels = 4, 4
dense_units = 8, 8
se_channels = 2, 2
"""

# (ber, aap_accuracy) per detector; 16 of the 300 SOMP supports are illegal
EVAL_METRICS = {
    "ml": (0.08735294117647059, 0.8933333333333333),
    "nn-complex": (0.23401960784313725, 0.27),
    "somp": (0.165, 0.61),
}


def test_eval_metrics(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EVAL_CFG)
    data, ckpt, out = tmp_path / "data", tmp_path / "ckpt", tmp_path / "eval.csv"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(ckpt)]) == 0
    assert main(["eval", "--config", str(cfg), "--data", str(data), "--ckpt", str(ckpt),
                 "--detectors", "ml,somp,nn-complex", "--out", str(out)]) == 0
    rows = json.loads((tmp_path / "eval.json").read_text())["rows"]
    got = {r["detector"]: (r["ber"], r["aap_accuracy"]) for r in rows}
    assert got == EVAL_METRICS
