"""Byte-for-byte pins of the results and trace CSVs of the shipped configs.

Each case runs 10 seeded drops of one config with one algorithm through the
harness, writes the two CSVs with `emit_results`, and compares their sha256
digests with the values below.  A change that alters any emitted digit of
any drop fails here.  Re-record only in a change that deliberately
re-baselines the outputs, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from twotier_ee.config import load_config
from twotier_ee.harness import ExperimentSpec, emit_results, run_drops

pytestmark = pytest.mark.bitexact

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N_DROPS = 10

# (config stem, algorithm) -> (results sha256, trace sha256)
GOLDEN = {
    ("sparse_load", "egt"): (
        "373095fc796561afddfd150107b6d4c0dc7888d943b392c6c608a0aa3a2a1f37",
        "c66f8c3f9b5fb24c061a9619d3ec4e8538a49603e46ca55b2bd569513076e2d6"),
    ("sparse_load", "ngt"): (
        "fa9ecffedcb3155d6c32437cad17ec87803dcfb91bdd05907e1f5e83419182a5",
        "6a4c81dd8b7e833b7fc9a9e4e376a4d841fa0336bf42252770f33898c6055f94"),
    ("sparse_load", "brute-group"): (
        "d71e675eef83af245d109653a321d06a2c3616e4c63e3f058574a38cbd18b421",
        "6a4c81dd8b7e833b7fc9a9e4e376a4d841fa0336bf42252770f33898c6055f94"),
    ("tiny", "egt"): (
        "9125416d374425e024152dc7a8b6bd9c2b6a7ba55ca6c47f210f00053e946c47",
        "c931b70ee8e081b912984b15b84a6b38c0162d953fa0ab2b2e4423eae7b262f5"),
    ("tiny", "ngt"): (
        "8dffb01812c8304b934112eb9f9e75f8a358c778e07d6dad6dc35651bcdc4aab",
        "6a4c81dd8b7e833b7fc9a9e4e376a4d841fa0336bf42252770f33898c6055f94"),
    ("tiny", "brute-group"): (
        "5dd79d1b3c59f12cf6f59b70a2d09300f4aee452ca17009955ead3700eb56fd4",
        "6a4c81dd8b7e833b7fc9a9e4e376a4d841fa0336bf42252770f33898c6055f94"),
    ("two_cell_reference", "egt"): (
        "a945b6094c09df4db0e0605f251f3a28a665f6e5fa615e832c0f996a71f4bd17",
        "3a0732d82cf24bf63fe709883ea9da645f03bd1e6b178ad3ba5142f49110b714"),
    ("two_cell_reference", "ngt"): (
        "2568d135d198b490a8fedfac01e181396505cbeeabec1e61d573326ca89d21db",
        "6a4c81dd8b7e833b7fc9a9e4e376a4d841fa0336bf42252770f33898c6055f94"),
    ("two_cell_reference", "brute-group"): (
        "3069e0836e17d115d10b1da3c7f7574c157fe321c9e1468d14fdf6f2d091cc7c",
        "6a4c81dd8b7e833b7fc9a9e4e376a4d841fa0336bf42252770f33898c6055f94"),
    ("tiny", "brute-global"): (
        "e904870f06515959c071d9aeefe3780fe7291dce66497fa5011d9526ff1779bb",
        "6a4c81dd8b7e833b7fc9a9e4e376a4d841fa0336bf42252770f33898c6055f94"),
}


def csv_digests(stem: str, algorithm: str, out_dir: Path) -> tuple:
    spec = ExperimentSpec(config=load_config(CONFIGS / f"{stem}.cfg"),
                          algorithm=algorithm, n_drops=N_DROPS)
    out = out_dir / f"{stem}_{algorithm}.csv"
    trace = emit_results(run_drops(spec), out)
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(trace.read_bytes()).hexdigest())


def cases() -> list:
    out = [(p.stem, alg) for p in sorted(CONFIGS.glob("*.cfg"))
           for alg in ("egt", "ngt", "brute-group")]
    return out + [("tiny", "brute-global")]


def test_every_shipped_config_is_pinned():
    assert sorted(GOLDEN) == sorted(cases())


@pytest.mark.parametrize("stem,algorithm", sorted(GOLDEN),
                         ids=[f"{s}-{a}" for s, a in sorted(GOLDEN)])
def test_csv_bytes_match_golden(stem, algorithm, tmp_path):
    assert csv_digests(stem, algorithm, tmp_path) == GOLDEN[(stem, algorithm)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for stem, algorithm in cases():
            results, trace = csv_digests(stem, algorithm, Path(tmp))
            print(f'    ("{stem}", "{algorithm}"): (\n'
                  f'        "{results}",\n'
                  f'        "{trace}"),')
