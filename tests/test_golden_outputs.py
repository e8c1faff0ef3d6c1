"""Bundled scenario outputs match their recorded sha256, byte for byte.

The outputs of the bundled scenarios are part of the package's contract:
the CSVs carry full round-trip precision and ``summary.json`` only
deterministic values, so a change to the stepper, the event logic, the
analyses or the writers that moves a single bit shows up here.  The
hashes are the table recorded in CHANGES.md for all 14 scenarios; the
cheap ones (well under a second together) run here, and fig10 covers the
driven ``cell`` column.  The hashes hold for CPython 3.11 on x86-64
Linux; another libm may round ``cmath.sin``/``cos`` differently.
"""
import hashlib

import pytest

from complexpendulum.cli import run_scenario

GOLDEN = {
    "eq10/summary.json": "00dbfa66b420f2cac02121a34c960a296db0300a24bf6f3129c91740e151b22e",
    "eq10/traj_00.csv": "5513d4965a31e9d2da3efe2097db65a09c0ec386ef1ec338c4348c77aff3249e",
    "eq14/summary.json": "c7b706c4cf8d536df385fb6e5de6231e8e685780d2ddcd34e298fe187efa5366",
    "eq14/traj_00.csv": "770ba0f357385a4a5a711231ce0984dea7be9fe8726782a984773495979a5472",
    "fig10/summary.json": "d8e684e7e81dc1c0acdcd965b7fc7030365e20c9157fa5a2f74ec3aee02e263b",
    "fig10/traj_00.csv": "c00112b8c80696d83675b58e45f03cab6182a99cb9b638bd04aa75c76e81907a",
    "fig2/summary.json": "8066dedaa090eb1bb576ba3a94dca40e1c80f400ff18ee65f973f084f68b8ccf",
    "fig2/traj_00.csv": "4c7cf5ffef1eeb105ae01980126a10731b84d87bfb20f8f3c3d51b9d3286ec0b",
    "fig2/traj_01.csv": "9b73b378f6285a10373884353203f7f2b684e2fa3410940f38d6d5facd53171f",
    "fig2/traj_02.csv": "48050627274b5b192e3a2ad694aaf44c8b4c088fca56eeb6671b92c07bd2c52b",
    "fig2/traj_03.csv": "34ac513604b55b282623df7ad1841ea9f91519a60ddeca710a950d9de68a1d56",
    "fig2/traj_04.csv": "2f9df72701f46175edd7e24c472d9a989b0d4bae0b0dec1569f27281fd09dc70",
    "fig3/summary.json": "eac1ae13af8bca6790ceb0ee8a13be1c0a405e53b0f23edadb1222544edd0641",
    "fig3/traj_00.csv": "308b6d052536642786379b4da72550ae21e207c20d2fa0a38f06468cd38acf12",
    "fig3/traj_01.csv": "6ae06ba13b2b098fe82343e46aaeaa08bff95e57e3f3c2261d9090de6ea2ff7c",
    "fig3/traj_02.csv": "8233fbd272c70d520ad86a61ad35b70039c3655233cdf099a85bd35df6919200",
    "fig3/traj_03.csv": "ea5765a74047bd3024e167b343372f729c94b20eb131d3c239d9cf3d9941d076",
    "fig3/traj_04.csv": "d20e6efc213b458a58d0a15ffb3b798131fb26c5799192feda0b2c405ced4e5a",
    "fig5/summary.json": "562391088fb29a1625b0636f695d9e41ec095ae1e6415ddf12ce15960aeda547",
    "fig5/traj_00.csv": "fd18e9e09dd4638f91b4e4c0557d626fe6819e7ea3eb5f0d758445fbe5382f20",
    "fig5/traj_01.csv": "8eb26d0c5909f99fd91c00efec73c0df53929b95c721cb1adf95c225a4d7faf0",
    "fig5/traj_02.csv": "165b476eb4e52406b52aae7f048c413bfabde30a8d3110b2abe33d61ead7d2a9",
    "fig5/traj_03.csv": "268ef8460d0383fa87b5844ad1c7ddcc70c09a3d78250f996aabb93a44811802",
    "fig5/traj_04.csv": "7e9b6a5db30ff5fc3a04f492467bad4f5b6972f4efd79cb434301295793b135a",
    "fig6/summary.json": "91afdaa08d5734a06d05c306b6a9f575092e5de4cf8c200393fd7c10d68ff866",
    "fig6/traj_00.csv": "8ae24df033e2a3c08e09069e9322647f608e7a75b0572da1a05d367fa0822a7b",
    "fig6/traj_01.csv": "5c18e138cd347e5e5f22ab318d88a6c27139b2698b280cd1f1ef19f3879af3f2",
    "fig6/traj_02.csv": "a197e467c0a3666d519eda93884376593c0ebb57297e6c30395f75539499c83e",
    "fig6/traj_03.csv": "aacadfb99ea814d49b1a2e1a3fa828d27f626669d75e848befc79ab836fec1e7",
    "period-e0/summary.json": "bd98090c49b7a1a9708e1a89bbae8ee5f3acd64e972d0ddfb9947ac2c1a6979a",
    "period-e0/traj_00.csv": "4c7cf5ffef1eeb105ae01980126a10731b84d87bfb20f8f3c3d51b9d3286ec0b",
    "period-e0/traj_01.csv": "9b73b378f6285a10373884353203f7f2b684e2fa3410940f38d6d5facd53171f",
    "period-e0/traj_02.csv": "48050627274b5b192e3a2ad694aaf44c8b4c088fca56eeb6671b92c07bd2c52b",
    "period-e0/traj_03.csv": "34ac513604b55b282623df7ad1841ea9f91519a60ddeca710a950d9de68a1d56",
    "period-e0/traj_04.csv": "2f9df72701f46175edd7e24c472d9a989b0d4bae0b0dec1569f27281fd09dc70",
}

SCENARIOS = sorted({name.split("/")[0] for name in GOLDEN})


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_outputs_match_recorded_hashes(tmp_path, scenario):
    out = tmp_path / scenario
    assert run_scenario(scenario, out=out, quiet=True) == 0
    got = {f"{scenario}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    want = {name: digest for name, digest in GOLDEN.items() if name.startswith(scenario + "/")}
    assert got == want
