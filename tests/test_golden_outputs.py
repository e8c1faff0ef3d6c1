"""Bundled scenario outputs match their recorded sha256, byte for byte.

The outputs of the bundled scenarios are part of the package's contract:
the CSVs carry full round-trip precision and ``summary.json`` only
deterministic values, so a change to the stepper, the event logic, the
analyses or the writers that moves a single bit shows up here.  The
hashes are the table recorded in CHANGES.md, but for fig5/summary.json,
whose escaping start's closure ``return_distance`` is now written as
``null`` where it was the non-JSON ``Infinity``; all 14 scenarios (59 files)
run here twice: with the compiled stepper, energy column and CSV
formatter (about 2 s), and with the library patched out so that the
Python stepping loop, energy column and writer, the references, make
every byte (about 4 s).  Each is also rewritten over its own files, on
both formatters, and a shorter run over a full one's leaves no stale
tail.  fig10-12
cover the driven ``cell`` column, and fig9 refines and rejects a closure
candidate inside its main run.  The hashes hold for CPython 3.11 on x86-64 Linux;
another libm may round ``cmath.sin``/``cos`` differently.

The hashes cannot tell which path wrote the bytes, so the default-path
run also watches every way back to Python: with the library built, no
scenario may leave a step, a landing run, an event, an integral, a
branch guide or an energy row to the Python code, and no main run may
step past its event.
"""
import collections
import hashlib
import sys

import pytest

from complexpendulum import _dopri5, integrator, quadrature
from complexpendulum.cli import run_scenario

GOLDEN = {
    "eq10/summary.json": "00dbfa66b420f2cac02121a34c960a296db0300a24bf6f3129c91740e151b22e",
    "eq10/traj_00.csv": "5513d4965a31e9d2da3efe2097db65a09c0ec386ef1ec338c4348c77aff3249e",
    "eq14/summary.json": "c7b706c4cf8d536df385fb6e5de6231e8e685780d2ddcd34e298fe187efa5366",
    "eq14/traj_00.csv": "770ba0f357385a4a5a711231ce0984dea7be9fe8726782a984773495979a5472",
    "fig10/summary.json": "d8e684e7e81dc1c0acdcd965b7fc7030365e20c9157fa5a2f74ec3aee02e263b",
    "fig10/traj_00.csv": "c00112b8c80696d83675b58e45f03cab6182a99cb9b638bd04aa75c76e81907a",
    "fig11/summary.json": "44edcbca48a2a20b4a606a6438b25efcaea5183390f0bbccccfdbe78862ef65f",
    "fig11/traj_00.csv": "327ac2573b3de44bb0a8ddd9f6dfb011f7110ef33138d009c7f189cae0d25d9d",
    "fig12/summary.json": "a08622441f464d0d1637edd55af4b4192004d1b069aca6270e49850f7322de89",
    "fig12/traj_00.csv": "bbc7d2bd278f43c9fb3589378e75708b58e1c16f703b8353b2b1045049d438c7",
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
    "fig4/summary.json": "1f4caebbde63d354f8a9b4b367c1fad58eb071007068a7039bf5d6d1d6be7549",
    "fig4/traj_00.csv": "efdc35850b1973e477f6a573fae6ea49ba04f00813f88017ade7a4bce1e35649",
    "fig4/traj_01.csv": "41d3687b05cf6e7ec93bbf06339736651bf0d4b4392a7b6b33b69e7b0ccba82e",
    "fig4/traj_02.csv": "39ed422cafe0417e51b5d9cc770dd182f56495a4d00896b1add5f94eb8237bdd",
    "fig4/traj_03.csv": "de4443f0bfe9d466536c06b6a6678f8993badd5fa033f23dc4e5f174b7c8205f",
    "fig4/traj_04.csv": "5513d4965a31e9d2da3efe2097db65a09c0ec386ef1ec338c4348c77aff3249e",
    "fig5/summary.json": "73d1985ca5ea30b8975e73e6fe1067072d382e27efa3d8242915459f5c6caae8",
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
    "fig7/summary.json": "621faaadd46b41d16979e2c667e84af40b595ee4c5e1c040c4509d0339330312",
    "fig7/traj_00.csv": "6ed59866eb791b79e789c07390c87c7b07cc224b1d5b2b740f5b1a3a10251f2d",
    "fig7/traj_01.csv": "053c5ea7ca8ff48f9dd621c9d2fa25fe860bdb21c435dd2792c4fbd3943bc477",
    "fig7/traj_02.csv": "6bb4eb2abc27843207f22f143c82db3307cdf14797df4336571cdc182f478d67",
    "fig7/traj_03.csv": "3be3a692f6f06e489781eee00b7bf2429defc4c8d4eb49a93ca8de70f6885c1d",
    "fig7/traj_04.csv": "770ba0f357385a4a5a711231ce0984dea7be9fe8726782a984773495979a5472",
    "fig8/summary.json": "f630ebee95fc2bff618932c17fd3630273ff5aed611705517818a47a32833ec3",
    "fig8/traj_00.csv": "cd8473b6c7998bfadfaae600edfd88935001c2700cd17d2b9a4c62bd02525606",
    "fig8/traj_01.csv": "7c945a4e2ee1c0e909258d604da3c1deb9b5c2257cd05fe657c28b12f9b26728",
    "fig8/traj_02.csv": "5bc31546ea294e7e96f6ad5f6b128e439499710f433db802b22fd7ba01e7521e",
    "fig8/traj_03.csv": "672de36e5d3348d5ce0bf0eef1fa241c5c2b1e550e49010b30f32876536320b1",
    "fig8/traj_04.csv": "84e12a1514ca30abfad4ffde057ee66f05e454ad1a95a09c552c8b82dc0d2158",
    "fig9/summary.json": "c961391ea7095a0e103d68271db58b59a1f50c2e5879d80dd655b15f1d81b644",
    "fig9/traj_00.csv": "bd8bb324402ff7e6632da41a10e7b8de037fb4dbbe2cfe11da3e252bf5c8f7db",
    "period-e0/summary.json": "bd98090c49b7a1a9708e1a89bbae8ee5f3acd64e972d0ddfb9947ac2c1a6979a",
    "period-e0/traj_00.csv": "4c7cf5ffef1eeb105ae01980126a10731b84d87bfb20f8f3c3d51b9d3286ec0b",
    "period-e0/traj_01.csv": "9b73b378f6285a10373884353203f7f2b684e2fa3410940f38d6d5facd53171f",
    "period-e0/traj_02.csv": "48050627274b5b192e3a2ad694aaf44c8b4c088fca56eeb6671b92c07bd2c52b",
    "period-e0/traj_03.csv": "34ac513604b55b282623df7ad1841ea9f91519a60ddeca710a950d9de68a1d56",
    "period-e0/traj_04.csv": "2f9df72701f46175edd7e24c472d9a989b0d4bae0b0dec1569f27281fd09dc70",
}

SCENARIOS = sorted({name.split("/")[0] for name in GOLDEN})
# the scenarios whose analyses include a quadrature integral
QUADRATURE_SCENARIOS = {"eq10", "eq14", "period-e0", "fig6"}


def assert_outputs_match(tmp_path, scenario):
    out = tmp_path / scenario
    assert run_scenario(scenario, out=out, quiet=True) == 0
    got = {f"{scenario}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    want = {name: digest for name, digest in GOLDEN.items() if name.startswith(scenario + "/")}
    assert got == want


def watch_fallbacks(monkeypatch):
    """Counts of the library's calls and of the work it left to Python:
    hand-backs of ``_dopri5.steps``, runs started in Python (its
    ``_initial_step``) and steps of the Python loop (its ``_next_h`` and
    ``_reject_h``), None from the rowless landing call ``_dopri5.land``
    or from ``_dopri5.operation``, branch guides built in Python
    (``quadrature._guide``), and energy rows ``_dopri5.energy_columns``
    did not fill; and for ``integrate``'s events, event polishing in
    Python (``locate_return``, ``_locate_escape``) and landing runs made
    inside ``integrate``, and the rows a kernel run yielded past what its
    trajectory keeps (the start aside), that is steps taken past its
    event.  An event the kernel does not polish is a hand-back.  The
    polishing spies are declared mirrored (``integrator._MIRRORED``): they
    pass each call on, so the kernel still polishes in their place."""
    calls, fallbacks = collections.Counter(), collections.Counter()
    steps, energy_columns = _dopri5.steps, _dopri5.energy_columns

    def steps_spy(*args):
        calls["steps"] += 1
        gen = steps(*args)
        try:
            while True:
                block = next(gen)
                calls["rows yielded"] += len(block[0])
                yield block
        except StopIteration as stop:
            if not isinstance(stop.value, str):
                fallbacks["steps hand-back"] += 1
            return stop.value

    class Kept(integrator.Trajectory):
        def __init__(self, t, x, p, termination="", model=None):
            super().__init__(t, x, p, termination, model)
            calls["rows kept"] += len(self) - 1  # the start is no step

    def energy_spy(model, x, p, *with_scale):
        calls["energy_columns"] += 1
        h, scale, n = energy_columns(model, x, p, *with_scale)
        fallbacks["energy rows"] += len(x) - n
        return h, scale, n

    def declined(name):
        original = getattr(_dopri5, name)

        def spy(*args):
            calls[name] += 1
            result = original(*args)
            fallbacks[name] += result is None
            fallbacks[f"{name} inside integrate"] += inside_integrate()
            return result

        return spy

    def inside_integrate():
        frame = sys._getframe()
        while frame is not None and frame.f_code is not integrate_code:
            frame = frame.f_back
        return frame is not None

    integrate_code = integrator.integrate.__code__

    def in_python(module, name):
        original = getattr(module, name)

        def spy(*args):
            fallbacks[name] += 1
            return original(*args)

        return spy

    def operation_spy(model, call, nodes=None):
        calls["integral operation"] += call[0] in (_dopri5.OP_REAL_FORM, _dopri5.OP_ESCAPE, _dopri5.OP_CONTOUR)
        result = operation(model, call, nodes)
        fallbacks["operation"] += result is None
        return result

    operation = _dopri5.operation
    monkeypatch.setattr(_dopri5, "operation", operation_spy)
    monkeypatch.setattr(_dopri5, "steps", steps_spy)
    monkeypatch.setattr(_dopri5, "energy_columns", energy_spy)
    monkeypatch.setattr(_dopri5, "land", declined("land"))
    monkeypatch.setattr(integrator, "Trajectory", Kept)
    python_loop = [(integrator, name) for name in ("_initial_step", "_next_h", "_reject_h")]
    polishing = [(integrator, name) for name in ("locate_return", "_locate_escape")]
    for module, name in [*python_loop, *polishing, (quadrature, "_guide")]:
        monkeypatch.setattr(module, name, in_python(module, name))
    monkeypatch.setattr(integrator, "_MIRRORED", (integrator.locate_return, integrator._locate_escape, integrator._advance))
    return calls, fallbacks


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_outputs_match_recorded_hashes(monkeypatch, tmp_path, scenario):
    calls, fallbacks = watch_fallbacks(monkeypatch)
    assert_outputs_match(tmp_path, scenario)
    if _dopri5._library() is not None:
        assert calls["steps"] > 0 and calls["energy_columns"] > 0
        assert (calls["integral operation"] > 0) == (scenario in QUADRATURE_SCENARIOS)
        assert calls["rows yielded"] == calls["rows kept"]
        assert +fallbacks == {}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_python_references_match_recorded_hashes(monkeypatch, tmp_path, scenario):
    monkeypatch.setattr(_dopri5, "model_params", lambda model: None)
    monkeypatch.setattr(_dopri5, "csv_formatter", lambda: None)
    assert_outputs_match(tmp_path, scenario)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_outputs_rewritten_over_themselves_match_recorded_hashes(monkeypatch, tmp_path, scenario):
    """A second run into the same directory, as the CLI's default
    ``out/<name>`` makes it, rewrites every file to the same bytes: the
    compiled formatter over its own files, the Python formatter over
    those, and the compiled one again."""
    assert_outputs_match(tmp_path, scenario)
    with monkeypatch.context() as m:
        m.setattr(_dopri5, "csv_formatter", lambda: None)
        assert_outputs_match(tmp_path, scenario)
    assert_outputs_match(tmp_path, scenario)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_a_shorter_rerun_leaves_no_stale_tail(tmp_path, scenario):
    """A run with a shorter horizon over a full run's files writes what it
    writes into an empty directory, in every CSV and in summary.json."""
    over, fresh = tmp_path / "over", tmp_path / "fresh"
    assert run_scenario(scenario, out=over, quiet=True) == 0
    before = {f.name: f.stat().st_size for f in over.iterdir()}
    assert run_scenario(scenario, out=over, horizon=0.5, quiet=True) == 0
    assert run_scenario(scenario, out=fresh, horizon=0.5, quiet=True) == 0
    after = {f.name: f.read_bytes() for f in over.iterdir()}
    assert after == {f.name: f.read_bytes() for f in fresh.iterdir()}
    assert any(len(after[name]) < size for name, size in before.items() if name.endswith(".csv"))
