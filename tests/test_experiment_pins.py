"""Every experiment's output, pinned at seed 7 at two scales.

One SHA-256 per experiment over its headers, rows and notes, so a
change that moves any experiment's output fails here.  ``PINS`` is the
default config (2e-5); ``PINS_5X`` is 1e-4, where the clustering sample
is full (400 sessions) and five times the sessions are classified.  A
deliberate change updates the pins in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

#: Digests of the shared ``results`` fixture (seed 7, default config).
PINS = {
    "table_stats": (
        "c0331be39196327e5adb307013016b6cbc64568d59710966bd25cd08d0715439"
    ),
    "fig01": (
        "fcce4daa4e604b46cf62cfbfeccb7f02fbcc80777c98ef80a3828bfc9ab39aef"
    ),
    "fig02": (
        "f43453c899fdf8f40e58c8cac41b03a94614a4c14b43a1e7c7f566caf10844ed"
    ),
    "fig03a": (
        "3958fb2388499d44ed2c8b4a11f110965c40bf17fd07ca027d9a04c8e95f3add"
    ),
    "fig03b": (
        "ed35d182293f566d82f2b0a752aca12d40bb12157f74c70cfc7ea4211e2036ce"
    ),
    "fig04a": (
        "666874ebee1b2ff0ced4e0c775cdb823a91c98573eae1ef1f72f70d70b603de2"
    ),
    "fig04b": (
        "d58b780e5818636bad9daff13e11da5b04a0421a264dd8d2d33b49e96c3ad371"
    ),
    "fig05": (
        "9462f281fba18b7e31d6c611818a3450cb0fdd671555fa4e16367d045d252997"
    ),
    "fig06": (
        "d429e59bc2d75cf5b435bdca1ff5d6243812f5325ec35d78563019dea1a51f8c"
    ),
    "fig07": (
        "6aa5d7685145c04b38d416a1b45ee8e4ac48bb2e90ba965147db33b664bde677"
    ),
    "fig08a": (
        "fed295eab92e03b1bb825452879179cc6b65e7fc7567084d351275d3cc1e574e"
    ),
    "fig08b": (
        "aee64be3a23c8b10c9559f3440c48b85b7446cc7e0fe6cab77a555997ef588f5"
    ),
    "fig09": (
        "d2d5e6020a3aa3d23672a523c0d2911fd3cc2337ccdac481635ecbd461e0d7a7"
    ),
    "fig10": (
        "da188eb6c7caa365b42c19bd29622639ab6cbf326382370cdf0b694a0319c421"
    ),
    "fig11": (
        "15a8ee6b674554450df7cfa1d6507772bbdf490c1418d0605ecfa1fb73db318f"
    ),
    "fig12": (
        "1abe5d70b1dcb9a371f9b6e446f34775bcee38daef83fbafbb1f923660c192d1"
    ),
    "fig13": (
        "ca9b16c2879734b1230b2b12c9d7fe29588387e203773455fd04c41ca6654ee3"
    ),
    "fig14": (
        "9d81acd832b0fcd0aa1157d667da6eb283771ba64319dbfd608f652b0a586b6a"
    ),
    "fig15": (
        "8ca36ede4cad3a9bb786204020906a24fbdc18e9faacf1b324141cd2546ea309"
    ),
    "fig16": (
        "2d9bde8c242d3e7ab42259ca4f3bf9c6b4264539b5f9dd84c64e7f983541fe3f"
    ),
    "fig17": (
        "0a2d37040b3b90d75f964da5e5a8d47d50f5cdab507010bab9e986d5603a0cbe"
    ),
    "table1": (
        "df16707a8b8b3dee7718e87cdbf2a1a5f95274013b306fa709e2aaa0807e9265"
    ),
    "ext_stateful": (
        "af8a948227e0307cb3887a7dbaed5c27c6a8d0151d0c2c03179bde6e072df8d4"
    ),
    "ext_ablation_tokenizer": (
        "c6c8cc0668b18baa20a110d4bdaa07a7b26a6895e022cda26a1b2ef7d8a06e6a"
    ),
    "ext_validation": (
        "ab7a0cd5470b479929b24a8a7867fff9dc392dd130c178b074aba4e53caa6979"
    ),
    "ext_sensor_coverage": (
        "45540c2498d3ace34f229fdb89bab42d180a9b271a1f750ee76ca17ab64d45fe"
    ),
    "ext_baseline_clustering": (
        "4d45aa12924a96b79b4f5fe38ff6e37e8e3ac148411914c885ea78286ee55b12"
    ),
    "ext_ablation_ruleorder": (
        "c717e1a62d20a54f66677db30b15352f1954ceeff8a16403080c8c2587fa1a1c"
    ),
    "ext_ablation_detection": (
        "3b812a98b371d4b22531a21d304492ffdd96e38afb0da9a49ef284d8bb2badf2"
    ),
}

#: Digests of the shared ``results_5x`` fixture (seed 7, scale 1e-4).
#: They were computed before the classifier's label memo and the hoisted
#: silhouette loop, and neither moved any of them.
PINS_5X = {
    "table_stats": (
        "d1eecc7309481c027888a6c9f7b559be2f2415c224e99e3f035918f02409d368"
    ),
    "fig01": (
        "cb3302284f0bba67d5ba658298e90d8cd31ab7187bef36092eb5d714a1bac186"
    ),
    "fig02": (
        "499633bce07e2cad35041a620ab2531a05bc8305d2c41d591874f8e4d9c48c49"
    ),
    "fig03a": (
        "82292faee4f36b545708ba684bd9077cebb7d6f1f5a5cc023d17e4735657524e"
    ),
    "fig03b": (
        "e3b51fff496f6da2d594b63f407f7663707c27d4325417b716e3805971cb88fb"
    ),
    "fig04a": (
        "5c49198daca595eac757ad2bbfe0f08b092fdd06f0ebc6b8a2fab18fdbd5c933"
    ),
    "fig04b": (
        "13150bbf1608f64821b5e5deb3d2681b01e6708ed8320c6d44451e044d3b6276"
    ),
    "fig05": (
        "c5f0d12bb18becf26b68a8a4ce685beb5339cc61240d0c502bb67240a3e60efb"
    ),
    "fig06": (
        "a47704f87c50646956f6917407c415096a5d40bc80262dfda8e56435debee248"
    ),
    "fig07": (
        "ed89acd9dd303c10ef5a89886f75bd92cc5b2e16d8f9e44b576f3380fe8d5486"
    ),
    "fig08a": (
        "9fe3d0f6289ad9b2357e6602eb7b5ae5aa006b9dcf6ab4697c0d58651fef53b1"
    ),
    "fig08b": (
        "45b23a3c89630b01b5d6f868e45205f7223599833582b4f35fd434472e1439b9"
    ),
    "fig09": (
        "b552014b51e9caa48ced46f27f73bdc3260245e272bbddbcfef4463785156d5b"
    ),
    "fig10": (
        "9b147ad4a4abb7e1ee25f4bb43f592d8f7db252e1698613744f3850ad073b476"
    ),
    "fig11": (
        "15a8ee6b674554450df7cfa1d6507772bbdf490c1418d0605ecfa1fb73db318f"
    ),
    "fig12": (
        "292604288a5e3b6a2927568b11bb9e36c26cdd5dc4c8982d743abd4b0546ea47"
    ),
    "fig13": (
        "e9ccc51e6b90d6384c7d7f0d66b86ac8c50f0a2bf9fc2d039ebc8c685b71009d"
    ),
    "fig14": (
        "0be9a0e691f09ecd89849d63cbf8da55656fe9011add8019e7ab8f3223d4c5a8"
    ),
    "fig15": (
        "2c7a02512af4cc2274b4f953691d796d81f7590650cf016ff9e62ee6f5028599"
    ),
    "fig16": (
        "39752d189e7abde3e3d9c9676c3624d979b6f4019b24f37e4c777901a8329e37"
    ),
    "fig17": (
        "dcfc41e6cdfbb1fd953d750ff727c69db57a245d7e5bb640433efd5afa0ccc88"
    ),
    "table1": (
        "eb4bd60cd4961b199e732d5fd1739603d6c56e3f81bed9eb1dad9c6496998b10"
    ),
    "ext_stateful": (
        "af8a948227e0307cb3887a7dbaed5c27c6a8d0151d0c2c03179bde6e072df8d4"
    ),
    "ext_ablation_tokenizer": (
        "58349fc8d8230c183f7011d9bb3620ac254ddd38d4eef4161e8acbd17bc7fdf7"
    ),
    "ext_validation": (
        "e216ea35f59fad3f6064797fdbb12ed93edec6f021f824b68bd59a1d984b3468"
    ),
    "ext_sensor_coverage": (
        "e19aac9b353b61fc981681a642d6c086fd1592ea8fb4cdbd447c712129d95170"
    ),
    "ext_baseline_clustering": (
        "a20e22de6a594aaf2264d8a3ff4112fbebf82c6ef05f96b38d8155efd435d93f"
    ),
    "ext_ablation_ruleorder": (
        "32d03b24c5b89805e68925bb42d4c63742d8fd070a77453a639654030f0a777a"
    ),
    "ext_ablation_detection": (
        "4440e928238f095ed251f4ca5a0d3f718e5bf46ad4c599e2aa272a127f659ccc"
    ),
}


def _canonical(value):
    # ``.12g`` keeps the last-bit differences of Python 3.12's
    # compensated ``sum`` from flipping a pin; only
    # ``ext_ablation_detection`` has raw float cells.
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def experiment_digest(result) -> str:
    payload = json.dumps(
        [result.headers, _canonical(result.rows), result.notes],
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def test_every_experiment_is_pinned(results):
    assert sorted(results) == sorted(PINS)


@pytest.mark.parametrize("experiment_id", list(PINS))
def test_experiment_output_is_pinned(results, experiment_id):
    assert experiment_digest(results[experiment_id]) == PINS[experiment_id]


def test_every_experiment_is_pinned_at_1e4(results_5x):
    assert sorted(results_5x) == sorted(PINS_5X)


@pytest.mark.parametrize("experiment_id", list(PINS_5X))
def test_experiment_output_is_pinned_at_1e4(results_5x, experiment_id):
    assert experiment_digest(results_5x[experiment_id]) == PINS_5X[experiment_id]
