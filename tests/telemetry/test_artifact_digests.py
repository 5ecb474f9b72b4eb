"""Literal sha-256 digests of every artifact an observed run produces.

The five sinks (event ring, interval sampler, metrics registry, cycle
attributor, pipeline tracer) record on the engine's side and decode on the
reader's side; what a reader gets must not depend on how a sink stores it.
These literals were recorded on the commit *before* the sinks were changed
to record tuples and bound cells, over seven configs: the benchmark's own
``virec_observed`` config at two seeds, a 500-event / 64-record ring that
wraps (with ``verbose_hits``, ``by_kind``, ``by_pc`` and an interval that
does not divide the run), banked x 2 cores, fgmt, swctx, and ``dead-elide``
at 40 % context.  The ``fgmt`` block was re-recorded when the barrel core's
reference body started dispatching the ``telemetry``, ``metrics`` and
``tracer`` slots (it had dispatched three of the six): the eleven event,
interval, metrics and tracer artifacts moved; cycles, stats and the
attribution artifacts did not.

A literal changes only when the bytes of an artifact change.  Regenerate
with ``PYTHONPATH=src python -m tests.telemetry.test_artifact_digests`` —
and say why in the commit.
"""

import hashlib
import json

import pytest

from repro.system import RunConfig, run_config

from ..core.test_engine_equivalence import stats_digest

_ALL = dict(telemetry={"events": True, "interval": 100,
                       "pipeline_trace": True},
            metrics=True, profile=True)
_BENCH = dict(workload="gather", core_type="virec", context_fraction=0.8,
              n_per_thread=352, **_ALL)

CONFIGS = {
    "bench/seed7": RunConfig(seed=7, **_BENCH),
    "bench/seed11": RunConfig(seed=11, **_BENCH),
    "wrapped-ring": RunConfig(seed=7, **{
        **_BENCH,
        "telemetry": {"events": True, "interval": 37, "pipeline_trace": True,
                      "pipeline_trace_limit": 64, "max_events": 500,
                      "verbose_hits": True},
        "metrics": {"by_kind": True},
        "profile": {"by_pc": True}}),
    "banked-2core": RunConfig(workload="gather", core_type="banked",
                              n_cores=2, n_per_thread=32, **_ALL),
    "fgmt": RunConfig(workload="gather", core_type="fgmt", n_per_thread=32,
                      **_ALL),
    "swctx": RunConfig(workload="gather", core_type="swctx", n_per_thread=32,
                       **_ALL),
    "dead-elide-40": RunConfig(workload="gather", core_type="virec",
                               context_fraction=0.4, policy="dead-elide",
                               n_per_thread=32, **_ALL),
}


def _sha(value) -> str:
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True)
    return hashlib.sha256(value.encode()).hexdigest()


def artifacts(result) -> dict:
    """``{artifact name: sha-256}`` of everything the run's sessions export."""
    tel, met, prof = result.telemetry, result.metrics, result.profile
    return {
        "cycles": result.cycles,
        "stats": stats_digest(result),
        "chrome_trace": _sha(tel.chrome_trace({"label": "golden"})),
        "events": _sha(tel.events.events),
        "counts": _sha(tel.events.counts),
        "dropped": tel.events.dropped,
        "len": len(tel.events),
        "metrics_jsonl": _sha(tel.metrics_jsonl()),
        "report": _sha(tel.report()),
        "probe_summaries": _sha([ct.vrmu_probe.summary() for ct in tel.cores
                                 if ct.vrmu_probe is not None]),
        "tracer_format": _sha([ct.tracer.format() for ct in tel.cores]),
        "tracer_format_last7": _sha([ct.tracer.format(last=7)
                                     for ct in tel.cores]),
        "stall_summary": _sha([ct.tracer.stall_summary()
                               for ct in tel.cores]),
        "tracer_dropped": [ct.tracer.dropped for ct in tel.cores],
        "metrics_snapshot": _sha(met.snapshot()),
        "metrics_text": _sha(met.render_text()),
        "profile_snapshot": _sha(prof.snapshot()),
        "profile_collapsed": _sha(prof.collapsed()),
    }


GOLDEN = {
    "bench/seed7": {
        "chrome_trace":
            "a66e930219beae6a1ac968a7842d06cf13b4faad4d3c29268f2da3e89a7ad917",
        "counts":
            "08617854c7ed827a5caca20fdfda1cc18b3a46116057b0ae3c0ef89b5c63470d",
        "cycles": 67736,
        "dropped": 0,
        "events":
            "56ea1d8936c44ddaf62a698c69faf650970bee5150bce11384f709a276386406",
        "len": 43585,
        "metrics_jsonl":
            "28e451aa85b584caa6c51c7e0e27d823a7a6ed42392ff5e520f8a86bc056e397",
        "metrics_snapshot":
            "32e7da8495bddf2f9fb62708692a17bbeb68ec8447237e8bdf50bd20a23dec0f",
        "metrics_text":
            "5c43fc1613ea3e8bf81a1ddd493fe4e83ce443c326fddb6063537dcc641de122",
        "probe_summaries":
            "444fdce776101c2e38b8489f21af7cf64d0517be3f377a7f145456532c0e5ff5",
        "profile_collapsed":
            "c6bba155dfb728c8c0c2e4bcbcdaf1c4abb5deb8fde751ac6bd8b2f8f8459e2e",
        "profile_snapshot":
            "33791f8b8583f9e861a08b0fc4ad94797ba93e0bfabc57ecad66f5570f90dc16",
        "report":
            "1722961720f3a99befb08e5ac57a867c5f23d42bf020f745df93d854d46e6a35",
        "stall_summary":
            "320819fdb4f4edfcc9dca7522361809d5b2c254ad41ba701b4d2399cbe1ed1cf",
        "stats":
            "bb0932e41c53983071dcb36f47498e5234f6e904260b0bfcfad35ac62ae60456",
        "tracer_dropped": [6944],
        "tracer_format":
            "f6d6826f50d03fa4c1fde6668ab552dcfd29bb264abe40df28f32e8185e92dc6",
        "tracer_format_last7":
            "643246dc7e8a2bcc403de6010e30619ac7ec3a9da7637e9cc400fd09c2bd90ca",
    },
    "bench/seed11": {
        "chrome_trace":
            "57144bb116927a25310eeba1ad407bb6356a492ef7a6f1e04e16d3a5481dd748",
        "counts":
            "45a82817d9faf092938742816fc996c3d7f9a2b303caf5d294f1b75776b1200f",
        "cycles": 69312,
        "dropped": 0,
        "events":
            "2c341e2d4452770694efe279d70d34319b8268941e094bbbbd5ef60f7dd88045",
        "len": 43137,
        "metrics_jsonl":
            "d402d61a6931648c320c6fe0ad83ea4dfa7ff421885d8b6a3e5fc8265367b963",
        "metrics_snapshot":
            "e435fce5cdfaf9c1c3f50005cca22873027432f3f4ffc1f0dc4030f3bb153c54",
        "metrics_text":
            "60136833bd678b9d791f4111e665fb78e6b00da8b67c028f32a933519db72e4b",
        "probe_summaries":
            "2e254db0b11b369d2f4d884da59bd1da3d730c1af6e80f80da731e047c4c7b18",
        "profile_collapsed":
            "713e4384c997a5b72a6d1f45fe0f0f05592dc60bf7ff0fbdcd525c8918b60b65",
        "profile_snapshot":
            "09bb7793050f83dae9a2482196f61215376e20d94611bf43d18298e005ae412b",
        "report":
            "42e285b1d3e96f2291af04a82c428df263eca5eccd0ba6895006785d12aab46e",
        "stall_summary":
            "1893d8a64bdaa22b19656e5cc5ab769bae3674540428be26fac334d34ca5f867",
        "stats":
            "724340ceecf0b8a2441dc83e51f12ad5970c8931e70e45bfc654029d60abe1da",
        "tracer_dropped": [6944],
        "tracer_format":
            "82631c678512b0a23b7489c27f6bd36c744127bffc56ad45e677319cc8ba3a03",
        "tracer_format_last7":
            "3b1532360933ff7dc53d5f42e82b48be5a8fc096127514627426d7908d11930c",
    },
    "wrapped-ring": {
        "chrome_trace":
            "52eb391134c0f359f2b40506bbcf5d90dffa81df5fe3dac267c965a849e9e465",
        "counts":
            "2fd45f701952b98735ec13226475b3b08cc3fc84856e7f17cfd8c904e99518e9",
        "cycles": 67736,
        "dropped": 80998,
        "events":
            "2e8252119eef8b56c877bda4886415a150f2452b848790ad02df29795c824c66",
        "len": 500,
        "metrics_jsonl":
            "052cc886288e552f88d8fdcf3aef7a59cc121d994a47f589fe5f08e1c7d7fac1",
        "metrics_snapshot":
            "845d359ccf5681d977e4ecf2e0282b7710f409db71eeafbe79b7dc69784e3216",
        "metrics_text":
            "b0d91d44c92ee246f674f3128458e79dc941016ceb2aa03b80f553070d3866f1",
        "probe_summaries":
            "444fdce776101c2e38b8489f21af7cf64d0517be3f377a7f145456532c0e5ff5",
        "profile_collapsed":
            "c6bba155dfb728c8c0c2e4bcbcdaf1c4abb5deb8fde751ac6bd8b2f8f8459e2e",
        "profile_snapshot":
            "33791f8b8583f9e861a08b0fc4ad94797ba93e0bfabc57ecad66f5570f90dc16",
        "report":
            "89981cdaa112fedd818ae2bac457da8f283f43d651c572f00e767941bf5e1295",
        "stall_summary":
            "4b9f5cdcb1db0255a200b2b5e8ec4a7288d870375904e23466f87a0082a948e5",
        "stats":
            "bb0932e41c53983071dcb36f47498e5234f6e904260b0bfcfad35ac62ae60456",
        "tracer_dropped": [16880],
        "tracer_format":
            "afc09bb44b01a2fa3b1f9c6306a5ffcc4eeeb795039dddb406cd4328e6917d56",
        "tracer_format_last7":
            "5a3ad22b6691dfa44f0cde6f345f558876e84926eed57addf6183731b8cbc9db",
    },
    "banked-2core": {
        "chrome_trace":
            "da7b0f8dc4d650fca23c205231a22867e5582c2d6c402fd857239258f99b5a4c",
        "counts":
            "f14a541a657011e7bc136a4e31174552d4bd2cf5b428b260c7f1ed1b89ec008f",
        "cycles": 5803,
        "dropped": 0,
        "events":
            "edfc48bfe1228781132834b1e9ababda8c8409650d86afaf1348ae07bc20b57b",
        "len": 2000,
        "metrics_jsonl":
            "32fc3baba16cac4e268caadd649ca7f8542aabd07f9fd32d16f84497e4f255b0",
        "metrics_snapshot":
            "629b3f2cbfe3e769b5dbc62ad29e847274c6fe8bbebe121a7063d4eedf0dfe03",
        "metrics_text":
            "63ef1f1fee2de45bc7f4692199620dacc817fcecc5304ac98e4d78bcb20d5566",
        "probe_summaries":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "profile_collapsed":
            "08195fecb073577aab71eeafd7525de3909f9cd7bea7462450e97fd02c67250b",
        "profile_snapshot":
            "41761714a0ed635f601bf5599b000a68d80059d4cb7783989ff5fe70a7e026e1",
        "report":
            "bc105f1113eb379c305198fd70329de01f0e4f12aa24df2d2f8a952177747f02",
        "stall_summary":
            "a1815a0cca80735fd2b331c8e2f9d50e531d98c77dc384964f8f6cce984a3cab",
        "stats":
            "c52c5c262278e422e2b8b9bdfaf27b65a42cd8bbc62914d3147bcab0995e3f10",
        "tracer_dropped": [0, 0],
        "tracer_format":
            "29dc0abdc8b3b6d5025b7fef2798525afd5bf769127411892e22cd9982c4de23",
        "tracer_format_last7":
            "72d162d41e72ca496d715eaab024d1f796849b1b9005d6ef2f0aadc06d3e4ba5",
    },
    "fgmt": {
        "chrome_trace":
            "d3a2bbdd2f37f15ea6d5382cb2dad9769d147bcf200a4cef69017c0109189287",
        "counts":
            "c791a7c4bbc9f3aae2d9a1c5724383deeb47637eb49459622767f06c5567ca02",
        "cycles": 2698,
        "dropped": 0,
        "events":
            "ec7445b5e8ff836ed2d0ed3a29ddb699c8f656a53cd32aa19c5090fe8065450d",
        "len": 290,
        "metrics_jsonl":
            "0befbc1ad3a08d96c81df1d2a3e975da469a2aad258ac09f5b15604cd0389c0f",
        "metrics_snapshot":
            "ab736b9d0742959f88dfcca0fe6ad90a1c99f24f665dc18714f18fd50f666825",
        "metrics_text":
            "7b692c261d25f52ee61557083f7ac92eef40bb6d4597a7aa69f5d2740c3f6161",
        "probe_summaries":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "profile_collapsed":
            "28ffef6c32f0b6162b7dd4023569988281a09581d7fdc9baf5aa2f7bb5b0963e",
        "profile_snapshot":
            "8ca45fe52a42aec519794801127ae1a2f57fe4781bfd3e453c16ae4e186fac43",
        "report":
            "382158db3d7f90022671b4f63d41013bb71cc1926f2ee4ebfc722165e25a8459",
        "stall_summary":
            "b50dabffd5874514c136eef8b25d79d230b87c9644b30c74f62bfcdba3403201",
        "stats":
            "d14ee4db03823cf67d221f798d11ce04f6ccaf73003e27861036882f477e891e",
        "tracer_dropped": [0],
        "tracer_format":
            "e8ca0a1f8daab642b92fac2024f0b7334d81dfd77c2466c9fd9f5b324e30daf4",
        "tracer_format_last7":
            "c2529564b8d41765cbf88c0146eebdd556b0cec61a513a6dec7f003222df085a",
    },
    "swctx": {
        "chrome_trace":
            "490c9b9950ae44e9cc1c351bac18c814f126fa5529140a1c970cbe027477549e",
        "counts":
            "2bddc798665d029681ae7dda095aa7ec24d2e12351cca63c35ee1812b7adc80a",
        "cycles": 10380,
        "dropped": 0,
        "events":
            "b96ca1e1454b058b58a2c01b38716b3e688fa43acd8a6ae7861262fb546517a3",
        "len": 1554,
        "metrics_jsonl":
            "89c371ccbc94158cadee2b3648e1eedc9d3050a8e5af703d1356b78c2da31d64",
        "metrics_snapshot":
            "523a9eabaf1f759440f3d903b6e5e87dbd76b53f3266926995ab9db3f7acdd50",
        "metrics_text":
            "e30cd362f133d260be4582192ab01395201d0cbeaef54533557fd2c94f7841d8",
        "probe_summaries":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "profile_collapsed":
            "336523e04c0a425359cfb3a46fbf1490cb82278492ea988292564def91402c81",
        "profile_snapshot":
            "f4970067a78db75bebe64f0a443f74ad8c49c0105bbd223015856beeba7a681c",
        "report":
            "54c6719070d71c0a97df1dd8944fb105f0da38f69c533e4229f8d82a246bcee6",
        "stall_summary":
            "2cb09f0b870de53254fedf1d2db756e581461b32192bdf4691a237e9786fb3a5",
        "stats":
            "e31c83528594f345bea0115c19834f9ec433ae9def96e6fccd5e5393c5487599",
        "tracer_dropped": [0],
        "tracer_format":
            "577b4a5ce61b080404363ebf8c12af6cd6ccbc033b89029aa34c22bb2685984f",
        "tracer_format_last7":
            "d098594066ad601ac75ff5cfbc8d013961d46a6276543586690afe8f0dabed97",
    },
    "dead-elide-40": {
        "chrome_trace":
            "b5c7f81d0381581d5a4be168b76783fcacad250d8dbdd7569e763cbda0a7d416",
        "counts":
            "b2b0b19ce6a4e7832fcec4f337e28e135d1580a319ead76b9b3a61ae3747ae9b",
        "cycles": 7405,
        "dropped": 0,
        "events":
            "db00c42347c071981766d0ae8c199ea8f2c74ad57d61a6e2e6cf225c5a692708",
        "len": 10885,
        "metrics_jsonl":
            "de12c61272992e140451615f2c2cab731edd8ab0d526b24384129c1046fb73b7",
        "metrics_snapshot":
            "b2af4dd9ca95cb3dba2f543bb228501456af7211c4c0dbb4e2f6e8571013ba31",
        "metrics_text":
            "dae5c8a46d9a6b02fd9812edb8bf308a010f3de9d8a0dbeef5d7ba4ae4fae81e",
        "probe_summaries":
            "585d9c2e3653ba9e4a9eb9335ed4c715fe64bc2603084c9cb40e61df8b613915",
        "profile_collapsed":
            "b67b893b10c539920282add86ac8fe052df305b0b192ebf73674ac75009d7a56",
        "profile_snapshot":
            "c0e3433086e310a69f9176e6e4ad5fcfd8c0ae990552be7e033dfa603ee5032e",
        "report":
            "d77c938287c89e4999190f552a7a3f7c8ccf8b7bc54ac7681133115a2a6bf595",
        "stall_summary":
            "f2f790cb4bd8e89b6e4568867b272586162992d08e4b9f62a259be6752d9f284",
        "stats":
            "906fc74841034e684f3b7fa92e98647214d962654dd45130d7d4815f1c87a4fa",
        "tracer_dropped": [0],
        "tracer_format":
            "ac671527189731f5f84c437912957125408ea0795d28e9fe273f262b359b1db4",
        "tracer_format_last7":
            "40ffe40422eb99feeda04fee58f12f2b0aadbb4e9ae2e6895a6950d9785e7d9e",
    },
}


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_artifacts_match_the_literals(key):
    assert artifacts(run_config(CONFIGS[key])) == GOLDEN[key]


def test_the_wrapped_config_wraps_both_rings():
    # the literals pin nothing about a wrap unless one happens
    golden = GOLDEN["wrapped-ring"]
    assert golden["dropped"] > 50_000 and golden["len"] == 500
    assert all(n > 0 for n in golden["tracer_dropped"])


if __name__ == "__main__":
    import pprint
    pprint.pprint({key: artifacts(run_config(cfg))
                   for key, cfg in CONFIGS.items()}, width=79)
