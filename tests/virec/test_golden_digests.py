"""Literal stats digests of the VRMU's behaviour, recorded before the
flat-int rebuild of ``repro/virec`` (tag store, policies, VRMU, rollback).

The engine-equivalence suite compares the step table with the interpreted
oracle, and both share the one VRMU — so it cannot see a VRMU behaviour
change.
These literals can: every registered policy at 40 % and 100 % context on
gather and spmv, the NSF baseline, and the two future-work knobs that only
``ViReCConfig`` reaches (``group_evict``, ``context_prefetch``).  A digest
covers cycles, instructions, IPC, RF hit rate and every counter of the run.

A literal changes only when simulated behaviour changes.  Regenerate one by
running its case and pasting the digest — and say why in the commit.
"""

import hashlib
import json

import pytest

from repro.system import RunConfig, run_config
from repro.virec import POLICIES, ViReCConfig, ViReCCore

from ..core.test_engine_equivalence import stats_digest
from ..helpers import build_gather_core

#: elements per thread: a few hundred to a few thousand VRMU accesses each
N_PER_THREAD = {"gather": 24, "spmv": 4}

ALL_POLICIES = ("plru", "lru", "mrt-plru", "mrt-lru", "lrc", "dead-first",
                "dead-elide", "srrip", "random")


def _config_digest(workload, core_type, policy, fraction):
    return stats_digest(run_config(RunConfig(
        workload=workload, core_type=core_type, n_threads=8,
        n_per_thread=N_PER_THREAD[workload], context_fraction=fraction,
        policy=policy)))


def _core_digest(rf_size=29, **virec_kw):
    """Digest of a directly built gather core (ViReCConfig-only knobs)."""
    core, *_ = build_gather_core(
        ViReCCore, n_threads=8, n=192,
        virec=ViReCConfig(rf_size=rf_size, **virec_kw))
    blob = json.dumps(sorted(core.run().flat()), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def cases():
    """``(key, thunk)`` per golden entry, in table order."""
    for workload in ("gather", "spmv"):
        for policy in ALL_POLICIES:
            for fraction in (0.4, 1.0):
                yield (f"{workload}/virec/{policy}/{fraction}",
                       lambda w=workload, p=policy, f=fraction:
                       _config_digest(w, "virec", p, f))
        yield (f"{workload}/nsf/plru/0.4",
               lambda w=workload: _config_digest(w, "nsf", "plru", 0.4))
    yield "gather/core/group_evict=2", lambda: _core_digest(group_evict=2)
    yield ("gather/core/context_prefetch",
           lambda: _core_digest(context_prefetch=True))
    yield ("gather/core/group_evict=2+dead-elide",
           lambda: _core_digest(group_evict=2, policy="dead-elide"))
    # 8 entries with prefetch fills in flight: the only case that reaches
    # the "every candidate is still filling" wait loop (victim_wait_cycles)
    yield ("gather/core/context_prefetch+rf8",
           lambda: _core_digest(rf_size=8, context_prefetch=True))


GOLDEN = {
    "gather/virec/plru/0.4":
        "8d89694100c8cd9b31bb963227d5cefb2e6a29e9d131c4c426a2cf264b13a3e0",
    "gather/virec/plru/1.0":
        "814037a9d2369a6cc59f894af5f31362473757e5cc2a49e3cf1c80f9d799344f",
    "gather/virec/lru/0.4":
        "6279eb98dfb2eb100dd29dc2114c01d1ab61d9a5c3f3e98584bc939d26c0955a",
    "gather/virec/lru/1.0":
        "d13d4891eabbac9c74d3480375da21506ebc25f79b9f3c6d476efd9ceef1ff92",
    "gather/virec/mrt-plru/0.4":
        "1536bbd193b08f59f8f2211c5616c57a2ec3f05142663e088c199aedcc0f9197",
    "gather/virec/mrt-plru/1.0":
        "f4c45898e485656a393015742f3fb7acd08699a532ec9fa40a166e44b0493107",
    "gather/virec/mrt-lru/0.4":
        "4502bcb3d81c99445a74ee72112bb023cf6cd1108dfba1ae0a42c6a9e2b032ed",
    "gather/virec/mrt-lru/1.0":
        "c85dd2624594596c6d353e84875d240c086ded04b2a308525a907d4356525339",
    "gather/virec/lrc/0.4":
        "1536bbd193b08f59f8f2211c5616c57a2ec3f05142663e088c199aedcc0f9197",
    "gather/virec/lrc/1.0":
        "f4c45898e485656a393015742f3fb7acd08699a532ec9fa40a166e44b0493107",
    "gather/virec/dead-first/0.4":
        "6cbcdcc2522ef80c373094eeabccd98f174e37b43083d7ffeff1273c2c99d2e6",
    "gather/virec/dead-first/1.0":
        "507a75637f84d5c7b2573208e104300a573ce2f41504fde5a3bdc730f9bc9f38",
    "gather/virec/dead-elide/0.4":
        "6737b5b90776fc52798e12effe0c65b4a263058908769e91c3ce899fbac34c4f",
    "gather/virec/dead-elide/1.0":
        "a135e6642077c4bc00dcab07b82b801be4659fe63972395d4a8f6740cc9c23d3",
    "gather/virec/srrip/0.4":
        "9528fba9a436586fa0d0607d6627f764dea3da8444316b0b04bbf79ad2c89d91",
    "gather/virec/srrip/1.0":
        "7b7a0baa5e637be93a24f2b79073ae0c5e3f34eb0aef07b8d08dfb86b939678d",
    "gather/virec/random/0.4":
        "91453e84b8a22c48abc1217158e49a7d8c55215e4b5459faeddae4e67f8659dd",
    "gather/virec/random/1.0":
        "8c5cd24751a3d0303f3100ef7e7dc459a385c8cebc48594d00f3b68614cad2fb",
    "gather/nsf/plru/0.4":
        "49de8a15c70f35deece163242a89d53c83970853f147e968efd062fdd6e5dd5d",
    "spmv/virec/plru/0.4":
        "441c67785cd011beab40b25900e19d5b3e167342b4461bfa32fbb20b664b98fc",
    "spmv/virec/plru/1.0":
        "a09825fe31c884e005cae4169ab1ce2fa037854b0ea8948b39dfd00a06fa6af7",
    "spmv/virec/lru/0.4":
        "ae8b11f22eba8791a937e7aae37e50670a87b5485b36dee648f54a21263a63ee",
    "spmv/virec/lru/1.0":
        "0c91d90ec1a65cf4f396fc2e75157196fb0c9b3b7c440f250c4418bd03110db4",
    "spmv/virec/mrt-plru/0.4":
        "489c8b71e9ea0301be993d71faa7e65e2295ecdec6f0028887ba4039e39a623a",
    "spmv/virec/mrt-plru/1.0":
        "f1e1d402a7075848e589e427e998985ed2a93886c61d74585ba38f11692fdbac",
    "spmv/virec/mrt-lru/0.4":
        "e7d22b9ccb9de380cdcf8821f2c473240b51f4ae0eb60a53319f948c4244842a",
    "spmv/virec/mrt-lru/1.0":
        "f9f13879a12e64310b4eae415b18351b4420febd5920f9564a8653bfcac8ce69",
    "spmv/virec/lrc/0.4":
        "0102b8a6d3e1f97883caba4153ab9eb7bcb8ce69245c392c79650ed04bd002ae",
    "spmv/virec/lrc/1.0":
        "023359f560e39269fcfe25ad636a7abe089364f7eb5c85a858f6c098456dc305",
    "spmv/virec/dead-first/0.4":
        "5521f40a155981b7aeaa38e9e39784da891533d1b5a9c5468f826eb45a1a8aeb",
    "spmv/virec/dead-first/1.0":
        "6fcb793216e63a82889ace5c17487f1c0103f01b82c3438a14446ba19bdd3945",
    "spmv/virec/dead-elide/0.4":
        "4a4909fa2fd79319f888e48d52cc34e170800a89edcae9ce0254763f7a039ed0",
    "spmv/virec/dead-elide/1.0":
        "cdf3a41e5764a202c29df6824b70d45ad5932bff2f0286242a06971c94f02359",
    "spmv/virec/srrip/0.4":
        "0d9e21e34a5a8e82e128ad0406611422dcdb7cd46478dc48f8222e846e5e8dd5",
    "spmv/virec/srrip/1.0":
        "f152e1fc4a9c37d397584e4e6d610c88a2b2649fe8fd0722d3e31c1df1e4332a",
    "spmv/virec/random/0.4":
        "80d58b4933d7339ecc09f0b66f9c9d38171387034842c6172dd42e8425af1e89",
    "spmv/virec/random/1.0":
        "d09cad0a1caa7c378938d47ff6d633c6ebfa867fbc79bfe769ba8683983fc08b",
    "spmv/nsf/plru/0.4":
        "ac7f8c6d162096f84b2ed25fc059dac9ea968edc95e4efb1bdc9ac27493eb264",
    "gather/core/group_evict=2":
        "341da1a8c8652651d4be0678b7f85f6a7566b218509ceda8a1c11db14487bcc3",
    "gather/core/context_prefetch":
        "1acf782e2132acc578e67c02c1053d76da8ddfaf9f50256acfdc307053557821",
    "gather/core/group_evict=2+dead-elide":
        "e117573b0f5c3fb7657f5a772ad5140a81280cb0bf6b7f152f5eba0da7a157c0",
    "gather/core/context_prefetch+rf8":
        "2bc083b4faa7c6e7205d62960d8437eb1e8a448ce61e42c9750603fba815c434",
}


def test_every_registered_policy_has_a_golden():
    assert sorted(POLICIES) == sorted(ALL_POLICIES)
    assert sorted(GOLDEN) == sorted(key for key, _ in cases())


@pytest.mark.parametrize("key,thunk", list(cases()),
                         ids=[key for key, _ in cases()])
def test_golden_digest(key, thunk):
    assert thunk() == GOLDEN[key]
