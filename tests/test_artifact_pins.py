"""Pinned SHA-256 hashes of the smoke-tier ``BENCH_*.json`` artifacts.

These hashes were recorded from the PR-2 codebase (mixed-tuple heapq
kernel, full pickled ``random.Random`` snapshot state) and pin the
byte-identity acceptance criterion of the bucket-queue/compact-RNG
rework: the simulation substrate may change, the measured artifacts may
not — ever, by a single byte.

A cheap three-scenario subset runs in the regular suite; the full
fifteen-scenario sweep is slow-marked (a few minutes) and runs with the
slow tier of CI.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.reporting import encode_artifact
from repro.experiments.runner import run_scenarios

#: sha256 of every smoke-tier artifact at root seed 42, recorded at PR 2.
PR2_SMOKE_SHA256 = {
    "ablation_flood_resend": "f9f6d70e935d9600bc1efaf8bf788dbd111fb6e897cc161508f7e1530e2f0b38",
    "ablation_passive_size": "79a553cc0d30b6c9004e1225ad27583ee08f81c89215293ddbb59ab38bbcd694",
    "ablation_plumtree": "29ad4100ee07b4495e96f62528b909bdfed5db68d7052d4d128d982f667d8f5c",
    "ablation_shuffle_ttl": "3ed1de51243d727c9d6c216dd8348a29937251133e8a540cf274fceaeeae9b24",
    "churn": "0765852f3e5922d91faf35c95974af2314177614110f2f1074dbf4bf48a06594",
    "fig1_hyparview_reference": "c8d7e26bcce14fe1b5ba2807334d2b5f547e78bc2988fcf0b5ea0ea680d9c928",
    "fig1a_cyclon_fanout": "ecd2e364928a0ebf6b4a7aad8857bf82e81934ad82aa62222b8338ef404f5333",
    "fig1b_scamp_fanout": "652cc0e5030789b9cb958a4bd7b0f4df9b3d20befbfc087547d89bfb2638487e",
    "fig1c_failure50": "b2fbb79117e4078b11f1ad764cbbb8a30c8815bd761acc23efa02fa9c0fa876e",
    "fig2_reliability": "de25beb4f231d442ef161991735278c6c27abdac6d9f49869342b43b9a8c7838",
    "fig3_recovery": "e49f6e30b97acc2ca5cbfc971ea8f4d1bef8c3571cb54cb00a4c94e2cca6f327",
    "fig4_healing": "5d915cce24b53bcc7caad3d881acc17a838253ced679ed91d59b5fb5808f98e2",
    "fig5_indegree": "34bda314256aa0b0667445eefbf7a0ac18dd924a91596d0eb7445ca66aaa1ce3",
    "overhead": "bdce9df4930b2b56d5e32b65d3c37345af1189f1ef1e880d005bf41453fb7a3b",
    "table1_graph": "41dea422b92627b92f08873dbc0d51e247f233dc39c0be355e520a9269e9f2aa",
}

#: sha256 of the fault-injection family's smoke artifacts at root seed 42,
#: recorded when the ``repro.faults`` subsystem landed (PR 4).  These pin
#: the fault scenarios' determinism the same way the PR-2 hashes pin the
#: figure scenarios: any behavioural drift in the fault drivers, the link
#: rules, the adversary filters or the quantised-tick engine shows up here.
PR4_FAULT_SMOKE_SHA256 = {
    "faults_adversary": "2e883a785c5dbf64cf7ffa00d933a26f6c577a5f80954d9259ee5d0d88b81e42",
    "faults_cascade": "d946b002a039d3afe5ff0815d5627cb13120e4d0dee9756bbcb3652440b723d3",
    "faults_churn_trace": "1579b16a8966b81e67242929f4d1d770f629fdcd7ba9d52b3fd898a0d8cce9ef",
    "faults_flash_crowd": "3b2ad453ac8023e2bc16cf00db9d54200a98d176b6e06eace884482bb9847fd6",
    "faults_partition_heal": "6913316465f5eeae3c46a67224cbdec3d3b8d1d38da11bf7f4792897a0f6382f",
    "faults_wan_jitter": "9ed2fd49b8ac7f58b80c826d2e278699a3c5db0702cc00dd36da15f2d59ecfea",
}

#: sha256 of the reliable-delivery family's smoke artifacts at root seed
#: 42, recorded when the ack+retransmit stacks and the timer wheel landed
#: (PR 5).  They pin the reliable gossip layer, the wheel's merge order
#: against bucket events, and the fault plans the scenarios replay.
PR5_RELIABLE_SMOKE_SHA256 = {
    "reliable_churn": "9b58d30e756c0978b5189fc3c5e34e15096bbde2c28c9d2b6b3e3f2fd7227ae7",
    "reliable_loss": "eb2f139506d7f555d5e5a9dd66037dc13a5f17d563b0fd0fe23b40c16262a5b9",
    "reliable_stress": "cc90920605729fa6370a9659e413137bb4ba312b19fa8ae04f50757d0fa07ff1",
}

#: sha256 of the Byzantine-broadcast family's smoke artifacts at root
#: seed 42, recorded when the BRB layer landed (PR 7).  They pin the
#: SEND→ECHO→READY quorum machinery, the sampled-mode RNG draws, the
#: Byzantine sender hooks (mutation/equivocation) and the value-judged
#: measurement pipeline.
PR7_BYZ_SMOKE_SHA256 = {
    "byz_adversary_fraction": "65787fe933e6c0cd587970915ab0a77ab909d9d1a690b2fcc2f94f80b71e3ada",
    "byz_churn": "f9696d2b17cab75fcb4655a4a1d787b76b9c25b463e8e34eae9ce669b6a6c73e",
    "byz_equivocation": "1299710d53979bd1de5f94a86d3cf1c120780fc60491fd896f8c0a78d3bc3184",
}

#: sha256 of the topology family's smoke artifacts at root seed 42,
#: recorded when X-BOT and the zoned RTT world model landed (PR 10).
#: They pin the zone assignment and pair-base RTT draws, the oracle's
#: jitter-free link pricing, the 4-node swap state machine's message
#: order and the quantised-tick engine under continuous per-hop jitter.
PR10_TOPO_SMOKE_SHA256 = {
    "topo_convergence": "94f6bf53ef5c973f8838e8f76d8e592fe7a3273b0e26dca71d09efb6d2f48e78",
    "topo_latency": "4dfbc2c6fed484bb442dd4906e9c7413112fbfdeb76dc855e3d5f29b793d6b37",
}

#: Scenarios cheap enough to pin on every test run (seconds, not minutes).
FAST_SUBSET = ("fig1_hyparview_reference", "fig1c_failure50", "ablation_flood_resend")

#: The cheap fault-scenario pins that run in the regular suite.
FAST_FAULT_SUBSET = ("faults_partition_heal", "faults_wan_jitter")

#: The reliable-delivery pin that runs in the regular suite.
FAST_RELIABLE_SUBSET = ("reliable_loss",)

#: The cheap Byzantine pin that runs in the regular suite (two cells).
FAST_BYZ_SUBSET = ("byz_equivocation",)

#: The cheap topology pin that runs in the regular suite (two cells).
FAST_TOPO_SUBSET = ("topo_convergence",)

def _hashes(scenario_ids, **overrides) -> dict[str, str]:
    runs = run_scenarios(list(scenario_ids), "smoke", workers=1, **overrides)
    return {
        scenario_id: hashlib.sha256(encode_artifact(run.artifact()).encode()).hexdigest()
        for scenario_id, run in runs.items()
    }


def test_fast_subset_matches_pr2_artifacts():
    assert _hashes(FAST_SUBSET) == {k: PR2_SMOKE_SHA256[k] for k in FAST_SUBSET}


def test_fast_fault_subset_matches_pr4_artifacts():
    assert _hashes(FAST_FAULT_SUBSET) == {
        k: PR4_FAULT_SMOKE_SHA256[k] for k in FAST_FAULT_SUBSET
    }


def test_fast_reliable_subset_matches_pr5_artifacts():
    assert _hashes(FAST_RELIABLE_SUBSET) == {
        k: PR5_RELIABLE_SMOKE_SHA256[k] for k in FAST_RELIABLE_SUBSET
    }


def test_fast_byz_subset_matches_pr7_artifacts():
    assert _hashes(FAST_BYZ_SUBSET) == {
        k: PR7_BYZ_SMOKE_SHA256[k] for k in FAST_BYZ_SUBSET
    }


def test_fast_topo_subset_matches_pr10_artifacts():
    assert _hashes(FAST_TOPO_SUBSET) == {
        k: PR10_TOPO_SMOKE_SHA256[k] for k in FAST_TOPO_SUBSET
    }


def test_tracing_on_fig2_matches_pin():
    # Dissemination tracing (PR 9) is a pure observer: running fig2 with
    # the collector active must hash to the same PR-2 value — tracing can
    # never perturb a benchmark artifact byte or an RNG draw.
    traces: dict[str, list] = {}
    assert _hashes(("fig2_reliability",), trace=True, traces=traces) == {
        "fig2_reliability": PR2_SMOKE_SHA256["fig2_reliability"]
    }
    assert any(entry["segments"] for entry in traces["fig2_reliability"])


@pytest.mark.slow
def test_all_fifteen_smoke_artifacts_match_pr2():
    assert _hashes(PR2_SMOKE_SHA256) == PR2_SMOKE_SHA256


@pytest.mark.slow
def test_all_fault_smoke_artifacts_match_pr4():
    assert _hashes(PR4_FAULT_SMOKE_SHA256) == PR4_FAULT_SMOKE_SHA256


@pytest.mark.slow
def test_all_reliable_smoke_artifacts_match_pr5():
    assert _hashes(PR5_RELIABLE_SMOKE_SHA256) == PR5_RELIABLE_SMOKE_SHA256


@pytest.mark.slow
def test_all_byz_smoke_artifacts_match_pr7():
    assert _hashes(PR7_BYZ_SMOKE_SHA256) == PR7_BYZ_SMOKE_SHA256


@pytest.mark.slow
def test_all_topo_smoke_artifacts_match_pr10():
    assert _hashes(PR10_TOPO_SMOKE_SHA256) == PR10_TOPO_SMOKE_SHA256
