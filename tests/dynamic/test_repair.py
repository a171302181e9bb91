"""Unit tests for checkpoint-and-replan failure recovery."""

import hashlib
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
import pytest

from repro.core import HDLTS
from repro.dynamic.failures import FailStop
from repro.dynamic.noise import gaussian_noise
from repro.dynamic.online import replay_static
from repro.dynamic.repair import repair_after_failure
from repro.model.task_graph import TaskGraph
from tests.conftest import make_random_graph


def _build(n_procs, costs, edges):
    graph = TaskGraph(n_procs)
    for row in costs:
        graph.add_task([float(c) for c in row])
    for u, v, c in edges:
        graph.add_edge(u, v, float(c))
    return graph


@pytest.fixture
def plan(fig1):
    return HDLTS().run(fig1).schedule


class TestBasics:
    def test_all_tasks_complete(self, fig1, plan):
        result = repair_after_failure(fig1, plan, FailStop(proc=2, at_time=20))
        assert set(result.finish_times) == set(fig1.tasks())
        assert result.dead_procs == (2,)

    def test_nothing_finishes_on_dead_cpu_after_failure(self, fig1, plan):
        result = repair_after_failure(fig1, plan, FailStop(proc=2, at_time=20))
        for record in result.records:
            if record.proc == 2 and not record.lost:
                assert record.finish <= 20 + 1e-9

    def test_precedence_respected(self):
        graph = make_random_graph(seed=5, v=60, ccr=2.0, n_procs=4)
        plan = HDLTS().run(graph).schedule
        result = repair_after_failure(
            graph, plan, FailStop(proc=1, at_time=plan.makespan * 0.3)
        )
        entry = graph.entry_task
        for edge in graph.edges():
            if edge.src == entry:
                continue  # duplicates of the entry may serve locally
            src_fin = result.finish_times[edge.src]
            dst_start = result.finish_times[edge.dst] - graph.cost(
                edge.dst, result.proc_of[edge.dst]
            )
            comm = (
                0.0
                if result.proc_of[edge.src] == result.proc_of[edge.dst]
                else edge.cost
            )
            assert dst_start >= src_fin + comm - 1e-6

    def test_failure_after_completion_changes_nothing(self, fig1, plan):
        """A failure after the last finish replays the plan exactly as
        ``replay_static`` does.  The second graph has zero-cost tasks
        committed at one instant out of topological order: a
        topological tie-break in the repair's queue extraction once
        started task 3 at 1.0 instead of its planned 2.0."""
        tied = _build(
            3,
            [[0, 2, 0], [1, 2, 1], [2, 0, 0], [0, 0, 1], [0, 2, 2],
             [0, 2, 0], [0, 0, 0], [0, 0, 0]],
            [(0, 1, 0), (0, 2, 0), (1, 2, 1), (0, 3, 0), (1, 3, 0),
             (2, 5, 0), (6, 0, 0), (6, 4, 0), (3, 7, 0), (4, 7, 0),
             (5, 7, 0)],
        )
        for graph, schedule in (
            (fig1, plan),
            (tied, HDLTS().run(tied).schedule),
        ):
            result = repair_after_failure(
                graph, schedule, FailStop(proc=2, at_time=1e9)
            )
            assert result.records == replay_static(graph, schedule).records
            assert result.makespan == schedule.makespan
            assert result.n_lost == 0

    def test_failure_at_zero_replans_everything(self, fig1, plan):
        result = repair_after_failure(fig1, plan, FailStop(proc=2, at_time=0.0))
        assert all(
            result.proc_of[t] != 2 for t in fig1.tasks()
        )

    def test_single_cpu_platform_rejected(self):
        graph = make_random_graph(seed=2, v=10, n_procs=1)
        plan = HDLTS().run(graph).schedule
        with pytest.raises(ValueError, match="survivor"):
            repair_after_failure(graph, plan, FailStop(proc=0, at_time=1.0))

    def test_out_of_range_cpu_rejected(self, fig1, plan):
        with pytest.raises(ValueError, match="outside"):
            repair_after_failure(fig1, plan, FailStop(proc=9, at_time=1.0))


class TestComparison:
    def test_repair_close_to_online(self):
        """Repair and online trade wins but stay within 2x of each
        other (both handle the failure gracefully)."""
        from repro.dynamic.online import OnlineHDLTS

        for seed in range(4):
            rng = np.random.default_rng(seed)
            graph = make_random_graph(seed=seed, v=60, n_procs=4, ccr=2.0)
            noise = gaussian_noise(graph, 0.2, rng)
            plan = HDLTS().run(graph).schedule
            failure = FailStop(proc=0, at_time=plan.makespan * 0.3)
            repaired = repair_after_failure(graph, plan, failure, noise)
            online = OnlineHDLTS().execute(graph, noise, [failure])
            ratio = repaired.makespan / online.makespan
            assert 0.5 < ratio < 2.0


# ----------------------------------------------------------------------
# digest corpus: every repaired realization pinned bit for bit
# ----------------------------------------------------------------------
#: (name, seed, v, n_procs, ccr) of the random graphs; 2 CPUs leaves one
#: survivor, so every re-planned penalty value is zero
RANDOM_GRAPHS = (
    ("r20p2", 0, 20, 2, 1.0),
    ("r30p3", 1, 30, 3, 2.0),
    ("r40p4", 2, 40, 4, 0.5),
    ("r60p5", 3, 60, 5, 5.0),
    ("r50p3", 4, 50, 3, 1.0),
)
PLANNERS = ("HDLTS", "HEFT", "DHEFT")
#: failure instants as fractions of the plan's makespan; ``None`` is a
#: failure long after the plan ends
FAIL_FRACTIONS = (0.0, 0.3, 0.7, None)
DIGEST_SIGMAS = (0.0, 0.2)


def _tied() -> TaskGraph:
    """Zero-cost tasks committed at one instant out of topological order
    (see ``test_failure_after_completion_changes_nothing``)."""
    return _build(
        3,
        [[0, 2, 0], [1, 2, 1], [2, 0, 0], [0, 0, 1], [0, 2, 2],
         [0, 2, 0], [0, 0, 0], [0, 0, 0]],
        [(0, 1, 0), (0, 2, 0), (1, 2, 1), (0, 3, 0), (1, 3, 0),
         (2, 5, 0), (6, 0, 0), (6, 4, 0), (3, 7, 0), (4, 7, 0),
         (5, 7, 0)],
    )


def _corpus_graphs() -> Dict[str, TaskGraph]:
    from repro.workflows.paper_example import paper_example_graph

    graphs = {"fig1": paper_example_graph(), "tied": _tied()}
    for name, seed, v, n_procs, ccr in RANDOM_GRAPHS:
        graphs[name] = make_random_graph(
            seed=seed, v=v, n_procs=n_procs, ccr=ccr
        )
    return graphs


def _digest_cases() -> Iterator[Tuple[str, str, Optional[float], float]]:
    for graph in ("fig1", "tied") + tuple(g[0] for g in RANDOM_GRAPHS):
        for planner in PLANNERS:
            for fraction in FAIL_FRACTIONS:
                for sigma in DIGEST_SIGMAS:
                    yield graph, planner, fraction, sigma


def _digest_id(graph: str, planner: str, fraction: Optional[float],
               sigma: float) -> str:
    at = "late" if fraction is None else f"{fraction:g}"
    return f"{graph}-{planner}-f{at}-s{sigma:g}"


def _repair_case(graphs: Dict[str, TaskGraph], graph_name: str,
                 planner: str, fraction: Optional[float], sigma: float):
    from repro.baselines.registry import make_scheduler

    graph = graphs[graph_name]
    plan = make_scheduler(planner).run(graph).schedule
    at = 1e9 if fraction is None else fraction * plan.makespan
    # vary the failing CPU over the corpus
    proc = (len(graph_name) + PLANNERS.index(planner)) % graph.n_procs
    noise = None
    if sigma:
        seed = sum(map(ord, _digest_id(graph_name, planner, fraction, sigma)))
        noise = gaussian_noise(graph, sigma, np.random.default_rng(seed))
    return graph, plan, repair_after_failure(
        graph, plan, FailStop(proc, at), noise
    )


def repair_digest(result) -> str:
    """sha256 of an exact (``float.hex``) serialization of a repaired
    run: records, makespan, finish times, placements, losses, dead CPUs."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            f"r {r.task} {r.proc} {r.start.hex()} {r.finish.hex()} "
            f"{int(r.duplicate)} {int(r.lost)}\n".encode()
        )
    h.update(f"m {float(result.makespan).hex()}\n".encode())
    for task in sorted(result.finish_times):
        h.update(
            f"t {task} {float(result.finish_times[task]).hex()} "
            f"{result.proc_of[task]}\n".encode()
        )
    h.update(f"l {result.n_lost} d {list(result.dead_procs)}\n".encode())
    return h.hexdigest()


#: recorded with the standalone replay-then-re-plan loops that the
#: stream arena replaced; after an *intended* change, regenerate with
#: ``PYTHONPATH=src:. python tests/dynamic/test_repair.py`` from the
#: repository root and paste the output here
REPAIR_DIGESTS: Dict[str, str] = {
    "fig1-HDLTS-f0-s0":
        "4f3dedcd366f003656c86ad074b48b26d1dbfdfd42d96b8939f94467bb1ec317",
    "fig1-HDLTS-f0-s0.2":
        "cca049eda6441fdccf775fc982dd41e9f22c0ea447203cb53276bf3aa14158b4",
    "fig1-HDLTS-f0.3-s0":
        "73ca03fe30eb5d721192a8b5ec93935d9a3097798068f457f88c908c3e0c3167",
    "fig1-HDLTS-f0.3-s0.2":
        "719c0c28b8d795c55c41d4f45e6ed75fa07f4fb55258ebc892d73f50ac0be399",
    "fig1-HDLTS-f0.7-s0":
        "8b5a37afe297b4871b8ae3606915d69a0c33f0586db35a19e54c487c56acaec2",
    "fig1-HDLTS-f0.7-s0.2":
        "4aeb49bbbfda1515caeaf59eab6784cfd4bcdfdf262574476bff78045358a327",
    "fig1-HDLTS-flate-s0":
        "ea67c793845a419585ec85aeb99792aa297ed0c54bc4c8cb5bc4a39cc9de27be",
    "fig1-HDLTS-flate-s0.2":
        "bdd1fef419c0b62a6193cb9f0d53b373244c700b94b69f940f0d5fb5a724df8e",
    "fig1-HEFT-f0-s0":
        "212def258e03e73258e7e142f104e3b77fe0b2472a4917e3a1a8b034803c2eec",
    "fig1-HEFT-f0-s0.2":
        "2cd8e206d5d67794f04d42b6aff89d9abc34cd0d04c800c1cfe1632b55c38f1d",
    "fig1-HEFT-f0.3-s0":
        "e81b669624ebf25e9f30eb633af653c2792a92d9d73b28fc087d4c4ec010d969",
    "fig1-HEFT-f0.3-s0.2":
        "15ab075bf0c3b7a80106fed9cbc8ed6c89e2fdb99fcdea84a4aeb64f99301efb",
    "fig1-HEFT-f0.7-s0":
        "c23eb468b08b46f02425cd485c2baa8acf79530434f94de1263524ab2eedc5e2",
    "fig1-HEFT-f0.7-s0.2":
        "43376fb660850ac9f3c4e800f7fd64c05a8846eeb6f6bbbbf0a2902e041fe227",
    "fig1-HEFT-flate-s0":
        "c23eb468b08b46f02425cd485c2baa8acf79530434f94de1263524ab2eedc5e2",
    "fig1-HEFT-flate-s0.2":
        "d45c3a9cd6ccf032c8042e0e7b85cbeecb41ee05b5cea799cb2a63947043699f",
    "fig1-DHEFT-f0-s0":
        "727fc4fef4aaf0af2591a8a7fa002084cda5ec3cd5aae401f4ac1bc128aa51c7",
    "fig1-DHEFT-f0-s0.2":
        "4423d38e779a779304180a4184a8941818459151e2a2c097c01a799cfa78994c",
    "fig1-DHEFT-f0.3-s0":
        "97befa875a2afa373afeba03dc067b1f076664c8139e855c1a911ba03b7fc02c",
    "fig1-DHEFT-f0.3-s0.2":
        "f2905ebd315ecd643dea692f170309e8ef339089bc9519ec129419a18c01e0c4",
    "fig1-DHEFT-f0.7-s0":
        "66ea47c741b272652d391eba2d07649a50f2a99e98b79b03e4ef6dd4f752da68",
    "fig1-DHEFT-f0.7-s0.2":
        "aab33d17f84163984e8ec8ea4736eef0996f98417a9bb5304e848467761843eb",
    "fig1-DHEFT-flate-s0":
        "65d92392786c07291b5460f835905e77abd471e3b550d6e20f456afd1b6f2845",
    "fig1-DHEFT-flate-s0.2":
        "16850c2847db6005e40f1de375e1f14731329cee7eef5e06fffb0f65a3b65209",
    "tied-HDLTS-f0-s0":
        "5c9bc7e7e21988641b8e52de27d4c9375a6de2f205dd9234f4f48d8690ff75fa",
    "tied-HDLTS-f0-s0.2":
        "5e38ef22e8df7578906dc05d7bff6096b13b7a3c4c917d8fa2d5e0e12cbacf9e",
    "tied-HDLTS-f0.3-s0":
        "5c9bc7e7e21988641b8e52de27d4c9375a6de2f205dd9234f4f48d8690ff75fa",
    "tied-HDLTS-f0.3-s0.2":
        "a56252d3bf5b17ce6f8514b5e8a8b9c3292c90d3c723c090ca796de0824e265e",
    "tied-HDLTS-f0.7-s0":
        "bc4f3cd07cdc1ae0bd0f08b75c42b2d284024f5e94bc0231f0efc1a2996b4128",
    "tied-HDLTS-f0.7-s0.2":
        "5dbc3c909e1e4f5854f079db21fc2a092f86fd0088762e72d025eb70c23439e1",
    "tied-HDLTS-flate-s0":
        "81fda4e54041d75b1e8da7c09c9e681841ce66840f1e06c05504b22a7c678c55",
    "tied-HDLTS-flate-s0.2":
        "9a552c2d48db29914dee699146272fa359fbaa1373830181a3873fc38328459a",
    "tied-HEFT-f0-s0":
        "2e06fa4cb0d1e90256da41378d203006bf3c9add3b7eedb74f030935f57c7ad5",
    "tied-HEFT-f0-s0.2":
        "df5de9d345d190bb10b700781cb0b0132ebe2307a221b5a85cf4ec2431d3ef41",
    "tied-HEFT-f0.3-s0":
        "2e06fa4cb0d1e90256da41378d203006bf3c9add3b7eedb74f030935f57c7ad5",
    "tied-HEFT-f0.3-s0.2":
        "6c1310c3a8af3d376122d373411830712bc2a235dfc00039bb4749a9aafcbf3e",
    "tied-HEFT-f0.7-s0":
        "2e06fa4cb0d1e90256da41378d203006bf3c9add3b7eedb74f030935f57c7ad5",
    "tied-HEFT-f0.7-s0.2":
        "469233627c693d9d548ef1fc9f44ae23839e9ef15d0a3112e0fbf08642fc6c01",
    "tied-HEFT-flate-s0":
        "2e06fa4cb0d1e90256da41378d203006bf3c9add3b7eedb74f030935f57c7ad5",
    "tied-HEFT-flate-s0.2":
        "a595be4f429ef3056b03031d894064a0c178229cacb4acb88867649d7af69dba",
    "tied-DHEFT-f0-s0":
        "1ef9fb021d0dedc0f7794280df3d33154f7dc3258eac114586f7b1a930e07f88",
    "tied-DHEFT-f0-s0.2":
        "792cd8c4a6711f3a15b1905925fb4d335b9df93eee81a9f69e37a5a1e589aa08",
    "tied-DHEFT-f0.3-s0":
        "a998c4f6171e6e39eb2f606d388a85672893bbf58c72c888936ef1852987b6d8",
    "tied-DHEFT-f0.3-s0.2":
        "75ff6b094bc68d9053ca6078e0570c58632fc77c28a61577f2a62468cde921fb",
    "tied-DHEFT-f0.7-s0":
        "59b9877b8fb539bfa959344e1c2e18b9b44e8aac9ec058e23bbc6f58dbd260dd",
    "tied-DHEFT-f0.7-s0.2":
        "ee2896c63850880090bf5933a422dbbe89a8962b3a3402f3191d422eecb1dd73",
    "tied-DHEFT-flate-s0":
        "ec7e874ce07e059e70b334246c99b91ffb7012172d2862ed122c5d3cbc2e4624",
    "tied-DHEFT-flate-s0.2":
        "ad1bb10c8db2c9f8b5c03f837f59af9c432bb826250780f56be8ac4cd054c930",
    "r20p2-HDLTS-f0-s0":
        "64a2a5db3fe9270fcff1a8c207208bf44cfe862dcfff467c9e879b8e4001b323",
    "r20p2-HDLTS-f0-s0.2":
        "b95b1ce95f88de2df595eb5baef497c9e62f15a49797bf5693503502b971311e",
    "r20p2-HDLTS-f0.3-s0":
        "4c2b2bfcfe5094d65208ff8f23c09b51679c4aa2321a8edce4fc4c3765e2f3bd",
    "r20p2-HDLTS-f0.3-s0.2":
        "5ad8ad156e00f55de6cc5e473b2da766f213379a4e299609f7f21e031bd5cd64",
    "r20p2-HDLTS-f0.7-s0":
        "6983118d742584e11fdec9f6985b39714add00ee71c501a5823bee87442ddae3",
    "r20p2-HDLTS-f0.7-s0.2":
        "420ca23801ca43393fab0fbcee8edda8e9bb83ffb2e378be3839015c588f2955",
    "r20p2-HDLTS-flate-s0":
        "e49f5f4e7a422f701ed0a7ee27bc54e19d9f9e1f02b317898717d594e00b49ca",
    "r20p2-HDLTS-flate-s0.2":
        "c7e8b12bc8a1394500cd422e0970bb98bbf6682760a32792a626f28b87ecbf9f",
    "r20p2-HEFT-f0-s0":
        "578cfaaebf5ebe5bcd9c953b996afccf38332a1d2f9a1679048b8d90c939967d",
    "r20p2-HEFT-f0-s0.2":
        "9abbff69bc1940a9c11e679aafb32cec2877cd88876cb143c9117f0d6f20caad",
    "r20p2-HEFT-f0.3-s0":
        "b483a9d2307dcb16ff748883449ef704677c8e19e9abfc545672ee8d46f1069f",
    "r20p2-HEFT-f0.3-s0.2":
        "67ec7a8c3007464a28534449128b4b173a502bb049ca3fd9046f4ca31afe69c9",
    "r20p2-HEFT-f0.7-s0":
        "3ff45339ea558149de0e17344107fba00a3130214fd0176d1af9d5fbccef357b",
    "r20p2-HEFT-f0.7-s0.2":
        "fb8c8aa91180da7318ed9d60b65788c460243338a7c564bce242adb6f9c47948",
    "r20p2-HEFT-flate-s0":
        "3996da5a15e414f2bd5d8e8ac1de2416fd3bb8b1da21070deeaf89ae4d8dcbe1",
    "r20p2-HEFT-flate-s0.2":
        "45571e81101cd5668914406e2cdeb3db960821bc36003018826948a2af36ca24",
    "r20p2-DHEFT-f0-s0":
        "64a2a5db3fe9270fcff1a8c207208bf44cfe862dcfff467c9e879b8e4001b323",
    "r20p2-DHEFT-f0-s0.2":
        "884800379b20c2c30467e8b865c3c45351b6670681baeca05ee927f060618eaa",
    "r20p2-DHEFT-f0.3-s0":
        "5e3eee0ea9614c4416a3acd737c428ad2df3d9c605d7c9bbce4cf193b76eb24c",
    "r20p2-DHEFT-f0.3-s0.2":
        "1ccd5f031fcb3254e4aec5d19a3c60dc59e7b71247a4eb528097c7d7f6f12b5a",
    "r20p2-DHEFT-f0.7-s0":
        "0673481ec04552a36448784a830b25c5a11cf643c7e03a08d6319ebaf33466be",
    "r20p2-DHEFT-f0.7-s0.2":
        "6436d7a44c7065ec4479c2d8876314a0b081291f50acc230c985eeffc1b71089",
    "r20p2-DHEFT-flate-s0":
        "d74fd00b1616a90593337d84d5f0509847e6d2399025064330de4528abb35f69",
    "r20p2-DHEFT-flate-s0.2":
        "c4b94f26e6440cf9c46946bf107c9700721e1ef368c9e58ecdfc8a5a3f8e719d",
    "r30p3-HDLTS-f0-s0":
        "3cf50017c03d8e8e9cc64490ecf36c58beda95a795aa8954e5182af088e8cbee",
    "r30p3-HDLTS-f0-s0.2":
        "436d07d2e04d13c052a8f67f99a19ee9027d7267edeb2f9682e9985b63aa1d7b",
    "r30p3-HDLTS-f0.3-s0":
        "3041ac12c193ae5df52330e8b81ebe81173e742964ff368a5af573fc6e24e77d",
    "r30p3-HDLTS-f0.3-s0.2":
        "6cf3c9dac34ab95becba991c68c025dd58743e867c44088d9a6578b56cb19b2f",
    "r30p3-HDLTS-f0.7-s0":
        "66ac7162f034265ee42b7c1a93ac7bacf60631fa52f9f1e04c596d1c5beb1496",
    "r30p3-HDLTS-f0.7-s0.2":
        "d569b1775fcea2cfa29beae034e15aa9204c893f0e4fb3906cd5048e58b25b9d",
    "r30p3-HDLTS-flate-s0":
        "06b09b8d10c478bd5473f475b01c55f52e877bd8dc873e016183421f4b613239",
    "r30p3-HDLTS-flate-s0.2":
        "1579af20a191b917f6a91e73fc611baaeb617d92b9f47644d06b8032de8bd3d6",
    "r30p3-HEFT-f0-s0":
        "36b3458922491684ddd29b5eec111aec2ef0c2fa442ee1d1046f46cdaa56d233",
    "r30p3-HEFT-f0-s0.2":
        "c9eef069967699ce7e1ef3c7e224d94ec9129e94044632c0abf1f44eb9acfb8e",
    "r30p3-HEFT-f0.3-s0":
        "55a5b58294cf9e0cd0ee4fd0b7c5663123c4ab7d161a0dc28ea15d42cebe9c62",
    "r30p3-HEFT-f0.3-s0.2":
        "5d727de13bc70e0651d7999b1d7d870ef1d73bd7930ac9f3b7473495ddaec228",
    "r30p3-HEFT-f0.7-s0":
        "bd1d8c5a1f67cebb3af7303e48a0f8c9528dc6c8da14e7a29a1a20b3edd5b3bc",
    "r30p3-HEFT-f0.7-s0.2":
        "3c72372ea224f5fd02224dd39e390e1220a44fa628d4fdecba4828203fa1c35c",
    "r30p3-HEFT-flate-s0":
        "59235ddc86bdd1ded01b3460f6f03f29596473cfe408008352ea8afdba3dbbe0",
    "r30p3-HEFT-flate-s0.2":
        "0f52cac00c83803bceba70d95a3c805b2b33eb5d0db3369ef07a940ae0f3500e",
    "r30p3-DHEFT-f0-s0":
        "1492a92894006d1b8c194a5350a318d8fc8c681784b9852eef62adf012e624b9",
    "r30p3-DHEFT-f0-s0.2":
        "61ff50f16b64bfa3f12b71cf375986e6a3912b61ee3cd9f0906289dc4dd0fdbe",
    "r30p3-DHEFT-f0.3-s0":
        "71abf76fe2785477cdaf09a0e79131b5f07b47bbcd83aaa89dd86499140e0fe9",
    "r30p3-DHEFT-f0.3-s0.2":
        "4792bc0f66800bbd6647198e8efd9e7c3c7550362fa42d9b8afe182b8c0945d4",
    "r30p3-DHEFT-f0.7-s0":
        "bce706a60860c3c6a5419050efc574ab7b4b8c631e2ad7d4475152c1e2ccbbaf",
    "r30p3-DHEFT-f0.7-s0.2":
        "4ccf0068312c26f5fa0e7df307f0fccd3e873f555c06f62a2e9b25c9e542a999",
    "r30p3-DHEFT-flate-s0":
        "d8b8a0c528d027625be57cd2843ef96ca01f6fa4d7d51110884c8b0b3779a691",
    "r30p3-DHEFT-flate-s0.2":
        "57f3b482dd11e643f4f1c1af97fcc8720d97247f0632c2eb1d7f800ec7a0e82a",
    "r40p4-HDLTS-f0-s0":
        "aaff2ad0b423726a2248c9f555187d8b39d4967d92565bff28537244ac230419",
    "r40p4-HDLTS-f0-s0.2":
        "1a3ccdc2d65e9902383cb4067e773a00200305a753f4867db9d6e910754ce550",
    "r40p4-HDLTS-f0.3-s0":
        "500dfaf3ccbe759e8a0817dc89d0337f8ce9167b15f99b1e43de0fe2b00c851e",
    "r40p4-HDLTS-f0.3-s0.2":
        "b02380d79ad55d25be17ae1f71cfcf81f967d73a1770e8d545ab39903079e96e",
    "r40p4-HDLTS-f0.7-s0":
        "700e77987947f088bbbd84ac29147e52dcf8fcafdd638e8ef4a58feddf916168",
    "r40p4-HDLTS-f0.7-s0.2":
        "258937114dc2d7cb863ec06414b3e33f775e86443dea3e10df0d0c402eba735a",
    "r40p4-HDLTS-flate-s0":
        "170a0453363112b652b1678edbfb604f1bd1526b8deccdcb6fb2787b0c6fe859",
    "r40p4-HDLTS-flate-s0.2":
        "e384f646504fb392bd5378c915485b5975d0bd6e9e89605821bc966e6ccea607",
    "r40p4-HEFT-f0-s0":
        "ab317141316d28dc6c2269875aaf7314b9f6829d12e93a09e2073cf336528f20",
    "r40p4-HEFT-f0-s0.2":
        "7f88040e69b73ebe8729b6f5e5151fc2e835565378d32666ab09f9256fb22721",
    "r40p4-HEFT-f0.3-s0":
        "a805d2d7e7aaded5f1b96b7c8cd5dc32fa3c6e0709daa979c5c384d0bedb02ad",
    "r40p4-HEFT-f0.3-s0.2":
        "c9e0306a72c5f9365b8683161c48904246d795355b8cd4c934e523b249921f20",
    "r40p4-HEFT-f0.7-s0":
        "ab301b6e53eacdc14f4cfe2b9864e9a75dcfb6ad2598bbd56b8b85031c0a2099",
    "r40p4-HEFT-f0.7-s0.2":
        "6a9bb1d64b4976cc1a1d73955ce8066073d12986923c2bc08b3c773170bea3ae",
    "r40p4-HEFT-flate-s0":
        "9b122f4100b5e07706b9d371eb5e0dccc2fdd88e1815361a57a128359986170a",
    "r40p4-HEFT-flate-s0.2":
        "0a4b665502f8d3197c9ac60b6f66613eda28c5ad4112aaa540899d6169c7d49f",
    "r40p4-DHEFT-f0-s0":
        "99888ed755aad278ce24e05238ef26d52fb12571f18e2adb832972ece4a8d624",
    "r40p4-DHEFT-f0-s0.2":
        "328180e0ef4fe6a026a5acdf917c26b5a8c8b30a5b40af28e8f592f57e8bfa7b",
    "r40p4-DHEFT-f0.3-s0":
        "e63e24ac381001a437b0960411199c3bde48813202725770775510f141d88d0a",
    "r40p4-DHEFT-f0.3-s0.2":
        "e81a6bc3f5889add604ca7417bb24960d80ff172ba329266399e3aad94e79d82",
    "r40p4-DHEFT-f0.7-s0":
        "3cd793abb5322f5f067c0e8bbbad82c128ca6cb0e5811eca7bdacfbfb533b57c",
    "r40p4-DHEFT-f0.7-s0.2":
        "1c1ed920c0fb3d394d5a87d5b22892858fd799e5669253f3bfe295f143cb6acb",
    "r40p4-DHEFT-flate-s0":
        "c6dc917457fa09a07d2d9079b514ef285783f1c5f9918da7e4c7646a26bc5e0a",
    "r40p4-DHEFT-flate-s0.2":
        "547e68b84598b00f0c8ffadccc19104fd6c794b8d024d5c8d8c4c4bc75d44263",
    "r60p5-HDLTS-f0-s0":
        "3fbe2c18719f83bbefda9e2aa1621071786cc4c7e4dc9493497caa41c183453c",
    "r60p5-HDLTS-f0-s0.2":
        "d034a78a49484580603061ddb25d8393dadc20c0b7d56399643018dec65e32ab",
    "r60p5-HDLTS-f0.3-s0":
        "1436fdc84ebe3b647ad05c888efe513935403fa727fa4167479ab4eff22d866c",
    "r60p5-HDLTS-f0.3-s0.2":
        "31571ec0086d2c3669c2532f92eb58b383be19eb604866f75d913ca76e172e61",
    "r60p5-HDLTS-f0.7-s0":
        "4c1bd0779bc78bdbee0307cc2e03e29c0fa679e487eccb6f8143e448fa694d80",
    "r60p5-HDLTS-f0.7-s0.2":
        "521c1169f9a78f45504f763cbf2f998efa152ef6d69fb3d50940ec2fe085f0f3",
    "r60p5-HDLTS-flate-s0":
        "3ae9e5d97ed913981a8945ce592941adf2afca95252e8d259bbf6ed098755746",
    "r60p5-HDLTS-flate-s0.2":
        "49121bd7c395a11d3b0077bab4a3e399bf6ac2f6e93fb8c902183897c56c513e",
    "r60p5-HEFT-f0-s0":
        "04e15305f56d611e8237498fceec5755d5b10591375ee520e74e36fcee06e10a",
    "r60p5-HEFT-f0-s0.2":
        "5ad9869bc4cfd9109b13cf3d3614a265ffd908879bb2809769a010eb62dfbb89",
    "r60p5-HEFT-f0.3-s0":
        "029c6c60ab01a632d1c8a986d2f1b6d779726eb2a6ec7648b2580c31e0a01a79",
    "r60p5-HEFT-f0.3-s0.2":
        "8e44a807fd6c8875fa6fddd86309f728cc7fab057f71868db4c330a4f1437b41",
    "r60p5-HEFT-f0.7-s0":
        "b3a05b954d93b36c282d89bb209d5c0037e9836077f300e4ceee24bef4ddeba5",
    "r60p5-HEFT-f0.7-s0.2":
        "82efa7b6de6347919e821649fdaccae2f12406d0d753cf07927a999e97b7d125",
    "r60p5-HEFT-flate-s0":
        "b8753c1239bb9f335ef0c88e91022240fac61b732a7c5067fa83c1a0e9d359c2",
    "r60p5-HEFT-flate-s0.2":
        "1ca44343deffce343a7e15e537ea9fc8ffd28837de9bd3615b341a3ece86b317",
    "r60p5-DHEFT-f0-s0":
        "e076b33ec954058ae35366774d0d1418345a63f26b7f9405f807c2ad5085950c",
    "r60p5-DHEFT-f0-s0.2":
        "699a9a6ec5cd5632b37c08a3355230e5d86ee3b0803af1a6ef44d246824dce57",
    "r60p5-DHEFT-f0.3-s0":
        "9696d110806b283afb47e1b92496b8432d796593ca3c92f01044817e2a9aed09",
    "r60p5-DHEFT-f0.3-s0.2":
        "b1d51dae1b67f050fde7ae37916e502f41b5130172d36ccc51eb047cd51ffe99",
    "r60p5-DHEFT-f0.7-s0":
        "422d8d29fbef1181cb479ea158d923bf38c09f08aba39365668c990bbe6b0827",
    "r60p5-DHEFT-f0.7-s0.2":
        "b889064a19bca8b6557a5ad60afbe785a31c8cb5a5367272801c8c5864572e6b",
    "r60p5-DHEFT-flate-s0":
        "5b7f8e9d834efcb921726224cf4d78aae57247c98e5d30d9f16cd906347a90e7",
    "r60p5-DHEFT-flate-s0.2":
        "5848c507abba3dc30c47ff3e51f000d2d5e09fffb2a57c68385adf3d68d9c3df",
    "r50p3-HDLTS-f0-s0":
        "0bf6d2a23fcd54613dc778ee12c47d02b26afbfefe5a82a6e365781a21772b18",
    "r50p3-HDLTS-f0-s0.2":
        "40b020f531f1359f0fd796a8289a22062f28bb9148fed3ad12bfd39e7e1f4d70",
    "r50p3-HDLTS-f0.3-s0":
        "9dc9304899a3dae770dacdf363874a5449e8e278df5b422788a83ddca3107dbf",
    "r50p3-HDLTS-f0.3-s0.2":
        "311247b0d1e19d896f6163f0b69b1039c63a037ca4863f97fac4ba0056faae84",
    "r50p3-HDLTS-f0.7-s0":
        "e2784cdef9c174baa9def152a5c298fab55ac816142ad2cf5260dbcc90166cf1",
    "r50p3-HDLTS-f0.7-s0.2":
        "ba9b3e3367334d69cd7495de1433df18a2417670877fc08a2e92f36fc773d341",
    "r50p3-HDLTS-flate-s0":
        "c6709f04f9556c6fb7264c14f607a72d31230f883b6bb5d4f4a52cfcf98bb612",
    "r50p3-HDLTS-flate-s0.2":
        "2b57a6e0521608a0a14488538c954329c70a46f690f431c12d5cbad9b3f4d4ff",
    "r50p3-HEFT-f0-s0":
        "6f5af9d0552a443bf496247323b5e386367ad0cff2153cd2027ba7fad42b7365",
    "r50p3-HEFT-f0-s0.2":
        "7885c512a3dae5d048b4193a80aaa45a6bc75b26807603380d8f3ad32f870754",
    "r50p3-HEFT-f0.3-s0":
        "659d21dc4c7d599988f2d35c4204785d7fac220b056bb56bebfead2feaf496db",
    "r50p3-HEFT-f0.3-s0.2":
        "baf200a6d6a068bc821c34c3f9230a9e99b7f908aa588276805e4d3371b5c692",
    "r50p3-HEFT-f0.7-s0":
        "3dd011d82b25582601795652bd24c99a67b286027aa17133aa6d700845bb068e",
    "r50p3-HEFT-f0.7-s0.2":
        "ee8edc937e5bc49eba9a9b67c47b2c944ff0a8c4f0b6bbc45f11e33baec48f15",
    "r50p3-HEFT-flate-s0":
        "ba10a0bda307599177a9181bbac9abb6b3b5bc10c1fb1047600caf3cecb03482",
    "r50p3-HEFT-flate-s0.2":
        "72f31eb18c37c72e3624ad1fdaae4ebdb74bc5d6815975fddc2cbd29b1bb48ce",
    "r50p3-DHEFT-f0-s0":
        "e4e02a63c47925dc6c9b3f122b7d626198b9e41ab1c144ba9bb128806112ae84",
    "r50p3-DHEFT-f0-s0.2":
        "1cec483bd4f0d857129fbc5abf15c1ebc847ea4193c8838aa703c3f053ca2f9e",
    "r50p3-DHEFT-f0.3-s0":
        "85d261302e6935cb0a89441a12846477973a8ce5739b8a420045cbdd51ff1c2d",
    "r50p3-DHEFT-f0.3-s0.2":
        "2e1a6d69582688419533649c67d713e98b770c33ccaaed28056d813a790378e9",
    "r50p3-DHEFT-f0.7-s0":
        "f0c424eeb925de472032ec7592532800b2c702a4718bac0c85bd1aa64cdb1f0c",
    "r50p3-DHEFT-f0.7-s0.2":
        "29d0e74d2877cae41268b2e71b57df3028fb92f995d08e22643f7159b00b9ce7",
    "r50p3-DHEFT-flate-s0":
        "d09f0f792ff156962ca3bf96f2c5dbb3d7a841432a4f4bda6213e477d704ca40",
    "r50p3-DHEFT-flate-s0.2":
        "b7272268c3e8442d923b7bd380b02d2b11a4bc44babefc7287ca309ca9206c8e",
}


@pytest.fixture(scope="module")
def corpus_graphs():
    return _corpus_graphs()


@pytest.mark.parametrize(
    "case", list(_digest_cases()), ids=[_digest_id(*c) for c in _digest_cases()]
)
def test_repair_digest(corpus_graphs, case):
    _, _, result = _repair_case(corpus_graphs, *case)
    assert repair_digest(result) == REPAIR_DIGESTS[_digest_id(*case)]


def test_digest_corpus_reaches_its_regimes(corpus_graphs):
    """The corpus must lose dispatches (duplicates among them), leave a
    single survivor, re-plan after executed non-entry duplicates, and
    hand off a primary that ran before a non-entry parent's primary (it
    read the parent's duplicate), or the digests pin little of
    interest."""
    seen = set()
    for case in _digest_cases():
        graph, _, result = _repair_case(corpus_graphs, *case)
        lost = [i for i, r in enumerate(result.records) if r.lost]
        if not lost:
            continue
        seen.add("lost")
        if result.records[lost[0]].duplicate:
            seen.add("lost duplicate")
        if graph.n_procs == 2:
            seen.add("one survivor")
        done = set()
        for r in result.records[:lost[0]]:
            if r.duplicate and r.task != graph.entry_task:
                seen.add("non-entry duplicate")
            if not r.duplicate:
                if any(
                    p not in done and p != graph.entry_task
                    for p in graph.predecessors(r.task)
                ):
                    seen.add("primary before a parent's primary")
                done.add(r.task)
    assert seen == {
        "lost", "lost duplicate", "one survivor", "non-entry duplicate",
        "primary before a parent's primary",
    }


if __name__ == "__main__":  # regenerate REPAIR_DIGESTS
    _graphs = _corpus_graphs()
    for _case in _digest_cases():
        _digest = repair_digest(_repair_case(_graphs, *_case)[2])
        print(f'    "{_digest_id(*_case)}":\n        "{_digest}",')
