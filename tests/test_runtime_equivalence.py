"""Bitwise equivalence of the parallel runtime against the serial reference.

The runtime's determinism contract (``docs/runtime.md``): for noise-free
simulators, every executor path — sharded ``run_batch``/``run_sweep``,
parallel dataset generation, and thread/process campaigns — produces
results **bitwise identical** to the :class:`SerialExecutor` reference,
which in turn reproduces the pre-runtime serial paths exactly.  These
tests pin that contract for every executor kind (the same idiom as
``tests/test_sim_batch_equivalence.py`` pinning ``run_batch`` against
``run_scalar``).
"""

from functools import partial

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostingRegressor
from repro.datasets.generation import generate_dataset
from repro.designspace.sampling import RandomSampler
from repro.dse.acquisition import ExplorationBonusAcquisition
from repro.dse.engine import CampaignEngine, NSGA2Evolve, ObjectiveSet, RandomPool
from repro.dse.surrogates import CallableSurrogate, TreeEnsembleSurrogate
from repro.runtime.executors import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.sim.simulator import Simulator

WORKLOADS = ("605.mcf_s", "625.x264_s", "602.gcc_s")

METRICS = ("ipc", "power_w", "area_mm2", "bips", "energy_per_instruction_nj")


def _executor_factories():
    return [
        pytest.param(SerialExecutor, id="serial"),
        pytest.param(lambda: ThreadExecutor(2), id="thread"),
        pytest.param(lambda: ProcessExecutor(2), id="process"),
    ]


def make_simulator(cache: bool = False) -> Simulator:
    return Simulator(simpoint_phases=3, seed=17, evaluation_cache=cache)


@pytest.fixture(scope="module")
def configs():
    return RandomSampler(make_simulator().space, seed=9).sample(23)


# -- simulator sweeps ---------------------------------------------------------------
class TestSimulatorEquivalence:
    @pytest.mark.parametrize("make_executor", _executor_factories())
    def test_run_batch_bitwise(self, configs, make_executor):
        reference = make_simulator().run_batch(configs, WORKLOADS[0])
        with make_executor() as executor:
            parallel = make_simulator().run_batch(
                configs, WORKLOADS[0], executor=executor
            )
        for metric in METRICS:
            np.testing.assert_array_equal(
                getattr(reference, metric), getattr(parallel, metric), err_msg=metric
            )

    @pytest.mark.parametrize("make_executor", _executor_factories())
    @pytest.mark.parametrize("cache", [False, True])
    def test_run_sweep_bitwise(self, configs, make_executor, cache):
        reference = make_simulator(cache).run_sweep(configs, WORKLOADS)
        with make_executor() as executor:
            parallel = make_simulator(cache).run_sweep(
                configs, WORKLOADS, executor=executor
            )
        for workload in WORKLOADS:
            for metric in METRICS:
                np.testing.assert_array_equal(
                    getattr(reference[workload], metric),
                    getattr(parallel[workload], metric),
                    err_msg=f"{workload}/{metric}",
                )

    def test_single_config_sweep_parallelises_over_workloads(self, configs):
        # One configuration still fans out across the workload axis; the
        # result must stay bitwise identical to serial.
        reference = make_simulator().run_sweep(configs[:1], WORKLOADS)
        with ThreadExecutor(2) as executor:
            parallel = make_simulator().run_sweep(
                configs[:1], WORKLOADS, executor=executor
            )
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                reference[workload].ipc, parallel[workload].ipc
            )

    def test_parallel_fills_the_parent_cache(self, configs):
        # After a parallel sweep, repeats are served entirely from the
        # parent's merged cache: same arrays, no new evaluations.
        simulator = make_simulator(cache=True)
        with ThreadExecutor(2) as executor:
            first = simulator.run_sweep(configs, WORKLOADS, executor=executor)
            count = simulator.evaluation_count
            again = simulator.run_sweep(configs, WORKLOADS, executor=executor)
        assert simulator.evaluation_count == count
        for workload in WORKLOADS:
            np.testing.assert_array_equal(first[workload].ipc, again[workload].ipc)

    def test_warm_parent_cache_is_read_by_thread_workers(self, configs):
        simulator = make_simulator(cache=True)
        serial = simulator.run_sweep(configs[:10], WORKLOADS)
        count = simulator.evaluation_count
        with ThreadExecutor(2) as executor:
            parallel = simulator.run_sweep(configs, WORKLOADS, executor=executor)
        # The first 10 configurations were cache hits inside the workers.
        expected_fresh = (len(configs) - 10) * 3 * len(WORKLOADS)
        assert simulator.evaluation_count == count + expected_fresh
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                serial[workload].ipc, parallel[workload].ipc[:10]
            )

    def test_noisy_simulator_rejects_parallel_evaluation(self, configs):
        noisy = Simulator(simpoint_phases=2, noise_std=0.05, seed=1)
        with ThreadExecutor(2) as executor:
            with pytest.raises(ValueError, match="noise-free"):
                noisy.run_batch(configs, WORKLOADS[0], executor=executor)
            with pytest.raises(ValueError, match="noise-free"):
                noisy.run_sweep(configs, WORKLOADS, executor=executor)

    def test_pickled_simulator_ships_an_empty_cache(self, configs):
        import pickle

        simulator = make_simulator(cache=True)
        simulator.run_sweep(configs, WORKLOADS)
        clone = pickle.loads(pickle.dumps(simulator))
        assert clone._evaluation_cache == {}
        # ... but the warm phase tables travel with it.
        assert set(clone._phase_table_cache) == set(simulator._phase_table_cache)
        np.testing.assert_array_equal(
            clone.run_batch(configs[:3], WORKLOADS[0]).ipc,
            simulator.run_batch(configs[:3], WORKLOADS[0]).ipc,
        )


# -- dataset generation --------------------------------------------------------------
class TestDatasetGenerationEquivalence:
    @pytest.mark.parametrize("make_executor", _executor_factories())
    def test_generate_dataset_bitwise(self, make_executor):
        reference = generate_dataset(
            make_simulator(), workloads=list(WORKLOADS), num_points=30, seed=5
        )
        with make_executor() as executor:
            parallel = generate_dataset(
                make_simulator(),
                workloads=list(WORKLOADS),
                num_points=30,
                seed=5,
                executor=executor,
            )
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                reference[workload].features, parallel[workload].features
            )
            for metric in ("ipc", "power"):
                np.testing.assert_array_equal(
                    reference[workload].metric(metric),
                    parallel[workload].metric(metric),
                    err_msg=f"{workload}/{metric}",
                )


# -- campaigns -----------------------------------------------------------------------
def _linear_ipc(offset, features):
    return features.sum(axis=1) + offset


def _linear_power(offset, features):
    return (features ** 2).sum(axis=1) - offset


def callable_surrogates():
    return {
        workload: CallableSurrogate(
            {
                "ipc": partial(_linear_ipc, 0.1 * index),
                "power": partial(_linear_power, 0.05 * index),
            }
        )
        for index, workload in enumerate(WORKLOADS)
    }


def tree_surrogates(seed=3):
    factory = partial(GradientBoostingRegressor, n_estimators=6, max_depth=2, seed=seed)
    return {
        workload: TreeEnsembleSurrogate(factory, ("ipc", "power"))
        for workload in WORKLOADS
    }


def make_engine() -> CampaignEngine:
    simulator = Simulator(simpoint_phases=2, seed=11, evaluation_cache=True)
    return CampaignEngine(
        simulator.space,
        simulator,
        ObjectiveSet.from_names(("ipc", "power")),
        seed=5,
    )


def _assert_campaigns_bitwise_equal(reference, candidate):
    assert reference.workloads == candidate.workloads
    assert reference.candidates_screened == candidate.candidates_screened
    assert reference.total_simulations == candidate.total_simulations
    for workload in reference.workloads:
        ref, got = reference[workload], candidate[workload]
        np.testing.assert_array_equal(ref.measured_objectives, got.measured_objectives)
        np.testing.assert_array_equal(ref.pareto_indices, got.pareto_indices)
        assert ref.selected_indices == got.selected_indices
        assert ref.simulated_configs == got.simulated_configs
        assert ref.hypervolume_history() == got.hypervolume_history()


class TestCampaignEquivalence:
    @pytest.mark.parametrize("make_executor", _executor_factories())
    def test_single_round_matches_legacy_shared_pool_bitwise(self, make_executor):
        legacy = make_engine().run_campaign_reference(
            WORKLOADS, callable_surrogates(), candidate_pool=60, simulation_budget=5
        )
        with make_executor() as executor:
            runtime = make_engine().run_campaign(
                WORKLOADS,
                callable_surrogates(),
                candidate_pool=60,
                simulation_budget=5,
                executor=executor,
            )
        _assert_campaigns_bitwise_equal(legacy, runtime)
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                legacy[workload].predicted, runtime[workload].predicted
            )

    @pytest.mark.parametrize("make_executor", _executor_factories()[1:])
    def test_multi_round_refit_campaign_bitwise(self, make_executor):
        kwargs = dict(
            candidate_pool=40,
            simulation_budget=4,
            rounds=3,
            initial_samples=5,
            refit=True,
        )
        reference = make_engine().run_campaign(
            WORKLOADS, tree_surrogates(), executor=SerialExecutor(), **kwargs
        )
        with make_executor() as executor:
            parallel = make_engine().run_campaign(
                WORKLOADS, tree_surrogates(), executor=executor, **kwargs
            )
        _assert_campaigns_bitwise_equal(reference, parallel)

    @pytest.mark.parametrize(
        "surrogates, kwargs",
        [
            pytest.param(
                callable_surrogates,
                dict(generator=RandomPool(40), simulation_budget=4, rounds=3),
                id="unseeded-random-pool",
            ),
            pytest.param(
                tree_surrogates,
                dict(
                    acquisition=ExplorationBonusAcquisition(),
                    candidate_pool=40,
                    simulation_budget=3,
                    rounds=2,
                    initial_samples=4,
                    refit=True,
                ),
                id="refit-trees",
            ),
        ],
    )
    def test_executor_never_changes_the_outcome(self, surrogates, kwargs):
        # No executor is the one-worker case of the same runtime driver, so
        # executor=None, serial and threaded campaigns are one campaign.
        def campaign(executor):
            return make_engine().run_campaign(
                WORKLOADS, surrogates(), executor=executor, **kwargs
            )

        reference = campaign(None)
        _assert_campaigns_bitwise_equal(reference, campaign(SerialExecutor()))
        with ThreadExecutor(2) as executor:
            _assert_campaigns_bitwise_equal(reference, campaign(executor))

        # Union semantics: every round measures the union of all workloads'
        # picks on every workload.
        budget = kwargs["simulation_budget"]
        initial_samples = kwargs.get("initial_samples", 0)
        first = reference[WORKLOADS[0]]
        totals = [initial_samples] + [r.simulations_total for r in first.rounds]
        union_sizes = np.diff(totals)
        assert len(union_sizes) == kwargs["rounds"]
        assert all(budget <= size <= budget * len(WORKLOADS) for size in union_sizes)
        last_union = set().union(*(reference[w].selected_indices for w in WORKLOADS))
        assert last_union == set(range(totals[-2], totals[-1]))
        for result in reference:
            assert result.simulations_used == initial_samples + union_sizes.sum()
            assert result.simulated_configs == first.simulated_configs
        assert reference.total_simulations == first.simulations_used * len(WORKLOADS)

    def test_shared_stream_surrogate_dependent_generator_is_rejected(self):
        # Int-seeded NSGA2Evolve is rank-stable and accepted (pinned by
        # tests/test_dse_portfolio_equivalence.py); seeding with an existing
        # Generator keeps the legacy shared mutable stream, which the
        # runtime cannot shard or resume deterministically — on any
        # executor, the default one-worker case included.
        shared_stream = NSGA2Evolve(
            population_size=8, generations=2, seed=np.random.default_rng(0)
        )
        assert not shared_stream.rank_stable
        for executor in (None, SerialExecutor()):
            with pytest.raises(ValueError, match="rank-stable"):
                make_engine().run_campaign(
                    WORKLOADS,
                    callable_surrogates(),
                    generator=shared_stream,
                    simulation_budget=4,
                    executor=executor,
                )

    def test_refit_requires_refittable_surrogates(self):
        with pytest.raises(ValueError, match="refittable"):
            make_engine().run_campaign(
                WORKLOADS,
                callable_surrogates(),
                candidate_pool=20,
                simulation_budget=3,
                rounds=2,
                initial_samples=4,
                refit=True,
                executor=SerialExecutor(),
            )
