"""The three benchmark sessions: the paper's user path at three shapes.

Every session reports every end-to-end metric, so each one walks the whole
path a CPU architect runs -- label design points through a measurement
store, read them back warm, pre-train the IPC and power predictors with
MAML + WAM, adapt them few-shot to target workloads and run a DSE campaign.
The workloads differ in which stage is repeated in the timed section:

* ``pretrain`` repeats a reduced-scale ``MetaDSE.pretrain`` (nn and meta do
  the work);
* ``campaign`` repeats a strategy-portfolio ``MetaDSE.explore`` over a pair
  of target workloads (dse dominates; sim is below 1 %);
* ``label`` repeats a cold labelling pass into a fresh store (sim and store
  do the work).

Stages before the timed one are set-up; the stages after it give the
quality figures at the session's scale.  The timed section is made of many
short units and every unit's rate is kept as a sample.  Each unit is
followed by warm passes that read its labelled store back, so the read
samples are spread over the section too and a slow spell of the host does
not land on one metric only.  All inputs derive from the seed; nothing
outlives the session's work directory.
"""

from __future__ import annotations

import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import default_config
from repro.core.metadse import MetaDSE
from repro.datasets import generation
from repro.datasets.splits import paper_split
from repro.datasets.tasks import holdout_task
from repro.dse.pareto import to_minimization
from repro.dse.quality import hypervolume_ratio
from repro.metrics.regression import rmse
from repro.runtime import JobFailedError
from repro.sim.simulator import Simulator
from repro.workloads.spec2017 import TABLE2_TEST_WORKLOADS

from host import calibrate

#: Target pairs of the timed campaigns: each Table II test workload twice.
CAMPAIGN_PAIRS = tuple(
    (TABLE2_TEST_WORKLOADS[index % 5], TABLE2_TEST_WORKLOADS[(index + 1) % 5]) for index in range(0, 10, 2)
)

#: Few-shot support size K of the accuracy metric and the campaign supports.
SUPPORT_SIZE = 10
#: Unseen points each adapted predictor is scored on.
QUERY_SIZE = 290
#: Support draws per test workload behind ``fewshot_rmse``.
EPISODES = 4
#: Seed of the 7/5 train/validation partition of the twelve source
#: workloads.  It stays fixed, like the predictors' own seeds, so the session
#: seed varies the labelled points, the supports and the campaign, not which
#: workloads are sources or how the networks start.
SPLIT_SEED = 0


@dataclass(frozen=True)
class Campaign:
    """Shape of one ``MetaDSE.explore`` call."""

    targets: tuple[str, ...]
    strategy: str
    pool: int  # candidate pool
    rounds: int  # rounds (>= 3 for the portfolio)
    budget: int  # simulations per workload and round


@dataclass(frozen=True)
class Shape:
    """Stage sizes of one session."""

    points: int  # design points labelled per workload (all 17 workloads)
    phases: int  # SimPoint phases per workload
    warm_passes: int  # store read passes over each labelled store
    min_units: int  # timed units at least
    scale: tuple[int, int]  # (epochs, tasks per workload) of every predictor
    campaign: Campaign


#: The campaign the other sessions run after their timed section: the
#: portfolio over the Table II test workloads, on a small candidate pool.
SMALL_CAMPAIGN = Campaign(TABLE2_TEST_WORKLOADS, "portfolio", 100, 3, 8)

SHAPES = {
    "pretrain": Shape(300, 4, 2, 3, (1, 8), SMALL_CAMPAIGN),
    "campaign": Shape(300, 4, 4, len(CAMPAIGN_PAIRS), (1, 4), Campaign((), "portfolio", 100, 3, 8)),
    "label": Shape(600, 30, 2, 2, (1, 8), SMALL_CAMPAIGN),
}


class Ledger:
    """Operations attempted and failed, and the checks that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, problem: str) -> None:
        """A failed check fails the run and counts as a failed operation."""
        if not ok:
            self.problems.append(problem)
            self.failed += 1


class _NoSpans:
    """Stands in for the recorder in the untraced run: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def mark(self, section: str):
        return nullcontext()


def _label_bits(dataset) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    def bits(values):
        return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)

    return {
        name: (bits(data.metric("ipc")), bits(data.metric("power")))
        for name, data in dataset.per_workload.items()
    }


def _rows(dataset) -> int:
    return dataset.num_points * len(dataset)


# -- stages ---------------------------------------------------------------------
def label(store_path, shape: Shape, seed: int, ledger: Ledger):
    """Cold pass: simulate every (point, workload) row and write it to the store."""
    simulator = Simulator(simpoint_phases=shape.phases, store=store_path)
    start = time.perf_counter()
    dataset = generation.generate_dataset(simulator, num_points=shape.points, seed=seed)
    elapsed = time.perf_counter() - start
    bad = sum(
        int(np.count_nonzero(~(np.isfinite(data.metric("ipc")) & np.isfinite(data.metric("power")))))
        for data in dataset.per_workload.values()
    )
    ledger.count(_rows(dataset), bad)
    return dataset, elapsed


def warm_read(store_path, cold, shape: Shape, seed: int, ledger: Ledger, spans) -> list[float]:
    """Re-label the cold points through fresh simulators over the store.

    Every row must come from the store (no simulation) and equal its cold
    row bitwise.  Returns the rows per second of each pass.
    """
    expected = _label_bits(cold)
    rates = []
    with spans.mark("warm"):
        for _ in range(shape.warm_passes):
            start = time.perf_counter()
            simulator = Simulator(simpoint_phases=shape.phases, store=store_path)
            warm = generation.generate_dataset(simulator, num_points=shape.points, seed=seed)
            rates.append(_rows(cold) / (time.perf_counter() - start))
            differing = sum(
                int(np.count_nonzero((ipc != expected[name][0]) | (power != expected[name][1])))
                for name, (ipc, power) in _label_bits(warm).items()
            )
            ledger.count(_rows(warm), differing)
            ledger.check(
                simulator.evaluation_count == 0,
                f"warm pass simulated {simulator.evaluation_count} phase evaluations",
            )
    issues = simulator.store.verify()
    ledger.check(not issues, f"store.verify() reported {issues}")
    return rates


def pretrain(dataset, metric: str, shape: Shape, ledger: Ledger, model_seed: int = 0):
    """Meta-train one predictor; returns ``(model, tasks per second)``."""
    epochs, tasks = shape.scale
    config = default_config(seed=model_seed)
    config = replace(config, maml=replace(config.maml, meta_epochs=epochs, tasks_per_workload=tasks))
    split = paper_split(seed=SPLIT_SEED)
    model = MetaDSE(dataset.space.num_parameters, config=config)
    start = time.perf_counter()
    model.pretrain(dataset, split, metric=metric)
    elapsed = time.perf_counter() - start
    history = model.pretrain_report.history
    per_epoch = config.maml.tasks_per_workload * len(split.train)
    steps = math.ceil(per_epoch / config.maml.meta_batch_size)
    # A non-finite step loss makes its epoch mean non-finite: count every
    # step of such an epoch as failed.
    bad_epochs = sum(not math.isfinite(loss) for loss in history.train_losses)
    ledger.count(steps * history.num_epochs, steps * bad_epochs)
    ledger.check(
        all(math.isfinite(loss) for loss in history.validation_losses),
        f"non-finite {metric} meta-validation loss",
    )
    return model, history.total_tasks / elapsed


def fewshot_rmse(model: MetaDSE, dataset, seed: int) -> float:
    """Mean IPC RMSE over the Table II test workloads after K-shot adaptation.

    Averaged over :data:`EPISODES` support draws per workload, all adapted
    in one ``adapt_many`` call.
    """
    tasks = [
        holdout_task(
            dataset[workload], metric="ipc", support_size=SUPPORT_SIZE, query_size=QUERY_SIZE, seed=[seed, episode]
        )
        for workload in TABLE2_TEST_WORKLOADS
        for episode in range(EPISODES)
    ]
    adapted = model.adapt_many([(task.support_x, task.support_y) for task in tasks])
    errors = []
    for task, result in zip(tasks, adapted):
        model.adapted = result.predictor  # predict() then answers in physical units
        errors.append(rmse(task.query_y, model.predict(task.query_x)))
    return float(np.mean(errors))


def campaign(ipc: MetaDSE, power: MetaDSE, dataset, shape: Campaign, phases: int, seed: int, ledger: Ledger):
    """One campaign; returns ``(final hypervolume, workload-rounds per second)``.

    The final hypervolume is the mean over target workloads of the measured
    front's hypervolume as a share of the labelled points' front (both
    against one reference point), so it is comparable across workloads and
    seeds; above 1 the campaign found designs beyond the labelled sample.
    """
    supports = {
        metric: {
            workload: (task.support_x, task.support_y)
            for workload in shape.targets
            for task in [holdout_task(dataset[workload], metric=metric, support_size=SUPPORT_SIZE, seed=seed)]
        }
        for metric in ("ipc", "power")
    }
    simulator = Simulator(simpoint_phases=phases, evaluation_cache=True)
    operations = len(shape.targets) * shape.rounds
    start = time.perf_counter()
    try:
        result = ipc.explore(
            simulator,
            supports["ipc"],
            objectives={"power": power},
            objective_supports={"power": supports["power"]},
            candidate_pool=shape.pool,
            simulation_budget=shape.budget,
            rounds=shape.rounds,
            seed=seed,
            strategy=shape.strategy,
        )
    except JobFailedError as error:
        ledger.count(operations, operations)
        ledger.problems.append(f"campaign job failed: {error}")
        return math.nan, operations / (time.perf_counter() - start)
    rate = operations / (time.perf_counter() - start)
    curves = result.hypervolume_curves()
    ledger.count(operations, sum(not math.isfinite(v) for curve in curves.values() for v in curve))
    # Every round measures the union of all workloads' selections on every
    # workload, so each workload spends the same count, between its own
    # budget and the union of everyone's.
    used = {result[name].simulations_used for name in shape.targets}
    own = shape.rounds * shape.budget
    ledger.check(
        len(used) == 1
        and result.total_simulations == len(shape.targets) * min(used)
        and own <= min(used) <= own * len(shape.targets),
        f"campaign spent {result.total_simulations} simulations outside its budget",
    )
    maximize = result.objectives.maximize
    ratios = []
    for name in shape.targets:
        labelled = np.stack([dataset[name].metric(metric) for metric in result.objectives.names], axis=1)
        ratios.append(
            hypervolume_ratio(
                to_minimization(result[name].measured_objectives, maximize),
                to_minimization(labelled, maximize),
            )
        )
    return float(np.mean(ratios)), rate


# -- sessions -------------------------------------------------------------------
@dataclass
class Session:
    """What one session measured."""

    ready: float = 0.0  # time.monotonic() at the start of the timed section
    timed_s: float = 0.0  # wall time of the timed section
    calibration: list[float] = field(default_factory=list)  # calibrate() readings
    rates: list[float] = field(default_factory=list)  # throughput of each timed unit
    read_rates: list[float] = field(default_factory=list)  # rows/s of each warm pass
    fewshot_rmse: float = math.nan
    final_hypervolume: float = math.nan


def run_session(workload: str, seed: int, seconds: float, work_dir, *, setup_only=False, spans=None):
    """Run one session; returns ``(Session, Ledger)``.

    The timed section repeats the workload's unit while another unit is
    expected to end within *seconds*, and at least ``min_units`` times (so
    ``seconds=0`` runs exactly that many).  With ``setup_only`` the session
    stops where its timed section would start.  ``spans`` is the traced
    run's recorder.
    """
    shape = SHAPES[workload]
    spans = spans if spans is not None else _NoSpans()
    ledger = Ledger()
    session = Session()
    runner = {"pretrain": _pretrain_session, "campaign": _campaign_session, "label": _label_session}[workload]
    session.calibration.extend(calibrate())
    with spans.span("bench.setup"):
        unit, tail = runner(shape, seed, work_dir, ledger, session, spans)
    session.ready = time.monotonic()
    session.calibration.extend(calibrate())
    if setup_only:
        return session, ledger
    start = time.perf_counter()
    with spans.span("bench.timed"):
        while True:
            began = time.perf_counter()
            session.rates.append(unit(len(session.rates)))
            session.calibration.extend(calibrate())
            elapsed = time.perf_counter() - start
            if len(session.rates) >= shape.min_units and elapsed + (time.perf_counter() - began) > seconds:
                break
    session.timed_s = time.perf_counter() - start
    with spans.span("bench.tail"):
        tail()
    return session, ledger


def _pretrain_session(shape, seed, work_dir, ledger, session, spans):
    store = work_dir / "data.store"
    dataset, _ = label(store, shape, seed, ledger)
    models = []

    def unit(index):
        model, rate = pretrain(dataset, "ipc", shape, ledger, model_seed=index)
        if index == 0:  # keep one model only, so memory does not grow with the unit count
            models.append(model)
        session.read_rates.extend(warm_read(store, dataset, shape, seed, ledger, spans))
        return rate

    def tail():
        ipc = models[0]
        session.fewshot_rmse = fewshot_rmse(ipc, dataset, seed)
        power, _ = pretrain(dataset, "power", shape, ledger)
        session.final_hypervolume, _ = campaign(ipc, power, dataset, shape.campaign, shape.phases, seed, ledger)

    return unit, tail


def _campaign_session(shape, seed, work_dir, ledger, session, spans):
    store = work_dir / "data.store"
    dataset, _ = label(store, shape, seed, ledger)
    ipc, _ = pretrain(dataset, "ipc", shape, ledger)
    power, _ = pretrain(dataset, "power", shape, ledger)
    outcomes = []

    def unit(index):
        pair = CAMPAIGN_PAIRS[index % len(CAMPAIGN_PAIRS)]
        pair_campaign = replace(shape.campaign, targets=pair)
        outcome, rate = campaign(ipc, power, dataset, pair_campaign, shape.phases, seed, ledger)
        outcomes.append(outcome)
        session.read_rates.extend(warm_read(store, dataset, shape, seed, ledger, spans))
        return rate

    def tail():
        pairs = len(CAMPAIGN_PAIRS)
        ledger.check(
            all(outcome == outcomes[index % pairs] for index, outcome in enumerate(outcomes)),
            f"repeated campaigns reached different hypervolumes: {outcomes}",
        )
        session.final_hypervolume = float(np.mean(outcomes[:pairs]))
        session.fewshot_rmse = fewshot_rmse(ipc, dataset, seed)

    return unit, tail


def _label_session(shape, seed, work_dir, ledger, session, spans):
    first = []

    def unit(index):
        store = work_dir / f"label-{index}.store"
        dataset, elapsed = label(store, shape, seed, ledger)
        if first:
            expected = _label_bits(first[0])
            ledger.check(
                all(
                    np.array_equal(ipc, expected[name][0]) and np.array_equal(power, expected[name][1])
                    for name, (ipc, power) in _label_bits(dataset).items()
                ),
                "repeated cold passes differ",
            )
        else:
            first.append(dataset)
        session.read_rates.extend(warm_read(store, dataset, shape, seed, ledger, spans))
        shutil.rmtree(store)
        return _rows(dataset) / elapsed

    def tail():
        dataset = first[0]
        ipc, _ = pretrain(dataset, "ipc", shape, ledger)
        power, _ = pretrain(dataset, "power", shape, ledger)
        session.fewshot_rmse = fewshot_rmse(ipc, dataset, seed)
        session.final_hypervolume, _ = campaign(ipc, power, dataset, shape.campaign, shape.phases, seed, ledger)

    return unit, tail
