"""``train_a``: ShmCaffe-A on the scaled Inception-v1, closed loop.

Two workers train in one process over the in-process SMB with the
Fig.-6 overlap and MASTER_STOP termination.  The run is a sequence of
rounds; each round is a fresh job (net build, SMB segments, key
broadcast) warm-started from the previous round's ``W_g``, so one run
measures set-up several times and trains one model throughout.
"""

from __future__ import annotations

import gc
import math
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from common import (
    CheckFailed,
    Outcome,
    Round,
    Rounds,
    planned_rounds,
    vm_hwm_mb,
)
from spans import Patcher, Tracer, caffe_hooks, core_hooks, smb_hooks

BATCH = 16
IMAGE = 12
CLASSES = 10
NOISE = 0.9
ALPHA = 0.2
WORKERS = 2
#: Master iterations per round (about 6 s of training on a 2-core host).
ROUND_ITERATIONS = 120
#: Untraced iteration samples per run: a p99 with 10 samples beyond it.
MIN_SAMPLES = 1000
#: Floor on the final W_g top-1 test accuracy (10 classes, chance 0.1).
ACCURACY_FLOOR = 0.9


class _Probes(Patcher):
    """Always-on timing at the engine boundary (not tracing).

    Records each ``TrainingEngine.run`` entry/exit and each worker
    iteration, from the start of ``SEASGDExchange.exchange`` to the end
    of the ``train_step`` that follows it.
    """

    def __init__(self, tracer_ref: Callable[[], Optional[Tracer]]) -> None:
        from repro.core import engine, exchange

        super().__init__()
        self.entries: List[float] = []
        self.exits: List[float] = []
        self.latencies: List[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        probes = self

        run = engine.TrainingEngine.run

        def timed_run(self: Any) -> Any:
            with probes._lock:
                probes.entries.append(perf_counter())
            try:
                return run(self)
            finally:
                with probes._lock:
                    probes.exits.append(perf_counter())

        exchange_fn = exchange.SEASGDExchange.exchange

        def timed_exchange(self: Any, iteration: int) -> None:
            probes._local.start = perf_counter()
            tracer = tracer_ref()
            if tracer is not None:
                tracer.unit = f"r{self.engine.rank}i{iteration}"
            exchange_fn(self, iteration)

        step_fn = exchange.BaseExchange.train_step

        def timed_step(self: Any) -> Dict[str, float]:
            stats = step_fn(self)
            start = getattr(probes._local, "start", None)
            if start is not None:
                end = perf_counter()
                probes.latencies.append(end - start)
                tracer = tracer_ref()
                if tracer is not None:
                    tracer.record("train.iteration", start, end)
                probes._local.start = None
            return stats

        self.patch(engine.TrainingEngine, "run", timed_run)
        self.patch(exchange.SEASGDExchange, "exchange", timed_exchange)
        self.patch(exchange.BaseExchange, "train_step", timed_step)

    def reset(self) -> None:
        self.entries, self.exits, self.latencies = [], [], []


def _job(seed: int, iterations: int, train_per_class: int):
    from repro.caffe.data import SyntheticImageDataset
    from repro.caffe.models import scaled_spec
    from repro.caffe.solver import SolverConfig
    from repro.core.config import ShmCaffeConfig, TerminationCriterion

    dataset = SyntheticImageDataset(
        num_classes=CLASSES, image_size=IMAGE,
        train_per_class=train_per_class, test_per_class=20,
        noise=NOISE, seed=seed,
    )

    def spec_factory():
        return scaled_spec(
            "inception_v1", batch_size=BATCH, image_size=IMAGE,
            num_classes=CLASSES,
        )

    config = ShmCaffeConfig(
        solver=SolverConfig(base_lr=0.05, momentum=0.9),
        moving_rate=ALPHA,
        update_interval=1,
        max_iterations=iterations,
        termination=TerminationCriterion.MASTER_STOP,
        overlap_updates=True,
    )
    return dataset, spec_factory, config


def run(
    seed: int,
    seconds: float,
    trace: bool,
    round_iterations: int = ROUND_ITERATIONS,
    min_samples: int = MIN_SAMPLES,
    train_per_class: int = 100,
    accuracy_floor: float = ACCURACY_FLOOR,
    corrupt: Optional[Callable[[np.ndarray], None]] = None,
) -> Outcome:
    """Train in rounds until ``seconds`` of training (and enough samples).

    ``corrupt`` (tests only) may damage the final ``W_g`` before it is
    checked, to prove the accuracy check trips.
    """
    from repro.core.trainer import DistributedTrainingManager
    from repro.platforms.base import evaluate_weights

    dataset, spec_factory, config = _job(
        seed, round_iterations, train_per_class
    )
    state: Dict[str, Any] = {"tracer": None, "weights": None}
    probes = _Probes(lambda: state["tracer"])

    def one_round(_index: int, traced: bool) -> Round:
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install(caffe_hooks, core_hooks, smb_hooks)
        state["tracer"] = tracer
        probes.reset()
        start = perf_counter()
        try:
            manager = DistributedTrainingManager(
                spec_factory, config, dataset, BATCH, WORKERS,
                seed=seed, initial_weights=state["weights"],
            )
            result = manager.run(timeout=300.0)
        finally:
            state["tracer"] = None
            if tracer is not None:
                tracer.uninstall()
        window = max(probes.exits) - min(probes.entries)
        iterations = sum(h.completed_iterations for h in result.histories)
        _check_round(result, round_iterations)
        state["weights"] = result.final_global_weights
        del manager, result
        # Drop the finished job's cyclic garbage now, so peak RSS
        # does not depend on how many rounds fit in the run.
        gc.collect()
        return Round(
            setup_s=min(probes.entries) - start, window_s=window,
            rate=iterations * BATCH / window, units=iterations,
            latencies=probes.latencies, attempted=iterations,
            spans={} if tracer is None else {"benchmark": tracer.finished()},
        )

    try:
        done = Rounds(trace).run(
            one_round, planned_rounds(1, trace), min_samples, seconds
        )
    finally:
        probes.uninstall()

    weights = state["weights"]
    if corrupt is not None:
        corrupt(weights)
    accuracy = evaluate_weights(
        spec_factory, weights, dataset, seed=seed
    )["accuracy_top1"]
    if not accuracy > accuracy_floor:
        raise CheckFailed(
            f"final W_g test accuracy {accuracy:.3f} is not above the "
            f"floor {accuracy_floor}"
        )
    outcome = done.outcome(peak_rss_mb=vm_hwm_mb())
    rounds = len(done.plain) + len(done.traced)
    outcome.notes.append(f"final accuracy {accuracy:.3f}, {rounds} rounds")
    return outcome


def _check_round(result: Any, iterations: int) -> None:
    histories = result.histories
    if len(histories) != WORKERS:
        raise CheckFailed(f"{len(histories)} of {WORKERS} workers reported")
    failed = [h.rank for h in histories if h.failed]
    if failed:
        raise CheckFailed(f"worker(s) {failed} ended failed")
    if histories[0].completed_iterations < iterations:
        raise CheckFailed(
            f"master stopped after {histories[0].completed_iterations} "
            f"of {iterations} iterations"
        )
    for history in histories:
        if not all(math.isfinite(loss) for loss in history.losses):
            raise CheckFailed(f"worker {history.rank} logged a non-finite loss")
