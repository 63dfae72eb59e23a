"""End-to-end TCP training and failure-injection tests."""

import threading

import numpy as np
import pytest

from repro.caffe import Net, SolverConfig, SyntheticImageDataset
from repro.caffe.params import FlatParams
from repro.core import (
    DistributedTrainingManager,
    ShmCaffeConfig,
    TerminationCriterion,
)
from repro.core.engine import TrainingEngine, WorkerError
from repro.core.exchange import make_exchange
from repro.smb import (
    CapacityError,
    MembershipRegistry,
    SMBClient,
    SMBServer,
    TcpSMBServer,
)

from .test_netspec import small_spec


@pytest.fixture()
def dataset():
    return SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=40, test_per_class=8,
        noise=0.7, seed=5,
    )


def make_config(iterations=5):
    return ShmCaffeConfig(
        solver=SolverConfig(base_lr=0.05, momentum=0.9),
        moving_rate=0.2,
        max_iterations=iterations,
        termination=TerminationCriterion.MASTER_STOP,
    )


class TestTcpTrainer:
    def test_full_run_over_tcp(self, dataset):
        """The whole distributed job against a real TCP SMB server."""
        with TcpSMBServer(capacity=1 << 26) as server:
            manager = DistributedTrainingManager(
                spec_factory=lambda: small_spec(batch=4),
                config=make_config(iterations=5),
                dataset=dataset,
                batch_size=4,
                num_workers=3,
                server_address=server.address,
                seed=1,
            )
            result = manager.run(timeout=300)
        assert len(result.histories) == 3
        # MASTER_STOP: the master runs its full budget; slaves stop when
        # its flag lands, which may be before their own 5th iteration.
        assert result.histories[0].completed_iterations >= 5
        assert all(h.completed_iterations >= 1 for h in result.histories)
        assert np.isfinite(result.final_global_weights).all()

    def test_namespaced_jobs_share_one_server(self, dataset, tmp_path):
        """Two tenant jobs run side by side on one server and one
        registry; a late joiner finds its own job's registry entry."""
        registry_dir = str(tmp_path / "registry")
        with TcpSMBServer(capacity=1 << 26) as server:
            common = dict(
                spec_factory=lambda: small_spec(batch=4),
                dataset=dataset,
                batch_size=4,
                num_workers=2,
                server_address=server.address,
                registry_dir=registry_dir,
                seed=1,
            )
            job1 = DistributedTrainingManager(
                config=make_config(iterations=3), tenant="job1", **common
            )
            job2 = DistributedTrainingManager(
                config=ShmCaffeConfig(
                    solver=SolverConfig(base_lr=0.05, momentum=0.9),
                    moving_rate=0.2,
                    max_iterations=20,
                    termination=TerminationCriterion.AVERAGE_ITERATIONS,
                ),
                tenant="job2", elastic=True, max_workers=3, **common
            )
            results = {}
            joiners = []

            def run(name, manager):
                results[name] = manager.run(timeout=300)

            threads = [
                threading.Thread(target=run, args=("job1", job1)),
                threading.Thread(target=run, args=("job2", job2)),
                threading.Thread(
                    target=lambda: joiners.append(
                        job2.spawn_worker(timeout=60)
                    )
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)

            # Each tenant holds its own plainly named W_g.
            keys = {}
            for tenant in ("job1", "job2"):
                with SMBClient.connect(server.address, tenant=tenant) as c:
                    keys[tenant] = c.lookup("W_g")[0]
            assert keys["job1"] != keys["job2"]

        assert results["job1"].histories[0].completed_iterations >= 3
        (joiner,) = joiners
        assert joiner.error is None
        assert joiner.slot == 2  # the launch fleet holds slots 0 and 1
        assert len(results["job2"].histories) == 3
        view = MembershipRegistry(registry_dir).read()
        assert view.namespaces() == ["job1", "job2"]
        assert view.entry("job2").job["count"] == (
            results["job2"].final_global_weights.size
        )

    def test_hybrid_over_tcp(self, dataset):
        with TcpSMBServer(capacity=1 << 26) as server:
            manager = DistributedTrainingManager(
                spec_factory=lambda: small_spec(batch=4),
                config=make_config(iterations=4),
                dataset=dataset,
                batch_size=4,
                num_workers=4,
                group_size=2,
                server_address=server.address,
                seed=1,
            )
            result = manager.run(timeout=300)
        assert len(result.histories) == 4


class TestFailureInjection:
    def test_update_thread_failure_surfaces_as_worker_error(self, dataset):
        """If the flush path dies (e.g. segment freed under the worker),
        the main thread reports it instead of hanging."""
        server = SMBServer(capacity=1 << 22)
        client = SMBClient.in_process(server)
        net = Net(small_spec(batch=4), seed=0)
        flat = FlatParams(net)
        global_w = client.create_array("W_g", flat.count)
        global_w.write(flat.get_vector())
        delta = client.create_array("dW_0", flat.count)
        config = make_config(iterations=10)
        worker = TrainingEngine(
            rank=0,
            net=net,
            config=config,
            batches=dataset.minibatches(4, seed=1),
            strategy=make_exchange(
                config, global_weights=global_w, increment_buffer=delta
            ),
        )
        delta.free()  # sabotage the increment segment
        with pytest.raises(WorkerError, match="update thread failed"):
            worker.run()

    def test_capacity_exhaustion_fails_cleanly(self, dataset):
        """A server too small for the weight buffers raises CapacityError
        (propagated through the SPMD launcher), not a hang."""
        tiny = SMBServer(capacity=1024)  # far below the model size
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=make_config(iterations=2),
            dataset=dataset,
            batch_size=4,
            num_workers=2,
            server=tiny,
            seed=1,
        )
        with pytest.raises(CapacityError):
            manager.run(timeout=60)

    def test_worker_exception_aborts_peers(self, dataset):
        """A crashing rank unwinds the whole job instead of hanging the
        master in the SHM-key broadcast."""
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=make_config(iterations=50),
            dataset=dataset,
            batch_size=4,
            num_workers=2,
            seed=1,
        )
        original = manager._rank_main

        def sabotaged(comm):
            if comm.rank == 1:
                raise RuntimeError("data pipeline failure")
            return original(comm)

        manager._rank_main = sabotaged
        with pytest.raises(RuntimeError, match="data pipeline failure"):
            manager.run(timeout=120)
