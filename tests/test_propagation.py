import os
import signal
import threading
import time

import numpy as np
import pytest
from scipy import sparse

from dgmlp import DimensionError, NormalizedAdjacency, ParameterError, \
    ValidationError, build_graph, data, erdos_renyi, normalize, propagate, propagation, \
    propagation_steps, spmm, stationary_features

from conftest import dense_normalized, linux_only, random_graph


class TestSpmm:
    def test_identity_only_graph(self):
        g = build_graph([], 4)
        adj = normalize(g, 0.5)
        x = np.random.default_rng(0).random((4, 3))
        assert np.array_equal(spmm(adj, x), x)

    def test_single_edge_hand_product(self):
        g = build_graph([(0, 1)], 2)
        adj = normalize(g, 0.5)
        out = spmm(adj, np.eye(2))
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_dense_oracle_er50(self):
        g = erdos_renyi(50, 0.1, seed=42)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 7))
        adj = normalize(g, 0.5)
        dense = dense_normalized(g, 0.5)
        assert np.abs(spmm(adj, x) - dense @ x).max() < 1e-12

    def test_shape_mismatch(self):
        adj = normalize(build_graph([(0, 1)], 2), 0.5)
        with pytest.raises(DimensionError):
            spmm(adj, np.zeros((3, 2)))


def adjacency_with_empty_rows(n=30, seed=0) -> NormalizedAdjacency:
    """A CSR operator whose every third row stores no entry; A_hat itself
    always stores its diagonal."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    dense[::3] = 0.0
    return NormalizedAdjacency(n, sparse.csr_matrix(dense))


class TestShardedSpmm:
    """spmm splits the rows over the cores; the bits are those of the
    whole-matrix product for any shard count."""

    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("case", ["er", "empty_rows", "d1", "non_contiguous"])
    def test_bitwise_equals_matrix_product(self, monkeypatch, shards, case):
        monkeypatch.setattr(propagation, "_num_shards", lambda: shards)
        rng = np.random.default_rng(shards)
        if case == "empty_rows":
            adj = adjacency_with_empty_rows()
        else:
            adj = normalize(erdos_renyi(40, 0.1, seed=3), 0.5)
        x = rng.standard_normal((adj.num_nodes, 1 if case == "d1" else 5))
        if case == "non_contiguous":
            x = np.asfortranarray(rng.standard_normal((adj.num_nodes, 9)))[:, ::2]
            assert not x.flags.c_contiguous
        want = (adj.matrix @ x).tobytes()
        assert spmm(adj, x).tobytes() == want
        out = np.full((adj.num_nodes, x.shape[1]), np.nan)
        assert spmm(adj, x, out=out) is out
        assert out.tobytes() == want

    def test_more_shards_than_rows(self, monkeypatch):
        monkeypatch.setattr(propagation, "_num_shards", lambda: 5)
        adj = normalize(build_graph([(0, 1)], 2), 0.5)
        x = np.arange(6.0).reshape(2, 3)
        assert spmm(adj, x).tobytes() == (adj.matrix @ x).tobytes()

    def test_rejects_overlapping_or_misshapen_out(self):
        adj = normalize(erdos_renyi(20, 0.2, seed=1), 0.5)
        x = np.random.default_rng(0).standard_normal((20, 4))
        for out in (x, x[:, :]):
            with pytest.raises(ValidationError, match="overlap"):
                spmm(adj, x, out=out)
        for shape in [(20, 3), (19, 4), (20, 4, 1)]:
            with pytest.raises(DimensionError, match="output has shape"):
                spmm(adj, x, out=np.zeros(shape))
        for out in (np.zeros((20, 4), np.float32), np.zeros((4, 20)).T):
            with pytest.raises(ValidationError, match="C-contiguous float64"):
                spmm(adj, x, out=out)


class TestRunSharded:
    @pytest.mark.parametrize("num_rows,shards,block", [
        (10, 1, 1), (10, 3, 1), (10, 3, 4), (3, 5, 1), (130, 2, 64), (0, 2, 1),
    ])
    def test_shards_cover_rows_on_whole_blocks(self, num_rows, shards, block):
        seen = []
        propagation._run_sharded(lambda *args: seen.append(args), num_rows, shards, block)
        seen.sort()
        assert [shard for shard, _, _ in seen] == list(range(len(seen)))
        assert 1 <= len(seen) <= shards
        assert seen[0][1] == 0 and seen[-1][2] == num_rows
        assert all(a[2] == b[1] for a, b in zip(seen, seen[1:]))
        assert all(lo % block == 0 and lo < hi for _, lo, hi in seen[1:])

    @pytest.mark.parametrize("failing", [(0,), (1,), (2,), (1, 2), (0, 2)])
    def test_first_error_reraised_after_every_thread_joined(self, failing):
        errors = {shard: RuntimeError(f"shard {shard}") for shard in failing}
        finished, callers = [], {}

        def fn(shard, lo, hi):
            callers[shard] = threading.current_thread()
            if shard in errors:
                raise errors[shard]
            threading.Event().wait(0.05)  # still running when another shard fails
            finished.append(shard)

        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            propagation._run_sharded(fn, 30, 3)
        assert info.value is errors[min(failing)]
        assert sorted(finished) == [s for s in range(3) if s not in failing]
        assert threading.active_count() == before
        assert callers[0] is threading.current_thread()
        assert threading.current_thread() not in (callers[1], callers[2])


@linux_only
@pytest.mark.usefixtures("no_worker_left")
class TestRunForked:
    """data._run_parts: part 0 runs in this process and parts 1 and up in
    forked workers; a part whose worker failed or was never forked runs
    here after every worker is reaped, and an error here propagates only
    once every worker is killed and reaped."""

    def test_results_in_part_order(self, tmp_path, no_worker_left, forks):
        def work(part):
            time.sleep(0.1 * (2 - part))  # the last part finishes first
            (tmp_path / str(part)).write_text(str(os.getpid()))
            return part * 10 or None  # ignored

        data._run_parts(3, work)
        assert [int((tmp_path / str(part)).read_text()) for part in range(3)] == \
            [os.getpid()] + forks

    def test_one_part_forks_nothing(self, no_worker_left, forks):
        ran = []
        data._run_parts(1, lambda part: ran.append((part, os.getpid())))
        assert ran == [(0, os.getpid())]
        assert forks == []

    @pytest.mark.parametrize("failing", [1, 2])
    @pytest.mark.parametrize("how", ["raise", "exit", "kill"])
    def test_a_failed_workers_part_is_redone_here(self, tmp_path, no_worker_left, capfd,
                                                  failing, how):
        parent = os.getpid()

        def work(part):
            if part == failing and os.getpid() != parent:
                if how == "raise":
                    raise RuntimeError("worker failed")
                if how == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            with open(tmp_path / str(part), "a") as fh:
                fh.write(f"{os.getpid() == parent}\n")

        data._run_parts(3, work)
        # each part ran once to its end; only the failed one ran here
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == \
            {str(part): f"{part in (0, failing)}\n" for part in range(3)}
        assert capfd.readouterr() == ("", "")  # a worker prints no traceback

    def test_a_slow_worker_is_waited_for(self, tmp_path, no_worker_left):
        def work(part):
            if part:
                time.sleep(0.5)
                (tmp_path / "slow").touch()

        data._run_parts(2, work)
        assert (tmp_path / "slow").exists()

    def test_unforked_parts_run_here(self, tmp_path, monkeypatch, no_worker_left):
        forks = []
        real_fork = os.fork

        def fork():
            if forks:
                raise BlockingIOError("out of processes")
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        parent = os.getpid()

        def work(part):
            (tmp_path / str(part)).write_text(str(os.getpid() == parent))

        data._run_parts(4, work)
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == \
            {"0": "True", "1": "False", "2": "True", "3": "True"}

    @pytest.mark.parametrize("where", ["in part 0", "in the wait"])
    def test_an_error_here_kills_and_reaps_the_workers(self, no_worker_left, where):
        parent = os.getpid()

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        def work(part):
            if os.getpid() != parent:
                time.sleep(60)
            elif where == "in part 0":
                raise KeyboardInterrupt
            else:  # interrupts this process while it waits for the workers
                signal.setitimer(signal.ITIMER_REAL, 0.2)

        handler = signal.signal(signal.SIGALRM, interrupt)
        start = time.perf_counter()
        try:
            with pytest.raises(KeyboardInterrupt):
                data._run_parts(3, work)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert time.perf_counter() - start < 10

    def test_fork_parts(self, monkeypatch):
        monkeypatch.setattr(data, "_num_shards", lambda: 3)
        assert [data._fork_parts(size, 4) for size in (0, 7, 8, 11, 12, 100)] == \
            [1, 1, 2, 2, 3, 3]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert data._fork_parts(100, 4) == 1  # a worker would lack that thread
        finally:
            stop.set()
            thread.join()


class TestPropagationSteps:
    """The one walk: its steps are the chained products bit for bit, and
    steps 1..k take turns in two buffers."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_steps_bitwise_equal_chained_products(self, monkeypatch, k, shards):
        monkeypatch.setattr(propagation, "_num_shards", lambda: shards)
        adj = normalize(random_graph(30, 80, k), 0.5)
        x = np.random.default_rng(k).standard_normal((30, 4))
        want, seen = x, 0
        for j, step in enumerate(propagation_steps(adj, x, k)):
            if j:
                want = adj.matrix @ want
            assert step.tobytes() == want.tobytes()
            seen += 1
        assert seen == k + 1

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_step_j_overwrites_step_j_minus_2(self, k):
        adj = normalize(random_graph(20, 50, 1), 0.5)
        x = np.random.default_rng(2).standard_normal((20, 3))
        steps = list(propagation_steps(adj, x, k))
        assert steps[0] is x
        for j in range(1, k + 1):
            assert not np.shares_memory(steps[j], x)
            assert not np.shares_memory(steps[j], steps[j - 1])
            if j >= 3:
                assert steps[j] is steps[j - 2]
        assert len({id(step) for step in steps[1:]}) == min(k, 2)

    def test_bad_arguments_raise_before_any_step(self):
        adj = normalize(build_graph([(0, 1)], 2), 0.5)
        with pytest.raises(ParameterError, match="depth"):
            propagation_steps(adj, np.zeros((2, 1)), -1)
        with pytest.raises(DimensionError, match="features have shape"):
            propagation_steps(adj, np.zeros((3, 1)), 2)
        with pytest.raises(ValidationError, match="NaN"):
            propagation_steps(adj, [[np.nan], [0.0]], 1)
        with pytest.raises(ValidationError, match="2-D"):
            propagation_steps(adj, np.zeros(2), 1)

    def test_fortran_order_features(self):
        # x0 is taken in C order, so the step buffers are too, as spmm needs
        adj = normalize(random_graph(20, 50, 5), 0.5)
        x = np.random.default_rng(5).standard_normal((20, 3))
        want = [step.copy() for step in propagation_steps(adj, x, 4)]
        got = [step.copy() for step in propagation_steps(adj, np.asfortranarray(x), 4)]
        assert [s.tobytes() for s in got] == [s.tobytes() for s in want]

    def test_propagate_steps_share_no_memory(self):
        adj = normalize(random_graph(20, 50, 3), 0.5)
        x = np.random.default_rng(4).standard_normal((20, 3))
        steps = propagate(adj, x, 6).steps
        assert steps[0].tobytes() == x.tobytes()
        for i, step in enumerate(steps):
            assert not np.shares_memory(step, x)
            assert not any(np.shares_memory(step, later) for later in steps[i + 1:])


class TestAddScaledRows:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_equals_numpy_expression(self, order):
        rng = np.random.default_rng(6)
        x = np.asarray(rng.standard_normal((37, 5)), order=order)
        x[3] = -0.0
        weights = rng.random((37, 4))
        weights[5, 2] = 0.0
        acc = rng.standard_normal((37, 5))
        acc[3, :2] = -0.0
        want = acc.copy()
        want += weights[:, 2:3] * x
        propagation._add_scaled_rows(acc, weights[:, 2], x)
        assert acc.tobytes() == want.tobytes()

    @pytest.mark.parametrize("picked", [np.array([], dtype=np.int64), np.array([3]),
                                        np.array([0, 3, 5, 6, 36])])
    def test_picked_rows_bitwise_equal_numpy_expression(self, picked):
        # one accumulator row per picked row of x
        rng = np.random.default_rng(6)
        x = rng.standard_normal((37, 5))
        x[3] = -0.0
        e = rng.random(37)
        e[5] = 0.0
        acc = rng.standard_normal((picked.size, 5))
        acc[:2, :2] = -0.0
        want = acc + e[picked, None] * x[picked]
        propagation._add_scaled_rows(acc, e, x, picked)
        assert acc.tobytes() == want.tobytes()

    def test_rejects_strided_accumulator(self):
        acc = np.zeros((6, 4))
        with pytest.raises(ValidationError):
            propagation._add_scaled_rows(acc[:, :2], np.ones(6), np.ones((6, 2)))

    def test_rejects_accumulator_of_another_shape(self):
        # one row per picked row: the kernel writes that many rows of acc
        with pytest.raises(DimensionError):
            propagation._add_scaled_rows(np.zeros((2, 2)), np.ones(6), np.ones((6, 2)),
                                         np.array([0, 1, 4]))


class TestPropagate:
    def test_k0(self):
        g = build_graph([(0, 1)], 2)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        st = propagate(normalize(g, 0.5), x, 0)
        assert st.max_step == 0
        assert np.array_equal(st.steps[0], x)

    def test_k2_identity_graph(self):
        g = build_graph([], 3)
        x = np.random.default_rng(2).random((3, 2))
        st = propagate(normalize(g, 0.5), x, 2)
        assert len(st.steps) == 3
        for step in st.steps:
            assert np.array_equal(step, x)

    def test_k3_dense_power_oracle(self):
        g = random_graph(20, 50, 3)
        x = np.random.default_rng(4).standard_normal((20, 5))
        st = propagate(normalize(g, 0.5), x, 3)
        dense = dense_normalized(g, 0.5)
        expected = np.linalg.matrix_power(dense, 3) @ x
        assert np.abs(st.steps[3] - expected).max() < 1e-10

    def test_negative_k(self):
        adj = normalize(build_graph([(0, 1)], 2), 0.5)
        with pytest.raises(ParameterError):
            propagate(adj, np.zeros((2, 1)), -1)

    def test_non_finite_rejected(self):
        adj = normalize(build_graph([(0, 1)], 2), 0.5)
        with pytest.raises(ValidationError):
            propagate(adj, np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)

    @pytest.mark.parametrize("seed,n", [(0, 8), (1, 16), (2, 33), (3, 64)])
    def test_dense_oracle_small_graphs(self, seed, n):
        g = random_graph(n, 3 * n, seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal((n, 4))
        st = propagate(normalize(g, 0.5), x, 5)
        dense = dense_normalized(g, 0.5)
        cur = x
        for k in range(1, 6):
            cur = dense @ cur
            assert np.abs(st.steps[k] - cur).max() < 1e-10

    def test_linearity(self):
        g = random_graph(14, 30, 9)
        adj = normalize(g, 0.5)
        rng = np.random.default_rng(10)
        x, y = rng.random((14, 3)), rng.random((14, 3))
        a, b = 2.5, -1.25
        lhs = propagate(adj, a * x + b * y, 4).steps[4]
        rhs = a * propagate(adj, x, 4).steps[4] + b * propagate(adj, y, 4).steps[4]
        assert np.abs(lhs - rhs).max() < 1e-10


class TestStationary:
    def test_single_edge_symmetric(self):
        g = build_graph([(0, 1)], 2)
        out = stationary_features(g, np.eye(2), 0.5)
        assert np.allclose(out, 0.5)

    def test_isolated_single_node(self):
        g = build_graph([], 1)
        x = np.array([[3.0, -2.0, 7.0]])
        for r in (0.0, 0.5, 1.0):
            assert np.allclose(stationary_features(g, x, r), x)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_point(self, r, seed):
        g = random_graph(30, 90, seed)
        x = np.random.default_rng(seed + 50).random((30, 6))
        adj = normalize(g, r)
        stat = stationary_features(g, x, r)
        err = np.abs(spmm(adj, stat) - stat).max()
        assert err < 1e-10 * max(1.0, np.abs(stat).max())

    def test_matches_dense_infinite_power(self):
        # on a connected graph A_hat^k X converges to the rank-1 expression
        # (self-loops make the chain aperiodic)
        rng = np.random.default_rng(4)
        path = [(i, i + 1) for i in range(11)]  # guarantees connectivity
        extra = [(int(u), int(v)) for u, v in rng.integers(0, 12, (20, 2)) if u != v]
        g = build_graph(path + extra, 12)
        x = np.random.default_rng(5).random((12, 3))
        dense = dense_normalized(g, 0.5)
        powered = np.linalg.matrix_power(dense, 400) @ x
        stat = stationary_features(g, x, 0.5)
        assert np.abs(powered - stat).max() < 1e-8
