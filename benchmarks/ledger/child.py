"""One workload, one pass, one process.

Started by ``run.py``; prints one JSON object as its last line.  The
clock starts before numpy and repro are imported, so ``setup_s`` is what
a user waits from process start to the end of the second round.
"""

import time

T0 = time.perf_counter()

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: traced pass: of every 6 timed rounds 4 are traced and 2 run with the
#: wrappers removed, so tracing overhead is measured inside one process
#: on the same state; every 12th round replays worker-side work.
BLOCK, TRACED_IN_BLOCK, REPLAY_EVERY, REPLAY_AT = 6, 4, 12, 2

#: per-layer times that are zero on the workloads that bypass the layer
WORKLOAD_SPECIFIC = (
    "network.assign_s", "server.compensate_s",
    "transport.encode_task_s", "transport.decode_update_s",
    "transport.decode_task_s", "transport.encode_update_s",
    "population.begin_round_s", "population.materialize_s", "data.derive_shard_s",
)


def clean_env() -> None:
    """Scrub every ``REPRO_*`` switch and pin the BLAS pools to one
    thread; workers inherit this environment."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def digest(pipeline) -> str:
    """sha256 of α‖θ (parameters and buffers, by name)."""
    import numpy as np

    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(pipeline.policy.alpha).tobytes())
    state = pipeline.supernet.state_dict()
    for name in sorted(state):
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(state[name]).tobytes())
    return sha.hexdigest()


def same_arrays(a, b) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def same_update(a, b) -> bool:
    return (
        a.reward == b.reward
        and a.num_samples == b.num_samples
        and same_arrays(a.gradients, b.gradients)
        and same_arrays(a.buffers, b.buffers)
    )


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    clean_env()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import FederatedModelSearch  # pulls in numpy; inside the setup clock

    import_s = time.perf_counter() - T0
    config = workloads.build_config(args.workload, args.seed)
    start = time.perf_counter()
    pipeline = FederatedModelSearch(config)
    workloads.prepare(args.workload, pipeline)
    construct_s = time.perf_counter() - start

    os.makedirs(args.out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ckpt-", dir=args.out_dir)
    try:
        out = Pass(args, config, pipeline, os.path.join(scratch, "search.ckpt")).run()
    finally:
        pipeline.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.setup_only:
        out["config_digest"] = hashlib.sha256(
            json.dumps(config.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        out["metrics"]["core.import_s"] = import_s
        out["metrics"]["core.construct_s"] = construct_s
    print(json.dumps(out))
    return 0


class Pass:
    """The rounds of one pass and what is reduced from them."""

    def __init__(self, args, config, pipeline, ckpt_path):
        self.args = args
        self.config = config
        self.pipeline = pipeline
        self.ckpt_path = ckpt_path
        self.ckpt_every = workloads.WORKLOADS[args.workload].get("checkpoint_every", 0)
        self.cold_rounds = workloads.COLD_ROUNDS
        self.expected = workloads.tasks_per_round(config)
        self.serial = config.backend == "serial"
        self.tracer = spans.Tracer() if args.trace else None
        self.ckpt_walls = []
        #: timed rounds, in order: wall, RoundResult, server round index,
        #: whether the round was traced, whether it replayed worker work
        self.walls, self.results, self.round_ids = [], [], []
        self.traced_flags, self.replay_flags = [], []
        self.replaying = False
        self.payloads = []
        self.replayed_steps = 0
        self.replay_mismatches = 0

    # -- hooks of the traced pass (counts at the span boundaries) --------
    def on_run_tasks(self, call_args, _kwargs, results):
        tasks = call_args[1]
        count = self.tracer.count
        groups = Counter((t.mask.normal, t.mask.reduce) for t in tasks)
        count("controller.distinct_masks", len(groups))
        count("controller.mask_group_max", max(groups.values()))
        count("backend.tasks", len(tasks))
        count("backend.task_failures", sum(not r.ok for r in results))
        count("backend.task_retries", sum(r.attempts - 1 for r in results))
        if self.replaying:
            self.replay(tasks, results)

    def on_encode_task(self, _args, _kwargs, payload):
        self.tracer.count("transport.task_bytes", len(payload))
        if self.replaying:
            self.payloads.append(payload)

    def replay(self, tasks, results):
        """Time in this process what the workers just did, on the same
        tasks, and require the same updates bit for bit."""
        from repro.transport import codec

        config, participants = self.config, self.pipeline.participants
        supernet_config = config.supernet_config()
        with self.tracer.span("harness.replay"):
            if self.replayed_steps == 0:
                # this process has not run a local step yet; the first
                # one pays allocator and cache warm-up the workers paid
                # in their cold rounds
                with self.tracer.paused():
                    participants[tasks[0].participant_id].execute_task(
                        tasks[0], supernet_config
                    )
            for payload in self.payloads:
                codec.decode_task(payload)
            for task, result in zip(tasks, results):
                if not result.ok:
                    continue
                update = participants[task.participant_id].execute_task(
                    task, supernet_config
                )
                if config.backend == "socket":
                    codec.encode_update(
                        update, 0,
                        compression=config.socket_compression,
                        wire_dtype=config.socket_wire_dtype,
                    )
                self.replayed_steps += 1
                self.replay_mismatches += not same_update(update, result.update)
        self.payloads = []

    # -- the rounds -------------------------------------------------------
    def play(self, traced: bool):
        """One round, plus the checkpoint when it is due."""
        pipeline, tracer, clock = self.pipeline, self.tracer, time.perf_counter
        span = tracer.span if traced else contextlib.nullcontext
        if tracer is not None:
            tracer.round = pipeline.server.round
        begin = clock()
        with span("round"):
            result = pipeline.server.run_round()
            if self.ckpt_every and pipeline.server.round % self.ckpt_every == 0:
                with span("checkpoint.save"):
                    saved = clock()
                    pipeline.save_checkpoint(self.ckpt_path)
                    self.ckpt_walls.append(clock() - saved)
        return result, clock() - begin

    def run(self) -> dict:
        import repro.nn as nn
        from repro import FederatedModelSearch

        args, pipeline, tracer, clock = self.args, self.pipeline, self.tracer, time.perf_counter
        unpatched = not spans.wrapped_targets()
        if tracer is not None:
            tracer.hooks["backend.run_tasks"] = self.on_run_tasks
            tracer.hooks["transport.encode_task"] = self.on_encode_task
            tracer.hooks["transport.decode_update"] = (
                lambda a, _k, _r: tracer.count("transport.update_bytes", len(a[0]))
            )
            tracer.hooks["population.materialize"] = (
                lambda _a, _k, cohort: tracer.count("population.materializations", len(cohort))
            )
            tracer.install()

        # set-up: the cold rounds
        self.tape_before = nn.tape.stats().snapshot()
        for _ in range(self.cold_rounds):
            self.play(tracer is not None)
        setup_s = clock() - T0
        digests = {pipeline.server.round: digest(pipeline)}
        if args.setup_only:
            if tracer is not None:
                tracer.uninstall()
            return {"setup_s": setup_s, "digests": digests}

        # the timed window
        window_start = clock()
        i = 0
        while True:
            if args.rounds:
                if i >= args.rounds:
                    break
            elif i >= 3 and clock() - window_start >= args.seconds:
                break
            traced = tracer is not None and i % BLOCK < TRACED_IN_BLOCK
            self.replaying = traced and not self.serial and i % REPLAY_EVERY == REPLAY_AT
            if tracer is not None:
                tracer.install() if traced else tracer.uninstall()
            self.round_ids.append(pipeline.server.round)
            result, wall = self.play(traced)
            self.walls.append(wall)
            self.results.append(result)
            self.traced_flags.append(traced)
            self.replay_flags.append(self.replaying)
            i += 1
            if i % 5 == 0:
                digests[pipeline.server.round] = digest(pipeline)
        self.replaying = False
        if tracer is not None:
            tracer.uninstall()
        unpatched = unpatched and not spans.wrapped_targets()
        digests[pipeline.server.round] = live_digest = digest(pipeline)

        # checkpoint write, restore, and the resume check
        begin = clock()
        pipeline.save_checkpoint(self.ckpt_path)
        self.ckpt_walls.append(clock() - begin)
        ckpt_bytes = os.path.getsize(self.ckpt_path)
        begin = clock()
        resumed = FederatedModelSearch.resume(self.ckpt_path)
        restore_s = clock() - begin
        try:
            resume_ok = digest(resumed) == live_digest
        finally:
            resumed.close()
        pipeline.close()  # reaps the workers, so RUSAGE_CHILDREN counts them

        results = self.results
        attempted = self.expected * len(results)
        degraded = sum(
            1 for r in results
            if r.num_fresh + r.num_stale_used == 0 and r.num_dropped + r.num_rejected > 0
        )
        failed = sum(r.num_offline + r.num_rejected for r in results) + degraded
        rewards = [r.mean_reward for r in results[-20:] if r.mean_reward == r.mean_reward]
        out = {
            "workload": args.workload,
            "seed": args.seed,
            "final_round": pipeline.server.round,
            "digests": digests,
            "attempted": attempted,
            "failed": failed,
            "checks": {"resume": resume_ok, "unpatched": unpatched},
            "setup_s": setup_s,
            "round_walls": self.walls,
            "n": {},
            "metrics": {
                "failed_share": failed / attempted,
                "reward_tail_mean": mean(rewards),
                "checkpoint.save_s": mean(self.ckpt_walls),
                "checkpoint.bytes": float(ckpt_bytes),
                "checkpoint.restore_s": restore_s,
            },
        }
        if tracer is None:
            steps = sum(self.expected - r.num_offline for r in results)
            out["metrics"].update({
                "round_s_p50": statistics.median(self.walls),
                "local_steps_per_s": steps / sum(self.walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
            out["n"]["round_s_p50"] = len(self.walls)
        else:
            self.per_layer(out, nn.tape)
            path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump(tracer.dump(), fh)
        return out

    # -- per-layer metrics (traced pass) ---------------------------------
    def per_layer(self, out: dict, tape) -> None:
        tracer, config, walls, results = self.tracer, self.config, self.walls, self.results
        # statistics come from the traced rounds that did not replay
        stat = [
            k for k in range(len(walls))
            if self.traced_flags[k] and not self.replay_flags[k]
        ]
        stat_rounds = [self.round_ids[k] for k in stat]
        agg = spans.aggregate(
            tracer, list(range(self.cold_rounds)) + stat_rounds, step_rounds=self.round_ids
        )
        inclusive, self_time, counts = agg["inclusive"], agg["self"], agg["counts"]
        traced_walls = [walls[k] for k in stat]
        plain_walls = [walls[k] for k in range(len(walls)) if not self.traced_flags[k]]

        def per_round(table, name):
            return mean(table[name].get(r, 0.0) for r in stat_rounds)

        def per_step(name):
            return agg["step_total"][name] / agg["steps"] if agg["steps"] else 0.0

        def per_replay(name):
            """Seconds per replayed round (all of its tasks)."""
            total = sum(
                r[spans.END] - r[spans.START] for r in tracer.spans if r[spans.NAME] == name
            )
            return total / max(1, sum(self.replay_flags))

        def total_count(name):
            return float(sum(v for _, counter, v in tracer.counts if counter == name))

        residual = 0.0
        for k in stat:
            total = sum(by_round.get(self.round_ids[k], 0.0) for by_round in self_time.values())
            residual = max(residual, abs(total - walls[k]) / walls[k])
        run_tasks_s = per_round(inclusive, "backend.run_tasks")
        workers = 1 if self.serial else (config.num_workers or 1)
        busy = per_step("participant.local_step") * per_round(counts, "backend.tasks") / workers
        tape_now = tape.stats().snapshot()
        tape_calls = sum(tape_now[k] - self.tape_before[k] for k in tape_now)
        null_reasons = {}
        if not tape.enabled():
            null_reasons["nn.tape_replay_share"] = "tape is off by default"
        if config.backend != "socket":
            null_reasons["wire_bytes_per_round"] = "no wire on this backend"
        task_bytes = per_round(counts, "transport.task_bytes")
        update_bytes = per_round(counts, "transport.update_bytes")

        metrics = out["metrics"]
        metrics.update({
            "controller.sample_mask_s": per_round(inclusive, "controller.sample_mask"),
            "controller.alpha_step_s": per_round(inclusive, "controller.alpha_step"),
            "controller.distinct_masks": per_round(counts, "controller.distinct_masks"),
            "controller.mask_group_max": per_round(counts, "controller.mask_group_max"),
            "search_space.submodel_state_s": per_round(inclusive, "search_space.submodel_state"),
            "search_space.build_s": per_step("search_space.build"),
            "network.assign_s": per_round(inclusive, "network.assign"),
            "memory.save_round_s": per_round(inclusive, "memory.save_round"),
            "backend.run_tasks_s": run_tasks_s,
            "backend.cold_round_s": inclusive["backend.run_tasks"].get(0, 0.0),
            "backend.idle_share": 1.0 - busy / run_tasks_s if run_tasks_s else 0.0,
            "backend.task_failures": total_count("backend.task_failures"),
            "backend.task_retries": total_count("backend.task_retries"),
            "transport.encode_task_s": per_round(inclusive, "transport.encode_task"),
            "transport.decode_update_s": per_round(inclusive, "transport.decode_update"),
            "transport.decode_task_s": per_replay("transport.decode_task"),
            "transport.encode_update_s": per_replay("transport.encode_update"),
            "transport.task_bytes": task_bytes,
            "transport.update_bytes": update_bytes,
            "wire_bytes_per_round": task_bytes + update_bytes,
            "participant.local_step_s": per_step("participant.local_step"),
            "data.sample_batch_s": per_step("data.sample_batch"),
            "nn.forward_s": per_step("nn.forward"),
            "nn.backward_s": per_step("nn.backward"),
            "participant.pack_s": per_step("participant.pack"),
            "nn.tape_replay_share": (
                (tape_now["replays"] - self.tape_before["replays"]) / tape_calls
                if tape_calls else 0.0
            ),
            "server.validate_s": per_round(inclusive, "server.validate"),
            "server.compensate_s": per_round(inclusive, "server.compensate"),
            "server.theta_step_s": per_round(inclusive, "server.theta_step"),
            "server.self_s": per_round(self_time, "round"),
            "server.round_s_p90": percentile(traced_walls, 0.9),
            "server.updates_fresh": mean(r.num_fresh for r in results),
            "server.updates_stale": mean(r.num_stale_used for r in results),
            "server.updates_dropped": mean(r.num_dropped for r in results),
            "server.updates_rejected": mean(r.num_rejected for r in results),
            "population.begin_round_s": per_round(inclusive, "population.begin_round"),
            "population.materialize_s": per_round(inclusive, "population.materialize"),
            "population.materializations": per_round(counts, "population.materializations"),
            "data.derive_shard_s": per_round(inclusive, "data.derive_shard"),
            "rss.workers_peak_mb": (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            ),
            "trace.overhead_share": (
                statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
                if plain_walls else 0.0
            ),
            "trace.residual_share": residual,
        })
        # BENCHMARK.json lists the layers only some workloads exercise as a
        # share of the round: a time that reads 0.0 on every run is refused
        for name in WORKLOAD_SPECIFIC:
            metrics[name[:-2] + "_share"] = metrics[name] / mean(traced_walls)
        out["checks"]["replay"] = self.replay_mismatches == 0 and (
            self.serial or self.replayed_steps > 0
        )
        out["checks"]["self_sum"] = residual <= 0.02
        out["n"].update({
            "server.round_s_p90": len(traced_walls),
            "traced_rounds": len(traced_walls),
            "untraced_rounds": len(plain_walls),
            "replayed_steps": self.replayed_steps,
            "local_steps_timed": agg["steps"],
        })
        out["traced_round_s_p50"] = statistics.median(traced_walls)
        out["null_reasons"] = null_reasons
        out["missing_targets"] = tracer.missing
        out["self_share"] = {
            name: per_round(self_time, name) / mean(traced_walls)
            for name in sorted(self_time)
        }


if __name__ == "__main__":
    sys.exit(main())
