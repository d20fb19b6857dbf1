"""Command-line entry point: ``python -m repro``.

Three subcommands:

``repro run``
    Runs the four-phase federated model-search pipeline::

        python -m repro run --dataset cifar10 --non-iid --participants 4 \
            --search-rounds 60 --retrain federated --seed 0

    Prints the searched genotype, payload statistics, and the final test
    accuracy.  ``--profile paper`` switches to the full Table I scale
    (for real hardware); the default ``small`` profile finishes in well
    under a minute on a laptop CPU.  ``--backend process --workers 4``
    runs participant local steps on a worker pool (bit-identical results,
    lower wall-clock).  ``--config experiment.json`` loads an
    :class:`~repro.core.ExperimentConfig` from a JSON file; explicit CLI
    flags override file values, which override the profile defaults.
    ``--faults plan.json`` injects deterministic faults (corruption,
    drops, flaps, forced crashes); ``--checkpoint ckpt.zip
    --checkpoint-every N`` writes crash-consistent checkpoints and
    ``--resume ckpt.zip`` continues a run bit-identically (a run killed
    by an injected crash exits with status 3 and prints the resume
    command).

``repro trace``
    Summarizes a JSONL telemetry run log produced via
    ``repro run --telemetry-log run.jsonl`` (per-phase time breakdown,
    staleness histogram, slowest participants, per-round table, wire
    traffic).

``repro serve``
    Runs a participant worker daemon that executes local steps shipped
    over TCP by ``repro run --backend socket``::

        python -m repro serve --host 127.0.0.1 --port 7000

    ``--port 0`` picks a free port; the daemon announces
    ``REPRO-WORKER-READY <host> <port>`` on stdout once listening.
    Point a search at explicit daemons with
    ``--backend socket --socket-workers 127.0.0.1:7000 127.0.0.1:7001``;
    without ``--socket-workers`` the backend spawns local daemons
    itself.

Invoking ``python -m repro --dataset ...`` without a subcommand still
works as an alias for ``repro run`` but is deprecated.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import ExperimentConfig, FederatedModelSearch
from .faults import InjectedServerCrash


def _add_run_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument(
        "--profile", choices=("small", "paper"), default="small",
        help="experiment scale (default: small)",
    )
    parser.add_argument(
        "--config", default=None, metavar="PATH",
        help="load ExperimentConfig fields from a JSON file; explicit CLI "
        "flags override file values, which override the profile defaults",
    )
    parser.add_argument(
        "--dataset", choices=("cifar10", "svhn", "cifar100"), default=None
    )
    parser.add_argument("--non-iid", action="store_true", help="Dirichlet(0.5) shards")
    parser.add_argument("--participants", type=int, default=None, metavar="K")
    parser.add_argument(
        "--population", type=int, default=None, metavar="N",
        help="population mode: register N lightweight participant records "
        "and sample a per-round cohort instead of running every "
        "participant every round; server memory stays O(cohort), not "
        "O(population)",
    )
    parser.add_argument(
        "--cohort-size", type=int, default=None, metavar="C",
        help="participants sampled per round in population mode "
        "(default: 50)",
    )
    parser.add_argument(
        "--cohort-strategy", choices=("uniform", "weighted"), default=None,
        help="cohort sampling: uniform over active participants, or "
        "weighted by device compute speed (default: uniform)",
    )
    parser.add_argument(
        "--churn-plan", default=None, metavar="PLAN.JSON",
        help="evolve the population from a repro.population.ChurnPlan "
        "JSON file (joins, permanent departures, temporary dropout "
        "flaps); seeded and deterministic",
    )
    parser.add_argument("--warmup-rounds", type=int, default=None)
    parser.add_argument("--search-rounds", type=int, default=None)
    parser.add_argument(
        "--retrain", choices=("federated", "centralized"), default="federated"
    )
    parser.add_argument(
        "--staleness", choices=("none", "severe", "slight"), default=None,
        help="staleness mix during the search (Sec. VI-C)",
    )
    parser.add_argument(
        "--staleness-policy", choices=("compensate", "use", "throw"),
        default=None,
    )
    parser.add_argument(
        "--mobility", nargs="*", default=None, metavar="MODE",
        help="mobility modes for bandwidth traces (e.g. --mobility bus car)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--backend", choices=("serial", "process", "socket"), default=None,
        help="execution engine for participant local steps "
        "(default: $REPRO_BACKEND or serial); seeded results are "
        "bit-identical across backends",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes/daemons for --backend process|socket "
        "(default: min(participants, cpu count))",
    )
    parser.add_argument(
        "--socket-workers", nargs="+", default=None, metavar="HOST:PORT",
        help="connect --backend socket to these already-running "
        "'repro serve' daemons instead of spawning local ones",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task deadline before retry / offline fallback",
    )
    parser.add_argument(
        "--task-retries", type=int, default=None, metavar="N",
        help="retries per failed task, each on a different worker "
        "when possible (default: 1)",
    )
    parser.add_argument(
        "--wire-compression", choices=("none", "zlib"), default=None,
        help="payload compression for --backend socket (default: none)",
    )
    parser.add_argument(
        "--wire-dtype", choices=("float16", "float32", "float64"),
        default=None,
        help="wire precision for --backend socket tensors; float64 is "
        "lossless and preserves bit-identical results (default: float64)",
    )
    parser.add_argument(
        "--compute-dtype", choices=("float64", "float32"), default=None,
        help="replay dtype of the compiled compute engine: float64 "
        "(reference) or float32 (opt-in, tolerance-verified; "
        "default: $REPRO_COMPUTE_DTYPE or float64)",
    )
    parser.add_argument(
        "--tape-fusion", action="store_true",
        help="fused conv-BN-ReLU tape primitive (analytic "
        "fused backward; tolerance-equal to the unfused composition; "
        "default: $REPRO_TAPE_FUSION)",
    )
    parser.add_argument(
        "--measure-wire", action="store_true",
        help="measure exact on-wire payload sizes each round and report "
        "them through telemetry (alongside the analytic Fig. 7 estimate)",
    )
    parser.add_argument(
        "--telemetry-log", default=None, metavar="PATH",
        help="also stream telemetry events to a JSONL run log at PATH",
    )
    parser.add_argument(
        "--no-telemetry", action="store_true",
        help="disable telemetry entirely (null sink, near-zero overhead)",
    )
    parser.add_argument(
        "--tracing", action="store_true",
        help="distributed tracing: tasks carry a trace context, workers "
        "time local-step phases, and span trees merge into the round "
        "timeline (default: $REPRO_TRACING; seeded results are "
        "bit-identical with tracing off or on)",
    )
    parser.add_argument(
        "--trace-ops", action="store_true",
        help="with --tracing: also profile per-op repro.nn forward time "
        "inside traced local steps (keyed by op name and input shape)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the final metrics snapshot as Markdown tables",
    )
    parser.add_argument(
        "--faults", default=None, metavar="PLAN.JSON",
        help="inject faults from a repro.faults.FaultPlan JSON file "
        "(corrupted updates, drops, flaps, forced crashes); seeded and "
        "deterministic",
    )
    parser.add_argument(
        "--network-faults", default=None, metavar="PLAN.JSON",
        help="inject wire-level chaos from a repro.faults.NetworkFaultPlan "
        "JSON file (latency, drops, refused dials, partitions, throttling, "
        "frame corruption); socket backend only, seeded and deterministic",
    )
    parser.add_argument(
        "--no-validation", action="store_true",
        help="disable the server-side update validation/quarantine boundary",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a crash-consistent search checkpoint to PATH "
        "(with --checkpoint-every)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint every N warm-up/search rounds (requires --checkpoint)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="resume a run from a checkpoint written via --checkpoint; "
        "the embedded config is used (other config flags are ignored)",
    )
    return parser


def _add_trace_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument("path", help="run log written via --telemetry-log")
    parser.add_argument(
        "--top", type=int, default=5,
        help="how many slowest participants to show (default: 5)",
    )
    parser.add_argument(
        "--rounds", type=int, default=20, metavar="N",
        help="cap the per-round table at N rows (default: 20)",
    )
    parser.add_argument(
        "--chrome", default=None, metavar="OUT.JSON",
        help="also export a Chrome/Perfetto trace-event JSON file "
        "(open at chrome://tracing or ui.perfetto.dev); one track per "
        "worker plus the server span track",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full summary dict as JSON instead of the report",
    )
    return parser


def _add_serve_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to listen on (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="TCP port to listen on; 0 picks a free port (default: 0)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="exit after this long with no server connection "
        "(default: run until shut down)",
    )
    parser.add_argument(
        "--network-faults", default=None, metavar="PLAN.JSON",
        help="misbehave on the wire per a repro.faults.NetworkFaultPlan "
        "JSON file (worker-side chaos; see repro run --network-faults)",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The ``repro run`` argument parser (also the deprecation-shim parser)."""
    return _add_run_arguments(
        argparse.ArgumentParser(
            prog="repro run",
            description="Run the four-phase federated model-search pipeline",
        )
    )


def build_trace_parser() -> argparse.ArgumentParser:
    return _add_trace_arguments(
        argparse.ArgumentParser(
            prog="repro trace",
            description="Summarize a JSONL telemetry run log",
        )
    )


def build_main_parser() -> argparse.ArgumentParser:
    """Top-level parser with the ``run`` and ``trace`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Federated model search via reinforcement learning "
        "(ICDCS 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", metavar="{run,trace,serve}")
    _add_run_arguments(
        sub.add_parser(
            "run",
            help="run the four-phase search pipeline",
            description="Run the four-phase federated model-search pipeline",
        )
    )
    _add_trace_arguments(
        sub.add_parser(
            "trace",
            help="summarize a JSONL telemetry run log",
            description="Summarize a JSONL telemetry run log",
        )
    )
    _add_serve_arguments(
        sub.add_parser(
            "serve",
            help="run a participant worker daemon for --backend socket",
            description="Run a participant worker daemon that executes "
            "local steps shipped over TCP by 'repro run --backend socket'",
        )
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Resolve profile defaults < ``--config`` file < explicit CLI flags."""
    mixes = {
        "none": None,
        "severe": (0.3, 0.4, 0.2, 0.1),
        "slight": (0.9, 0.09, 0.009, 0.001),
    }
    overrides = {}
    if args.dataset is not None:
        overrides["dataset"] = args.dataset
    if args.non_iid:
        overrides["non_iid"] = True
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.staleness is not None:
        overrides["staleness_mix"] = mixes[args.staleness]
    if args.staleness_policy is not None:
        overrides["staleness_policy"] = args.staleness_policy
    if args.mobility:
        overrides["mobility_modes"] = tuple(args.mobility)
    if args.participants is not None:
        overrides["num_participants"] = args.participants
    if getattr(args, "population", None) is not None:
        overrides["population"] = args.population
    if getattr(args, "cohort_size", None) is not None:
        overrides["cohort_size"] = args.cohort_size
    if getattr(args, "cohort_strategy", None) is not None:
        overrides["cohort_strategy"] = args.cohort_strategy
    if getattr(args, "churn_plan", None):
        overrides["churn_plan"] = args.churn_plan
    if args.warmup_rounds is not None:
        overrides["warmup_rounds"] = args.warmup_rounds
    if args.search_rounds is not None:
        overrides["search_rounds"] = args.search_rounds
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    if getattr(args, "workers", None) is not None:
        overrides["num_workers"] = args.workers
    if getattr(args, "task_timeout", None) is not None:
        overrides["task_timeout_s"] = args.task_timeout
    if getattr(args, "task_retries", None) is not None:
        overrides["task_retries"] = args.task_retries
    if getattr(args, "socket_workers", None):
        overrides["socket_workers"] = tuple(args.socket_workers)
    if getattr(args, "wire_compression", None) is not None:
        overrides["socket_compression"] = args.wire_compression
    if getattr(args, "wire_dtype", None) is not None:
        overrides["socket_wire_dtype"] = args.wire_dtype
    if getattr(args, "compute_dtype", None) is not None:
        overrides["compute_dtype"] = args.compute_dtype
    if getattr(args, "tape_fusion", False):
        overrides["tape_fusion"] = True
    if getattr(args, "measure_wire", False):
        overrides["measure_wire_bytes"] = True
    if getattr(args, "telemetry_log", None):
        overrides["telemetry_log_path"] = args.telemetry_log
    if getattr(args, "no_telemetry", False):
        overrides["telemetry_enabled"] = False
    if getattr(args, "tracing", False):
        overrides["tracing_enabled"] = True
    if getattr(args, "trace_ops", False):
        overrides["tracing_enabled"] = True
        overrides["trace_ops"] = True
    if getattr(args, "faults", None):
        overrides["fault_plan_path"] = args.faults
    if getattr(args, "network_faults", None):
        overrides["network_faults"] = args.network_faults
    if getattr(args, "no_validation", False):
        overrides["validate_updates"] = False
    if getattr(args, "checkpoint", None):
        overrides["checkpoint_path"] = args.checkpoint
    if getattr(args, "checkpoint_every", None) is not None:
        overrides["checkpoint_every"] = args.checkpoint_every

    profile = ExperimentConfig.paper if args.profile == "paper" else ExperimentConfig.small
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ValueError(
                f"config file {args.config} must hold a JSON object, "
                f"got {type(file_values).__name__}"
            )
        base = profile().to_dict()
        merged = {**base, **file_values, **overrides}
        # Validate the file's keys/types even where overrides win.
        ExperimentConfig.from_dict({**base, **file_values})
        return ExperimentConfig.from_dict(merged)
    return profile(**overrides)


def run_main(args: argparse.Namespace) -> int:
    resume_from = getattr(args, "resume", None)
    if resume_from:
        # The compiled engine's two numeric options may change on
        # resume (tape caches are derived state — never checkpointed,
        # rebuilt on first use); all other flags are ignored on resume.
        overrides = {}
        if getattr(args, "compute_dtype", None) is not None:
            overrides["compute_dtype"] = args.compute_dtype
        if getattr(args, "tape_fusion", False):
            overrides["tape_fusion"] = True
        overrides = overrides or None
        try:
            pipeline = FederatedModelSearch.resume(
                resume_from, config_overrides=overrides
            )
        except (OSError, ValueError) as exc:
            print(f"error: cannot resume from {resume_from}: {exc}", file=sys.stderr)
            return 2
        config = pipeline.config
        print(f"resumed from {resume_from} at round {pipeline.server.round}")
    else:
        try:
            config = config_from_args(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        pipeline = FederatedModelSearch(config)
    print(
        f"dataset={config.dataset} non_iid={config.non_iid} "
        f"K={config.num_participants} seed={config.seed} "
        f"backend={pipeline.backend.name}"
    )
    print(f"supernet: {pipeline.supernet.num_parameters():,} parameters")
    try:
        report = pipeline.run(retrain_mode=args.retrain)
    except InjectedServerCrash as exc:
        print(f"error: {exc}", file=sys.stderr)
        if config.checkpoint_every and config.checkpoint_path:
            print(
                f"resume with: python -m repro run --resume {config.checkpoint_path}",
                file=sys.stderr,
            )
        return 3
    finally:
        pipeline.close()
    print()
    print("searched architecture:")
    print(report.genotype.describe())
    print()
    print(f"mean sub-model payload: {report.mean_submodel_bytes / 1e3:.1f} kB")
    print(f"searched-model parameters: {report.model_parameters:,}")
    print(f"test accuracy (P4): {report.test_accuracy:.4f}")
    if args.telemetry_log and config.telemetry_enabled:
        print(f"telemetry run log: {args.telemetry_log}")
        print(f"summarize with: python -m repro trace {args.telemetry_log}")
    if args.metrics and report.metrics:
        from .reporting import metrics_markdown

        print()
        print(metrics_markdown(report.metrics))
    return 0


def trace_main(argv=None) -> int:
    """Entry point for ``repro trace`` (accepts raw argv for back-compat)."""
    args = build_trace_parser().parse_args(argv)
    return _trace_main(args)


def _trace_main(args: argparse.Namespace) -> int:
    import warnings

    from .telemetry import (
        export_chrome_trace,
        load_events,
        render_trace,
        summarize_trace,
    )

    try:
        with warnings.catch_warnings():
            # Malformed lines (truncated tail of a killed run) are
            # counted and surfaced in the report instead of warned.
            warnings.simplefilter("ignore", RuntimeWarning)
            events = load_events(args.path)
    except OSError as exc:
        print(f"error: cannot read run log: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(events, "malformed_lines", 0):
        print(
            f"warning: skipped {events.malformed_lines} malformed JSONL "
            f"line(s) in {args.path}",
            file=sys.stderr,
        )
    chrome_path = getattr(args, "chrome", None)
    if chrome_path:
        with open(chrome_path, "w", encoding="utf-8") as handle:
            json.dump(export_chrome_trace(events), handle)
        print(f"chrome trace written to {chrome_path}", file=sys.stderr)
    summary = summarize_trace(events)
    if getattr(args, "json", False):
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_trace(summary, top=args.top, max_round_rows=args.rounds))
    return 0


def serve_main(args: argparse.Namespace) -> int:
    from .faults.network import NetworkFaultPlan
    from .transport import serve

    plan = None
    if getattr(args, "network_faults", None):
        plan = NetworkFaultPlan.load(args.network_faults)
    try:
        serve(
            host=args.host,
            port=args.port,
            idle_timeout_s=args.idle_timeout,
            network_fault_plan=plan,
        )
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(f"error: cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("run", "trace", "serve"):
        args = build_main_parser().parse_args(argv)
        if args.command == "trace":
            return _trace_main(args)
        if args.command == "serve":
            return serve_main(args)
        return run_main(args)
    if argv and argv[0] in ("-h", "--help"):
        build_main_parser().parse_args(argv)
        return 0
    # Deprecation shim: bare ``python -m repro [flags]`` means ``repro run``.
    if argv:
        print(
            "warning: invoking 'python -m repro' without a subcommand is "
            "deprecated; use 'python -m repro run ...'",
            file=sys.stderr,
        )
    return run_main(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
