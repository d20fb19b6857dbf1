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
    runs participant local steps on forked local workers (bit-identical
    results, lower wall-clock).  ``--config experiment.json`` loads an
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

Without a subcommand, ``python -m repro`` prints the usage line and
exits with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .core import ExperimentConfig, FederatedModelSearch
from .faults import InjectedServerCrash


#: ``--staleness`` names for the Sec. VI-C mixes.
_STALENESS_MIXES = {
    "none": None,
    "severe": (0.3, 0.4, 0.2, 0.1),
    "slight": (0.9, 0.09, 0.009, 0.001),
}

_ARG_TYPES = {"int": int, "float": float}


def _flag_fields():
    """The config fields that declare a CLI flag in their metadata."""
    return [f for f in dataclasses.fields(ExperimentConfig) if "flag" in f.metadata]


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
    # One argument per config field that declares a flag; everything
    # defaults to "not given" so the profile / --config value stands.
    for f in _flag_fields():
        meta = f.metadata
        options = {"help": meta.get("help")}
        if f.type == "bool":
            options["action"] = "store_true"
        else:
            options.update(metavar=meta.get("metavar"), choices=meta.get("choices"))
            if f.type in _ARG_TYPES:
                options["type"] = _ARG_TYPES[f.type]
            elif "Tuple" in f.type:
                options["nargs"] = "+"
        parser.add_argument(meta["flag"], **options)
    parser.add_argument(
        "--retrain", choices=("federated", "centralized"), default="federated"
    )
    parser.add_argument(
        "--staleness", choices=tuple(_STALENESS_MIXES), default=None,
        help="staleness mix during the search (Sec. VI-C)",
    )
    parser.add_argument(
        "--mobility", nargs="*", default=None, metavar="MODE",
        help="mobility modes for bandwidth traces (e.g. --mobility bus car)",
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
    """The ``repro run`` argument parser on its own."""
    return _add_run_arguments(
        argparse.ArgumentParser(
            prog="repro run",
            description="Run the four-phase federated model-search pipeline",
        )
    )


def build_main_parser() -> argparse.ArgumentParser:
    """Top-level parser with the ``run``, ``trace`` and ``serve``
    subcommands; one of them is required."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Federated model search via reinforcement learning "
        "(ICDCS 2021 reproduction)",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{run,trace,serve}", required=True
    )
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
    overrides = {}
    for f in _flag_fields():
        dest = f.metadata["flag"].lstrip("-").replace("-", "_")  # argparse's rule
        value = getattr(args, dest, None)
        if f.type == "bool":
            if value:
                overrides[f.name] = not f.default
        elif value is not None:
            overrides[f.name] = tuple(value) if "Tuple" in f.type else value
    if args.staleness is not None:
        overrides["staleness_mix"] = _STALENESS_MIXES[args.staleness]
    if args.mobility:
        overrides["mobility_modes"] = tuple(args.mobility)
    if getattr(args, "trace_ops", False):
        overrides["tracing_enabled"] = True
        overrides["trace_ops"] = True

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
        # The compute dtype may change on resume (no checkpointed state
        # depends on it); all other flags are ignored on resume.
        overrides = None
        if getattr(args, "compute_dtype", None) is not None:
            overrides = {"compute_dtype": args.compute_dtype}
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
    args = build_main_parser().parse_args(argv)
    if args.command == "trace":
        return _trace_main(args)
    if args.command == "serve":
        return serve_main(args)
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
