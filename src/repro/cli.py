"""Command-line interface for the Edge-PrivLocAd reproduction.

Subcommands::

    repro experiments fig6 fig7 --scale small --workers 4 --cache
                                                # regenerate paper results
    repro bench fig6 --scale small              # cold/warm cache benchmark
    repro bench --compare OLD.json NEW.json     # wall-clock regression gate
    repro simulate --users 40 --campaigns 300   # end-to-end system run
    repro serve --shards 4 --qps 2000 --duration 5
                                                # streaming edge service run
    repro serve --replay --shards 2 --duration-events 2000
                                                # bit-identical replay mode
    repro fleet run churn10 --shards 4          # serve under deterministic
                                                # fault injection (docs/fleet.md)
    repro attack --level ln2                    # case-study attack demo
    repro verify --r 500 --epsilon 1 --delta 0.01 --n 10
                                                # check a budget's calibration
    repro lint src/repro --baseline reprolint-baseline.json
                                                # privacy/determinism lint
    repro obs trace.jsonl                       # span/metrics trace summary
    repro obs trace.jsonl --format prom         # Prometheus-style dump

The work-running subcommands (``experiments``, ``simulate``, ``serve``,
``fleet``, ``attack``, ``verify``) share ``--seed S`` and ``--trace PATH``
(record a :mod:`repro.obs` trace, inspected with ``repro obs``).  The
data-plane flags (``--workers N``, ``--cache/--no-cache``, ``--tier``,
``--mmap``, ``--cache-dir``) are registered only on the
subcommand that honours them: ``experiments``.

(Equivalent to ``python -m repro.cli ...``; also installed as the
``repro`` console script.)
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

__all__ = ["main", "build_parser"]

_LEVELS = {"ln2": math.log(2), "ln4": math.log(4), "ln6": math.log(6)}


@contextmanager
def _maybe_trace(path: Optional[str]) -> Iterator[None]:
    """Record a repro.obs trace around the body when ``path`` is given."""
    if path is None:
        yield
        return
    from repro import obs

    obs.enable(path)
    try:
        yield
    finally:
        obs.shutdown()


def _common_options() -> argparse.ArgumentParser:
    """The shared option set every work-running subcommand inherits.

    One parent parser (``parents=[...]``) keeps spelling, defaults, and
    help text identical across ``experiments``, ``simulate``, ``serve``,
    ``fleet``, ``attack``, and ``verify``.  ``--seed`` defaults to
    ``None`` so each handler can keep its historical fallback (0 for
    simulate, 11 for attack, the scale preset for experiments).
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="root RNG seed (default: the subcommand's historical default)",
    )
    common.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a repro.obs trace (spans + metrics, JSON lines) to "
        "PATH; inspect with 'repro obs PATH'",
    )
    return common


def _data_plane_options() -> argparse.ArgumentParser:
    """The data-plane flags, for the subcommands that build a ``DataPlaneConfig``.

    The flags come from :mod:`repro.data.plane`; the handler turns them
    into one :class:`~repro.data.plane.DataPlaneConfig`.
    """
    from repro.data.plane import add_data_plane_arguments

    plane = argparse.ArgumentParser(add_help=False)
    add_data_plane_arguments(plane)
    return plane


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Edge-PrivLocAd reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_options()
    plane = _data_plane_options()

    p_exp = sub.add_parser(
        "experiments",
        help="regenerate paper tables/figures",
        parents=[common, plane],
    )
    p_exp.add_argument("ids", nargs="+", help="experiment ids or 'all'")
    p_exp.add_argument("--scale", default="small", choices=["small", "medium", "full"])

    p_bench = sub.add_parser(
        "bench",
        help="cache/shared-memory benchmarks and the regression gate",
        add_help=False,
    )
    p_bench.add_argument("bench_args", nargs=argparse.REMAINDER)

    p_sim = sub.add_parser(
        "simulate", help="run the end-to-end system", parents=[common]
    )
    p_sim.add_argument("--users", type=int, default=20)
    p_sim.add_argument("--campaigns", type=int, default=200)
    p_sim.add_argument("--edges", type=int, default=4)
    p_sim.add_argument(
        "--attack",
        action="store_true",
        help="also run the provider-side attack on the egress record",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the sharded streaming edge service (see docs/serving.md)",
        parents=[common],
    )
    p_srv.add_argument(
        "--shards", type=int, default=2, help="actor shards (worker processes)"
    )
    p_srv.add_argument(
        "--qps",
        type=float,
        default=0.0,
        help="live-mode producer pacing in events/s (0 = unpaced)",
    )
    p_srv.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="live run length in seconds; with --qps this sizes the "
        "workload (overrides --duration-events)",
    )
    p_srv.add_argument(
        "--duration-events",
        type=int,
        default=2_000,
        metavar="N",
        help="workload size in events when --duration is not given",
    )
    p_srv.add_argument(
        "--replay",
        action="store_true",
        help="deterministic replay: virtual clock, blocking ingress, "
        "bit-identical response/metrics digests at any shard count",
    )
    p_srv.add_argument("--users", type=int, default=50)
    p_srv.add_argument("--campaigns", type=int, default=200)
    p_srv.add_argument(
        "--queue-capacity",
        type=int,
        default=256,
        help="per-shard bounded ingress queue depth (live mode sheds "
        "beyond it)",
    )
    p_srv.add_argument("--batch-max", type=int, default=32)
    p_srv.add_argument(
        "--inline",
        action="store_true",
        help="run shards inline instead of in worker processes",
    )
    p_srv.add_argument(
        "--prom-file",
        default=None,
        metavar="PATH",
        help="write the fleet metrics snapshot as Prometheus text to PATH",
    )
    p_srv.add_argument(
        "--bench-json",
        default=None,
        metavar="PATH",
        help="write a BENCH payload (for 'repro bench --compare') to PATH",
    )

    p_flt = sub.add_parser(
        "fleet",
        help="run the serve workload under deterministic fault injection "
        "(see docs/fleet.md)",
        parents=[common],
    )
    flt_sub = p_flt.add_subparsers(dest="fleet_command", required=True)
    p_flt_run = flt_sub.add_parser(
        "run",
        help="run one scenario (a built-in name or a YAML/JSON file) "
        "against the seeded serve workload",
        parents=[common],
    )
    p_flt_run.add_argument(
        "scenario",
        help="built-in scenario name (churn10, churn25, lossy-crash) or a "
        "scenario file path",
    )
    p_flt_run.add_argument(
        "--shards", type=int, default=2, help="actor shards (worker processes)"
    )
    p_flt_run.add_argument("--users", type=int, default=50)
    p_flt_run.add_argument("--campaigns", type=int, default=200)
    p_flt_run.add_argument(
        "--duration-events",
        type=int,
        default=2_000,
        metavar="N",
        help="workload size in events",
    )
    p_flt_run.add_argument(
        "--live",
        action="store_true",
        help="wall-clock mode (fleet runs replay by default: virtual "
        "clock, bit-identical digests at any shard count)",
    )
    p_flt_run.add_argument(
        "--qps",
        type=float,
        default=0.0,
        help="live-mode producer pacing in events/s (0 = unpaced)",
    )
    p_flt_run.add_argument(
        "--inline",
        action="store_true",
        help="run shards inline instead of in worker processes",
    )
    p_flt_run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="mirror actor crash snapshots to JSON files under DIR",
    )
    p_flt_run.add_argument(
        "--baseline",
        action="store_true",
        help="also run the no-fault baseline and print the SLO deltas",
    )
    p_flt_run.add_argument(
        "--bench-json",
        default=None,
        metavar="PATH",
        help="write a BENCH_fleet record (needs --baseline) to PATH",
    )

    p_atk = sub.add_parser(
        "attack", help="case-study de-obfuscation attack", parents=[common]
    )
    p_atk.add_argument("--level", default="ln2", choices=sorted(_LEVELS))

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint, the privacy/determinism static analysis",
        add_help=False,
    )
    p_lint.add_argument("lint_args", nargs=argparse.REMAINDER)

    p_ver = sub.add_parser(
        "verify", help="verify a (r, eps, delta, n) budget", parents=[common]
    )
    p_ver.add_argument("--r", type=float, default=500.0)
    p_ver.add_argument("--epsilon", type=float, default=1.0)
    p_ver.add_argument("--delta", type=float, default=0.01)
    p_ver.add_argument("--n", type=int, default=10)
    p_ver.add_argument("--samples", type=int, default=100_000)

    p_obs = sub.add_parser(
        "obs", help="inspect a recorded repro.obs trace file"
    )
    p_obs.add_argument("trace_file", help="JSON-lines trace written by --trace")
    p_obs.add_argument(
        "--format",
        dest="obs_format",
        default="summary",
        choices=["summary", "prom"],
        help="summary: span tree + metrics table; prom: Prometheus-style "
        "text exposition",
    )
    return parser


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.data.plane import DataPlaneConfig
    from repro.experiments.runner import RequestError, run_experiments

    try:
        plane = DataPlaneConfig.from_args(args)
    except ValueError as exc:
        print(f"repro experiments: error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiments(
            args.ids, args.scale, plane, seed=args.seed, trace=args.trace
        )
    except RequestError as exc:
        print(f"repro experiments: error: {exc}", file=sys.stderr)
        return 2


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import main as bench_main

    return bench_main(args.bench_args or None)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.attack import DeobfuscationAttack, evaluate_user, success_rate
    from repro.core import NFoldGaussianMechanism
    from repro.datagen import PopulationConfig, generate_population
    from repro.serve import TrafficSummary, attack_egress, run_population

    seed = args.seed if args.seed is not None else 0
    with _maybe_trace(args.trace):
        users = generate_population(
            PopulationConfig(n_users=args.users, seed=seed)
        )
        report = run_population(
            users, n_edges=args.edges, n_campaigns=args.campaigns, seed=seed
        )
        traffic = TrafficSummary.from_responses(report.responses)
        print(f"requests served:       {traffic.requests}")
        print(f"top-path share:        {traffic.top_path_share:.1%}")
        print(f"ad relevance ratio:    {traffic.relevance_ratio:.1%}")

        if args.attack:
            attack = DeobfuscationAttack.against(
                NFoldGaussianMechanism(report.config.edge.budget)
            )
            inferred = attack_egress(report.responses, attack, 1)
            outcomes = [
                evaluate_user(inferred.get(i, []), u.true_tops[:1])
                for i, u in enumerate(users)
            ]
            for threshold in (200.0, 500.0):
                rate = success_rate(outcomes, 1, threshold)
                print(f"attack success @{threshold:.0f}m: {rate:.1%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.obs import record as bench_record
    from repro.obs.render import render_prometheus
    from repro.serve.harness import run_service

    seed = args.seed if args.seed is not None else 0
    qps = args.qps
    if args.duration is not None:
        if qps <= 0:
            qps = 500.0
        n_events = max(1, int(qps * args.duration))
    else:
        n_events = args.duration_events
    with _maybe_trace(args.trace):
        report = run_service(
            n_users=args.users,
            n_events=n_events,
            n_campaigns=args.campaigns,
            seed=seed,
            n_shards=args.shards,
            queue_capacity=args.queue_capacity,
            batch_max=args.batch_max,
            qps=0.0 if args.replay else qps,
            replay=args.replay,
            use_processes=not args.inline,
        )
    print(json.dumps(report.slo, indent=2, sort_keys=True))
    if args.prom_file is not None:
        with open(args.prom_file, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(report.metrics))
            fh.write("\n")
    if args.bench_json is not None:
        bench_record.write(bench_record.serve_record(report), args.bench_json)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import run_fleet
    from repro.obs import record as bench_record

    if args.bench_json is not None and not args.baseline:
        print(
            "repro fleet: error: --bench-json needs --baseline "
            "(the payload pins churn SLOs against the no-fault run)",
            file=sys.stderr,
        )
        return 2
    seed = args.seed if args.seed is not None else 0
    kwargs = dict(
        n_users=args.users,
        n_events=args.duration_events,
        n_campaigns=args.campaigns,
        seed=seed,
        n_shards=args.shards,
        replay=not args.live,
        use_processes=not args.inline,
        qps=args.qps if args.live else 0.0,
    )
    with _maybe_trace(args.trace):
        try:
            report = run_fleet(
                args.scenario, checkpoint_dir=args.checkpoint_dir, **kwargs
            )
        except ValueError as exc:
            print(f"repro fleet: error: {exc}", file=sys.stderr)
            return 2
        payload = report.to_dict()
        if args.baseline:
            baseline = run_fleet(None, **kwargs)
            payload["baseline"] = {
                "qps_achieved": baseline.slo["qps_achieved"],
                "pin_p99_s": baseline.slo["pin_p99_s"],
                "response_digest": baseline.digest,
                "processed": baseline.processed,
            }
            if args.bench_json is not None:
                bench_record.write(
                    bench_record.fleet_record(report, baseline), args.bench_json
                )
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if report.audit.ok else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attack import DeobfuscationAttack
    from repro.core import (
        LongitudinalExposureAccountant,
        PlanarLaplaceMechanism,
        default_rng,
    )
    from repro.datagen import make_fig4_user, one_time_obfuscate
    from repro.datagen.shanghai import STUDY_START_TS
    from repro.profiles import SECONDS_PER_DAY, checkins_to_array, filter_window

    seed = args.seed if args.seed is not None else 11
    with _maybe_trace(args.trace):
        user = make_fig4_user()
        mechanism = PlanarLaplaceMechanism.from_level(
            _LEVELS[args.level], 200.0, rng=default_rng(seed)
        )
        observed = one_time_obfuscate(user.trace, mechanism)
        # Each one-time release composes; showing the accrued effective
        # level next to the recovery error is the point of the demo.
        accountant = LongitudinalExposureAccountant()
        accountant.observe(mechanism.epsilon, count=max(1, len(observed)))
        attack = DeobfuscationAttack.against(mechanism)
        print(f"victim: {len(observed)} check-ins, level {args.level} at 200 m")
        print(
            f"longitudinal exposure: effective l = "
            f"{accountant.effective_level(200.0):.1f} at 200 m after "
            f"{accountant.observations} composed releases"
        )
        for label, days in (("one week", 7), ("one month", 30), ("full year", 365)):
            window = filter_window(
                observed, STUDY_START_TS, STUDY_START_TS + days * SECONDS_PER_DAY
            )
            tops = (
                attack.estimate_xy(checkins_to_array(window), 1) if window else []
            )
            err = (
                tops[0].distance_to(user.true_tops[0]) if tops else float("inf")
            )
            print(f"  {label:>9}: home recovered to {err:7.1f} m ({len(window)} obs)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core import NFoldGaussianMechanism, GeoIndBudget, default_rng
    from repro.core.verification import empirical_privacy_check, verify_gaussian_geo_ind

    budget = GeoIndBudget(args.r, args.epsilon, args.delta, args.n)
    mechanism = NFoldGaussianMechanism(budget)
    with _maybe_trace(args.trace):
        print(
            f"budget: r={args.r} m, eps={args.epsilon}, delta={args.delta}, n={args.n}"
        )
        print(f"calibrated sigma (Theorem 2): {mechanism.sigma:.1f} m")
        analytic = verify_gaussian_geo_ind(
            args.r, args.epsilon, args.delta, args.n, mechanism.sigma
        )
        print(f"analytic check:  {'OK' if analytic else 'VIOLATED'}")
        kwargs = {}
        if args.seed is not None:
            kwargs["rng"] = default_rng(args.seed)
        report = empirical_privacy_check(
            args.r, args.epsilon, args.delta, args.n, mechanism.sigma,
            samples=args.samples,
            **kwargs,
        )
        print(report)
    return 0 if (analytic and report.satisfied) else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as lint_main

    return lint_main(args.lint_args or None)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.render import read_trace, render_prometheus, render_summary

    try:
        trace = read_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace_file}: {exc}", file=sys.stderr)
        return 1
    if args.obs_format == "prom":
        print(render_prometheus(trace.metrics))
    else:
        print(render_summary(trace))
    return 0


_COMMANDS = {
    "experiments": _cmd_experiments,
    "bench": _cmd_bench,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "attack": _cmd_attack,
    "verify": _cmd_verify,
    "lint": _cmd_lint,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to the subcommand."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw[:1] == ["lint"]:
        # Delegate everything after "lint" verbatim: argparse's REMAINDER
        # does not capture a leading flag (e.g. "lint --list-rules").
        from repro.analysis.cli import main as lint_main

        return lint_main(raw[1:])
    if raw[:1] == ["bench"]:
        # Same REMAINDER caveat for "bench --compare OLD NEW".
        from repro.experiments.bench import main as bench_main

        return bench_main(raw[1:])
    args = build_parser().parse_args(raw)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream closed early (e.g. ``repro obs trace | head``);
        # detach stdout so the interpreter's exit flush stays quiet.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return 0


if __name__ == "__main__":
    sys.exit(main())
