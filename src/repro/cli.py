"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro list
    python -m repro run table2 sec434
    python -m repro run all --scale 0.5 --out report.md
    python -m repro run sec434 --artifacts-dir out/
    python -m repro campaign --experiments 8 --workers 4 --artifacts-dir out/
    python -m repro campaign --resume --artifacts-dir out/
    python -m repro store query --artifacts-dir out/
    python -m repro store export --artifacts-dir out/ 'cli control-symbol campaign'
    python -m repro campaign --follow | jq .kind
    python -m repro campaign --scenario dual-injector --artifacts-dir out/
    python -m repro scenario list
    python -m repro scenario compile fabric-congestion --json
    python -m repro scenario run paper-sec35 --artifacts-dir out/
    python -m repro serve --root srv --port 8321
    python -m repro capture decode --input out/capture
    python -m repro capture summarize --input out/capture
    python -m repro insight analyze --input out --store incidents.db
    python -m repro insight similar --store incidents.db --label run-a
    python -m repro metrics --input out/telemetry/metrics.json --format summary
    python -m repro synthesis
    python -m repro lint          # simlint static analysis (CI gate)
    python -m repro sanitize      # identical-seed determinism replay

Each experiment regenerates one of the paper's tables/figures (the same
code paths the benchmarks drive) and prints it; ``--out`` additionally
collects everything into a text or markdown report via
:class:`repro.nftape.report.CampaignReport`.

Artifacts land under one umbrella: ``--artifacts-dir DIR`` writes
``DIR/telemetry/`` (metrics.json, spans.jsonl, trace.json) and
``DIR/capture/`` (capture.rcap); engine campaigns additionally keep
the result store ``DIR/results.sqlite`` and per-experiment shards under
``DIR/experiments/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.nftape.report import CampaignReport
from repro.nftape.results import ResultTable
from repro.sim.timebase import MS
from repro.telemetry.session import (
    CAPTURE_SUBDIR,
    METRICS_FILE_NAME,
    TELEMETRY_SUBDIR,
)

#: The artifacts root the offline readers (``capture``, ``metrics``)
#: default to, as written by ``--artifacts-dir out``.
DEFAULT_ARTIFACTS_DIR = "out"

#: Registry: name -> (description, runner).  Runners take a scale factor
#: and return (tables, notes).
Runner = Callable[[float], Tuple[List[ResultTable], List[str]]]


def _scaled(base_ms: float, scale: float) -> int:
    return max(1 * MS, int(base_ms * scale * MS))


def _run_table1(scale: float):
    from repro.hw.synthesis import format_report, synthesis_report
    table = ResultTable("Table 1 — synthesis (see text form below)")
    return [table], [format_report(synthesis_report())]


def _run_table2(scale: float):
    from repro.nftape.paper import table2_latency
    exchanges = max(100, int(600 * scale))
    return [table2_latency(exchanges=exchanges, experiments=5)], []


def _run_sec35(scale: float):
    from repro.nftape.paper import sec35_passthrough
    return [sec35_passthrough(duration_ps=_scaled(10, scale))], []


def _run_table4(scale: float):
    from repro.nftape.paper import table4_control_symbols
    return [table4_control_symbols(duration_ps=_scaled(12, scale))], []


def _run_sec431(scale: float):
    from repro.nftape.paper import sec431_throughput
    return [sec431_throughput(duration_ps=_scaled(15, scale))], []


def _run_sec432(scale: float):
    from repro.nftape.paper import sec432_packet_types
    return [sec432_packet_types()], []


def _run_sec433(scale: float):
    from repro.nftape.paper import sec433_addresses
    table, artifacts = sec433_addresses()
    notes = (
        ["Figure 11 — before:"] + artifacts["fig11_before"]
        + ["Figure 11 — after (corrupted rounds):"] + artifacts["fig11_after"]
    )
    return [table], notes


def _run_sec434(scale: float):
    from repro.nftape.paper import sec434_udp_checksum
    return [sec434_udp_checksum()], []


EXPERIMENTS: Dict[str, Tuple[str, Runner]] = {
    "table1": ("FPGA synthesis results", _run_table1),
    "table2": ("added latency of the device in the data path", _run_table2),
    "sec35": ("pass-through transparency", _run_sec35),
    "table4": ("control-symbol corruption campaign (slow)", _run_table4),
    "sec431": ("throughput under flow-control faults (slow)", _run_sec431),
    "sec432": ("packet type and source route corruption", _run_sec432),
    "sec433": ("physical address corruption + Figure 11", _run_sec433),
    "sec434": ("UDP checksum corruption", _run_sec434),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'An Adaptive Architecture for Monitoring and "
            "Failure Analysis of High-Speed Networks' (DSN 2002): run the "
            "paper's experiments on the simulated test bed."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the available experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+",
                     help="experiment names, or 'all'")
    run.add_argument("--scale", type=float, default=1.0,
                     help="duration scale factor (default 1.0)")
    run.add_argument("--out", default=None,
                     help="write a combined report (.md or .txt)")
    run.add_argument("--artifacts-dir", default=None,
                     help="write all artifacts under this directory "
                          "(DIR/telemetry/ and DIR/capture/)")

    campaign = sub.add_parser(
        "campaign",
        help="run the control-symbol-demo fault-injection campaign",
    )
    campaign.add_argument("--experiments", type=int, default=4,
                          help="number of experiments (default 4)")
    campaign.add_argument("--duration-ms", type=float, default=3.0,
                          help="per-experiment duration in simulated ms")
    campaign.add_argument("--seed", type=int, default=0,
                          help="base campaign seed (default 0); per-"
                               "experiment seeds are derived from it")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes; >1 shards experiments "
                               "across pull-queue workers (crashed or "
                               "hung workers forfeit their leases and "
                               "are re-issued) with bit-identical "
                               "results (default 1 = in-process serial)")
    campaign.add_argument("--resume", action="store_true",
                          help="resume an interrupted campaign from "
                               "ARTIFACTS_DIR/results.sqlite (requires "
                               "--artifacts-dir)")
    campaign.add_argument("--artifacts-dir", default=None,
                          help="write all artifacts under this directory: "
                               "DIR/telemetry/, DIR/capture/, "
                               "DIR/results.sqlite (query with 'store "
                               "query'), DIR/experiments/")
    campaign.add_argument("--scenario", default=None, metavar="NAME",
                          help="run a library scenario (or a .yaml/.json "
                               "scenario file) instead of "
                               "control-symbol-demo; see "
                               "'scenario list'")
    campaign.add_argument("--follow", action="store_true",
                          help="print live NDJSON lifecycle events "
                               "(campaign_started, experiment_finished, "
                               "snapshot, ...) to stdout while the "
                               "campaign runs; the table and summary "
                               "move to stderr so stdout stays pure "
                               "NDJSON")
    campaign.add_argument("--no-progress", action="store_true",
                          help="suppress the live progress line")

    scenario = sub.add_parser(
        "scenario",
        help="compile or run declarative scenario documents "
             "(topology + traffic + fault plans -> campaigns)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command")
    scenario_sub.add_parser(
        "list", help="list the built-in scenario library"
    )
    compile_cmd = scenario_sub.add_parser(
        "compile",
        help="compile a scenario to its campaign spec without running it",
    )
    compile_cmd.add_argument(
        "scenario", metavar="NAME_OR_PATH",
        help="a library scenario name, or a .yaml/.json scenario file",
    )
    compile_cmd.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print the full campaign spec JSON instead of the summary",
    )
    scenario_run = scenario_sub.add_parser(
        "run", help="compile a scenario and run the campaign"
    )
    scenario_run.add_argument(
        "scenario", metavar="NAME_OR_PATH",
        help="a library scenario name, or a .yaml/.json scenario file",
    )
    scenario_run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1; results are bit-identical "
             "at any worker count)",
    )
    scenario_run.add_argument(
        "--artifacts-dir", default=None,
        help="write the result store + merged artifacts under this "
             "directory",
    )
    scenario_run.add_argument(
        "--resume", action="store_true",
        help="resume from ARTIFACTS_DIR/results.sqlite",
    )
    scenario_run.add_argument(
        "--no-progress", action="store_true",
        help="suppress the live progress line",
    )

    serve = sub.add_parser(
        "serve",
        help="run the monitoring-as-a-service campaign server "
             "(POST /campaigns, live event streams, insight reports)",
    )
    serve.add_argument("--root", default="srv",
                       help="artifact root; campaigns land under "
                            "ROOT/<tenant>/<id>/ (default: srv)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8321)")
    serve.add_argument("--workers", type=int, default=1,
                       help="default worker processes per campaign "
                            "(submissions may override; default: 1)")
    serve.add_argument("--runners", type=int, default=1,
                       help="concurrent campaign runners; >1 drains the "
                            "queue N campaigns at a time through the "
                            "pooled executor (default: 1 = serial queue)")
    serve.add_argument("--queue-limit", type=int, default=8,
                       help="pending campaigns before POST /campaigns "
                            "answers 429 (default: 8)")
    serve.add_argument("--timeout-s", type=float, default=None,
                       help="per-experiment wall-clock timeout for "
                            "pooled campaigns, --runners > 1 included "
                            "(default: none)")

    store = sub.add_parser(
        "store",
        help="query or export the campaign result store "
             "(ARTIFACTS_DIR/results.sqlite)",
    )
    store_sub = store.add_subparsers(dest="store_command")
    store_query = store_sub.add_parser(
        "query",
        help="list stored campaigns and their progress; with a campaign "
             "reference, show its aggregate counters and attempt audit",
    )
    store_export = store_sub.add_parser(
        "export",
        help="dump one campaign's winning rows as NDJSON, index order",
    )
    for store_cmd in (store_query, store_export):
        store_cmd.add_argument(
            "--store", default=None, metavar="PATH",
            help="results.sqlite path (alternative to --artifacts-dir)",
        )
        store_cmd.add_argument(
            "--artifacts-dir", default=None, metavar="DIR",
            help="campaign artifacts root holding DIR/results.sqlite",
        )
    store_query.add_argument(
        "campaign", nargs="?", default=None, metavar="REF",
        help="a spec-digest prefix or exact campaign name (optional)",
    )
    store_export.add_argument(
        "campaign", metavar="REF",
        help="a spec-digest prefix or exact campaign name",
    )
    store_export.add_argument(
        "--out", default=None,
        help="write the NDJSON to PATH instead of stdout",
    )

    capture = sub.add_parser(
        "capture",
        help="decode or summarize a capture.rcap artifact offline",
    )
    capture_sub = capture.add_subparsers(dest="capture_command")
    decode = capture_sub.add_parser(
        "decode",
        help="reassemble packets, mark injected symbols, join verdicts",
    )
    decode.add_argument("--input",
                        default=f"{DEFAULT_ARTIFACTS_DIR}/{CAPTURE_SUBDIR}",
                        help="a capture.rcap file or its directory")
    decode.add_argument("--json", dest="json_out", default=None,
                        help="also write the full analysis tree as JSON")
    decode.add_argument("--out", default=None,
                        help="write the report (.md or .txt)")
    summarize = capture_sub.add_parser(
        "summarize",
        help="print record counts and experiment markers without decoding",
    )
    summarize.add_argument("--input",
                           default=f"{DEFAULT_ARTIFACTS_DIR}/{CAPTURE_SUBDIR}",
                           help="a capture.rcap file or its directory")

    metrics = sub.add_parser(
        "metrics",
        help="re-render a metrics.json artifact (json, Prometheus text, "
             "or a quantile summary)",
    )
    metrics.add_argument("--input",
                         default=f"{DEFAULT_ARTIFACTS_DIR}/{TELEMETRY_SUBDIR}/"
                                 f"{METRICS_FILE_NAME}",
                         help="path to a metrics.json artifact")
    metrics.add_argument("--format", choices=("json", "prom", "summary"),
                         default="prom", help="output format ('summary' "
                         "adds p50/p95/p99 histogram quantiles)")

    insight = sub.add_parser(
        "insight",
        help="correlate campaign artifacts into ranked incident reports",
    )
    insight_sub = insight.add_subparsers(dest="insight_command")
    analyze = insight_sub.add_parser(
        "analyze",
        help="join capture+telemetry+topology; print the incident summary",
    )
    analyze.add_argument("--input", default="out",
                         help="campaign artifact directory (engine or "
                              "flat layout)")
    analyze.add_argument("--label", default=None,
                         help="override the report label (defaults to the "
                              "campaign name)")
    analyze.add_argument("--json", dest="json_out", default=None,
                         help="write the canonical report JSON to PATH")
    analyze.add_argument("--store", default=None,
                         help="also persist the report into this sqlite "
                              "incident store")
    analyze.add_argument("--result-store", default=None, metavar="PATH",
                         help="cross-check the report against a campaign "
                              "result store (ARTIFACTS_DIR/results.sqlite): "
                              "indices, names, seeds, and aggregate "
                              "consistency; exit 1 on mismatch")
    analyze.add_argument("--digest-only", action="store_true",
                         help="print only the report digest (CI gate)")
    report_cmd = insight_sub.add_parser(
        "report",
        help="print the full incident report for one campaign",
    )
    report_cmd.add_argument("--input", default="out",
                            help="campaign artifact directory")
    report_cmd.add_argument("--label", default=None,
                            help="override the report label")
    report_cmd.add_argument("--out", default=None,
                            help="also write the rendered report to PATH")
    similar = insight_sub.add_parser(
        "similar",
        help="rank stored campaigns by feature-vector similarity",
    )
    similar.add_argument("--store", required=True,
                         help="sqlite incident store path")
    similar.add_argument("--input", default=None,
                         help="query campaign: analyze this artifact "
                              "directory")
    similar.add_argument("--label", default=None,
                         help="query campaign: a label already in the "
                              "store (alternative to --input)")
    similar.add_argument("--top", type=int, default=5,
                         help="number of results (default 5)")

    sub.add_parser("synthesis", help="print the Table 1 synthesis estimate")

    lint = sub.add_parser(
        "lint",
        help="run the simlint static-analysis rules over the source tree",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="directories to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    lint.add_argument(
        "--flow", action="store_true",
        help="additionally run the simflow dataflow rules "
             "(FLOW1xx determinism taint, FLOW2xx parallel safety)",
    )
    lint.add_argument(
        "--format", choices=("text", "sarif"), default="text",
        help="stdout format: parseable text lines (default) or a "
             "SARIF 2.1.0 report for code scanning",
    )
    lint.add_argument(
        "--sarif-out", default=None, metavar="PATH",
        help="additionally write a SARIF report to PATH "
             "(independent of --format)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="accepted-findings baseline: new findings fail, baseline "
             "findings warn, stale entries are reported "
             "(default: auto-discover lint-baseline.json upward from "
             "the lint root; 'none' disables)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current findings: (re)write the baseline "
             "file and exit 0",
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="replay an identical-seed campaign twice; fail on divergence",
    )
    sanitize.add_argument("--seed", type=int, default=0,
                          help="campaign seed (default 0)")
    sanitize.add_argument("--runs", type=int, default=2,
                          help="number of identical replays (default 2)")
    sanitize.add_argument("--duration-ms", type=float, default=4.0,
                          help="workload duration in simulated ms (default 4)")

    golden = sub.add_parser(
        "golden",
        help="check or regenerate the tests/golden/*.digest corpus",
    )
    golden_mode = golden.add_mutually_exclusive_group(required=True)
    golden_mode.add_argument("--check", action="store_true",
                             help="recompute every digest and compare "
                                  "against the committed corpus")
    golden_mode.add_argument("--regen", action="store_true",
                             help="rewrite the corpus from the current "
                                  "behaviour")
    golden.add_argument("--dir", default="tests/golden",
                        help="corpus directory (default tests/golden)")
    golden.add_argument("--only", default=None,
                        help="restrict to one name, from either the "
                             "run-digest corpus or the scenario "
                             "compile corpus")
    return parser


def _list_experiments() -> str:
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments:"]
    for name, (description, _runner) in EXPERIMENTS.items():
        lines.append(f"  {name:<{width}}  {description}")
    lines.append(f"  {'all':<{width}}  every experiment in order")
    return "\n".join(lines)


def _run_lint(args) -> int:
    """``lint``: print one parseable line per finding; exit 1 if any.

    Text output format is ``file:line:col RULE message`` — one finding
    per line, nothing else on stdout except the trailing summary on
    stderr, so CI annotation parsers can consume it directly.  With
    ``--format sarif`` stdout carries a SARIF 2.1.0 report instead.

    Under ``--flow`` findings are additionally screened against the
    committed ``lint-baseline.json``: baseline findings warn, *new*
    findings fail, stale baseline entries are reported so the baseline
    can be re-accepted with ``--write-baseline``.
    """
    import json
    from pathlib import Path

    from repro.analysis import default_engine, run_lint, rule_table

    if args.list_rules:
        for rule_id, title in rule_table(flow=args.flow).items():
            print(f"{rule_id}  {title}")
        return 0

    if args.paths:
        engine = default_engine(flow=args.flow)
        findings = []
        roots = []
        for raw in args.paths:
            root = Path(raw).resolve()
            roots.append(root)
            # Module names are package-relative: src/repro -> repro.*
            scan_root = root.parent if root.name == "repro" else root
            findings.extend(engine.run(root, scan_root))
    else:
        findings = run_lint(flow=args.flow)
        roots = [Path(__file__).resolve().parent]

    titles = rule_table(flow=args.flow)

    # Baseline screening (FLOW runs only; plain lint stays absolute).
    baseline_path = None
    delta = None
    if args.flow:
        from repro.analysis.flow import (
            apply_baseline,
            find_baseline,
            load_baseline,
            write_baseline,
        )

        if args.baseline == "none":
            baseline_path = None
        elif args.baseline:
            baseline_path = Path(args.baseline)
        else:
            baseline_path = find_baseline(roots[0])
        if args.write_baseline:
            out = baseline_path or Path("lint-baseline.json")
            write_baseline(out, findings)
            print(
                f"simlint: wrote {len(findings)} finding(s) to {out}",
                file=sys.stderr,
            )
            return 0
        if baseline_path is not None and baseline_path.is_file():
            delta = apply_baseline(findings, load_baseline(baseline_path))

    if args.sarif_out or args.format == "sarif":
        from repro.analysis.sarif import to_sarif

        report = to_sarif(findings, rule_titles=titles, base_dir=Path.cwd())
        if args.sarif_out:
            Path(args.sarif_out).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        if args.format == "sarif":
            print(json.dumps(report, indent=2, sort_keys=True))

    if delta is not None:
        if args.format == "text":
            for finding in delta.new:
                print(finding.format())
        for finding in delta.matched:
            print(f"warning (baseline): {finding.format()}", file=sys.stderr)
        for key in delta.stale:
            print(
                "simlint: stale baseline entry "
                f"{key[0]} {key[1]}: {key[2]}",
                file=sys.stderr,
            )
        print(
            f"simlint: {len(delta.new)} new finding(s), "
            f"{len(delta.matched)} baseline, {len(delta.stale)} stale",
            file=sys.stderr,
        )
        return 1 if delta.new else 0

    if args.format == "text":
        for finding in findings:
            print(finding.format())
    count = len(findings)
    print(
        f"simlint: {count} finding{'s' if count != 1 else ''}",
        file=sys.stderr,
    )
    return 1 if findings else 0


def _campaign_spec(args, capture_enabled: bool):
    """The CLI campaign: library document ``control-symbol-demo`` with
    ``--experiments``/``--duration-ms``/``--seed`` as overrides.

    ``--experiments N`` cycles through the document's eight swap pairs;
    each duty cycle is armed for an eighth of the duration and disarmed
    for half of it.
    """
    import dataclasses
    from itertools import cycle, islice

    from repro.scenario import (
        compile_scenario,
        load_scenario,
        with_fault_windows,
    )
    from repro.sim.timebase import US

    doc = load_scenario("control-symbol-demo")
    duration_ps = max(1 * MS, int(args.duration_ms * MS))
    doc = dataclasses.replace(
        doc,
        experiments=islice(cycle(doc.experiments), max(1, args.experiments)),
        seed=args.seed, capture=capture_enabled,
        duration_ms=duration_ps / MS,
    )
    doc = with_fault_windows(
        doc, (duration_ps // 8) / US, (duration_ps // 2) / US
    )
    return dataclasses.replace(
        compile_scenario(doc), name="cli control-symbol campaign"
    )


def _load_scenario_doc(ref: str):
    """Resolve a scenario reference: library name, or a file path."""
    import json
    from pathlib import Path

    from repro.scenario import scenario_from_json
    from repro.scenario.library import load_scenario
    from repro.scenario.yamlish import loads as yamlish_loads

    path = Path(ref)
    if path.suffix in (".yaml", ".yml", ".json") or path.is_file():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            data = json.loads(text)
        else:
            data = yamlish_loads(text)
        return scenario_from_json(data)
    return load_scenario(ref)


def _execute_spec(spec, *, workers: int, resume: bool,
                  engine_root: Optional[str], follow_events: bool,
                  no_progress: bool) -> int:
    """Run ``spec`` through the campaign engine and print the results.

    The shared back half of ``campaign`` and ``scenario run``: executor
    selection (serial vs pooled), the result store, deterministic
    artifact merging, and the human summary.
    """
    from contextlib import nullcontext
    from pathlib import Path

    from repro.nftape.campaign import Campaign
    from repro.runtime.executors import PooledExecutor, SerialExecutor
    from repro.runtime.store import STORE_FILE_NAME

    progress = None
    if not no_progress:
        def progress(message: str) -> None:
            print(f"\r{message:<60}", end="", file=sys.stderr, flush=True)

    campaign = Campaign.from_spec(spec, on_progress=progress)
    table_out = sys.stderr if follow_events else sys.stdout
    follow = _FollowEvents() if follow_events else nullcontext()

    if workers > 1:
        executor = PooledExecutor(
            workers=workers, resume=resume, artifacts_dir=engine_root,
            label=spec.name,
        )
    else:
        executor = SerialExecutor(
            resume=resume, artifacts_dir=engine_root, label=spec.name,
        )
    with follow:
        table = campaign.run(executor=executor)
    if progress is not None:
        print(file=sys.stderr)
    print(table.render(), file=table_out)
    line = (
        f"campaign: {len(executor.executed)} experiment(s) executed "
        f"with {workers} worker(s)"
    )
    if executor.skipped:
        line += f", {len(executor.skipped)} restored from store"
    retries = sum(executor.retries.values())
    if retries:
        line += f", {retries} retried"
    if engine_root is not None:
        line += f"; store: {Path(engine_root) / STORE_FILE_NAME}"
    print(line, file=table_out)
    summary = executor.merge_summary
    if summary is not None:
        print(
            f"artifacts merged under {engine_root}/: "
            f"{summary['telemetry_shards']} telemetry shard(s) -> "
            f"telemetry/, {summary['capture_shards']} capture "
            f"shard(s) -> capture/capture.rcap",
            file=table_out,
        )
    return 0


class _FollowEvents:
    """Install an :class:`~repro.runtime.events.EventBus` for a block
    and pump every lifecycle event to stdout as NDJSON, live.

    ``repro.cli campaign --follow`` uses this — no server required: the
    executors publish onto the ambient bus and a printer thread drains
    a bounded subscription, one JSON object per line.
    """

    def __enter__(self) -> "_FollowEvents":
        import threading

        from repro.runtime.events import EventBus, EventBusSession

        self._stop = threading.Event()
        bus = EventBus()
        self._session = EventBusSession(bus)
        self._session.__enter__()

        def _pump() -> None:
            with bus.subscribe() as subscription:
                while True:
                    event = subscription.get(timeout=0.2)
                    if event is not None:
                        print(event.to_json(), flush=True)
                    elif self._stop.is_set():
                        for event in subscription.drain():
                            print(event.to_json(), flush=True)
                        return

        self._thread = threading.Thread(
            target=_pump, name="repro-follow", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._session.__exit__(exc_type, exc, tb)
        return False


def _run_campaign(args) -> int:
    """``campaign``: a Table 4 style control-symbol swap campaign.

    Compiles library document ``control-symbol-demo``, which cycles
    through control-symbol corruption pairs with a duty-cycled trigger.
    With ``--artifacts-dir`` the run is recorded in the result store
    (``--resume`` restores completed experiments) and drops merged
    telemetry (``metrics.json``, ``spans.jsonl``, a Perfetto-loadable
    ``trace.json``) plus a binary ``capture.rcap`` that ``python -m
    repro capture decode`` analyzes; ``--workers N`` shards the
    experiments across N worker processes with bit-identical output.
    ``--scenario NAME_OR_PATH`` swaps the demo for another compiled
    scenario document (library name or YAML/JSON file) —
    sugar for ``python -m repro scenario run``.
    """
    from repro.errors import ConfigurationError

    engine_root = args.artifacts_dir
    if args.resume and engine_root is None:
        print(
            "--resume reads the result store; pass --artifacts-dir DIR "
            "(the store lives at DIR/results.sqlite)",
            file=sys.stderr,
        )
        return 2

    if args.scenario:
        from repro.scenario import compile_scenario

        try:
            spec = compile_scenario(_load_scenario_doc(args.scenario))
        except (ConfigurationError, OSError) as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 2
    else:
        spec = _campaign_spec(args, engine_root is not None)
    return _execute_spec(
        spec, workers=max(1, args.workers), resume=args.resume,
        engine_root=engine_root, follow_events=args.follow,
        no_progress=args.no_progress,
    )


def _run_serve(args) -> int:
    """``serve``: the monitoring-as-a-service campaign server.

    Binds, prints the address and route summary, then blocks until
    interrupted.  See docs/server.md for the HTTP contract.
    """
    import time

    from repro.errors import ConfigurationError
    from repro.server import MonitorServer

    server = MonitorServer(
        root=args.root, host=args.host, port=args.port,
        workers=args.workers, queue_limit=args.queue_limit,
        timeout_s=args.timeout_s, runners=args.runners,
    )
    try:
        server.start()
    except ConfigurationError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    host, port = server.address
    print(f"repro.server listening on http://{host}:{port} "
          f"(artifact root: {args.root}/)")
    print("  POST /campaigns                submit a CampaignSpec (JSON)")
    print("  GET  /campaigns                list this tenant's campaigns")
    print("  GET  /campaigns/{id}           status")
    print("  GET  /campaigns/{id}/events    live NDJSON (SSE via Accept)")
    print("  GET  /campaigns/{id}/report    insight verdict (JSON)")
    print("  GET  /campaigns/{id}/artifacts/{table|metrics|capture|insight}")
    print("  GET  /metrics                  Prometheus text exposition")
    print("  GET  /healthz                  liveness + queue depth")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nserve: shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _run_store(args) -> int:
    """``store query|export``: inspect the campaign result store.

    ``query`` with no reference prints the campaign progress view (one
    line per stored campaign); with a reference it adds the aggregate
    counters and the per-experiment attempt audit (lease re-issues and
    duplicate deliveries leave losing attempt rows behind).  ``export``
    dumps the winning rows as NDJSON in experiment-index order.
    """
    import json
    from pathlib import Path

    from repro.errors import CampaignError
    from repro.runtime.store import STORE_FILE_NAME, ResultStore

    if args.store:
        store_path = Path(args.store)
    elif args.artifacts_dir:
        store_path = Path(args.artifacts_dir) / STORE_FILE_NAME
    else:
        print("pass --store PATH or --artifacts-dir DIR", file=sys.stderr)
        return 2
    if not store_path.exists():
        print(f"no result store at {store_path} (run a campaign with "
              "--artifacts-dir DIR first)", file=sys.stderr)
        return 2

    with ResultStore(store_path) as store:
        if args.store_command == "query" and args.campaign is None:
            campaigns = store.campaigns()
            if not campaigns:
                print("result store is empty")
                return 0
            width = max(len(row["name"]) for row in campaigns)
            for row in campaigns:
                print(
                    f"{row['spec_digest'][:12]}  {row['name']:<{width}}  "
                    f"{row['experiments_done']}/{row['experiments']} done  "
                    f"injections={row['injections']} "
                    f"sent={row['messages_sent']} "
                    f"received={row['messages_received']}"
                )
            return 0

        try:
            digest = store.resolve(args.campaign)
        except CampaignError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if digest is None:
            print(f"no stored campaign matches {args.campaign!r}",
                  file=sys.stderr)
            return 2

        if args.store_command == "query":
            totals = store.aggregate(digest)
            print(f"campaign {digest}")
            for field, value in totals.items():
                print(f"  {field}: {value}")
            for row in store.export_rows(digest):
                attempts = store.attempts(digest, row["index"])
                audit = "" if len(attempts) == 1 else (
                    f"  ({len(attempts)} attempts recorded)"
                )
                print(
                    f"  [{row['index']:3d}] {row['name']} "
                    f"seed={row['seed']} won by attempt "
                    f"{row['attempt']}{audit}"
                )
            return 0

        # store export
        lines = [json.dumps(row, sort_keys=True)
                 for row in store.export_rows(digest)]
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(body)
        print(f"{len(lines)} row(s) written to {target}")
    else:
        print(body, end="")
    return 0


def _run_capture(args) -> int:
    """``capture decode|summarize``: offline ``.rcap`` analysis."""
    import json
    from pathlib import Path

    from repro.capture.format import CAPTURE_FILE_NAME, read_capture

    path = Path(args.input)
    if path.is_dir():
        path = path / CAPTURE_FILE_NAME
    if not path.exists():
        print(
            f"no capture artifact at {path} (run a campaign with "
            "--artifacts-dir first)",
            file=sys.stderr,
        )
        return 2

    if args.capture_command == "summarize":
        data = read_capture(path)
        meta = data.meta
        print(f"capture file: {path}")
        print(f"label: {meta.get('label', '?')}")
        print(
            f"records: {len(data.captures)} capture windows, "
            f"{len(data.events)} lifecycle events, "
            f"{len(data.experiments)} experiment markers"
            + (
                f", {data.unknown_records_skipped} unknown records skipped"
                if data.unknown_records_skipped else ""
            )
        )
        print(f"events dropped at record time: {meta.get('events_dropped', 0)}")
        for marker in data.experiments:
            print(
                f"  [{marker.get('index')}] {marker.get('name')} "
                f"seed={marker.get('seed')} class={marker.get('fault_class')} "
                f"injections={marker.get('injections')} "
                f"captures={marker.get('captures')} "
                f"span={marker.get('span_id')}"
            )
        return 0

    from repro.capture.decode import analyze_capture

    analysis = analyze_capture(path)
    print(analysis.report().render_text())
    if args.json_out:
        target = Path(args.json_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(analysis.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"analysis JSON written to {target}")
    if args.out:
        target = analysis.report().write(args.out)
        print(f"report written to {target}")
    return 0


def _run_metrics(args) -> int:
    """``metrics``: re-render a metrics.json artifact."""
    import json
    from pathlib import Path

    from repro.telemetry import MetricsRegistry, to_prometheus
    from repro.telemetry.metrics import Counter, Gauge, Histogram

    path = Path(args.input)
    if not path.exists():
        print(f"no metrics artifact at {path} (run a campaign with "
              "--artifacts-dir first)", file=sys.stderr)
        return 2
    document = json.loads(path.read_text())
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    registry = MetricsRegistry.from_dict(document.get("metrics", {}))
    if args.format == "summary":
        for metric in registry:
            labels = metric.label_dict()
            rendered = "" if not labels else (
                "{" + ",".join(f"{k}={v}"
                               for k, v in sorted(labels.items())) + "}"
            )
            name = f"{metric.name}{rendered}"
            if isinstance(metric, Histogram):
                quantiles = metric.quantiles()
                print(
                    f"{name}  count={metric.count} "
                    f"mean={metric.mean:.1f} "
                    f"p50={quantiles['p50']:.1f} "
                    f"p95={quantiles['p95']:.1f} "
                    f"p99={quantiles['p99']:.1f}"
                )
            elif isinstance(metric, Gauge):
                print(
                    f"{name}  value={metric.value:g} "
                    f"high={metric.high} low={metric.low}"
                )
            elif isinstance(metric, Counter):
                print(f"{name}  total={metric.value:g}")
        return 0
    print(to_prometheus(registry), end="")
    return 0


def _run_insight(args) -> int:
    """``insight analyze|report|similar``: offline incident correlation.

    ``analyze`` joins one campaign's artifacts and prints the per-
    incident verdict summary plus the report digest (``--digest-only``
    restricts output to the digest — the CI golden gate consumes that);
    ``report`` renders the full human-readable report; ``similar``
    queries a sqlite incident store by feature-vector cosine distance.
    """
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.insight import InsightStore, analyze_artifacts

    if args.insight_command in ("analyze", "report"):
        root = Path(args.input)
        if not root.is_dir():
            print(
                f"no artifact directory at {root} (run a campaign with "
                "--artifacts-dir first)",
                file=sys.stderr,
            )
            return 2
        report = analyze_artifacts(root, label=args.label)
        if args.insight_command == "report":
            text = report.render_text()
            print(text)
            if args.out:
                target = Path(args.out)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text + "\n")
                print(f"report written to {target}")
            return 0
        if args.digest_only:
            print(report.digest())
        else:
            print(
                f"analyzed {report.label}: "
                f"{report.counts.get('incidents', 0)} incident(s), "
                f"{report.counts.get('windows', 0)} window(s), "
                f"{report.counts.get('degradations', 0)} degradation(s)"
            )
            for incident in sorted(report.incidents, key=lambda i: i.index):
                print(
                    f"  [{incident.index}] {incident.name} "
                    f"-> {incident.top_cause}"
                )
            print(f"report digest: {report.digest()}")
        if args.json_out:
            target = Path(args.json_out)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(report.canonical_json() + "\n")
            if not args.digest_only:
                print(f"report JSON written to {target}")
        if args.store:
            with InsightStore(args.store) as store:
                key = store.add_report(report)
            if not args.digest_only:
                print(f"stored as {key!r} in {args.store}")
        if args.result_store:
            from repro.insight.store_ingest import crosscheck_report

            if not Path(args.result_store).exists():
                print(f"no result store at {args.result_store}",
                      file=sys.stderr)
                return 2
            ok, lines = crosscheck_report(report, args.result_store)
            for text in lines:
                print(text)
            if not ok:
                return 1
        return 0

    if args.insight_command == "similar":
        if bool(args.input) == bool(args.label):
            print("pass exactly one of --input DIR or --label NAME",
                  file=sys.stderr)
            return 2
        with InsightStore(args.store) as store:
            if args.input:
                query = analyze_artifacts(Path(args.input))
                results = store.similar(
                    query, top=args.top, exclude_label=query.label
                )
            else:
                try:
                    results = store.similar(args.label, top=args.top)
                except ConfigurationError as exc:
                    print(str(exc), file=sys.stderr)
                    return 2
        if not results:
            print("no stored campaigns to compare against")
            return 0
        for rank, row in enumerate(results, 1):
            print(
                f"#{rank} {row['label']}  distance={row['distance']:.6f}  "
                f"cause={row['dominant_cause']}"
            )
        return 0

    return 2


def _run_sanitize(args) -> int:
    """``sanitize``: identical-seed replay; exit 1 on digest divergence."""
    from repro.analysis.sanitize import check_determinism

    duration_ps = max(1, int(args.duration_ms * MS))
    report = check_determinism(
        seed=args.seed, runs=max(2, args.runs), duration_ps=duration_ps
    )
    print(report.render())
    return 0 if report.deterministic else 1


def _run_scenario(args) -> int:
    """``scenario list|compile|run``: the declarative front door."""
    import hashlib
    import json

    from repro.errors import ConfigurationError
    from repro.scenario import compile_scenario
    from repro.scenario.library import list_scenarios, load_scenario

    if args.scenario_command == "list":
        names = list_scenarios()
        if not names:
            print("no library scenarios found")
            return 0
        width = max(len(name) for name in names)
        print("built-in scenario library:")
        for name in names:
            doc = load_scenario(name)
            print(f"  {name:<{width}}  {doc.description}")
        return 0

    try:
        doc = _load_scenario_doc(args.scenario)
        spec = compile_scenario(doc)
    except (ConfigurationError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    if args.scenario_command == "compile":
        from repro.runtime.spec_codec import spec_to_json

        payload = spec_to_json(spec)
        if args.json_out:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.blake2b(
            canonical.encode("utf-8"), digest_size=16
        ).hexdigest()
        print(
            f"scenario {doc.name}: {len(spec.experiments)} experiment(s), "
            f"compile digest {digest}"
        )
        width = max(len(exp.name) for exp in spec.experiments)
        for exp in spec.experiments:
            plans = (1 if exp.plan is not None else 0) + len(exp.extra_plans)
            total_ms = (exp.duration_ps + exp.drain_ps) / MS
            print(
                f"  {exp.name:<{width}}  {total_ms:g} ms simulated, "
                f"{plans} fault plan(s)"
            )
        return 0

    # scenario run
    if args.resume and args.artifacts_dir is None:
        print(
            "--resume reads the result store; pass --artifacts-dir DIR "
            "(the store lives at DIR/results.sqlite)",
            file=sys.stderr,
        )
        return 2
    return _execute_spec(
        spec, workers=max(1, args.workers), resume=args.resume,
        engine_root=args.artifacts_dir, follow_events=False,
        no_progress=args.no_progress,
    )


def _run_golden(args) -> int:
    """``golden --check|--regen``: the digest corpus gate.

    Covers two corpora in one pass: the run digests (``*.digest``) and
    the scenario compile digests (``scenario_*.expected``).  ``--only
    NAME`` restricts to whichever corpus owns that name.
    """
    from pathlib import Path

    from repro.golden import GOLDEN_SCENARIOS, check_corpus, regen_corpus
    from repro.scenario.golden import (
        check_scenario_corpus,
        regen_scenario_corpus,
    )
    from repro.scenario.library import list_scenarios

    directory = Path(args.dir)
    run_digests = run_scenarios = True
    run_only = None
    scenario_only = None
    if args.only is not None:
        if args.only in GOLDEN_SCENARIOS:
            run_only, run_scenarios = args.only, False
        elif args.only in list_scenarios():
            scenario_only, run_digests = [args.only], False
        else:
            print(
                f"unknown golden name {args.only!r}; run corpus: "
                f"{list(GOLDEN_SCENARIOS)}; scenario corpus: "
                f"{list_scenarios()}",
                file=sys.stderr,
            )
            return 2

    if args.regen:
        if run_digests:
            for path in regen_corpus(args.dir, only=run_only):
                print(f"wrote {path}")
        if run_scenarios:
            for name in sorted(regen_scenario_corpus(
                    directory, only=scenario_only)):
                print(f"wrote {directory / f'scenario_{name}.expected'}")
        return 0

    ok = True
    if run_digests:
        report = check_corpus(args.dir, only=run_only)
        print(report.render())
        ok = ok and report.ok
    if run_scenarios:
        scenario_ok, messages = check_scenario_corpus(
            directory, only=scenario_only
        )
        for message in messages:
            print(message)
        ok = ok and scenario_ok
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "golden":
        return _run_golden(args)

    if args.command in (None, "list"):
        print(_list_experiments())
        return 0

    if args.command == "synthesis":
        from repro.hw.synthesis import format_report, synthesis_report
        print(format_report(synthesis_report()))
        return 0

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "sanitize":
        return _run_sanitize(args)

    if args.command == "campaign":
        return _run_campaign(args)

    if args.command == "scenario":
        if args.scenario_command is None:
            parser.parse_args(["scenario", "--help"])
            return 2
        return _run_scenario(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "metrics":
        return _run_metrics(args)

    if args.command == "insight":
        if args.insight_command is None:
            parser.parse_args(["insight", "--help"])
            return 2
        return _run_insight(args)

    if args.command == "capture":
        if args.capture_command is None:
            parser.parse_args(["capture", "--help"])
            return 2
        return _run_capture(args)

    if args.command == "store":
        if args.store_command is None:
            parser.parse_args(["store", "--help"])
            return 2
        return _run_store(args)

    names = list(args.experiments)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(_list_experiments(), file=sys.stderr)
        return 2

    report = CampaignReport("DSN 2002 reproduction — experiment report")
    from contextlib import nullcontext
    from pathlib import Path

    from repro.capture.format import CAPTURE_FILE_NAME
    from repro.telemetry import ObservationSession
    from repro.telemetry.spans import span

    root = args.artifacts_dir
    session = (
        ObservationSession(out_dir=root, label="repro run")
        if root else nullcontext()
    )
    with session:
        for name in names:
            description, runner = EXPERIMENTS[name]
            print(f"== {name}: {description}")
            with span("paper-experiment", name=name):
                tables, notes = runner(args.scale)
            for table in tables:
                print(table.render())
                report.add_table(table)
            for note in notes:
                print(note)
                report.add_note(note)
            print()
    if root:
        recorder = session.recorder
        print(f"telemetry artifacts written to "
              f"{Path(root) / TELEMETRY_SUBDIR}/")
        print(
            f"capture: {len(recorder.events)} lifecycle events, "
            f"{recorder.corr_ids_assigned} correlation ids -> "
            f"{Path(root) / CAPTURE_SUBDIR / CAPTURE_FILE_NAME}"
        )
    if args.out:
        target = report.write(args.out)
        print(f"report written to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
