"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``experiments [names...] [--scale S]``
    Run experiment drivers (default: all) and print their tables.
``run --workload W --core C [--threads N] [--context F] ...``
    Simulate one configuration and print its stats.
``sweep --axis FIELD=V1,V2,... [--dir D] [--live] [--metrics] ...``
    Run a parameter grid with per-config error isolation, watchdogs,
    retries, and a crash-safe checkpoint journal.  ``--dir`` roots the
    sweep's observability surface (event log, heartbeats, merged
    parent+workers Chrome trace, manifest, fleet metrics); ``--live``
    renders a refreshing progress panel while it runs.  ``--ledger``
    appends every finished run to the persistent run ledger; ``--cache``
    additionally serves digest-keyed hits from it (byte-identical to
    recomputation, ``ledger.hit``/``miss``/``stale`` in the metrics).
``history [--ledger P] [--digest D] [--compare A B] [--check]``
    Longitudinal analytics over the run ledger: per-digest trajectories
    with host-rate sparklines, per-counter compares between two digests,
    and trajectory-aware regression gating (current vs median of the
    last N runs, graded ok / warn / regression; exit 4 on regression).
``monitor DIR [--follow]``
    Re-attach a progress panel to a sweep directory (live or post-hoc).
``report DIR [--out report.html] [--ledger P]``
    Render a self-contained HTML report from a sweep directory's
    manifest, fleet metrics, event log, and run-ledger history.
``trace --workload W --core C [--out trace.json] [--interval N] ...``
    Run one configuration with event telemetry and export a Chrome
    trace-event JSON (opens in Perfetto / chrome://tracing).
``timeline --workload W --core C [--interval N] [--jsonl P] ...``
    Run one configuration with interval sampling and print sparkline
    time-series of IPC, VRMU hit rate, occupancy, and spill/fill traffic.
``profile --workload W --core C [--top N] [--diff CORE2] ...``
    Run one configuration with cycle attribution (every core cycle
    classified into the top-down stall taxonomy, exact-sum enforced) and
    print the per-cause table plus the hottest per-PC rows; ``--diff``
    re-runs with a second core type and prints the per-cause/per-PC
    cycle deltas (``--diff-policy`` does the same along the replacement-
    policy axis); ``--flame`` writes folded flamegraph stacks and
    ``--json`` the raw attribution snapshot.
``check [workloads...] [--corpus DIR] [--asm PATH] [--pressure] [--json]``
    Statically verify kernels with the CFG + liveness framework
    (:mod:`repro.analysis.dataflow`): out-of-range branch targets,
    fall-through past the program end, reads of never-written registers,
    unreachable blocks, and per-block register-pressure tables.
``lint [paths...] [--format json] [--fail-on SEV]``
    Run the repro-specific determinism linter (see
    :mod:`repro.analysis.lint`) over source trees.
``fuzz [--seed S] [--budget N] [--jobs K] [--corpus DIR] ...``
    Property-based differential fuzzing: seeded random programs through
    the banked-reference / ViReC / FGMT matrix under the VSan oracle,
    with auto-shrinking, a deduplicated on-disk crash corpus, and
    checkpoint/resume.  ``--replay DIR`` re-verifies stored reproducers.
    Exit codes: 0 clean, 3 findings, 4 worker crashes / failed replays.
``workloads``
    List the registered workloads with metadata.
``disasm --workload W``
    Print a workload kernel's assembly listing.
``area``
    Print the Figure 14 area table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import workloads
from .experiments import ALL_EXPERIMENTS
from .system import CORE_TYPES, RunConfig, run_config
from .virec import POLICIES


def _cmd_experiments(args) -> int:
    names = args.names or sorted(ALL_EXPERIMENTS)
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; available: "
                  f"{sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 2
    for name in names:
        result = ALL_EXPERIMENTS[name](args.scale)
        result.print()
        print()
    return 0


def _base_config(args, **extra) -> RunConfig:
    """RunConfig from the shared configuration options (see
    :func:`_add_config_options`); ``extra`` sets or overrides fields."""
    fields = dict(workload=args.workload, core_type=args.core,
                  n_threads=args.threads, n_cores=args.cores,
                  n_per_thread=args.per_thread,
                  context_fraction=args.context, policy=args.policy,
                  dcache_kb=args.dcache_kb, seed=args.seed)
    if getattr(args, "sanitize", None):
        fields["sanitize"] = {"granularity": args.sanitize}
    fields.update(extra)
    return RunConfig(**fields)


def _simulate(args, label: str = "", **extra):
    """Build and run the verb's one config: ``(cfg, result)``, or
    ``(None, None)`` after one ``error: <label><message>`` line on stderr
    when the config is rejected (the verb then exits 2)."""
    try:
        cfg = _base_config(args, **extra)
        return cfg, run_config(cfg)
    except ValueError as exc:
        print(f"error: {label}{exc}", file=sys.stderr)
        return None, None


def _cmd_run(args) -> int:
    cfg, r = _simulate(args)
    if r is None:
        return 2
    print(f"workload={cfg.workload} core={cfg.core_type} threads={cfg.n_threads} "
          f"cores={cfg.n_cores}")
    print(f"  cycles       = {r.cycles}")
    print(f"  instructions = {r.instructions}")
    print(f"  IPC          = {r.ipc:.4f}")
    if r.rf_hit_rate is not None:
        print(f"  RF hit rate  = {r.rf_hit_rate:.2%}")
    if args.verbose:
        for key, value in r.stats.flat():
            if value:
                print(f"  {key} = {value:g}")
    return 0


def _parse_axis_value(text: str):
    """Best-effort scalar parse: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _resolve_jobs(jobs):
    """The exec backend for ``--jobs`` / ``$REPRO_JOBS``; None (after a
    one-line usage error on stderr) when the value is not a job count."""
    from .exec import resolve_backend

    try:
        return resolve_backend(jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_sweep(args) -> int:
    import os
    from .system import run_grid, sweep_grid
    from .stats.reporting import rows_to_csv

    backend = _resolve_jobs(args.jobs)
    if backend is None:
        return 2
    extra = {"metrics": True} if args.metrics else {}
    base = _base_config(args, **extra)
    checkpoint, observe, manifest = args.checkpoint, None, None
    if args.dir:
        os.makedirs(args.dir, exist_ok=True)
        if not checkpoint:
            checkpoint = os.path.join(args.dir, "checkpoint.jsonl")
        observe = args.dir
        from .system.manifest import RunManifest
        manifest = RunManifest()
    if args.live and not args.dir:
        print("--live requires --dir", file=sys.stderr)
        return 2
    if args.resume and not checkpoint:
        print("--resume requires --checkpoint (or --dir)", file=sys.stderr)
        return 2
    axes = {}
    for spec in args.axis or []:
        name, eq, values = spec.partition("=")
        if not eq or not name or not values:
            print(f"bad --axis {spec!r}: expected FIELD=V1,V2,...",
                  file=sys.stderr)
            return 2
        axes[name] = [_parse_axis_value(v) for v in values.split(",")]
    try:
        grid = sweep_grid(base, **axes)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(i, total, result):
        # run_grid reports a RunFailure for failed configs and None for
        # rows replayed from the checkpoint journal
        if hasattr(result, "error_type"):
            status = f"FAIL ({result.error_type})"
        elif result is None:
            status = "ok (resumed)"
        else:
            status = "ok"
        print(f"  [{i}/{total}] {status}", file=sys.stderr)

    ledger_path = args.ledger
    if args.cache and not ledger_path:
        # --cache implies a ledger; root it in the sweep dir when present
        ledger_path = (os.path.join(args.dir, "ledger.sqlite")
                       if args.dir else "ledger.sqlite")
    cached = None
    if args.cache:
        from .ledger import CachedBackend
        backend = cached = CachedBackend(ledger_path, inner=backend)

    live_thread = None
    if args.live:
        import threading
        from .system.monitor import monitor_loop
        live_thread = threading.Thread(
            target=monitor_loop, args=(args.dir,),
            kwargs={"refresh": args.refresh, "follow": True}, daemon=True)
        live_thread.start()
    rows = run_grid(grid, progress=progress if args.verbose else None,
                    retries=args.retries, timeout_s=args.timeout_s,
                    max_cycles=args.max_cycles,
                    checkpoint=checkpoint, resume=args.resume,
                    backend=backend, observe=observe,
                    manifest=manifest,
                    ledger=None if cached else ledger_path)
    if cached is not None:
        c = cached.counts
        print(f"ledger cache {ledger_path}: {c['hit']} hit / "
              f"{c['miss']} miss / {c['stale']} stale")
        cached.close()
    if live_thread is not None:
        # the monitor thread exits on its own once it reads sweep_end
        live_thread.join(timeout=2 * args.refresh + 1.0)
    if args.dir:
        if manifest is not None and manifest.configs:
            manifest.save(os.path.join(args.dir, "manifest.json"))
        print(f"sweep directory: {args.dir} (checkpoint, manifest, "
              f"metrics, trace, events, heartbeats)")
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(rows_to_csv(rows))
        print(f"wrote {len(rows)} rows to {args.csv}")
    else:
        for row in rows:
            print(row)
    print(f"{len(rows)} ok ({rows.resumed} resumed from checkpoint), "
          f"{len(rows.failures)} failed")
    for failure in rows.failures:
        print(f"  FAILED [{failure.index}] {failure.error_type}: "
              f"{failure.message} (attempts={failure.attempts})")
    if rows.failures:
        if args.dir:
            print(f"re-run with --dir {args.dir} --resume to retry only "
                  f"the failed configs")
        elif checkpoint:
            print(f"re-run with --checkpoint {checkpoint} --resume "
                  f"to retry only the failed configs")
        return 3
    return 0


def _check_sweep_dir(path: str) -> Optional[str]:
    """One-line usage hint when ``path`` is not a usable sweep directory.

    Returns None when the directory exists and carries a sweep event log;
    otherwise the message ``repro monitor`` / ``repro report`` print
    before exiting cleanly (instead of tracebacking on absent artifacts).
    """
    import os
    from .system.monitor import EVENTS_NAME

    if not os.path.isdir(path):
        return (f"no such sweep directory: {path} "
                f"(create one with: repro sweep --dir {path} ...)")
    if not os.listdir(path):
        return (f"sweep directory {path} is empty "
                f"(populate it with: repro sweep --dir {path} ...)")
    if not os.path.exists(os.path.join(path, EVENTS_NAME)):
        return (f"{path} has no {EVENTS_NAME} — not a sweep directory "
                f"(expected output of: repro sweep --dir {path} ...)")
    return None


def _cmd_monitor(args) -> int:
    from .system.monitor import monitor_loop

    hint = _check_sweep_dir(args.dir)
    if hint is not None:
        print(hint, file=sys.stderr)
        return 2
    state = monitor_loop(args.dir, refresh=args.refresh,
                         follow=args.follow)
    return 0 if state.failed == 0 else 3


def _cmd_report(args) -> int:
    import os
    from .stats.report_html import write_report

    hint = _check_sweep_dir(args.dir)
    if hint is not None:
        print(hint, file=sys.stderr)
        return 2
    out = args.out or os.path.join(args.dir, "report.html")
    report = write_report(args.dir, out, ledger=args.ledger)
    s = report["summary"]
    print(f"wrote {out}: {s['ok']} ok / {s['failed']} failed rows")
    return 0


def _cmd_history(args) -> int:
    import json
    import os
    from .ledger import LedgerReader, default_ledger_path
    from .ledger.history import (EXIT_REGRESSION, check_history,
                                 compare_digests, render_check_text,
                                 render_compare_text, render_history_text,
                                 render_trajectory_text, trajectory)

    path = args.ledger or default_ledger_path()
    if not os.path.exists(path):
        print(f"no run ledger at {path} — record one with: repro sweep "
              f"--ledger {path} ... (or --cache), or point --ledger / "
              f"$REPRO_LEDGER at an existing file", file=sys.stderr)
        return 2
    with LedgerReader(path) as reader:
        if reader.count() == 0:
            print(f"run ledger {path} has no rows yet — record runs with: "
                  f"repro sweep --ledger {path} ...", file=sys.stderr)
            return 2
        if args.compare:
            cmp = compare_digests(reader, args.compare[0], args.compare[1])
            if args.json:
                print(json.dumps(cmp, indent=2))
            else:
                print(render_compare_text(cmp))
            return 0 if (cmp["found_a"] and cmp["found_b"]) else 2
        if args.check:
            chk = check_history(reader, threshold=args.threshold,
                                window=args.window,
                                min_runs=args.min_runs,
                                digest=args.digest)
            if args.json:
                print(json.dumps(chk, indent=2))
            else:
                print(render_check_text(chk))
            return EXIT_REGRESSION if chk["worst"] == "regression" else 0
        if args.digest:
            traj = trajectory(reader, args.digest, limit=args.limit)
            if not traj["rows"]:
                print(f"digest {args.digest} has no rows in {path}",
                      file=sys.stderr)
                return 2
            if args.json:
                print(json.dumps(traj, indent=2))
            else:
                print(render_trajectory_text(traj))
            return 0
        if args.json:
            print(json.dumps(reader.digests(), indent=2))
        else:
            print(render_history_text(reader, limit=args.limit))
    return 0


#: default metric columns of ``repro timeline``; columns absent from a run
#: (e.g. VRMU metrics on a banked core) are skipped by the renderer
_TIMELINE_COLUMNS = ("ipc", "vrmu_hit_rate", "occupancy_total",
                     "spill_fill_per_kcycle", "dcache_misses",
                     "context_switches")


def _cmd_trace(args) -> int:
    cfg, r = _simulate(args, telemetry={
        "events": True, "interval": args.interval,
        "pipeline_trace": args.pipeline,
        "max_events": args.max_events,
        "flow_events": not args.no_flow})
    if r is None:
        return 2
    session = r.telemetry
    session.write_chrome_trace(args.out, metadata={
        "workload": cfg.workload, "core_type": cfg.core_type,
        "n_threads": cfg.n_threads, "n_cores": cfg.n_cores,
        "seed": cfg.seed})
    print(f"wrote {session.event_count} events to {args.out} "
          f"(open in https://ui.perfetto.dev or chrome://tracing)")
    if args.metrics:
        session.write_metrics_jsonl(args.metrics)
        print(f"wrote {len(session.interval_rows())} interval rows "
              f"to {args.metrics}")
    print()
    print(session.report())
    if r.host_profile and r.host_profile.get("instr_per_s"):
        print(f"host: {r.host_profile['total_s']:.2f}s wall, "
              f"{r.host_profile['instr_per_s']:,.0f} instr/s")
    return 0


def _cmd_timeline(args) -> int:
    from .stats.reporting import render_intervals

    cfg, r = _simulate(args, telemetry={
        "events": False, "interval": args.interval})
    if r is None:
        return 2
    session = r.telemetry
    rows = session.interval_rows()
    print(f"workload={cfg.workload} core={cfg.core_type} "
          f"threads={cfg.n_threads} cores={cfg.n_cores} "
          f"interval={args.interval}")
    columns = (args.columns.split(",") if args.columns
               else list(_TIMELINE_COLUMNS))
    print(render_intervals(rows, columns, width=args.width))
    if args.jsonl:
        session.write_metrics_jsonl(args.jsonl)
        print(f"wrote {len(rows)} rows to {args.jsonl}")
    return 0


def _cmd_profile(args) -> int:
    from .profiling import diff_snapshots
    from .stats.reporting import (render_attribution_diff,
                                  render_attribution_table)

    cfg, r = _simulate(args, profile=True)
    if r is None:
        return 2
    session = r.profile
    snapshot = session.snapshot()
    print(f"workload={cfg.workload} core={cfg.core_type} "
          f"threads={cfg.n_threads} cores={cfg.n_cores}")
    print(render_attribution_table(snapshot, top=args.top))
    if args.flame:
        session.write_collapsed(args.flame)
        n = len(session.collapsed().splitlines())
        print(f"wrote {n} folded stack(s) to {args.flame} "
              f"(flamegraph.pl / speedscope collapsed format)")
    if args.json:
        session.write_json(args.json)
        print(f"wrote attribution snapshot to {args.json}")
    if args.diff:
        _, r2 = _simulate(args, f"--diff {args.diff}: ", profile=True,
                          core_type=args.diff)
        if r2 is None:
            return 2
        other = r2.profile.snapshot()
        print()
        print(render_attribution_diff(diff_snapshots(snapshot, other),
                                      base_label=cfg.core_type,
                                      other_label=args.diff,
                                      top=args.top))
    if args.diff_policy:
        _, r3 = _simulate(args, f"--diff-policy {args.diff_policy}: ",
                          profile=True, policy=args.diff_policy)
        if r3 is None:
            return 2
        other = r3.profile.snapshot()
        print()
        print(render_attribution_diff(diff_snapshots(snapshot, other),
                                      base_label=f"policy={cfg.policy}",
                                      other_label=f"policy={args.diff_policy}",
                                      top=args.top))
    return 0


def _check_instance(inst, name: str, zero_init: bool = False):
    """Verify one WorkloadInstance (kernel + declared init registers)."""
    from .analysis.dataflow import verify_program
    from .isa.registers import NUM_ARCH_REGS

    init = {r.flat for d in inst.init_regs for r in d}
    if zero_init:
        init = set(range(NUM_ARCH_REGS))
    return verify_program(inst.program, init_flats=init, name=name), \
        inst.program


def _cmd_check(args) -> int:
    import json

    from .analysis.dataflow import verify_program
    from .isa.registers import parse_reg

    checked = []  # (VerifyReport, Program) pairs
    explicit = bool(args.targets or args.asm or args.corpus)
    names = list(args.targets)
    if not explicit:
        names = list(workloads.names())
    for name in names:
        if name not in workloads.names():
            print(f"unknown workload {name!r}; available: "
                  f"{workloads.names()}", file=sys.stderr)
            return 2
        inst = workloads.get(name).build(n_threads=args.threads,
                                         n_per_thread=args.per_thread)
        checked.append(_check_instance(inst, name,
                                       zero_init=args.assume_zero_init))

    if args.asm:
        try:
            from pathlib import Path

            from .isa.assembler import assemble
            source = Path(args.asm).read_text()
            init = {parse_reg(tok.strip()).flat
                    for tok in args.init.split(",") if tok.strip()}
            if args.assume_zero_init:
                from .isa.registers import NUM_ARCH_REGS
                init = set(range(NUM_ARCH_REGS))
            program = assemble(source, name=args.asm)
        except (OSError, ValueError) as exc:
            print(f"error: --asm {args.asm}: {exc}", file=sys.stderr)
            return 2
        checked.append((verify_program(program, init_flats=init,
                                       name=args.asm), program))

    if args.corpus:
        from .fuzz.corpus import Corpus

        corpus = Corpus(args.corpus)
        slugs = corpus.entries()
        if not slugs:
            print(f"note: no corpus entries under {args.corpus}",
                  file=sys.stderr)
        for slug in slugs:
            asm, meta = corpus.load(slug)
            inst = workloads.get("fuzz").build(
                n_threads=meta.get("n_threads", args.threads),
                n_per_thread=meta.get("n_per_thread", args.per_thread),
                gen=meta.get("spec") or {}, asm=asm)
            checked.append(_check_instance(
                inst, f"corpus:{slug}", zero_init=args.assume_zero_init))

    if args.json:
        print(json.dumps([rep.as_dict() for rep, _ in checked], indent=2))
    else:
        for i, (rep, program) in enumerate(checked):
            if i:
                print()
            print(rep.render(show_pressure=args.pressure, program=program))
        n_err = sum(len(rep.errors) for rep, _ in checked)
        n_warn = sum(len(rep.warnings) for rep, _ in checked)
        print(f"\nchecked {len(checked)} program(s): "
              f"{n_err} error(s), {n_warn} warning(s)")

    if args.fail_on == "none":
        return 0
    for rep, _ in checked:
        if rep.errors or (args.fail_on == "warning" and rep.warnings):
            return 1
    return 0


def _cmd_lint(args) -> int:
    from .analysis import lint as lint_mod

    try:
        findings = lint_mod.lint_paths(
            args.paths,
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(lint_mod.render_json(findings))
    else:
        print(lint_mod.render_text(findings,
                                   show_suppressed=args.show_suppressed))
    return lint_mod.exit_code(findings, fail_on=args.fail_on)


def _cmd_workloads(args) -> int:
    print(f"{'name':<16} {'suite':<9} {'pattern':<10} {'loads/iter':>10}  description")
    for spec in workloads.all_workloads():
        print(f"{spec.name:<16} {spec.suite:<9} {spec.pattern:<10} "
              f"{spec.loads_per_iter:>10}  {spec.description}")
    return 0


def _cmd_disasm(args) -> int:
    inst = workloads.get(args.workload).build(n_threads=2, n_per_thread=8)
    print(inst.program.disassemble())
    print(f"\nused registers:   {inst.used_regs}")
    print(f"active registers: {inst.active_regs}")
    return 0


def _cmd_area(args) -> int:
    from .experiments import fig14
    fig14.run().print()
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import FuzzConfig, replay_corpus, run_fuzz

    if args.replay:
        rows = replay_corpus(args.replay)
        bad = [r for r in rows if not r["ok"]]
        for r in rows:
            mark = "ok  " if r["ok"] else "FAIL"
            print(f"{mark} {r['slug']}")
            if not r["ok"]:
                print(f"     expected {r['expected']}")
                print(f"     got      {r['got']}")
        print(f"\n{len(rows) - len(bad)}/{len(rows)} reproducers "
              f"still fire their signature")
        return 4 if bad else 0

    if _resolve_jobs(args.jobs) is None:
        return 2
    faults = None
    if args.flip_rate:
        faults = {"rf_rate": args.flip_rate, "scheme": "none",
                  "seed": args.fault_seed}
    fcfg = FuzzConfig(
        seed=args.seed, budget=args.budget, corpus_dir=args.corpus,
        jobs=args.jobs, n_threads=args.threads,
        n_per_thread=args.per_thread,
        shrink=not args.no_shrink, shrink_budget=args.shrink_budget,
        resume=args.resume, faults=faults, ledger=args.ledger)
    if args.max_cycles:
        fcfg.max_cycles = args.max_cycles

    def progress(i: int, total: int, record) -> None:
        if not args.verbose:
            return
        if record is None:
            print(f"[{i}/{total}] worker crashed (will retry on --resume)")
        elif not record["valid"]:
            print(f"[{i}/{total}] invalid: {record['invalid_reason']}")
        elif record["findings"]:
            sigs = sorted({f["signature"] for f in record["findings"]})
            print(f"[{i}/{total}] {len(sigs)} finding(s): {sigs}")

    report = run_fuzz(fcfg, progress=progress)
    d = report.as_dict()
    print(f"fuzzed {d['programs']}/{d['budget']} programs "
          f"(resumed {d['resumed']}, invalid {d['invalid']}, "
          f"crashed {d['crashed']})")
    print(f"{d['findings_total']} findings, "
          f"{d['unique_signatures']} unique signatures, "
          f"{len(d['new_entries'])} new corpus entries")
    for slug in d["new_entries"]:
        print(f"  + findings/{slug}")
    print(f"corpus: {fcfg.corpus_dir} "
          f"({len(d['entries'])} entries, report in fuzz_report.json)")
    if report.crashed:
        return 4
    return 3 if report.findings_total else 0


def _add_config_options(p: argparse.ArgumentParser) -> None:
    """The shared ``RunConfig`` options (see :func:`_base_config`)."""
    p.add_argument("--workload", default="gather", choices=workloads.names())
    p.add_argument("--core", default="virec", choices=list(CORE_TYPES))
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--cores", type=int, default=1)
    p.add_argument("--per-thread", type=int, default=64)
    p.add_argument("--context", type=float, default=0.8)
    p.add_argument("--policy", default="lrc", choices=sorted(POLICIES))
    p.add_argument("--dcache-kb", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sanitize", nargs="?", const="commit", default=None,
                   choices=["commit", "interval", "run"], metavar="GRAN",
                   help="enable the VSan shadow-state sanitizer (optional "
                        "check granularity: commit | interval | run)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (one subcommand per verb)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ViReC reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiments", help="run experiment drivers")
    p.add_argument("names", nargs="*", help="figure ids (default: all)")
    p.add_argument("--scale", default="quick",
                   help="tiny | quick | full | <int elements per thread>")
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser("run", help="simulate one configuration")
    _add_config_options(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("trace",
                       help="run with event telemetry; export a Perfetto-"
                            "loadable Chrome trace")
    _add_config_options(p)
    p.add_argument("--out", default="trace.json", metavar="PATH",
                   help="Chrome trace-event JSON output path")
    p.add_argument("--interval", type=int, default=0, metavar="N",
                   help="also sample interval metrics every N cycles")
    p.add_argument("--metrics", metavar="PATH",
                   help="write interval metrics as JSONL (with --interval)")
    p.add_argument("--pipeline", action="store_true",
                   help="attach per-instruction pipeline tracers and report "
                        "stall attribution")
    p.add_argument("--max-events", type=int, default=200_000,
                   help="event ring capacity (oldest overwritten past it)")
    p.add_argument("--no-flow", action="store_true",
                   help="omit spill/fill flow arrows")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("timeline",
                       help="run with interval sampling; print sparkline "
                            "time-series")
    _add_config_options(p)
    p.add_argument("--interval", type=int, default=500, metavar="N",
                   help="cycles per sample")
    p.add_argument("--columns", metavar="C1,C2,...",
                   help=f"metric columns (default: "
                        f"{','.join(_TIMELINE_COLUMNS)})")
    p.add_argument("--width", type=int, default=60,
                   help="sparkline width in characters")
    p.add_argument("--jsonl", metavar="PATH",
                   help="also write the interval rows as JSONL")
    p.set_defaults(fn=_cmd_timeline)

    p = sub.add_parser("profile",
                       help="run with cycle attribution; print per-cause "
                            "and per-PC hotspot tables, optionally diff "
                            "two core types")
    _add_config_options(p)
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="hotspot / per-PC-delta rows to print (default 10)")
    p.add_argument("--diff", metavar="CORE", choices=list(CORE_TYPES),
                   help="re-run with this core type and print per-cause/"
                        "per-PC cycle deltas (other vs base)")
    p.add_argument("--diff-policy", metavar="POLICY",
                   choices=sorted(POLICIES),
                   help="re-run with this replacement policy and print "
                        "per-cause/per-PC cycle deltas (other vs base)")
    p.add_argument("--flame", metavar="PATH",
                   help="write folded flamegraph stacks (Brendan Gregg "
                        "collapsed format)")
    p.add_argument("--json", metavar="PATH",
                   help="write the raw attribution snapshot as JSON "
                        "(feeds the HTML report's attribution section)")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("sweep", help="run a resilient parameter grid")
    _add_config_options(p)
    p.add_argument("--axis", action="append", metavar="FIELD=V1,V2,...",
                   help="sweep axis over a RunConfig field (repeatable)")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="append finished rows to a crash-safe JSONL journal")
    p.add_argument("--resume", action="store_true",
                   help="replay completed rows from --checkpoint; re-run "
                        "only failed or missing configs")
    p.add_argument("--retries", type=int, default=0,
                   help="reseeded retries for transient failures")
    p.add_argument("--timeout-s", type=float, default=None,
                   help="per-config wall-clock watchdog (seconds)")
    p.add_argument("--max-cycles", type=int, default=None,
                   help="per-config simulated-cycle budget")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="run configs over N parallel worker processes "
                        "(0 = all cores; default serial, or $REPRO_JOBS); "
                        "results are identical to a serial sweep")
    p.add_argument("--csv", metavar="PATH", help="write result rows as CSV")
    p.add_argument("--dir", metavar="DIR",
                   help="sweep directory: checkpoint journal, live event "
                        "log, worker heartbeats, merged Chrome trace, "
                        "manifest.json, and metrics.json all land here")
    p.add_argument("--live", action="store_true",
                   help="render a refreshing progress panel while the "
                        "sweep runs (requires --dir)")
    p.add_argument("--refresh", type=float, default=1.0, metavar="S",
                   help="--live panel refresh period in seconds")
    p.add_argument("--metrics", action="store_true",
                   help="enable the per-run metrics registry "
                        "(RunConfig.metrics=True) and aggregate a fleet "
                        "registry across the grid")
    p.add_argument("--ledger", metavar="PATH",
                   help="append every finished run to this run-ledger "
                        "SQLite file (see repro history)")
    p.add_argument("--cache", action="store_true",
                   help="serve digest-keyed hits from the run ledger "
                        "instead of re-simulating (byte-identical results; "
                        "implies --ledger, default DIR/ledger.sqlite)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("monitor",
                       help="attach a live progress panel to a running "
                            "(or finished) sweep directory")
    p.add_argument("dir", help="sweep directory (from repro sweep --dir)")
    p.add_argument("--follow", action="store_true",
                   help="keep refreshing until the sweep ends "
                        "(default: one snapshot)")
    p.add_argument("--refresh", type=float, default=1.0, metavar="S",
                   help="refresh period in seconds (with --follow)")
    p.set_defaults(fn=_cmd_monitor)

    p = sub.add_parser("report",
                       help="render a self-contained HTML report from a "
                            "sweep directory")
    p.add_argument("dir", help="sweep directory (from repro sweep --dir)")
    p.add_argument("--out", metavar="PATH",
                   help="HTML output path (default: DIR/report.html)")
    p.add_argument("--ledger", metavar="PATH",
                   help="run ledger feeding the History section (default: "
                        "auto-detect ledger.sqlite in DIR, then cwd)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "history",
        help="longitudinal run-ledger analytics: trajectories, compares, "
             "and trajectory-aware regression gating")
    p.add_argument("--ledger", metavar="PATH",
                   help="run-ledger SQLite file (default: $REPRO_LEDGER, "
                        "then ./ledger.sqlite)")
    p.add_argument("--digest", metavar="D",
                   help="show one digest's full run trajectory")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="per-counter deltas between the newest rows of "
                        "two digests")
    p.add_argument("--check", action="store_true",
                   help="grade every digest's newest host rate against the "
                        "median of its last --window runs; exit non-zero "
                        "on regression (trajectory-aware perf gate)")
    p.add_argument("--threshold", type=float, default=0.5, metavar="F",
                   help="relative regression threshold for --check "
                        "(default 0.5 = 50%%; loose because CI hosts vary)")
    p.add_argument("--window", type=int, default=5, metavar="N",
                   help="median window of predecessor runs for --check "
                        "(default 5)")
    p.add_argument("--min-runs", type=int, default=3, metavar="N",
                   help="skip digests with fewer rated runs than this "
                        "(default 3)")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="cap listed digests / trajectory rows")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of text")
    p.set_defaults(fn=_cmd_history)

    p = sub.add_parser(
        "check",
        help="statically verify kernels (CFG + liveness): bad branch "
             "targets, fall-through past the program end, reads of "
             "never-written registers, unreachable blocks, plus per-block "
             "register-pressure tables")
    p.add_argument("targets", nargs="*", metavar="WORKLOAD",
                   help="workload names (default: every registered "
                        "workload unless --asm/--corpus is given)")
    p.add_argument("--corpus", metavar="DIR",
                   help="also verify every fuzz-corpus reproducer in DIR")
    p.add_argument("--asm", metavar="PATH",
                   help="also verify a raw assembly file")
    p.add_argument("--init", default="x0,x1", metavar="REGS",
                   help="registers assumed written before entry for --asm "
                        "(default x0,x1 — the tid / n_threads ABI)")
    p.add_argument("--assume-zero-init", action="store_true",
                   help="treat every register as initialized (machine "
                        "reset semantics zero every register, so reads "
                        "before a write are well-defined; shrunk fuzz "
                        "reproducers rely on this after instruction "
                        "deletion removes the writes)")
    p.add_argument("--threads", type=int, default=4,
                   help="threads used to materialize kernels (default 4)")
    p.add_argument("--per-thread", type=int, default=16,
                   help="elements per thread when building (default 16)")
    p.add_argument("--pressure", action="store_true",
                   help="print per-block register-pressure / working-set "
                        "tables")
    p.add_argument("--json", action="store_true",
                   help="emit the reports as JSON instead of text")
    p.add_argument("--fail-on", choices=["error", "warning", "none"],
                   default="error",
                   help="exit non-zero on findings at/above this severity")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("lint",
                       help="run the repro-specific determinism linter")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--fail-on", choices=["error", "warning", "info", "none"],
                   default="error",
                   help="exit non-zero on findings at/above this severity")
    p.add_argument("--select", metavar="IDS",
                   help="comma-separated rule ids to enable (default: all)")
    p.add_argument("--ignore", metavar="IDS",
                   help="comma-separated rule ids to disable")
    p.add_argument("--show-suppressed", action="store_true",
                   help="also print findings silenced by inline comments")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("workloads", help="list registered workloads")
    p.set_defaults(fn=_cmd_workloads)

    p = sub.add_parser("disasm", help="disassemble a workload kernel")
    p.add_argument("--workload", default="gather", choices=workloads.names())
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser("area", help="print the area/delay tables")
    p.set_defaults(fn=_cmd_area)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs through the "
             "banked/ViReC/FGMT matrix under the VSan oracle")
    p.add_argument("--seed", type=int, default=1,
                   help="campaign seed; same seed + budget => "
                        "byte-identical corpus (default 1)")
    p.add_argument("--budget", type=int, default=100,
                   help="number of generated programs (default 100)")
    p.add_argument("--corpus", default="fuzz-corpus", metavar="DIR",
                   help="corpus directory: checkpoint journal, report, "
                        "metrics, findings/<slug>/ reproducers")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="fan programs over N worker processes "
                        "(0 = all cores; default serial, or $REPRO_JOBS); "
                        "results are identical to a serial run")
    p.add_argument("--resume", action="store_true",
                   help="replay finished programs from the corpus "
                        "checkpoint; only missing indices re-run")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--per-thread", type=int, default=16)
    p.add_argument("--max-cycles", type=int, default=None,
                   help="per-arm cycle budget; exhaustion is a wedge "
                        "finding (default 400000)")
    p.add_argument("--flip-rate", type=float, default=0.0, metavar="R",
                   help="inject silent register-file bit flips at rate R "
                        "(fault-detection acceptance mode)")
    p.add_argument("--fault-seed", type=int, default=1,
                   help="fault-campaign seed (with --flip-rate)")
    p.add_argument("--no-shrink", action="store_true",
                   help="store findings unshrunk")
    p.add_argument("--shrink-budget", type=int, default=48,
                   help="oracle trips per shrink (default 48)")
    p.add_argument("--replay", metavar="DIR",
                   help="re-run every reproducer in a corpus directory "
                        "and verify its signature still fires")
    p.add_argument("--ledger", metavar="PATH",
                   help="append per-arm cycle counts of every fresh "
                        "program to this run ledger (see repro history)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        scale = args.scale
        if isinstance(scale, str) and scale.isdigit():
            args.scale = int(scale)
    except AttributeError:
        pass
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
