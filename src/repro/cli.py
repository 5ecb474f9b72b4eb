"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``experiments [names...] [--scale S] [--jobs N] [--ledger P] [--cache]``
    Run experiment drivers (default: all) and print their tables; their
    configs run as one grid, deduplicated by config key.
``run --workload W --core C [--threads N] [--context F] ...``
    Simulate one configuration and print its stats.  ``--observe
    events,intervals,pipeline,profile`` turns layers on and prints their
    panels; ``--out DIR`` also writes their artifact set (``trace.json``,
    ``intervals.jsonl``, ``profile.json``, ``profile.folded``).
``sweep --axis FIELD=V1,V2,... [--dir D] [--live] [--metrics] ...``
    Run a parameter grid with per-config error isolation, watchdogs,
    retries, and a crash-safe checkpoint journal.  ``--dir`` roots the
    sweep's observability surface (event log, the merged parent+workers
    Chrome trace folded from it, manifest, fleet metrics); ``--live``
    renders a refreshing progress panel while it runs.  ``--ledger``
    appends every finished run to the persistent run ledger; ``--cache``
    additionally serves digest-keyed hits from it (byte-identical to
    recomputation, ``ledger.hit``/``miss``/``stale`` in the metrics).
``inspect [TARGET] [--diff OTHER] [--top N] [--html P] [--follow] ...``
    Render whatever artifacts exist, without re-simulating.  A run or
    sweep directory: ``run``'s panels and a sweep's progress (exit 3 on
    failed rows), ``--diff`` two saved profiles, ``--html`` a report.  The
    run ledger (no TARGET, or a digest): trajectories, ``--diff`` two
    digests, ``--check`` the regression gate (exit 4).
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
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import workloads
from .errors import SimulationError
from .experiments import DRIVERS, scale_to_n, simulate
from .system import CORE_TYPES, RunConfig, run_config
from .system.monitor import (ARTIFACT_NAMES, EVENTS_NAME, FOLDED_NAME,
                             INTERVALS_NAME, MANIFEST_NAME, PROFILE_NAME,
                             TRACE_NAME, monitor_loop)
from .virec import POLICIES


def _usage(message: str) -> int:
    """Print one ``error:`` line on stderr; returns the usage exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _out_error(flag: str, path: Optional[str],
               directory: bool = False) -> Optional[str]:
    """Why ``path`` cannot take ``flag``'s output, or None if it can.

    A ``directory`` output is created with its parents, so only an
    existing file is in its way; a file output needs its directory.
    """
    import os

    if path is None:
        return None
    if directory:
        if os.path.exists(path) and not os.path.isdir(path):
            return f"{flag} {path}: exists and is not a directory"
        return None
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"{flag} {path}: no such directory {parent}"
    if os.path.isdir(path):
        return f"{flag} {path}: is a directory"
    return None


def _scale(text: str):
    """``--scale``: a scale name or an element count >= 1, else a usage error."""
    scale = int(text) if text.lstrip("-").isdigit() else text
    try:
        scale_to_n(scale)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return scale


def _positive_int(text: str) -> int:
    """A count >= 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: the layers ``run --observe`` can turn on
_LAYERS = ("events", "intervals", "pipeline", "profile")


def _layers(text: str) -> frozenset:
    """``--observe``: a comma list of :data:`_LAYERS`, else a usage error."""
    layers = frozenset(text.split(","))
    if not layers <= set(_LAYERS):
        raise argparse.ArgumentTypeError(
            f"unknown layer(s) {sorted(layers - set(_LAYERS))}; choose "
            f"from {','.join(_LAYERS)}")
    return layers


def _cmd_experiments(args) -> int:
    names = args.names or sorted(DRIVERS)
    for name in names:
        if name not in DRIVERS:
            return _usage(f"unknown experiment {name!r}; available: "
                          f"{sorted(DRIVERS)}")
    backend, ledger, cache = _exec_backend(args)
    if backend is None:
        return 2
    # the drivers with a grid run as one deduplicated union, then fold;
    # the others simulate on their own, after it
    grids = {name: DRIVERS[name].grid(args.scale) for name in names
             if hasattr(DRIVERS[name], "grid")}
    try:
        results = simulate(grids, backend=backend, ledger=ledger)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        _close_cache(cache)
    for name in names:
        result = (DRIVERS[name].fold(grids[name], results[name])
                  if name in grids else DRIVERS[name].run(args.scale))
        print(result.format() + "\n")
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


def _cmd_run(args) -> int:
    layers = args.observe or frozenset()
    if args.out and not layers:
        return _usage("--out needs --observe LAYERS")
    if args.interval and "intervals" not in layers:
        return _usage("--interval needs --observe intervals")
    problem = _out_error("--out", args.out, directory=True)
    if problem is not None:
        return _usage(problem)
    extra = {}
    if layers & {"events", "intervals", "pipeline"}:
        extra["telemetry"] = {
            "events": "events" in layers,
            "interval": (args.interval or 500) if "intervals" in layers
            else 0,
            "pipeline_trace": "pipeline" in layers}
    if "profile" in layers:
        extra["profile"] = True
    try:
        cfg = _base_config(args, **extra)
        r = run_config(cfg)
    except ValueError as exc:
        return _usage(str(exc))
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
    if not layers:
        return 0
    data = {}
    if "events" in layers:
        data["trace"] = r.telemetry.chrome_trace(metadata={
            "workload": cfg.workload, "core_type": cfg.core_type,
            "n_threads": cfg.n_threads, "n_cores": cfg.n_cores,
            "seed": cfg.seed})
    if "intervals" in layers:
        data["intervals"] = r.telemetry.interval_rows()
    if "profile" in layers:
        data["profile"] = r.profile.profile_snapshot()
    if args.out:
        _write_artifacts(args.out, r, data)
    if data:
        print()
        print(_panels(data))
    if r.telemetry is not None:
        print()
        print(r.telemetry.report())
    return 0


def _parse_axis_value(text: str):
    """Best-effort scalar parse: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _exec_backend(args, ledger_dir: str = ""):
    """``(backend, ledger, cache)`` for :func:`_add_exec_options`; the
    backend is None after a one-line usage error.  With ``--cache`` it is
    also ``cache``, a CachedBackend on ``--ledger`` (default
    ``ledger_dir/ledger.sqlite``) that records its own misses."""
    import os
    from .exec import resolve_backend

    try:
        backend = resolve_backend(args.jobs)      # --jobs, or $REPRO_JOBS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None, None
    if not getattr(args, "cache", False):
        return backend, args.ledger, None
    from .ledger import CachedBackend
    path = args.ledger or os.path.join(ledger_dir, "ledger.sqlite")
    cache = CachedBackend(path, inner=backend)
    return cache, None, cache


def _close_cache(cache) -> None:
    """Report a ``--cache`` run's lookup grades on stderr, then close it."""
    if cache is not None:
        c = cache.counts
        print(f"ledger cache {cache.path}: {c['hit']} hit / "
              f"{c['miss']} miss / {c['stale']} stale", file=sys.stderr)
        cache.close()


def _live_panel(root: str, log_size: int, refresh: float) -> None:
    """``sweep --live``: the panel of the sweep starting in ``root``.

    A reused directory's log already ends with an earlier sweep, finished;
    the panel waits until the log grows past ``log_size`` (its size before
    this sweep) so that it follows this sweep, not that one.
    """
    import os
    import time
    log = os.path.join(root, EVENTS_NAME)
    while not os.path.exists(log) or os.path.getsize(log) <= log_size:
        time.sleep(0.05)
    monitor_loop(root, refresh=refresh, follow=True)


def _cmd_sweep(args) -> int:
    import os
    from .system import run_grid, sweep_grid
    from .stats.reporting import rows_to_csv

    if args.live and not args.dir:
        return _usage("--live requires --dir")
    if args.resume and not (args.checkpoint or args.dir):
        return _usage("--resume requires --checkpoint (or --dir)")
    for problem in (_out_error("--dir", args.dir, directory=True),
                    _out_error("--csv", args.csv)):
        if problem is not None:
            return _usage(problem)
    axes = {}
    for spec in args.axis or []:
        name, eq, values = spec.partition("=")
        if not eq or not name or not values:
            return _usage(f"bad --axis {spec!r}: expected FIELD=V1,V2,...")
        axes[name] = [_parse_axis_value(v) for v in values.split(",")]
    extra = {"metrics": True} if args.metrics else {}
    try:
        grid = sweep_grid(_base_config(args, **extra), **axes)
    except (TypeError, ValueError) as exc:
        return _usage(str(exc))
    checkpoint, observe, manifest = args.checkpoint, None, None
    if args.dir:
        os.makedirs(args.dir, exist_ok=True)
        if not checkpoint:
            checkpoint = os.path.join(args.dir, "checkpoint.jsonl")
        observe = args.dir
        from .system.manifest import RunManifest
        manifest = RunManifest()
    backend, ledger, cache = _exec_backend(args, args.dir or "")
    if backend is None:
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

    live_thread = None
    if args.live:
        import threading
        log = os.path.join(args.dir, EVENTS_NAME)
        live_thread = threading.Thread(
            target=_live_panel, daemon=True, args=(
                args.dir, os.path.getsize(log) if os.path.exists(log) else 0,
                args.refresh))
        live_thread.start()
    rows = run_grid(grid, progress=progress if args.verbose else None,
                    retries=args.retries, timeout_s=args.timeout_s,
                    max_cycles=args.max_cycles,
                    checkpoint=checkpoint, resume=args.resume,
                    backend=backend, observe=observe,
                    manifest=manifest, ledger=ledger)
    _close_cache(cache)
    if live_thread is not None:
        # the monitor thread exits on its own once it reads sweep_end
        live_thread.join(timeout=2 * args.refresh + 1.0)
    if args.dir:
        if manifest is not None and manifest.configs:
            manifest.save(os.path.join(args.dir, MANIFEST_NAME))
        print(f"sweep directory: {args.dir} (checkpoint, manifest, "
              f"metrics, trace, events)")
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


#: metric columns of the interval panel; columns absent from a run (e.g.
#: VRMU metrics on a banked core) are skipped by the renderer
_TIMELINE_COLUMNS = ("ipc", "vrmu_hit_rate", "occupancy_total",
                     "spill_fill_per_kcycle", "dcache_misses",
                     "context_switches")


def _panels(data: dict, top: int = 10) -> str:
    """The text panels of one run's artifact data: what ``run --observe``
    prints live and ``inspect`` prints from disk.  ``data`` maps
    ``trace`` / ``intervals`` / ``profile`` to the plain values of
    ``trace.json`` / ``intervals.jsonl`` / ``profile.json``."""
    from .stats.reporting import render_attribution_table, render_intervals

    parts = []
    if "trace" in data:
        trace = data["trace"]
        events = sum(1 for e in trace["traceEvents"] if e["ph"] != "M")
        dropped = trace.get("otherData", {}).get("dropped_events", 0)
        parts.append(f"trace: {events} events ({dropped} overwritten)")
    if "intervals" in data:
        parts.append(render_intervals(data["intervals"], _TIMELINE_COLUMNS))
    if "profile" in data:
        parts.append(render_attribution_table(data["profile"], top=top))
    return "\n\n".join(parts)


def _write_artifacts(out: str, r, data: dict) -> None:
    """Write ``run --observe``'s artifact set into directory ``out``."""
    import json
    import os

    texts = {}
    if "trace" in data:
        texts[TRACE_NAME] = json.dumps(data["trace"], sort_keys=True)
    if "intervals" in data:
        texts[INTERVALS_NAME] = r.telemetry.metrics_jsonl()
    if "profile" in data:
        texts[PROFILE_NAME] = json.dumps(data["profile"], indent=1,
                                         sort_keys=True) + "\n"
        texts[FOLDED_NAME] = r.profile.collapsed()
    os.makedirs(out, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(out, name), "w") as f:
            f.write(text)
    print(f"wrote {', '.join(texts) or 'no files'} to {out}" + (
        f" (open {TRACE_NAME} in https://ui.perfetto.dev or chrome://tracing)"
        if TRACE_NAME in texts else ""))


def _load_artifacts(path: str,
                    keys=("trace", "intervals", "profile")) -> dict:
    """The plain data (the ``data`` of :func:`_panels`) of those run
    artifacts among ``keys`` that exist in directory ``path``."""
    import json
    import os

    data = {}
    for key in keys:
        name = {"trace": TRACE_NAME, "intervals": INTERVALS_NAME,
                "profile": PROFILE_NAME}[key]
        if os.path.exists(os.path.join(path, name)):
            with open(os.path.join(path, name)) as f:
                data[key] = ([json.loads(line) for line in f if line.strip()]
                             if name == INTERVALS_NAME else json.load(f))
    return data


def _dir_error(path: str) -> Optional[str]:
    """Why ``path`` is not a run or sweep directory, or None if it is."""
    import os

    make = (f"repro run --observe ... --out {path}, or repro sweep "
            f"--dir {path} ...")
    if not os.path.isdir(path):
        return f"no such run or sweep directory: {path} (create one with: {make})"
    if not any(os.path.exists(os.path.join(path, name))
               for name in ARTIFACT_NAMES):
        what = ("is empty" if not os.listdir(path)
                else f"has none of {', '.join(ARTIFACT_NAMES)}")
        return f"{path} {what} (expected output of: {make})"
    return None


def _cmd_inspect(args) -> int:
    import os

    target = args.target
    if target is not None and (os.sep in target or os.path.exists(target)):
        return _inspect_dir(args)
    return _inspect_ledger(args)


def _inspect_dir(args) -> int:
    """``inspect DIR``: panels, ``--diff``, ``--html`` or ``--follow``."""
    import json
    import os
    from .stats.report_html import build_report, write_report

    path = args.target
    if args.check:
        return _usage("--check grades the run ledger; give it a digest or "
                      "no TARGET, not a directory")
    modes = [f"--{m}" for m in ("diff", "html", "follow", "json")
             if getattr(args, m)]
    if len(modes) > 1 and modes[:2] != ["--diff", "--json"]:
        return _usage(f"{modes[0]} cannot be combined with {modes[1]}")
    dirs = [d for d in (path, args.diff) if d]
    for d in dirs:
        problem = _dir_error(d)
        if problem is not None:
            return _usage(problem)
    top = args.top or 10
    if args.diff:
        from .telemetry import diff_snapshots
        from .stats.reporting import render_attribution_diff

        snaps = [_load_artifacts(d, ("profile",)).get("profile")
                 for d in dirs]
        for d, snap in zip(dirs, snaps):
            if snap is None:
                return _usage(f"{d} has no {PROFILE_NAME} (write one with: "
                              f"repro run --observe profile --out {d})")
        diff = diff_snapshots(*snaps)
        labels = [os.path.basename(os.path.normpath(d)) for d in dirs]
        print(json.dumps(diff, indent=2) if args.json else
              render_attribution_diff(diff, *labels, top=top))
        return 0
    if args.html:
        problem = _out_error("--html", args.html)
        if problem is not None:
            return _usage(problem)
        s = write_report(path, args.html, ledger=args.ledger)["summary"]
        print(f"wrote {args.html}: {s['ok']} ok / {s['failed']} failed rows")
        return 0
    if args.json:
        print(json.dumps(build_report(path, ledger=args.ledger), indent=2))
        return 0
    sweep = os.path.exists(os.path.join(path, EVENTS_NAME))
    if args.follow and not sweep:
        return _usage(f"--follow needs a sweep directory; {path} has no "
                      f"{EVENTS_NAME}")
    state = monitor_loop(path, follow=args.follow) if sweep else None
    panels = _panels(_load_artifacts(path), top=top)
    if panels:
        print(("\n" if sweep else "") + panels)
    return 3 if state is not None and state.failed else 0


def _inspect_ledger(args) -> int:
    """``inspect [DIGEST]``: the run ledger's overview, one digest's
    trajectory, ``--diff`` between two digests, or the ``--check`` gate."""
    import json
    import os
    from .ledger import LedgerReader, default_ledger_path
    from .ledger.history import (EXIT_REGRESSION, check_history,
                                 compare_digests, render_check_text,
                                 render_compare_text, render_history_text,
                                 render_trajectory_text, trajectory)

    for flag in ("html", "follow", "top"):
        if getattr(args, flag):
            return _usage(f"--{flag} renders a directory; "
                          f"{args.target or 'the run ledger'} is not one")
    if args.diff and not args.target:
        return _usage("--diff needs a TARGET digest to compare against")
    path = args.ledger or default_ledger_path()
    if not os.path.exists(path):
        what = f"{args.target} is not a directory and " if args.target else ""
        return _usage(f"{what}no run ledger at {path} — record one with: "
                      f"repro sweep --ledger {path} ... (or --cache), or "
                      f"point --ledger / $REPRO_LEDGER at an existing file")
    with LedgerReader(path) as reader:
        if reader.count() == 0:
            return _usage(f"run ledger {path} has no rows yet — record runs "
                          f"with: repro sweep --ledger {path} ...")
        for digest in (args.target, args.diff):
            if digest and not reader.runs(digest=digest, limit=1):
                return _usage(f"{digest} is neither a directory nor a "
                              f"digest in {path}")
        if args.diff:
            view = compare_digests(reader, args.target, args.diff)
            text = render_compare_text(view)
        elif args.check:
            view = check_history(reader, digest=args.target)
            text = render_check_text(view)
        elif args.target:
            view = trajectory(reader, args.target)
            text = render_trajectory_text(view)
        else:
            view, text = reader.digests(), render_history_text(reader)
        print(json.dumps(view, indent=2) if args.json else text)
    if args.check and view["worst"] == "regression":
        return EXIT_REGRESSION
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
            return _usage(f"unknown workload {name!r}; available: "
                          f"{workloads.names()}")
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
            return _usage(f"--asm {args.asm}: {exc}")
        checked.append((verify_program(program, init_flats=init,
                                       name=args.asm), program))

    if args.corpus:
        from .fuzz.corpus import Corpus

        corpus = Corpus(args.corpus)
        slugs = corpus.entries()
        if not slugs:
            return _usage(f"--corpus {args.corpus}: no reproducers "
                          f"(expected findings/<slug>/meta.json entries)")
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
        return _usage(str(exc))
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


def _cmd_fuzz(args) -> int:
    from .fuzz import FuzzConfig, replay_corpus, run_fuzz

    if args.replay:
        rows = replay_corpus(args.replay)
        if not rows:
            return _usage(f"--replay {args.replay}: no reproducers "
                          f"(expected findings/<slug>/meta.json entries)")
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

    if _exec_backend(args)[0] is None:
        return 2
    problem = _out_error("--corpus", args.corpus, directory=True)
    if problem is not None:
        return _usage(problem)
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


def _add_exec_options(p: argparse.ArgumentParser) -> None:
    """How a verb's configs run: ``--jobs``, ``--ledger`` and ``--cache``
    (see :func:`_exec_backend`)."""
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="run configs over N parallel worker processes "
                        "(0 = all cores; default serial, or $REPRO_JOBS); "
                        "results are identical to a serial run")
    p.add_argument("--ledger", metavar="PATH",
                   help="append every finished run to this run-ledger "
                        "SQLite file (see repro inspect)")
    p.add_argument("--cache", action="store_true",
                   help="serve digest-keyed hits from the run ledger instead "
                        "of re-simulating (byte-identical results; implies "
                        "--ledger, default [DIR/]ledger.sqlite)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (one subcommand per verb)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ViReC reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiments", help="run experiment drivers")
    p.add_argument("names", nargs="*", help="figure ids (default: all)")
    p.add_argument("--scale", default="quick", type=_scale,
                   help="tiny | quick | full | <int elements per thread>")
    _add_exec_options(p)
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser("run", help="simulate one configuration, optionally "
                                   "observed: panels plus an artifact set")
    _add_config_options(p)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--observe", type=_layers, metavar="LAYERS",
                   help=f"comma list of {','.join(_LAYERS)}: turn those "
                        f"layers on and print their panels")
    p.add_argument("--interval", type=_positive_int, metavar="N",
                   help="cycles per interval sample (default 500)")
    p.add_argument("--out", metavar="DIR",
                   help="write the observed layers' artifacts into DIR "
                        "(render them later with repro inspect DIR)")
    p.set_defaults(fn=_cmd_run)

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
    p.add_argument("--csv", metavar="PATH", help="write result rows as CSV")
    p.add_argument("--dir", metavar="DIR",
                   help="sweep directory: checkpoint journal, live event "
                        "log, the merged Chrome trace folded from it, "
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
    _add_exec_options(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "inspect",
        help="render a run's or sweep's artifacts (panels, diff, HTML, "
             "live progress) or the run ledger's history")
    p.add_argument("target", nargs="?", metavar="TARGET",
                   help="a run directory (repro run --out), a sweep "
                        "directory (repro sweep --dir), or a ledger digest; "
                        "none: the run ledger's overview")
    p.add_argument("--diff", metavar="OTHER",
                   help="per-cause/per-PC cycle deltas against another "
                        "run directory, or per-counter deltas against "
                        "another digest")
    p.add_argument("--top", type=_positive_int, metavar="N",
                   help="hotspot / per-PC-delta rows to print (default 10)")
    p.add_argument("--html", metavar="PATH",
                   help="write a self-contained HTML report of the "
                        "directory to PATH")
    p.add_argument("--follow", action="store_true",
                   help="keep refreshing a sweep directory's progress "
                        "panel until the sweep ends")
    p.add_argument("--ledger", metavar="PATH",
                   help="run-ledger SQLite file (default: $REPRO_LEDGER, "
                        "then ./ledger.sqlite; for --html: ledger.sqlite "
                        "in DIR, then cwd)")
    p.add_argument("--check", action="store_true",
                   help="grade every digest's (or TARGET's) newest host "
                        "rate against the median of its last runs; exit 4 "
                        "on a regression")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of text")
    p.set_defaults(fn=_cmd_inspect)

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
    p.add_argument("--threads", type=_positive_int, default=4,
                   help="threads used to materialize kernels (default 4)")
    p.add_argument("--per-thread", type=_positive_int, default=16,
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

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs through the "
             "banked/ViReC/FGMT matrix under the VSan oracle")
    p.add_argument("--seed", type=int, default=1,
                   help="campaign seed; same seed + budget => "
                        "byte-identical corpus (default 1)")
    p.add_argument("--budget", type=_positive_int, default=100,
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
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--per-thread", type=_positive_int, default=16)
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
                        "program to this run ledger (see repro inspect)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
