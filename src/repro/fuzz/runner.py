"""The resilient fuzz loop behind ``repro fuzz``.

Built on the same machinery as the sweep runner: program indices fan out
over :mod:`repro.exec` backends (``--jobs``), every finished index is
appended to a crash-safe JSONL checkpoint journal (``--resume`` replays
it), and results are folded **in index order** regardless of completion
order — so the corpus, report, and metrics of a fixed-seed run are
byte-identical whether it ran serial, parallel, interrupted-and-resumed,
or in one shot.

New signatures are shrunk in the parent process (shrinking re-runs the
oracle many times; doing it inline keeps workers cheap and the dedup
order deterministic) and stored in the on-disk corpus.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..exec import WorkerCrash, resolve_backend
from ..metrics import MetricsRegistry
from ..system.sweeps import _Journal, _load_journal
from .corpus import Corpus
from .generator import generate, sample_spec
from .oracle import DEFAULT_MAX_CYCLES, run_oracle
from .shrink import shrink_program


@dataclass
class FuzzConfig:
    """One fuzz campaign: seed, budget, geometry, and resilience knobs."""

    seed: int = 1
    budget: int = 100
    corpus_dir: str = "fuzz-corpus"
    jobs: Optional[int] = None
    n_threads: int = 4
    n_per_thread: int = 16
    max_cycles: int = DEFAULT_MAX_CYCLES
    shrink: bool = True
    shrink_budget: int = 48
    resume: bool = False
    #: optional silent-flip fault campaign injected into every arm
    #: (:class:`~repro.faults.FaultConfig` fields, scheme "none")
    faults: Optional[Dict] = None
    #: optional run-ledger path: every freshly fuzzed program appends one
    #: row per oracle arm (digest ``fuzz:<program-digest>:<arm>``), so
    #: campaign cycle counts join the ``repro history`` time axis.
    #: Resumed programs are not re-recorded.
    ledger: Optional[str] = None


@dataclass
class FuzzReport:
    """Summary of one fuzz run (written as ``fuzz_report.json``)."""

    seed: int
    budget: int
    programs: int = 0
    resumed: int = 0
    invalid: int = 0
    crashed: int = 0
    findings_total: int = 0
    unique_signatures: int = 0
    new_entries: List[str] = field(default_factory=list)
    entries: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict:
        return {
            "budget": self.budget, "crashed": self.crashed,
            "entries": sorted(self.entries),
            "findings_total": self.findings_total,
            "invalid": self.invalid, "new_entries": sorted(self.new_entries),
            "programs": self.programs, "resumed": self.resumed,
            "seed": self.seed,
            "unique_signatures": self.unique_signatures,
        }


def fuzz_worker(task: Dict) -> Dict:
    """Run one generated program through the oracle (pool-safe).

    Module top level and plain-dict in/out, so it pickles by reference
    across spawn workers.  Simulation errors are *findings* inside the
    report, never exceptions — an exception escaping here is a genuine
    harness bug and should abort the map.
    """
    report = run_oracle(
        task["spec"],
        n_threads=task["n_threads"], n_per_thread=task["n_per_thread"],
        max_cycles=task["max_cycles"], faults=task.get("faults"))
    return {
        "index": task["index"], "valid": report.valid,
        "invalid_reason": report.invalid_reason,
        "findings": [f.as_dict() for f in report.findings],
        "arms": report.arms,
    }


def _journal_key(seed: int, index: int) -> str:
    return f"fuzz:{seed}:{index}"


def _arm_digest(spec_dict: Dict, arm: str, n_threads: int,
                n_per_thread: int) -> str:
    """Namespaced ledger digest of one (generated program, arm) pair.

    Deterministic in exactly the inputs that determine the arm's cycle
    count, so re-fuzzing the same seed extends each arm's trajectory
    instead of forking a new one.
    """
    payload = json.dumps([spec_dict, arm, n_threads, n_per_thread],
                         sort_keys=True)
    return "fuzz:" + hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_fuzz(fcfg: FuzzConfig, progress=None) -> FuzzReport:
    """Run the campaign; returns the report (also written to disk).

    ``progress(i, total, record)`` is called after each program folds in.
    """
    os.makedirs(fcfg.corpus_dir, exist_ok=True)
    corpus = Corpus(fcfg.corpus_dir)
    checkpoint = os.path.join(fcfg.corpus_dir, "checkpoint.jsonl")
    previous = _load_journal(checkpoint) if fcfg.resume else {}
    journal = _Journal(checkpoint)
    metrics = MetricsRegistry()
    programs = metrics.counter("fuzz_programs_total",
                               "generated programs by outcome")
    found = metrics.counter("fuzz_findings_total",
                            "oracle findings by kind")
    recorder = None
    if fcfg.ledger:
        from ..ledger.store import Recorder
        recorder = Recorder(fcfg.ledger)

    specs = [sample_spec(fcfg.seed, i) for i in range(fcfg.budget)]
    keys = [_journal_key(fcfg.seed, i) for i in range(fcfg.budget)]
    pending = []
    for i in range(fcfg.budget):
        done = previous.get(keys[i])
        if done is not None and done.get("status") == "ok" \
                and "result" in done:
            continue
        pending.append({
            "index": i, "spec": specs[i].as_dict(),
            "n_threads": fcfg.n_threads, "n_per_thread": fcfg.n_per_thread,
            "max_cycles": fcfg.max_cycles, "faults": fcfg.faults,
        })

    backend = resolve_backend(fcfg.jobs)
    fresh: Dict[int, object] = {}
    for task, out in zip(pending, backend.map(fuzz_worker, pending)):
        fresh[task["index"]] = out

    report = FuzzReport(seed=fcfg.seed, budget=fcfg.budget)
    seen: Dict[str, int] = {}
    try:
        for i in range(fcfg.budget):
            if i in fresh:
                out = fresh[i]
                if isinstance(out, WorkerCrash):
                    # host trouble, not a program outcome: skip without
                    # journalling so a resume retries this index
                    report.crashed += 1
                    programs.inc(status="crashed")
                    if progress is not None:
                        progress(i + 1, fcfg.budget, None)
                    continue
                journal.append({"key": keys[i], "index": i, "status": "ok",
                                "result": out})
                if recorder is not None and out["valid"]:
                    for arm, counts in sorted((out.get("arms") or {})
                                              .items()):
                        recorder.record_row(
                            _arm_digest(specs[i].as_dict(), arm,
                                        fcfg.n_threads, fcfg.n_per_thread),
                            source="fuzz", workload="fuzz", core_type=arm,
                            cycles=counts.get("cycles"),
                            instructions=counts.get("instructions"),
                            counters={"bits_flipped":
                                      counts.get("bits_flipped", 0)})
            else:
                out = previous[keys[i]]["result"]
                report.resumed += 1
            report.programs += 1
            if not out["valid"]:
                report.invalid += 1
                programs.inc(status="invalid")
            else:
                programs.inc(status="ok")
            for f in out["findings"]:
                report.findings_total += 1
                found.inc(kind=f["kind"])
                sig = f["signature"]
                if sig in seen:
                    continue
                seen[sig] = i
                slug = _store_finding(fcfg, corpus, specs[i], i, f)
                report.new_entries.append(slug)
            if progress is not None:
                progress(i + 1, fcfg.budget, out)
    finally:
        journal.close()
        if recorder is not None:
            recorder.close()
    report.unique_signatures = len(seen)
    report.entries = corpus.entries()
    _write_json(os.path.join(fcfg.corpus_dir, "fuzz_report.json"),
                report.as_dict())
    _write_json(os.path.join(fcfg.corpus_dir, "metrics.json"),
                metrics.snapshot())
    return report


def _store_finding(fcfg: FuzzConfig, corpus: Corpus, spec, index: int,
                   finding: Dict) -> str:
    """Shrink a newly seen signature and write its corpus entry."""
    kern = generate(spec, n_threads=fcfg.n_threads,
                    n_per_thread=fcfg.n_per_thread)
    sig = finding["signature"]
    asm, shrunk_meta = kern.asm, {}
    if fcfg.shrink and fcfg.shrink_budget > 0:
        def signatures_of(candidate_asm: str) -> List[str]:
            return run_oracle(
                spec.as_dict(), asm=candidate_asm,
                n_threads=fcfg.n_threads, n_per_thread=fcfg.n_per_thread,
                max_cycles=fcfg.max_cycles, faults=fcfg.faults).signatures

        result = shrink_program(kern.asm, sig, signatures_of,
                                max_attempts=fcfg.shrink_budget)
        asm = result.asm
        shrunk_meta = {"shrunk": result.reproduced,
                       "shrink_attempts": result.attempts,
                       "orig_lines": result.orig_lines,
                       "lines": result.lines}
    meta = {
        "signature": sig, "kind": finding["kind"], "arm": finding["arm"],
        "error_type": finding.get("error_type", ""),
        "message": finding.get("message", ""),
        "details": finding.get("details", {}),
        "spec": spec.as_dict(), "index": index, "run_seed": fcfg.seed,
        "n_threads": fcfg.n_threads, "n_per_thread": fcfg.n_per_thread,
        "max_cycles": fcfg.max_cycles, "faults": fcfg.faults,
    }
    meta.update(shrunk_meta)
    return corpus.add(sig, asm, meta)


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
