#!/usr/bin/env python3
"""A multi-processor near-memory node under increasing system load.

Builds 1-8 ViReC processors sharing a crossbar and DDR5-like DRAM (the
Figure 11 system), offloads a batch of gather tasks to each, and shows how
observed memory latency climbs with activity — and what one core's register
cache does meanwhile, through telemetry's register-cache record.

Run:  python examples/offload_multicore.py
"""

from repro.system import RunConfig, run_config


def main() -> None:
    print(f"{'cores':>6} {'threads':>8} {'cycles':>9} {'node IPC':>9} "
          f"{'DRAM latency':>13} {'RF hit':>8}")
    for cores in (1, 2, 4, 8):
        cfg = RunConfig(workload="gather", core_type="virec",
                        n_threads=8, n_cores=cores, n_per_thread=48,
                        context_fraction=0.8)
        r = run_config(cfg)
        dram = r.stats.child("mem").child("dram")
        reqs = dram["reads"] + dram["writes"]
        lat = dram["busy_cycles"] / reqs if reqs else 0
        print(f"{cores:>6} {8:>8} {r.cycles:>9} {r.ipc:>9.3f} "
              f"{lat:>12.1f}c {r.rf_hit_rate:>7.1%}")

    print("\nObserved latency grows with active processors (crossbar and")
    print("bank contention); aggregate node IPC still scales because each")
    print("processor hides its own latency behind thread switching.")
    print("\nRegister cache of a single processor:")

    # a closer look at one core through its telemetry register-cache record
    from repro import workloads
    from repro.core.base import ThreadState
    from repro.memory import NDPMemorySystem
    from repro.system.config import ndp_dcache, ndp_icache, table1_dram
    from repro.system.offload import offload_contexts
    from repro.telemetry import TelemetrySession
    from repro.virec import ViReCConfig, ViReCCore

    inst = workloads.get("gather").build(n_threads=8, n_per_thread=48)
    memsys = NDPMemorySystem(n_cores=1, dcache=ndp_dcache(),
                             icache=ndp_icache(), dram=table1_dram())
    ports = memsys.ports(0)
    threads = inst.threads()
    offload_contexts(inst.memory, inst.layout(), threads, inst.init_regs)
    for th in threads:
        th.state = ThreadState.BLOCKED
    core = ViReCCore(inst.program, ports.icache, ports.dcache, inst.memory,
                     threads, virec=ViReCConfig(rf_size=45),
                     layout=inst.layout())
    session = TelemetrySession()
    session.attach(core)
    core.run()
    session.finalize()
    summary = session.cores[0].vrmu_summary()
    rows = [("hits / misses", f"{summary['hits']} / {summary['misses']} "
                              f"({summary['hit_rate']:.1%})"),
            ("evictions by cause", summary["eviction_causes"])]
    rows += [(f"thread {tid} peak entries", peak)
             for tid, peak in summary["peak_occupancy"].items()]
    for label, value in rows:
        print(f"  {label:<22}: {value}")

if __name__ == "__main__":
    main()
