#!/usr/bin/env python3
"""Walk through the replacement-policy examples of Figures 5 and 6.

Builds a tiny two-thread register cache and replays the paper's scenarios:

* Figure 5 — on a context switch, plain PLRU evicts registers of the thread
  that is about to run (it only sees age), while MRT-PLRU targets the most
  recently *suspended* thread.
* Figure 6 — within a thread, saturated PLRU ages cannot distinguish an
  in-flight (flushed, about-to-replay) register from a committed one; the
  LRC commit bit can.

Run:  python examples/policy_walkthrough.py
"""

from repro.virec.policies import LRC, MRTPLRU, PLRU


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def show(policy, owner, names) -> None:
    for i, name in enumerate(names):
        word = policy.describe(i)
        print(f"  entry {i} ({name}, thread {owner[i]}): "
              f"T={word['T']} C={word['C']} A={word['A']} "
              f"priority={word['prio']}")


def figure5() -> None:
    banner("Figure 5: inter-thread reuse (PLRU vs MRT-PLRU)")
    # six registers: x2,x4,x5 of the red thread (0); x2,x4,x5 of blue (1)
    names = ["red.x2", "red.x4", "red.x5", "blue.x2", "blue.x4", "blue.x5"]
    owner = [0, 0, 0, 1, 1, 1]
    everyone = list(range(6))     # every entry is an eviction candidate

    for policy in (PLRU(6), MRTPLRU(6)):
        # red thread runs: accesses x2, x4, then x5 (x5 most recent)
        for idx in (0, 1, 2):
            policy.on_instruction()
            policy.on_access(idx)
        # red's load misses the dcache -> context switch to blue
        policy.on_context_switch(owner, prev_tid=0, new_tid=1)
        # blue starts executing and touches x2
        policy.on_instruction()
        policy.on_access(3)
        victim = policy.select_victim(everyone)
        print(f"\n{policy.name}: victim = {names[victim]}")
        show(policy, owner, names)
        if isinstance(policy, PLRU):
            print("  -> PLRU evicted an old *blue* register: blue is about to")
            print("     need it (thrash).  The paper's Figure 5(b).")
        else:
            print("  -> MRT-PLRU evicts from red, the thread that will run")
            print("     furthest in the future.  The paper's Figure 5(c).")


def figure6() -> None:
    banner("Figure 6: intra-thread reuse (MRT-PLRU vs LRC)")
    # red thread registers x2, x5 (in flight when flushed) and x0 (committed)
    names = ["red.x2", "red.x5", "red.x0"]
    for policy in (MRTPLRU(3), LRC(3)):
        for idx in (0, 1, 2):
            policy.on_instruction()
            policy.on_access(idx)
        for _ in range(9):
            policy.on_instruction()   # ages saturate at 7
        # the context switch flushed the instructions using x2 and x5:
        policy.on_flush([0, 1])
        victim = policy.select_victim([0, 1, 2])
        print(f"\n{policy.name}: victim = {names[victim]}")
        show(policy, [0, 0, 0], names)
    print("\n  -> with saturated ages MRT-PLRU cannot see that x2/x5 will be")
    print("     replayed immediately; LRC's commit bit keeps them resident.")


if __name__ == "__main__":
    figure5()
    figure6()
