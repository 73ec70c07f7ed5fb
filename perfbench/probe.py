"""Host-speed probe: shares a CPU with one timed CLI op.

    python3 perfbench/probe.py

Started at a low priority on the op's CPU, it gets a small share of every
scheduling period and so meets the same slow and fast phases of the shared
host as the op.  It prints "ready", loops a fixed pure-Python body until
SIGUSR1, then prints its loop count and the CPU seconds it used.  See
README "Noise and repeats".
"""

import signal
import time

CHUNK = 2_000


def make_table() -> dict[int, int]:
    """16,384 entries, about 1 MB: the body then misses in cache as the CLI
    ops do, and contention on the host slows it about as much as them."""
    return dict.fromkeys(range(0x4000), 0)


def spin(table: dict[int, int]) -> None:
    """The fixed body: CHUNK rounds of integer arithmetic and dict stores."""
    x = 0
    for i in range(CHUNK):
        x = (x * 31 + i) & 0x3FFF
        table[x] = i


def main() -> None:
    stopped = []
    signal.signal(signal.SIGUSR1, lambda signum, frame: stopped.append(signum))
    table = make_table()
    print("ready", flush=True)
    loops = 0
    t0 = time.thread_time()
    while not stopped:
        spin(table)
        loops += CHUNK
    print(loops, time.thread_time() - t0, flush=True)


if __name__ == "__main__":
    main()
