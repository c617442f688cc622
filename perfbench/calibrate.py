"""A fixed pure-Python load that times the machine, not boxcount.

The runner starts it as a fresh interpreter, like every operation, a few
times per pass.  Its median wall time over a run measures how fast the
machine is during that run; end-to-end times are scaled by it (see
README.md, "Machine-speed normalisation").  It must never change: a change
rescales every normalised time.
"""


def work():
    table = {}
    acc = 1
    for i in range(120_000):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + acc
        acc = (acc * 3 + i) % (1 << 61)
    big = 1
    for i in range(1, 1500):
        big *= i
    return len(table), acc, big % 1_000_003


if __name__ == "__main__":
    work()
