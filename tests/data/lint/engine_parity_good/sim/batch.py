# ruff: noqa
"""Good fixture: two inlined batched copies whose normalized
memory-path order matches the staged DataStage.process, sharing one
translation head and the staged epoch-closing sequence."""

_TRANSFER_BYTES = 32


def translate_head(units, l1t, l2t, walkers):
    unit = units.lookup()
    if l1t.hit(unit):
        return 1
    if l2t.hit(unit):
        return 2
    return walkers.walk(unit)


def small_window(window, l1_caches, remote_caches, l2_latency, ring, dram,
                 units, l1t, l2t, walkers):
    total = 0
    for ctx in window:
        translate_head(units, l1t, l2t, walkers)
        if l1_caches.lookup(ctx):
            continue
        if remote_caches.lookup(ctx):
            total += l2_latency
            continue
        total += l2_latency + ring.hops(ctx)
        dram.access(ctx)
    return total


def vec_window(window, l1_sets, rc_sets, l2_sets, pair_counts, dram_acc,
               units, l1t, l2t, walkers):
    translate_head(units, l1t, l2t, walkers)
    total = 0
    for i in window:
        if l1_sets[i]:
            continue
        if rc_sets[i]:
            total += l2_sets[i]
            continue
        total += l2_sets[i] + pair_counts[i]
        dram_acc[i] += 1
    return total


def run_chunk(policy, stats, ratio):
    from .pipeline import close_epoch

    close_epoch(policy, stats, ratio)
