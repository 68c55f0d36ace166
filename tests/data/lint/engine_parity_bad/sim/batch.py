# ruff: noqa
"""Bad fixture: four distinct parity violations.

* ``vec_window``'s fused loop consults DRAM before the ring (drifted
  memory-path order);
* ``_TRANSFER_BYTES`` disagrees with the staged 32-byte payload;
* ``small_window`` inlines its own translation instead of routing
  through ``translate_head``;
* the epoch callback fires directly from ``run_chunk`` instead of
  going through ``close_epoch`` (which is never called at all).
"""

_TRANSFER_BYTES = 64


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
        unit = units.lookup()
        l1t.hit(unit)
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
        dram_acc[i] += 1
        total += l2_sets[i] + pair_counts[i]
    return total


def run_chunk(policy, stats, ratio):
    policy.on_epoch(0, stats, ratio)
