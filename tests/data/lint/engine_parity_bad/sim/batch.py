# ruff: noqa
"""Bad fixture: five distinct parity violations.

* the data pass consults DRAM before the ring (drifted memory-path
  order);
* ``_TRANSFER_BYTES`` disagrees with the staged 32-byte payload;
* ``small_window`` inlines its own translation instead of routing
  through ``translate_head``;
* ``vec_window`` probes the L1 itself instead of leaving the data path
  to the pass;
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


def small_window(window, pd_buf, units, l1t, l2t, walkers):
    for ctx in window:
        unit = units.lookup()
        l1t.hit(unit)
        pd_buf.append(ctx)


def vec_window(window, pd_buf, l1_sets, units, l1t, l2t, walkers):
    translate_head(units, l1t, l2t, walkers)
    for i in window:
        if l1_sets[i]:
            continue
        pd_buf.append(i)


def data_pass(accesses, l1_table, rc_table, l2_table, open_row,
              pair_counts):
    gathered = zip(accesses, l1_table, rc_table, l2_table)
    l2_miss = []
    for k, l1_set, rc_set, l2_set in gathered:
        if k in l1_set:
            continue
        if rc_set is not None and k in rc_set:
            continue
        if k not in l2_set:
            l2_miss.append(k)
    for k in l2_miss:
        open_row[k] = k
        pair_counts[k] += 1


def run_chunk(policy, stats, ratio):
    policy.on_epoch(0, stats, ratio)
