# ruff: noqa
"""Good fixture: windows that translate through one head and record
their accesses, and one data pass whose normalized memory-path order
matches the staged DataStage.process (ring charged by the tally flush),
with epochs through the staged epoch-closing sequence."""

_TRANSFER_BYTES = 32


def translate_head(units, l1t, l2t, walkers):
    unit = units.lookup()
    if l1t.hit(unit):
        return 1
    if l2t.hit(unit):
        return 2
    return walkers.walk(unit)


def small_window(window, pd_buf, units, l1t, l2t, walkers):
    for ctx in window:
        translate_head(units, l1t, l2t, walkers)
        pd_buf.append(ctx)


def vec_window(window, pd_buf, units, l1t, l2t, walkers):
    translate_head(units, l1t, l2t, walkers)
    pd_buf.extend(window)


def data_pass(accesses, l1_table, rc_table, l2_table, open_row, tally):
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
    tally.append(len(l2_miss))


def flush_tallies(tally, ring):
    ring.total_bytes += _TRANSFER_BYTES * sum(tally)


def run_chunk(policy, stats, ratio):
    from .pipeline import close_epoch

    close_epoch(policy, stats, ratio)
