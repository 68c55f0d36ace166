"""repro-lint: rule goldens, suppression, baseline, CLI, live tree.

Each rule has a *bad* fixture (a miniature project triggering every
shape the rule knows) and a *good* fixture (the deterministic
counterparts) under ``tests/data/lint/``; the golden assertions pin the
rule codes and the load-bearing message fragments.  The live-tree test
is the actual gate: the installed package must lint clean modulo the
committed baseline.  The reintroduction tests replay the historical
bugs the rules exist for (PR 1 ``hash()``, PR 3 shared
``TimingParams()`` default, a salted fingerprint, a raw lease write)
and require the lint to fail.

Codes RPR002, RPR005 and RPR007 are retired.  Tests on the live objects
hold their invariants: the ``SimResult`` cache split in
``tests/test_timing_results.py``, the policy contract of every policy
class in ``tests/test_pipeline_contract.py``, and the containment of
``PredictedResult`` in ``tests/test_surrogate.py``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    Project,
    all_rules,
    apply_baseline,
    default_scan_root,
    load_baseline,
    run_lint,
    write_baseline,
)

FIXTURES = Path(__file__).resolve().parent / "data" / "lint"
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def lint_fixture(name, select=None):
    return run_lint(Project(root=FIXTURES / name), select=select)


def codes(findings):
    return sorted({f.code for f in findings})


def messages(findings):
    return "\n".join(f.message for f in findings)


# ---------------------------------------------------------------- registry


RULE_CODES = [
    "RPR001",
    "RPR003",
    "RPR004",
    "RPR006",
    "RPR008",
    "RPR009",
    "RPR010",
]


def test_all_seven_rules_registered():
    rules = all_rules()
    assert sorted(rules) == RULE_CODES
    for rule in rules.values():
        assert rule.doc, f"{rule.code} has no docstring description"


def test_unknown_rule_code_rejected():
    with pytest.raises(ValueError, match="RPR999"):
        lint_fixture("determinism_good", select=["RPR999"])


# ------------------------------------------------------- RPR001 determinism


def test_determinism_bad_fixture_fires():
    findings = lint_fixture("determinism_bad", select=["RPR001"])
    assert codes(findings) == ["RPR001"]
    text = messages(findings)
    assert "builtin hash()" in text
    assert "process-global RNG" in text
    assert "without a seed" in text
    assert "NumPy's global RNG" in text
    assert "wall-clock call" in text
    # hash, random.seed, random.choice, Random(), np.random.uniform,
    # rng.random is a *seeded instance* (not flagged), perf_counter.
    assert len(findings) == 6


def test_determinism_good_fixture_clean():
    assert lint_fixture("determinism_good", select=["RPR001"]) == []


def test_wallclock_only_flagged_in_hot_paths():
    findings = lint_fixture("determinism_bad", select=["RPR001"])
    wallclock = [f for f in findings if "wall-clock" in f.message]
    assert [f.rel for f in wallclock] == ["sim/engine.py"]


# ------------------------------------------------- RPR003 mutable defaults


def test_mutable_defaults_bad_fixture_fires():
    findings = lint_fixture("mutable_defaults_bad", select=["RPR003"])
    assert codes(findings) == ["RPR003"]
    text = messages(findings)
    assert "TimingParams() instance" in text  # the PR 3 bug shape
    assert "mutable literal" in text
    assert "dict() call" in text and "list() call" in text
    assert "field(default_factory=...)" in text
    # run, collect (3 params), tally (2 params), Config (2 fields)
    assert len(findings) == 8


def test_mutable_defaults_good_fixture_clean():
    # Frozen-dataclass / Enum defaults are immutable and must pass.
    assert lint_fixture("mutable_defaults_good", select=["RPR003"]) == []


# --------------------------------------------------- RPR004 engine parity


def test_engine_parity_bad_fixture_fires():
    findings = lint_fixture("engine_parity_bad", select=["RPR004"])
    assert codes(findings) == ["RPR004"]
    text = messages(findings)
    assert "memory-path order of data_pass()" in text
    assert "the engines have drifted" in text
    assert "ring transfer payload drifted" in text
    assert "small_window() does not route translation" in text
    assert "vec_window() touches data-path state (L1)" in text
    assert "policy.on_epoch called outside close_epoch()" in text
    assert "never calls close_epoch()" in text
    assert len(findings) == 6


def test_engine_parity_bad_names_both_orders():
    findings = lint_fixture("engine_parity_bad", select=["RPR004"])
    drift = next(f for f in findings if "drifted (DESIGN" in f.message)
    assert "L1 -> REMOTE_CACHE -> L2 -> DRAM -> RING" in drift.message
    assert "L1 -> REMOTE_CACHE -> L2 -> RING -> DRAM" in drift.message


def test_engine_parity_good_fixture_clean():
    assert lint_fixture("engine_parity_good", select=["RPR004"]) == []


# -------------------------------------------------- RPR006 durable writes


def test_durable_writes_bad_fixture_fires():
    findings = lint_fixture("durable_writes_bad", select=["RPR006"])
    assert codes(findings) == ["RPR006"]
    text = messages(findings)
    assert "direct open(..., 'w')" in text
    assert "direct open(..., 'ab')" in text
    assert "write_bytes()" in text and "write_text()" in text
    assert "json.dump()" in text and "pickle.dump()" in text
    assert "np.save()" in text
    assert "atomic_write()" in text
    # open "w", write_bytes, write_text, open mode="ab", open "r+b",
    # pickle.dump, json.dump, np.save; the read-mode opens are clean.
    assert len(findings) == 8


def test_durable_writes_good_fixture_clean():
    # atomic_write routing, read-mode opens and the os.open O_APPEND
    # escape hatch are all fine — as are writes outside durable files.
    assert lint_fixture("durable_writes_good", select=["RPR006"]) == []


# -------------------------------------------- RPR008 nondeterminism taint


def test_nondeterminism_taint_bad_fixture_fires():
    findings = lint_fixture("nondeterminism_taint_bad", select=["RPR008"])
    assert codes(findings) == ["RPR008"]
    text = messages(findings)
    assert "builtin hash()" in text
    assert "cell_fingerprint() argument 2" in text
    assert "os.environ" in text and "a journal record" in text
    assert "unordered iteration" in text and "a sweep id" in text
    assert "a surrogate feature vector" in text
    assert (
        "trace_fingerprint() returns a value influenced by wall-clock time"
        in text
    )
    # hash->fingerprint arg, env->journal record, listdir->sweep id,
    # set-order->feature vector, clock->trace_fingerprint return.
    assert len(findings) == 5


def test_nondeterminism_taint_good_fixture_clean():
    # crc32 salts, sorted() listings and sorted set iteration launder
    # every flow the bad fixture trips on.
    assert lint_fixture("nondeterminism_taint_good", select=["RPR008"]) == []


# ------------------------------------------- RPR009 durability protocol


def test_durability_protocol_bad_fixture_fires():
    findings = lint_fixture("durability_protocol_bad", select=["RPR009"])
    assert codes(findings) == ["RPR009"]
    text = messages(findings)
    assert "raw write_text write touches lease state" in text
    assert "raw open write touches journal state" in text
    assert "passes a lease path into scribble()" in text
    assert "raw os.unlink write touches trace state" in text
    assert "O_CREAT|O_EXCL" in text and "CRC-framed" in text
    # direct lease write, direct journal rewrite, call-mediated lease
    # write through a helper, raw trace deletion.
    assert len(findings) == 4


def test_durability_protocol_good_fixture_clean():
    # The blessed helpers themselves, the CRC appender module and the
    # durability module's quarantine are exempt — as are calls into them.
    assert lint_fixture("durability_protocol_good", select=["RPR009"]) == []


# --------------------------------------------- RPR010 exception safety


def test_exception_safety_bad_fixture_fires():
    findings = lint_fixture("exception_safety_bad", select=["RPR010"])
    assert codes(findings) == ["RPR010"]
    text = messages(findings)
    assert "the worker/retry path" in text
    assert "the coordinator path" in text
    assert "the CLI path" in text
    assert len(findings) == 3


def test_exception_safety_good_fixture_clean():
    # Re-raise, typed conversion through a SweepError-raising helper,
    # a justified suppression and narrow handlers are all compliant.
    assert lint_fixture("exception_safety_good", select=["RPR010"]) == []


# ------------------------------------------------- suppression and walking


def test_inline_suppressions_silence_findings():
    assert lint_fixture("suppressed", select=["RPR001"]) == []


def test_pycache_and_artifacts_not_scanned(tmp_path):
    pkg = tmp_path / "sim"
    pkg.mkdir()
    (pkg / "ok.py").write_text("x = 1\n")
    cache = pkg / "__pycache__"
    cache.mkdir()
    (cache / "stale.py").write_text("y = hash(object())\n")
    (pkg / "ok.pyc").write_bytes(b"\x00not python")
    assert run_lint(Project(root=tmp_path), select=["RPR001"]) == []


# ----------------------------------------------------------------- baseline


def test_baseline_round_trip_and_one_shot_absorption(tmp_path):
    findings = lint_fixture("determinism_bad", select=["RPR001"])
    assert findings
    path = tmp_path / "lint-baseline.json"
    write_baseline(findings, path)

    baseline = load_baseline(path)
    new, old = apply_baseline(findings, baseline)
    assert new == [] and len(old) == len(findings)

    # A *second* instance of a grandfathered finding is not absorbed:
    # each baseline entry covers exactly one occurrence.
    duplicated = findings + [findings[0]]
    new, old = apply_baseline(duplicated, baseline)
    assert len(new) == 1 and new[0].fingerprint() == findings[0].fingerprint()


def test_baseline_is_line_number_independent(tmp_path):
    finding = lint_fixture("determinism_bad", select=["RPR001"])[0]
    path = tmp_path / "lint-baseline.json"
    write_baseline([finding], path)
    moved = Finding(
        code=finding.code,
        path=finding.path,
        rel=finding.rel,
        line=finding.line + 40,
        col=0,
        message=finding.message,
    )
    new, old = apply_baseline([moved], load_baseline(path))
    assert new == [] and old == [moved]


def test_baseline_version_mismatch_rejected(tmp_path):
    path = tmp_path / "lint-baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError, match="baseline version"):
        load_baseline(path)


# --------------------------------------------------------------------- CLI


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or str(REPO_ROOT),
        env=env,
    )


def test_cli_exit_zero_and_clean_on_good_fixture():
    proc = run_cli(str(FIXTURES / "determinism_good"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro-lint: clean" in proc.stdout


def test_cli_exit_nonzero_with_text_findings_on_bad_fixture():
    proc = run_cli(str(FIXTURES / "determinism_bad"), "--select", "RPR001")
    assert proc.returncode == 1
    assert "RPR001" in proc.stdout
    assert "builtin hash()" in proc.stdout


def test_cli_json_output_is_machine_readable():
    proc = run_cli(
        str(FIXTURES / "determinism_bad"), "--select", "RPR001",
        "--output", "json",
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["new"] == len(payload["findings"]) > 0
    assert payload["baselined"] == 0
    first = payload["findings"][0]
    assert first["code"] == "RPR001"
    assert {"path", "project_path", "line", "col", "message"} <= set(first)


def test_cli_github_output_emits_error_annotations():
    proc = run_cli(
        str(FIXTURES / "determinism_bad"), "--select", "RPR001",
        "--output", "github",
    )
    assert proc.returncode == 1
    assert "::error file=" in proc.stdout
    assert "title=repro-lint RPR001" in proc.stdout


def test_cli_write_baseline_then_grandfathered_run(tmp_path):
    target = str(FIXTURES / "determinism_bad")
    proc = run_cli(target, "--select", "RPR001", "--write-baseline",
                   cwd=tmp_path)
    assert proc.returncode == 0
    assert (tmp_path / "lint-baseline.json").exists()

    proc = run_cli(target, "--select", "RPR001", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[baselined]" in proc.stdout
    assert "0 finding(s)" in proc.stdout

    # ``github`` output downgrades grandfathered findings to notices.
    proc = run_cli(target, "--select", "RPR001", "--output", "github",
                   cwd=tmp_path)
    assert proc.returncode == 0
    assert "::notice file=" in proc.stdout
    assert "::error" not in proc.stdout


def test_cli_findings_byte_identical_across_hash_seeds(tmp_path):
    """Hash-seed order must not leak into the report: two runs under
    different PYTHONHASHSEEDs produce byte-identical JSON."""
    target = str(FIXTURES / "nondeterminism_taint_bad")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        )
        env["PYTHONHASHSEED"] = seed
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", target,
             "--select", "RPR008", "--output", "json"],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env=env,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["new"] == 5


def test_cli_missing_path_exits_two():
    proc = run_cli("does/not/exist")
    assert proc.returncode == 2
    assert "no such path" in proc.stderr


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == RULE_CODES


# ---------------------------------------------------------------- live tree


def test_live_tree_has_no_non_baselined_findings():
    """The gate CI enforces: the installed package lints clean modulo
    the committed baseline (none is currently needed)."""
    findings = run_lint(Project(root=default_scan_root()))
    baseline_file = REPO_ROOT / "lint-baseline.json"
    if baseline_file.exists():
        new, _ = apply_baseline(findings, load_baseline(baseline_file))
    else:
        new = findings
    assert new == [], "\n".join(f.format() for f in new)


# ------------------------------------------------- bug reintroduction gates


@pytest.fixture()
def mutable_tree(tmp_path):
    """A throwaway copy of the live package, safe to break."""
    root = tmp_path / "repro"
    shutil.copytree(
        SRC_DIR / "repro",
        root,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


def reintroduce(path, old, new):
    text = path.read_text()
    assert old in text, f"mutation anchor not found in {path.name}: {old!r}"
    path.write_text(text.replace(old, new, 1))


def test_reintroducing_pr1_hash_bug_fails_lint(mutable_tree):
    engine = mutable_tree / "sim" / "engine.py"
    engine.write_text(
        engine.read_text()
        + "\n\ndef _owner_for(page, n):\n    return hash(page) % n\n"
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR001"])
    assert any("builtin hash()" in f.message for f in findings)


def test_reintroducing_pr3_timing_default_bug_fails_lint(mutable_tree):
    # The historical shape: TimingParams was mutable and one instance
    # was shared as a parameter default across every engine invocation.
    reintroduce(
        mutable_tree / "sim" / "timing.py",
        "@dataclass(frozen=True)\nclass TimingParams:",
        "@dataclass\nclass TimingParams:",
    )
    reintroduce(
        mutable_tree / "sim" / "runner.py",
        "timing: Optional[TimingParams] = None,",
        "timing: Optional[TimingParams] = TimingParams(),",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR003"])
    assert any(
        "TimingParams() instance" in f.message and f.rel == "sim/runner.py"
        for f in findings
    )


def test_engine_drift_in_live_batch_fails_lint(mutable_tree):
    reintroduce(
        mutable_tree / "sim" / "batch.py",
        "_TRANSFER_BYTES = 160",
        "_TRANSFER_BYTES = 128",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR004"])
    assert any(
        "ring transfer payload drifted" in f.message for f in findings
    )


def test_ring_flush_without_payload_fails_lint(mutable_tree):
    # The batched data pass tallies per (home, requester) pair and
    # leaves ring traffic to flush_tallies(); a flush that stops
    # charging the shared payload constant would drop or skew remote
    # transfers.
    reintroduce(
        mutable_tree / "sim" / "batch.py",
        "nbytes = _TRANSFER_BYTES * beyond",
        "nbytes = 128 * beyond",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR004"])
    assert any("defers ring accounting" in f.message for f in findings)


def test_drifted_data_pass_in_live_batch_fails_lint(mutable_tree):
    # Probing the home L2 before the remote cache reorders the pass
    # against DataStage.process.
    reintroduce(
        mutable_tree / "sim" / "batch.py",
        "                if rc_set is not None:\n",
        "                if l2_set is None:\n"
        "                    continue\n"
        "                if rc_set is not None:\n",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR004"])
    assert any(
        "memory-path order of data_pass() is L1 -> L2 -> REMOTE_CACHE"
        in f.message
        for f in findings
    )


def test_data_cache_probe_in_a_live_window_fails_lint(mutable_tree):
    # A window that probes a data cache itself would be a second copy
    # of the data path beside the per-chunk pass.
    reintroduce(
        mutable_tree / "sim" / "batch.py",
        "                pd_buf[a:b] = paddr\n",
        "                pd_buf[a:b] = paddr\n"
        "                machine.l2_caches[0].probe(0)\n",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR004"])
    assert any(
        "vec_window() touches data-path state (L2)" in f.message
        for f in findings
    )


def test_inlined_placement_in_batch_faults_fails_lint(mutable_tree):
    # The bulk fault path inlines the audited map_single sequence and
    # bumps the page-table counters itself; a real placement call next
    # to it would bypass or double-count them.
    reintroduce(
        mutable_tree / "sim" / "batch.py",
        "                    buf_log[r](v, r)\n",
        "                    buf_log[r](v, r)\n"
        "                    machine.pager.map_single(v, granule, r, 0, None)\n",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR004"])
    assert any(
        "calls map_single() directly" in f.message for f in findings
    )


def test_unfenced_bulk_install_fails_lint(mutable_tree):
    # Weakening the call-site fence from the audited-place proof to
    # the mere eligibility flag would run inlined placement for *any*
    # eligible policy, including ones whose place() is overridden.
    reintroduce(
        mutable_tree / "sim" / "batch.py",
        "if bulk_proven and unmapped[j] and not deferred[j]:",
        "if fault_batch_eligible and unmapped[j] and not deferred[j]:",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR004"])
    assert any(
        "outside the bulk_proven fence" in f.message for f in findings
    )


def test_negated_bulk_fence_fails_lint(mutable_tree):
    # A test that merely *reads* bulk_proven is no fence: negating it
    # runs inlined placement for exactly the unaudited policies.
    reintroduce(
        mutable_tree / "sim" / "batch.py",
        "if bulk_proven and unmapped[j] and not deferred[j]:",
        "if not bulk_proven and unmapped[j] and not deferred[j]:",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR004"])
    assert any(
        "outside the bulk_proven fence" in f.message for f in findings
    )


def test_bulk_proof_without_audit_table_fails_lint(mutable_tree):
    # The fence is only as strong as its proof: bulk_proven must be
    # derived from AUDITED_PLACE membership, not eligibility alone.
    reintroduce(
        mutable_tree / "sim" / "batch.py",
        "            in AUDITED_PLACE\n        )",
        "            in frozenset()\n        )",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR004"])
    assert any(
        "bulk_proven is not derived from" in f.message for f in findings
    )


def test_bulk_proof_overwritten_after_the_proof_fails_lint(mutable_tree):
    # One derived assignment is not a proof when a later one discards
    # it: every binding of bulk_proven must carry the audit.
    reintroduce(
        mutable_tree / "sim" / "batch.py",
        "            in AUDITED_PLACE\n        )\n",
        "            in AUDITED_PLACE\n        )\n        bulk_proven = True\n",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR004"])
    assert any(
        "bulk_proven is not derived from" in f.message for f in findings
    )


def test_reintroducing_salted_fingerprint_fails_lint(mutable_tree):
    # The RPR008 shape: a hash()-derived salt slipped into the cell
    # fingerprint payload through a helper call — invisible to the
    # per-call RPR001 check at the fingerprint site itself.
    reintroduce(
        mutable_tree / "sim" / "parallel.py",
        "def cell_fingerprint(",
        "def _fp_salt(cell):\n"
        "    return hash(cell.seed)\n\n\n"
        "def cell_fingerprint(",
    )
    reintroduce(
        mutable_tree / "sim" / "parallel.py",
        '"seed": cell.seed,',
        '"seed": _fp_salt(cell),',
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR008"])
    assert any(
        "cell_fingerprint() returns a value influenced by builtin hash()"
        in f.message
        for f in findings
    )


def test_raw_lease_write_reintroduction_fails_lint(mutable_tree):
    # The RPR009 shape: lease state mutated outside the O_CREAT|O_EXCL
    # + rename helpers, silently breaking steal arbitration.
    path = mutable_tree / "sim" / "coordinator.py"
    path.write_text(
        path.read_text()
        + "\n\ndef _force_release(lease_dir, key):\n"
        '    (lease_dir / (key + ".lease")).write_text("")\n'
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR009"])
    assert any(
        "lease state in _force_release()" in f.message for f in findings
    )


@pytest.mark.parametrize(
    "rel, anchor, mutation, expected",
    [
        (
            "sim/coordinator.py",
            "journal.truncate(offset)",
            "os.truncate(journal.path, offset)",
            "raw os.truncate write touches journal state in "
            "Coordinator._supervise()",
        ),
        (
            "trace/store.py",
            "    # --- materialize (write side) ---\n",
            "    def _quarantine(self, path, reason):\n"
            "        os.replace(path, self.corrupt_dir / path.name)\n\n"
            "    # --- materialize (write side) ---\n",
            "raw os.replace write touches trace state in "
            "TraceStore._quarantine()",
        ),
    ],
    ids=["supervise-truncates-journal", "trace-store-own-quarantine"],
)
def test_protocol_repair_outside_the_durability_surface_fails_lint(
    mutable_tree, rel, anchor, mutation, expected
):
    # The two repairs the protocol files used to carry themselves: a
    # torn journal tail is cut by Journal.truncate and a corrupt archive
    # moved by DurableDir.quarantine, so neither function is blessed.
    reintroduce(mutable_tree / rel, anchor, mutation)
    findings = run_lint(Project(root=mutable_tree), select=["RPR009"])
    assert any(expected in f.message for f in findings)


def test_swallowed_worker_failure_reintroduction_fails_lint(mutable_tree):
    # The RPR010 shape: dropping the typed-failure conversion from the
    # serial worker's broad handler makes errors vanish silently.
    reintroduce(
        mutable_tree / "sim" / "parallel.py",
        '''                if not self._attempt_failed(
                    cells, keys, results, index, attempt, "error", exc,
                    started, transient=False,
                ):
                    return
                attempt += 1
                self._sleep(self._backoff_delay(keys[index], attempt))''',
        "                return",
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR010"])
    assert any(
        "swallows failures in the worker/retry path" in f.message
        for f in findings
    )


# ------------------------------------------------------------------- mypy


def test_mypy_strict_modules_pass():
    pytest.importorskip("mypy")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_torn_cache_write_reintroduction_fails_lint(mutable_tree):
    # The PR 7 bug shape: ResultCache persisting entries with a bare
    # open(..., "w") instead of the atomic staged write.
    reintroduce(
        mutable_tree / "sim" / "parallel.py",
        "        self.write(atomic_write, self.path_for(key), entry)",
        '''        with open(self.path_for(key), "wb") as fh:
            fh.write(entry)''',
    )
    findings = run_lint(Project(root=mutable_tree), select=["RPR006"])
    assert any(
        "direct open(..., 'wb')" in f.message
        and f.rel == "sim/parallel.py"
        for f in findings
    )
