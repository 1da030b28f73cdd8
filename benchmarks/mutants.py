"""The mutant table: hand mutations each battery must kill.

``python benchmarks/mutants.py [ID ...]`` copies this checkout (without
``.git`` and caches) to a temporary directory, then plants one row at a
time: the row's ``snippet`` must occur exactly once in its ``file``
(otherwise the row is stale), it is replaced by ``replacement``, and the
row's test files run with ``pytest -x``.  A row is killed when pytest
reports a failing test (exit code 1); any other outcome — the tests pass,
or pytest cannot collect them — fails the row.  The file is restored
before the next row.  Exit status 0 means every row was killed, 1 that a
row survived or was stale.  With IDs only those rows run.

Each row's ``pr`` is the change, as CHANGES.md numbers them, that recorded
the mutation as one it planted by hand on a scratch copy or, for a row
first written here, the change that wrote the code it breaks.  The table
is what lets a differential battery run less without checking
less: a shortened or merged battery must still kill every row assigned to
it.  ``tests/test_mutant_table.py`` holds every snippet to one match, so
a refactor that moves a snippet updates the table instead of silently
disarming its row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    pr: int
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


EXECUTOR = "src/repro/engine/executor.py"
MANAGER = "src/repro/bufferpool/manager.py"
WAL = "src/repro/bufferpool/wal.py"
TABLE = "src/repro/bufferpool/table.py"
FASTPATH = "tests/engine/test_executor_fastpath.py"
TABLES = "tests/bufferpool/test_table_differential.py"
DEADLINE = "tests/engine/test_replay_deadline.py"
DEFERRAL = "tests/engine/test_wal_deferral.py"

MUTANTS = (
    # ---------------------------------------------- the executor's loop
    Mutant(
        "turbo-prefetch-hit-keeps-its-bit", 19, EXECUTOR,
        "                        prefetched_bits[frame_id] = 0\n"
        "                        prefetch_hits += 1\n",
        "                        prefetch_hits += 1\n",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-trains-the-raising-request", 28, EXECUTOR,
        "_consume(map(observe, pages[trained : done - raised]))",
        "_consume(map(observe, pages[trained : done]))",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-on-miss-before-training", 28, EXECUTOR,
        "                        if observe is not None:  # everything up to this request\n"
        "                            _consume(map(observe, pages[trained:index]))\n"
        "                            trained = index\n"
        "                        if reader is not None:\n"
        "                            on_miss(page)\n",
        "                        if reader is not None:\n"
        "                            on_miss(page)\n"
        "                        if observe is not None:  # everything up to this request\n"
        "                            _consume(map(observe, pages[trained:index]))\n"
        "                            trained = index\n"
        "                        if reader is not None:\n"
        "                            pass\n",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-ace-write-back-before-the-log", 27, EXECUTOR,
        "if wal is not None:  # WAL-before-data, in _write_back",
        "if False:  # WAL-before-data, in _write_back",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-classic-write-back-before-the-log", 27, EXECUTOR,
        "if wal is not None:  # WAL-before-data, as in _handle_miss",
        "if False:  # WAL-before-data, as in _handle_miss",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-empty-wide-exchange-reads-uncounted", 34, EXECUTOR,
        "                                    # the write post-work is.\n"
        "                                    reads_done += 1\n",
        "                                    # the write post-work is.\n",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-stretch-end-drops-the-write-ticks", 47, EXECUTOR,
        "            device_stats.write_ticks += writebacks_done * write_ticks\n",
        "",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-stretch-end-drops-the-read-charge", 48, EXECUTOR,
        "clock.ticks += reads_done * read_ticks + writebacks_done * write_ticks",
        "clock.ticks += writebacks_done * write_ticks",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-watch-reads-the-clock-without-pending-io", 48, EXECUTOR,
        "now = clock.ticks + reads_done * read_ticks + writebacks_done * write_ticks",
        "now = clock.ticks",
        (DEADLINE,),
    ),
    Mutant(
        "turbo-reused-frame-keeps-the-victims-page", 48, EXECUTOR,
        "                        frame_id = free.pop()\n"
        "                    reads_done += 1\n"
        "                    try:\n"
        "                        payload = device_payloads[page]\n"
        "                    except KeyError:\n"
        "                        payload = None\n"
        "                    page_of[frame_id] = page\n",
        "                        frame_id = free.pop()\n"
        "                        page_of[frame_id] = page\n"
        "                    reads_done += 1\n"
        "                    try:\n"
        "                        payload = device_payloads[page]\n"
        "                    except KeyError:\n"
        "                        payload = None\n",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-raising-exit-counts-no-hit", 48, EXECUTOR,
        "stats.hits += done - misses",
        "stats.hits += done - misses - raised",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-raising-exit-counts-the-failed-write", 18, EXECUTOR,
        "write_requests = sum(writes[:done])",
        "write_requests = sum(writes[:done - raised])",
        (FASTPATH,),
    ),
    Mutant(
        "turbo-raising-exit-skips-write-out", 41, EXECUTOR,
        "if wal.unwritten:  # the log is observable again: store its pages",
        "if wal.unwritten and not raised:",
        (DEFERRAL,),
    ),
    Mutant(
        "log-stretch-no-repeat-step-back", 27, EXECUTOR,
        "if len(set(written)) < len(written):",
        "if False:",
        (FASTPATH,),
    ),
    Mutant(
        "log-stretch-drops-the-bare-flush", 41, EXECUTOR,
        "    if flushes:\n",
        "    if flushes and written:\n",
        (DEFERRAL, FASTPATH),
    ),
    Mutant(
        "log-stretch-cuts-after-the-flushed-write", 49, EXECUTOR,
        "cuts = list(map(bisect_left, repeat(list(compress(",
        "cuts = list(map(__import__('bisect').bisect_right, repeat(list(compress(",
        (DEFERRAL,),
    ),
    Mutant(
        "log-stretch-last-version-from-the-frame-only", 49, EXECUTOR,
        "last = dict(zip(written, map(device_payloads.get, written)))",
        "last = dict(zip(written, map(payloads.__getitem__, map(\n"
        "            frame_of.__getitem__, written))))",
        (DEFERRAL,),
    ),
    Mutant(
        "log-stretch-last-version-from-the-device-only", 49, EXECUTOR,
        "        last.update(zip(resident, map(\n"
        "            payloads.__getitem__, map(frame_of.__getitem__, resident)\n"
        "        )))\n",
        "",
        (DEFERRAL,),
    ),
    Mutant(
        "log-stretch-keeps-the-flushes", 49, EXECUTOR,
        "        flushes.clear()\n",
        "",
        (DEFERRAL,),
    ),
    Mutant(
        "cut-one-request-past-the-deadline", 31, EXECUTOR,
        "cut = done + max(1, -((now + done * op_ticks - until_ticks) // op_ticks))",
        "cut = done + 1 + max(1, -((now + done * op_ticks - until_ticks) // op_ticks))",
        (DEADLINE,),
    ),
    Mutant(
        "cut-one-request-past-the-page-fill", 41, EXECUTOR,
        "cut = min(cut, write_at[index] + 1)",
        "cut = min(cut, write_at[index] + 2)",
        (DEFERRAL,),
    ),
    Mutant(
        "hand-off-ignores-the-deadline", 39, EXECUTOR,
        "            if until_ticks is not None and manager.device.clock.ticks >= until_ticks:\n"
        "                return done\n",
        "",
        (DEADLINE,),
    ),
    Mutant(
        "hand-off-drops-the-stall-offset", 39, EXECUTOR,
        "stalls.append((start + done - 1, clock.ticks - mark))",
        "stalls.append((done - 1, clock.ticks - mark))",
        (DEADLINE,),
    ),
    Mutant(
        "hooked-wal-takes-the-inlined-loop", 27, EXECUTOR,
        "        and (wal is None or wal.flush_hook is None)\n",
        "",
        (FASTPATH,),
    ),
    # ----------------------------------------------- the miss routine
    Mutant(
        "write-back-skips-the-log-flush", 34, MANAGER,
        "            # WAL-before-data: log records covering these pages must be\n"
        "            # durable before the pages themselves are written.\n"
        "            self.wal.flush()\n",
        "            pass\n",
        (FASTPATH,),
    ),
    Mutant(
        "evict-forgets-unused-prefetches", 34, MANAGER,
        "        stats.prefetch_unused += unused\n",
        "",
        (FASTPATH,),
    ),
    Mutant(
        "evict-drops-the-prefix", 34, MANAGER,
        "            self._evict(pages[:index])\n            raise error\n",
        "            raise error\n",
        ("tests/bufferpool/test_manager.py",),
    ),
    Mutant(
        "fetch-batch-counts-the-missed-page", 38, MANAGER,
        "self.stats.prefetch_issued += n - 1",
        "self.stats.prefetch_issued += n",
        (FASTPATH,),
    ),
    Mutant(
        "fetch-batch-no-repeat-check", 38, MANAGER,
        "            or len(set(pages)) < n\n",
        "",
        ("tests/core/test_components.py", "tests/bufferpool/test_manager.py"),
    ),
    Mutant(
        "transition-ignores-the-listener", 33, MANAGER,
        "    def transition(page: int) -> None:\n        update(page)\n        note(page)\n",
        "    def transition(page: int) -> None:\n        update(page)\n",
        (FASTPATH,),
    ),
    # ------------------------------------------------------ the policy
    Mutant(
        "lru-peek-without-its-pinned-gate", 42, "src/repro/policies/lru.py",
        "    def peek(self, n: int) -> list[int]:\n        if self._pinned or n < 0:\n",
        "    def peek(self, n: int) -> list[int]:\n        if n < 0:\n",
        ("tests/policies/test_virtual_order_differential.py",),
    ),
    Mutant(
        "cflru-note-dirty-a-no-op", 33, "src/repro/policies/cflru.py",
        "        if page in self._window:\n            self._window_dirty += 1\n",
        "        pass\n",
        (FASTPATH,),
    ),
    Mutant(
        "lru-hooks-ignore-an-override", 33, "src/repro/policies/lru.py",
        "        if inherited(hit, LRUPolicy.on_access):\n"
        "            hit = order.move_to_end\n",
        "        hit = order.move_to_end\n",
        ("tests/policies/test_policy_hooks.py",),
    ),
    Mutant(
        "cflru-remove-ignores-dirt", 33, "src/repro/policies/cflru.py",
        "            is_dirty = self._view.is_dirty\n"
        "            if is_dirty(page):\n"
        "                self._window_dirty -= 1\n",
        "            is_dirty = self._view.is_dirty\n",
        ("tests/policies/test_virtual_order_differential.py",),
    ),
    Mutant(
        "sanitizer-skips-the-wal-checks", 27, "src/repro/analyze/sanitizer.py",
        "        self._check_wal_index(operation)\n",
        "",
        ("tests/analyze/test_sanitizer.py",),
    ),
    # --------------------------------------------------------- the WAL
    Mutant(
        "append-deferred-durable-one-page-short", 41, WAL,
        "self.durable_lsn += filled * per_page",
        "self.durable_lsn += (filled - 1) * per_page",
        (FASTPATH,),
    ),
    Mutant(
        "append-deferred-flushes-an-empty-group", 41, WAL,
        "groups = list(filter(None, chain.from_iterable(map(",
        "groups = list(iter(chain.from_iterable(map(",
        (FASTPATH,),
    ),
    Mutant(
        "write-out-first-lsn-off-by-one", 41, WAL,
        "firsts = list(map(add, bounds[:-1], repeat(1)))",
        "firsts = list(map(add, bounds[:-1], repeat(0)))",
        (FASTPATH,),
    ),
    Mutant(
        "verify-durable-skips-the-checksums", 37, WAL,
        "                    checksums == _checksum_column(firsts, kinds, pages, payloads)\n",
        "                    True\n",
        ("tests/bufferpool/test_wal_torn.py",),
    ),
    Mutant(
        "verify-durable-lsn-off-by-one", 37, WAL,
        "starts = tuple(accumulate(counts, initial=verified + 1))",
        "starts = tuple(accumulate(counts, initial=verified))",
        ("tests/bufferpool/test_wal_torn.py",),
    ),
    Mutant(
        "append-deferred-segment-closes-as-one-group", 49, WAL,
        "            rest = map(mod, segments, repeat(per_page))\n",
        "            full, rest = repeat(0), segments\n",
        ("tests/bufferpool/test_wal_batch.py",),
    ),
    Mutant(
        "append-batch-fills-at-equality", 29, WAL,
        "if self._pending_records + total < per_page:  # no page fills",
        "if self._pending_records + total <= per_page:  # no page fills",
        ("tests/bufferpool/test_wal_batch.py",),
    ),
    Mutant(
        "wal-checksum-drops-the-kind", 51, WAL,
        "(first_lsn, bytes(map(is_, kinds, repeat(_CHECKPOINT))), pages, payloads), 0\n",
        "(first_lsn, pages, payloads), 0\n",
        ("tests/bufferpool/test_wal_batch.py",),
    ),
    Mutant(
        "wal-checksum-shares-by-identity", 51, WAL,
        "(first_lsn, bytes(map(is_, kinds, repeat(_CHECKPOINT))), pages, payloads), 0\n",
        "(first_lsn, bytes(map(is_, kinds, repeat(_CHECKPOINT))), pages, payloads)\n",
        ("tests/bufferpool/test_wal_batch.py",),
    ),
    # ------------------------------------------- devices and the router
    Mutant(
        "ftl-victim-by-max-rank", 25, "src/repro/storage/ftl.py",
        "victim = min(bucket, key=self._rank_of.__getitem__)",
        "victim = max(bucket, key=self._rank_of.__getitem__)",
        ("tests/storage/test_ftl.py",),
    ),
    Mutant(
        "ftl-no-rank-bump-at-erase", 36, "src/repro/storage/ftl.py",
        "            self._rank_of[victim] += len(valid)\n",
        "",
        ("tests/storage/test_ftl.py",),
    ),
    Mutant(
        "power-failure-lands-the-whole-batch", 43, "src/repro/faults/device.py",
        "        if event.kind is FaultKind.POWER_FAILURE:\n"
        "            raise PowerFailure(\n",
        "        if event.kind is FaultKind.POWER_FAILURE:\n"
        "            base.write_batch(dict(items))\n"
        "            raise PowerFailure(\n",
        ("tests/verify/test_crashpoints.py",),
    ),
    Mutant(
        "router-owners-mod-the-raw-page", 37, "src/repro/cluster/router.py",
        "return list(map(mod, map(hash, pages), repeat(self.num_shards)))",
        "return list(map(mod, pages, repeat(self.num_shards)))",
        ("tests/cluster/test_router.py",),
    ),
    # ------------------------------------------ the two table backends
    Mutant(
        "array-insert-skips-the-ordered-mirror", 6, TABLE,
        "        self._slots[page] = frame_id\n        self._frame_of[page] = frame_id\n",
        "        self._slots[page] = frame_id\n",
        (TABLES,),
    ),
    Mutant(
        "dict-probe-misses-read-as-frame-zero", 6, TABLE,
        "    def __missing__(self, key: int) -> int:\n        return -1\n",
        "    def __missing__(self, key: int) -> int:\n        return 0\n",
        (TABLES,),
    ),
    # ------------------------------------------------- the prefetchers
    Mutant(
        "history-takes-the-last-of-equals", 19, "src/repro/prefetch/history.py",
        "            weakest = weights.index(lowest)\n",
        "            weakest = len(weights) - 1 - weights[::-1].index(lowest)\n",
        (FASTPATH,),
    ),
    Mutant(
        "history-chain-ignores-the-exclusion", 19, "src/repro/prefetch/history.py",
        "                    if weight > best_weight and candidate not in chain:\n",
        "                    if weight > best_weight:\n",
        (FASTPATH,),
    ),
    Mutant(
        "tap-keeps-the-shorter-stream", 19, "src/repro/prefetch/tap.py",
        "        table[expected] = known if known > length else length\n",
        "        table[expected] = length\n",
        (FASTPATH,),
    ),
)


def plant(text: str, mutant: Mutant) -> str | None:
    """``text`` with the row planted, or ``None`` if its snippet does not
    occur exactly once (a stale row)."""
    if text.count(mutant.snippet) != 1:
        return None
    return text.replace(mutant.snippet, mutant.replacement)


def run(mutants: tuple[Mutant, ...]) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
        ))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        for mutant in mutants:
            target = tree / mutant.file
            original = target.read_text()
            planted = plant(original, mutant)
            if planted is None:
                print(f"STALE    {mutant.id}: snippet not found exactly once "
                      f"in {mutant.file}")
                failures += 1
                continue
            target.write_text(planted)
            start = time.perf_counter()
            try:
                outcome = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                     "no:cacheprovider", *mutant.tests],
                    cwd=tree, env=env, capture_output=True, text=True,
                )
            finally:
                target.write_text(original)
            seconds = time.perf_counter() - start
            if outcome.returncode == 1:
                print(f"killed   {mutant.id} (PR {mutant.pr}, {seconds:.1f} s)")
                continue
            failures += 1
            verdict = "SURVIVED" if outcome.returncode == 0 else "ERROR   "
            print(f"{verdict} {mutant.id} (PR {mutant.pr}): pytest exit "
                  f"{outcome.returncode} on {' '.join(mutant.tests)}")
            print(outcome.stdout[-2000:], outcome.stderr[-2000:], sep="\n")
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    rows = {mutant.id: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in rows]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    return run(tuple(rows[name] for name in argv) if argv else MUTANTS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
