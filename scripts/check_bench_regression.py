#!/usr/bin/env python3
"""Fail when a fresh BENCH_micro.json regresses against the checked-in one.

Usage: check_bench_regression.py BASELINE CURRENT [MAX_REGRESS] [--strict-absolute]

Two families of checks, both bounded by MAX_REGRESS (default 0.25):

  * speedup factors — unitless ratios (scalar/vectorized, cold/warm,
    full/partial pricing, presolve off/on). These are the portable solver
    entries: a CI runner is a different machine from wherever the baseline
    was recorded, so absolute microseconds do not transfer, but the ratio
    of two solves measured back-to-back on the same machine does. A factor
    may not drop more than MAX_REGRESS below its baseline value, and the
    comparison only runs when both files measured the same problem sizes
    ("rows" in the solver section), since ratios drift with scale too.
  * absolute solver timings — the us-per-solve / us-per-pivot entries,
    compared only under --strict-absolute (same-machine A/B runs); never
    in CI, where hardware differences would make the guard flaky.
  * parallel speedups — the serial-vs-N-worker ratios in the "parallel"
    section. These scale with the core count, so they are only compared
    when both files were measured with the same worker count on the same
    hardware_threads (a 1-core container measuring ~1x is not a
    regression against an 8-core baseline's 4x, and vice versa).
  * SIMD kernels — the "simd" section of BENCH_micro.json. The
    forced-scalar-vs-SIMD ratios are a property of the instruction set, so
    they are only compared when both files were measured at the same
    dispatch level and row count (a scalar-only container measuring ~1x is
    not a regression against an AVX2 baseline). On AVX2 hardware the
    acceptance floor itself is enforced on the CURRENT run: the SIMD
    predicate scan must beat the forced-scalar kernel by at least 1.5x.
  * CRC-32 — the "crc32" section of BENCH_micro.json: checksum MB/s of
    the dispatched kernel vs the forced slicing-by-8 fallback. The ratio
    is compared only between runs of the same kernel ("level") and buffer
    size. On PCLMULQDQ hosts the floor is enforced on the CURRENT run: the
    dispatched kernel must checksum at least 4x faster than slicing-by-8.
  * dual pricing — the "dse_pricing" section of BENCH_micro.json. Pivot
    counts are deterministic for the fixed knapsack model, so the
    baseline/DSE pivot ratio transfers across machines: the CURRENT run
    must flip bounds, must not take more pivots than the most-violated-row
    baseline, and the ratio may not drop more than MAX_REGRESS below the
    checked-in baseline's when both measured the same re-solve count.
  * cut separation — the "cut_separation" section of BENCH_micro.json:
    one root separation round at 25k and 100k columns. Their ratio
    ("growth") comes from one run, so it transfers across machines; the
    CURRENT run fails when it exceeds 6x (near-linear separation grows
    about 4-5x, a quadratic pass 16x or more).
  * serving throughput — BENCH_serve.json files (bench ==
    "serve_throughput").
    Throughput (qps, lower bound) and tail latency (latency_us.p99, upper
    bound) are absolute, so they are only compared when baseline and
    current ran the same closed-loop workload (clients, iters_per_client)
    on the same hardware_threads.
  * streaming updates — BENCH_update.json files (bench == "update_stream").
    The correctness invariants (incremental repair agrees with a full
    re-run on feasibility, objectives never regress on pure-insert
    batches) are enforced on the CURRENT run unconditionally. The
    incremental-vs-full speedup is compared only when both runs used the
    same rows/tau/batches; at 1M rows and above the paper's promise itself
    is enforced — the incremental path must be at least 5x faster. The
    mean ApplyUpdates time with standing queries (standing.apply_s_mean)
    is absolute, so it is compared only when rows, batches and
    hardware_threads all match the baseline.
  * out-of-core storage — BENCH_scan.json files (bench == "scan_oocore").
    The correctness invariants (disk results bit-identical to memory,
    zone maps pruning blocks, on-disk <= 50% of raw) are enforced on the
    CURRENT run unconditionally — they hold at any scale. So is the
    partition build's read count: it may decode at most 1.1x the distinct
    blocks of its partitioning attributes (each is read once, and no other
    column is read; the representatives of the others fill on demand). The
    guard
    compares counts, not times, so it holds on any machine. The
    scale-dependent numbers (compression ratio, cache hit rate, pruned
    block counts) are compared only when both runs used the same row
    count, and scan throughput additionally requires matching
    hardware_threads.
  * durability — BENCH_recover.json files (bench == "recover_replay").
    The correctness invariant (the session recovered from the WAL matched
    the live one cell-for-cell) is enforced on the CURRENT run
    unconditionally. The scale-dependent numbers — batched-fsync append
    overhead (with its <10% acceptance target) and replay/recovery
    throughput — are compared only when replay_rows, overhead_batches,
    and hardware_threads all match the baseline, which was recorded at
    the full 1M replayed rows.

A missing entry in CURRENT fails: silently dropping a measurement is how
perf regressions hide.
"""
import json
import sys


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    strict_absolute = "--strict-absolute" in sys.argv
    if len(args) < 2:
        print(__doc__)
        return 2
    with open(args[0]) as f:
        base = json.load(f)
    with open(args[1]) as f:
        cur = json.load(f)
    tol = float(args[2]) if len(args) > 2 else 0.25

    failures = []
    base_solver = base.get("solver", {})
    cur_solver = cur.get("solver", {})
    sizes_match = base_solver.get("rows") == cur_solver.get("rows")

    if sizes_match:
        for name, b in base.get("speedup", {}).items():
            c = cur.get("speedup", {}).get(name)
            if c is None:
                failures.append(f"speedup '{name}' missing from current run")
            elif c < b * (1 - tol):
                failures.append(
                    f"speedup '{name}' regressed: {c:g} < {b:g} * (1 - {tol:g})")
            else:
                print(f"ok speedup {name}: {c:g} (baseline {b:g})")
    else:
        print(
            f"skipping speedup comparison: baseline solver rows="
            f"{base_solver.get('rows')} vs current rows="
            f"{cur_solver.get('rows')} (ratios drift with problem size)")

    base_parallel = base.get("parallel", {})
    cur_parallel = cur.get("parallel", {})
    hardware_match = (
        base_parallel.get("hardware_threads") == cur_parallel.get("hardware_threads")
        and base_parallel.get("workers") == cur_parallel.get("workers")
        and base_parallel.get("scan_rows") == cur_parallel.get("scan_rows"))
    if base_parallel and not cur_parallel:
        failures.append("\"parallel\" section missing from current run")
    elif base_parallel and hardware_match:
        for name, b in base_parallel.get("speedup", {}).items():
            c = cur_parallel.get("speedup", {}).get(name)
            if c is None:
                failures.append(f"parallel speedup '{name}' missing from current run")
            elif c < b * (1 - tol):
                failures.append(
                    f"parallel speedup '{name}' regressed: {c:g} < {b:g} "
                    f"* (1 - {tol:g})")
            else:
                print(f"ok parallel speedup {name}: {c:g} (baseline {b:g})")
    elif base_parallel:
        print(
            f"skipping parallel speedups: baseline measured "
            f"{base_parallel.get('workers')} workers on "
            f"{base_parallel.get('hardware_threads')} hardware threads vs "
            f"current {cur_parallel.get('workers')} on "
            f"{cur_parallel.get('hardware_threads')} (core-count-dependent "
            f"ratios do not transfer)")

    base_simd = base.get("simd", {})
    cur_simd = cur.get("simd", {})
    if base_simd and not cur_simd:
        failures.append('"simd" section missing from current run')
    elif base_simd:
        simd_match = (
            base_simd.get("level") == cur_simd.get("level")
            and base_simd.get("rows") == cur_simd.get("rows"))
        if simd_match:
            for name, b in base_simd.get("speedup", {}).items():
                c = cur_simd.get("speedup", {}).get(name)
                if c is None:
                    failures.append(
                        f"simd speedup '{name}' missing from current run")
                elif c < b * (1 - tol):
                    failures.append(
                        f"simd speedup '{name}' regressed: {c:g} < {b:g} "
                        f"* (1 - {tol:g})")
                else:
                    print(f"ok simd speedup {name}: {c:g} (baseline {b:g})")
        else:
            print(
                f"skipping simd speedups: baseline measured level "
                f"'{base_simd.get('level')}' at {base_simd.get('rows')} rows "
                f"vs current '{cur_simd.get('level')}' at "
                f"{cur_simd.get('rows')} (instruction-set-dependent ratios "
                f"do not transfer)")
        # The PR's acceptance floor, enforced on the current run whenever
        # it ran on AVX2 hardware: the SIMD predicate scan must beat the
        # forced-scalar kernel by at least 1.5x.
        if cur_simd.get("level") == "avx2":
            scan = cur_simd.get("speedup", {}).get("simd_predicate_scan")
            if scan is None:
                failures.append(
                    "simd: simd_predicate_scan missing from an avx2 run")
            elif scan < 1.5:
                failures.append(
                    f"simd: predicate scan speedup {scan:g} below the 1.5x "
                    f"floor on avx2")
            else:
                print(f"ok simd 1.5x floor: predicate scan {scan:g}x on avx2")

    base_crc = base.get("crc32", {})
    cur_crc = cur.get("crc32", {})
    if base_crc and not cur_crc:
        failures.append('"crc32" section missing from current run')
    elif cur_crc:
        ratio = cur_crc.get("speedup", {}).get("crc32_dispatched_vs_scalar")
        if ratio is None:
            failures.append("crc32: crc32_dispatched_vs_scalar missing")
        elif (base_crc.get("level") == cur_crc.get("level")
              and base_crc.get("buffer_bytes") == cur_crc.get("buffer_bytes")):
            b = base_crc.get("speedup", {}).get("crc32_dispatched_vs_scalar")
            if b is not None and ratio < b * (1 - tol):
                failures.append(
                    f"crc32 speedup regressed: {ratio:g} < {b:g} "
                    f"* (1 - {tol:g})")
            elif b is not None:
                print(f"ok crc32 speedup: {ratio:g} (baseline {b:g})")
        elif base_crc:
            print(
                f"skipping crc32 speedup: baseline kernel "
                f"'{base_crc.get('level')}' vs current "
                f"'{cur_crc.get('level')}' (kernel-dependent ratios do not "
                f"transfer)")
        # The floor, on the current run wherever PCLMULQDQ folding ran.
        if cur_crc.get("level") == "pclmul" and ratio is not None:
            if ratio < 4.0:
                failures.append(
                    f"crc32: pclmul kernel only {ratio:g}x slicing-by-8, "
                    f"below the 4x floor")
            else:
                print(f"ok crc32 4x floor: {ratio:g}x on pclmul")

    base_dse = base.get("dse_pricing", {})
    cur_dse = cur.get("dse_pricing", {})
    if base_dse and not cur_dse:
        failures.append('"dse_pricing" section missing from current run')
    elif base_dse:
        # Machine-independent invariants on the current run: the long-step
        # ratio test must actually flip bounds, and steepest-edge pricing
        # plus flips must not take more pivots than the baseline rule.
        if not cur_dse.get("bound_flips", 0) > 0:
            failures.append("dse: the long-step ratio test flipped no bounds")
        cur_ratio = cur_dse.get("pivot_ratio")
        if cur_ratio is None:
            failures.append("dse: pivot_ratio missing from current run")
        elif cur_ratio < 1.0:
            failures.append(
                f"dse: steepest-edge + bound flips took MORE pivots than the "
                f"baseline (ratio {cur_ratio:g} < 1)")
        else:
            print(f"ok dse invariants: {cur_dse.get('bound_flips')} flips, "
                  f"pivot ratio {cur_ratio:g}")
        if base_dse.get("resolves") == cur_dse.get("resolves"):
            b_ratio = base_dse.get("pivot_ratio")
            if cur_ratio is not None and b_ratio is not None and \
                    cur_ratio < b_ratio * (1 - tol):
                failures.append(
                    f"dse: pivot ratio regressed: {cur_ratio:g} < {b_ratio:g} "
                    f"* (1 - {tol:g})")
            elif cur_ratio is not None and b_ratio is not None:
                print(f"ok dse pivot ratio: {cur_ratio:g} "
                      f"(baseline {b_ratio:g})")
        else:
            print(
                f"skipping dse pivot-ratio comparison: baseline measured "
                f"{base_dse.get('resolves')} re-solves vs current "
                f"{cur_dse.get('resolves')}")

    base_cut = base.get("cut_separation", {})
    cur_cut = cur.get("cut_separation", {})
    if base_cut and not cur_cut:
        failures.append('"cut_separation" section missing from current run')
    elif cur_cut:
        growth = cur_cut.get("growth")
        if growth is None:
            failures.append("cut separation: growth missing from current run")
        elif growth > 6.0:
            failures.append(
                f"cut separation: one round grew {growth:g}x from the small "
                f"to the large model, past the 6x near-linear bound")
        else:
            print(f"ok cut separation growth: {growth:g}x (bound 6x)")

    if base.get("bench") == "serve_throughput":
        if cur.get("bench") != "serve_throughput":
            failures.append("current run is not a serve bench result")
        serve_match = (
            base.get("hardware_threads") == cur.get("hardware_threads")
            and base.get("clients") == cur.get("clients")
            and base.get("iters_per_client") == cur.get("iters_per_client"))
        if serve_match:
            b_qps, c_qps = base.get("qps"), cur.get("qps")
            if c_qps is None:
                failures.append("serve qps missing from current run")
            elif c_qps < b_qps * (1 - tol):
                failures.append(
                    f"serve throughput regressed: {c_qps:g} qps < {b_qps:g} "
                    f"* (1 - {tol:g})")
            else:
                print(f"ok serve qps: {c_qps:g} (baseline {b_qps:g})")
            b_p99 = base.get("latency_us", {}).get("p99")
            c_p99 = cur.get("latency_us", {}).get("p99")
            if c_p99 is None:
                failures.append("serve latency p99 missing from current run")
            elif c_p99 > b_p99 * (1 + tol):
                failures.append(
                    f"serve p99 latency regressed: {c_p99:g} us > {b_p99:g} "
                    f"us * (1 + {tol:g})")
            else:
                print(f"ok serve p99: {c_p99:g} us (baseline {b_p99:g} us)")
        else:
            print(
                f"skipping serve comparison: baseline ran "
                f"{base.get('clients')} clients x "
                f"{base.get('iters_per_client')} iters on "
                f"{base.get('hardware_threads')} hardware threads vs current "
                f"{cur.get('clients')} x {cur.get('iters_per_client')} on "
                f"{cur.get('hardware_threads')} (absolute throughput and "
                f"latency do not transfer across machines or workloads)")

    if base.get("bench") == "scan_oocore":
        if cur.get("bench") != "scan_oocore":
            failures.append("current run is not a scan_oocore bench result")
        else:
            # Correctness invariants hold at any scale: the bench itself
            # aborts when they fail, so a well-formed current file should
            # always pass these — checking them here catches a bench that
            # silently stopped recording them.
            cur_scan = cur.get("scan", {})
            cur_queries = cur.get("queries", {})
            if cur_scan.get("identical_scans") is not True:
                failures.append("scan: disk scans not identical to memory")
            if cur_queries.get("identical_packages") is not True:
                failures.append("scan: disk packages not identical to memory")
            if not cur_scan.get("selective_blocks_pruned", 0) > 0:
                failures.append("scan: zone maps pruned no blocks")
            cur_ratio = cur.get("on_disk_ratio")
            if cur_ratio is None:
                failures.append("scan: on_disk_ratio missing from current run")
            elif cur_ratio > 0.5:
                failures.append(
                    f"scan: on-disk ratio {cur_ratio:g} exceeds the 50% target")
            else:
                print(f"ok scan invariants: identical results, "
                      f"{cur_scan.get('selective_blocks_pruned')} blocks pruned, "
                      f"on-disk ratio {cur_ratio:g}")
            decodes = cur_queries.get("partition_block_decodes")
            distinct = cur_queries.get("partition_distinct_blocks")
            if decodes is None or distinct is None:
                failures.append("scan: partition_block_decodes or "
                                "partition_distinct_blocks missing from "
                                "current run")
            elif decodes > distinct * 1.1:
                failures.append(
                    f"scan: partition build decoded {decodes} blocks, more "
                    f"than 1.1 x its {distinct} distinct blocks (a column "
                    f"is being re-read, or one that is not an attribute)")
            else:
                print(f"ok scan partition reads: {decodes} block decodes for "
                      f"{distinct} distinct blocks")

            rows_match = base.get("rows") == cur.get("rows")
            if rows_match:
                b_ratio = base.get("on_disk_ratio")
                if cur_ratio is not None and b_ratio is not None and \
                        cur_ratio > b_ratio * (1 + tol):
                    failures.append(
                        f"scan: on-disk ratio regressed: {cur_ratio:g} > "
                        f"{b_ratio:g} * (1 + {tol:g})")
                b_hit = base.get("scan", {}).get("warm_hit_rate")
                c_hit = cur_scan.get("warm_hit_rate")
                if c_hit is None:
                    failures.append("scan: warm_hit_rate missing from current run")
                elif b_hit is not None and c_hit < b_hit * (1 - tol):
                    failures.append(
                        f"scan: warm hit rate regressed: {c_hit:g} < "
                        f"{b_hit:g} * (1 - {tol:g})")
                else:
                    print(f"ok scan warm hit rate: {c_hit:g} "
                          f"(baseline {b_hit:g})")
                b_pruned = base.get("scan", {}).get("selective_blocks_pruned")
                c_pruned = cur_scan.get("selective_blocks_pruned")
                if b_pruned is not None and c_pruned is not None and \
                        c_pruned < b_pruned:
                    # Same data, same query, same block grid: the pruned
                    # count is deterministic, so any drop is a pruning bug.
                    failures.append(
                        f"scan: pruned blocks dropped: {c_pruned} < "
                        f"baseline {b_pruned} at identical scale")
                hardware_match = (base.get("hardware_threads")
                                  == cur.get("hardware_threads"))
                if hardware_match:
                    for key in ("cold_mrows_per_sec", "warm_mrows_per_sec"):
                        b_tp = base.get("scan", {}).get(key)
                        c_tp = cur_scan.get(key)
                        if c_tp is None:
                            failures.append(
                                f"scan: {key} missing from current run")
                        elif b_tp is not None and c_tp < b_tp * (1 - tol):
                            failures.append(
                                f"scan: {key} regressed: {c_tp:g} < "
                                f"{b_tp:g} * (1 - {tol:g})")
                        else:
                            print(f"ok scan {key}: {c_tp:g} "
                                  f"(baseline {b_tp:g})")
                else:
                    print("skipping scan throughput: hardware_threads differ "
                          "(absolute Mrows/s does not transfer across machines)")
            else:
                print(
                    f"skipping scan scale comparisons: baseline rows="
                    f"{base.get('rows')} vs current rows={cur.get('rows')} "
                    f"(compression, hit rates, and block counts drift with "
                    f"scale)")

    if base.get("bench") == "update_stream":
        if cur.get("bench") != "update_stream":
            failures.append("current run is not an update_stream bench result")
        else:
            # Correctness invariants hold at any scale; the bench aborts
            # when they fail, so a well-formed current file should always
            # pass — checking them here catches a bench that silently
            # stopped recording them.
            cur_update = cur.get("update", {})
            cur_standing = cur.get("standing", {})
            if cur_update.get("feasibility_identical") is not True:
                failures.append(
                    "update: incremental and full repair disagreed on "
                    "feasibility")
            if cur_update.get("objective_no_worse") is not True:
                failures.append(
                    "update: incremental repair regressed an objective")
            if not cur_standing.get("repairs", 0) > 0:
                failures.append("update: no standing-query repairs ran")
            if not cur_standing.get("incremental_repairs", 0) > 0:
                failures.append(
                    "update: every standing-query repair fell back to a "
                    "full re-execution")
            print(f"ok update invariants: feasibility identical, objectives "
                  f"no worse, {cur_standing.get('incremental_repairs')}/"
                  f"{cur_standing.get('repairs')} repairs incremental")

            cur_speedup = cur_update.get("speedup_incremental_vs_full")
            scale_match = (
                base.get("rows") == cur.get("rows")
                and base.get("tau") == cur.get("tau")
                and base.get("batches") == cur.get("batches"))
            if scale_match:
                b_speedup = base.get("update", {}).get(
                    "speedup_incremental_vs_full")
                if cur_speedup is None:
                    failures.append(
                        "update: speedup_incremental_vs_full missing from "
                        "current run")
                elif b_speedup is not None and \
                        cur_speedup < b_speedup * (1 - tol):
                    failures.append(
                        f"update: incremental speedup regressed: "
                        f"{cur_speedup:g} < {b_speedup:g} * (1 - {tol:g})")
                else:
                    print(f"ok update speedup: {cur_speedup:g}x "
                          f"(baseline {b_speedup:g}x)")
            else:
                print(
                    f"skipping update speedup comparison: baseline "
                    f"rows={base.get('rows')} tau={base.get('tau')} "
                    f"batches={base.get('batches')} vs current "
                    f"rows={cur.get('rows')} tau={cur.get('tau')} "
                    f"batches={cur.get('batches')} (dirty fractions and "
                    f"fixed costs drift with scale)")
            apply_match = (
                base.get("rows") == cur.get("rows")
                and base.get("batches") == cur.get("batches")
                and base.get("hardware_threads") == cur.get("hardware_threads"))
            b_apply = base.get("standing", {}).get("apply_s_mean")
            c_apply = cur_standing.get("apply_s_mean")
            if apply_match and b_apply is not None:
                if c_apply is None:
                    failures.append(
                        "update: standing.apply_s_mean missing from current run")
                elif c_apply > b_apply * (1 + tol):
                    failures.append(
                        f"update: mean ApplyUpdates regressed: {c_apply:g} s > "
                        f"{b_apply:g} s * (1 + {tol:g})")
                else:
                    print(f"ok update apply_s_mean: {c_apply:g} s "
                          f"(baseline {b_apply:g} s)")
            else:
                print(
                    f"skipping update apply_s_mean comparison: baseline "
                    f"rows={base.get('rows')} batches={base.get('batches')} "
                    f"threads={base.get('hardware_threads')} vs current "
                    f"rows={cur.get('rows')} batches={cur.get('batches')} "
                    f"threads={cur.get('hardware_threads')} (absolute time "
                    f"drifts with scale and hardware)")
            # The PR's acceptance floor: at 1M rows a <=1%-dirty batch must
            # repair at least 5x faster than a full re-evaluation.
            if cur.get("rows", 0) >= 1_000_000:
                if cur_speedup is None or cur_speedup < 5.0:
                    failures.append(
                        f"update: incremental speedup {cur_speedup} below "
                        f"the 5x floor at {cur.get('rows')} rows")
                else:
                    print(f"ok update 5x floor: {cur_speedup:g}x at "
                          f"{cur.get('rows')} rows")

    if base.get("bench") == "recover_replay":
        if cur.get("bench") != "recover_replay":
            failures.append("current run is not a recover_replay bench result")
        else:
            # Correctness invariant, any scale: the bench aborts unless the
            # recovered session matched the live one cell-for-cell, so a
            # well-formed file must say so — a missing/false entry means
            # the bench stopped checking.
            cur_replay = cur.get("replay", {})
            cur_append = cur.get("append", {})
            if cur_replay.get("recovered_matches_live") is not True:
                failures.append(
                    "recover: recovered session did not match the live one")
            else:
                print("ok recover invariant: recovered session matches live")
            if not cur_replay.get("records", 0) > 0:
                failures.append("recover: replay saw zero WAL records")

            scale_match = (
                base.get("replay_rows") == cur.get("replay_rows")
                and base.get("overhead_batches") == cur.get("overhead_batches")
                and base.get("hardware_threads") == cur.get("hardware_threads"))
            if scale_match:
                # The PR's acceptance target: batched fsync keeps the
                # end-to-end update overhead under 10%. Absolute percent,
                # not a baseline ratio — the promise is the number itself.
                cur_overhead = cur_append.get("overhead_batch_pct")
                if cur_overhead is None:
                    failures.append(
                        "recover: overhead_batch_pct missing from current run")
                elif cur_overhead > 10.0:
                    failures.append(
                        f"recover: batched WAL append overhead "
                        f"{cur_overhead:g}% exceeds the 10% target")
                else:
                    print(f"ok recover append overhead: {cur_overhead:g}% "
                          f"(target <10%)")
                for name in ("decode_rows_per_s", "recover_rows_per_s"):
                    b_tp = base.get("replay", {}).get(name)
                    c_tp = cur_replay.get(name)
                    if c_tp is None:
                        failures.append(
                            f"recover: replay {name} missing from current run")
                    elif b_tp is not None and c_tp < b_tp * (1 - tol):
                        failures.append(
                            f"recover: replay {name} regressed: {c_tp:g} < "
                            f"{b_tp:g} * (1 - {tol:g})")
                    else:
                        print(f"ok recover {name}: {c_tp:g} "
                              f"(baseline {b_tp:g})")
            else:
                print(
                    f"skipping recover perf comparison: baseline "
                    f"replay_rows={base.get('replay_rows')} "
                    f"batches={base.get('overhead_batches')} "
                    f"threads={base.get('hardware_threads')} vs current "
                    f"replay_rows={cur.get('replay_rows')} "
                    f"batches={cur.get('overhead_batches')} "
                    f"threads={cur.get('hardware_threads')} (fsync cost and "
                    f"replay throughput drift with scale and hardware)")

    if strict_absolute and sizes_match:
        for name, b in base_solver.get("entries", {}).items():
            c = cur_solver.get("entries", {}).get(name)
            if c is None:
                failures.append(f"solver entry '{name}' missing from current run")
            elif c > b * (1 + tol):
                failures.append(
                    f"solver entry '{name}' regressed: {c:g} us > {b:g} us "
                    f"* (1 + {tol:g})")
            else:
                print(f"ok solver {name}: {c:g} us (baseline {b:g} us)")
    elif strict_absolute:
        print("skipping absolute solver entries: problem sizes differ")
    else:
        print("skipping absolute solver entries (pass --strict-absolute on a "
              "same-machine A/B run)")

    if failures:
        print("\nPERF REGRESSION GUARD FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nperf guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
