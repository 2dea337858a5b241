//! Observability, shard layout and worker count must be invisible to the
//! simulation: the sweep-workload fingerprints and the fig6 figure bytes
//! must equal the pins recorded before the span layer landed at every
//! shard count, with spans, pooled workers or dense epochs, and with the
//! metrics registry disabled or enabled. The thread-scaling workload's
//! trace pin holds at one worker (shards run inline) and on the pool.

use imobif_bench::instances::{build_sharded_arena, ShardedArenaRun};
use imobif_experiments::figures::fig6;
use imobif_experiments::obs;
use imobif_experiments::runner::{clear_memos, set_thread_count};
use imobif_netsim::{SimTime, DEFAULT_SPAN_CAPACITY};
use imobif_obs::fnv1a64;

/// PR 7's recorded fingerprints for the sweep workload (1 000 nodes,
/// 8 flows, seed 2025, 10 sim-secs; identical at every shard count).
const PR7_SWEEP_TRACE_FNV: u64 = 0x20de_a642_2e6d_913c;
/// See [`PR7_SWEEP_TRACE_FNV`].
const PR7_SWEEP_SUMMARY_FNV: u64 = 0xbca0_645b_b9b7_1a01;
/// The pinned trace fingerprint of the thread-scaling workload (5 000 nodes,
/// 16 flows, 8 shards, seed 2025, 10 sim-secs; identical at every worker
/// count).
const THREAD_SCALING_TRACE_FNV: u64 = 0x112d_658e_8cfd_184f;
/// FNV-1a 64 of `fig6::run(8, 2025).to_csv()` at the pre-observability
/// tip — the figure bytes the instrumented engine must still produce.
const PR7_FIG6_CSV_FNV: u64 = 0x67fd_e585_6d82_96c6;

/// The summary fingerprint the sweep pins: packet totals, event count,
/// bit-exact energy totals, and the first death.
fn summary_fnv(run: &ShardedArenaRun) -> u64 {
    let totals = run.world.totals();
    let summary = format!(
        "{},{},{},{},{},{:016x},{:016x},{:016x},{:016x},{:?}",
        run.delivered_packets(),
        run.world.packets_sent(),
        run.world.packets_delivered(),
        run.world.packets_dropped(),
        run.world.events_processed(),
        totals.data.to_bits(),
        totals.mobility.to_bits(),
        totals.hello.to_bits(),
        totals.notification.to_bits(),
        run.world.first_death(),
    );
    fnv1a64(summary.as_bytes())
}

#[test]
fn sweep_pins_hold_with_spans_disabled_and_enabled() {
    let deadline = SimTime::from_micros(10_000_000);
    // (shards, worker threads, span tracing, dense epochs). The serial
    // spans-off rows are the shipping default at every shard count; the
    // others add full span tracing on pooled workers, and a dense
    // step-every-epoch schedule that the activity scheduler's fast-forward
    // must match. Observability and scheduling may cost wall time, never
    // results.
    let inputs = [
        (1, 1, false, false),
        (2, 1, false, false),
        (4, 1, false, false),
        (8, 1, false, false),
        (16, 1, false, false),
        (8, 2, true, false),
        (8, 1, false, true),
    ];
    for (shards, threads, spans, dense) in inputs {
        let label = format!("{shards} shards, {threads} threads, spans {spans}, dense {dense}");
        let mut run = build_sharded_arena(1_000, 8, shards, 2025, true);
        run.world.set_threads(threads);
        run.world.set_dense_epochs(dense);
        if spans {
            run.world.enable_spans(DEFAULT_SPAN_CAPACITY);
        }
        run.run_until_time(deadline);
        assert_eq!(run.world.trace_fnv(), PR7_SWEEP_TRACE_FNV, "trace FNV drifted ({label})");
        assert_eq!(summary_fnv(&run), PR7_SWEEP_SUMMARY_FNV, "summary FNV drifted ({label})");
        if let Err(e) = run.world.verify_replica_sync() {
            panic!("delta-synced replica diverged from ground truth ({label}): {e}");
        }
        if spans {
            let sink = run.world.spans().expect("spans enabled");
            assert!(sink.recorded() > 0, "spanned run must actually record spans");
        }
    }
}

#[test]
fn fig6_csv_pin_holds() {
    // The runner's worker count and the engine-wide metrics registry are
    // process-global; no other test in this binary touches either. Memos
    // are cleared so every run simulates rather than replaying a cache.
    for workers in [1, 4] {
        set_thread_count(workers);
        for metrics in [false, true] {
            let registry = metrics.then(obs::enable_metrics);
            clear_memos();
            let csv = fig6::run(8, 2025).to_csv();
            obs::disable_metrics();
            assert_eq!(
                fnv1a64(csv.as_bytes()),
                PR7_FIG6_CSV_FNV,
                "fig6 CSV bytes drifted from the pre-observability pin \
                 ({workers} workers, metrics {metrics})"
            );
            if let Some(registry) = registry {
                assert!(
                    registry.snapshot().counter("queue.pushes").unwrap_or(0) > 0,
                    "the enabled registry must capture the fig6 runs"
                );
            }
        }
    }
    set_thread_count(0);
    clear_memos();
}

#[test]
fn thread_scaling_trace_pin_holds_at_every_worker_count() {
    // The inline (one worker) and pooled (several workers) compute steps
    // of the epoch loop must produce the same pinned trace.
    for threads in [1usize, 2, 4] {
        let mut run = build_sharded_arena(5_000, 16, 8, 2025, true);
        run.world.set_threads(threads);
        run.run_until_time(SimTime::from_micros(10_000_000));
        assert_eq!(
            run.world.trace_fnv(),
            THREAD_SCALING_TRACE_FNV,
            "thread-scaling trace FNV drifted at {threads} threads"
        );
    }
}
