//! `sharded_arena`: the 100k-node constant-density arena through
//! `ShardedWorld`, driven in simulated-time slices.

use std::sync::Arc;
use std::time::Instant;

use imobif_experiments::spans_tools::build_sharded_workload;
use imobif_netsim::{Application, NodeId, ShardedWorld, SimTime, DEFAULT_SPAN_CAPACITY};
use imobif_obs::span::phase;
use imobif_obs::Registry;

use crate::checks::{Fingerprint, Tally};
use crate::host::Stopwatch;
use crate::layers::Layers;
use crate::traced::{build_sharded_traced, AppAcc};
use crate::Job;

const NODES: usize = 100_000;
const FLOWS: usize = 64;
const SHARDS: usize = 64;
const SIM_SECS: u64 = 5;
/// Each slice is one operation: 100 ms of simulated time.
const SLICES: u64 = 50;

fn deadline(slice: u64) -> SimTime {
    SimTime::from_micros(SIM_SECS * 1_000_000 * slice / SLICES)
}

/// Everything the simulation produced, for rep-vs-rep comparison.
fn fingerprint<A: Application>(w: &ShardedWorld<A>, delivered_packets: u64) -> u64 {
    let mut fp = Fingerprint::default();
    fp.u64(w.events_processed());
    fp.u64(w.packets_sent());
    fp.u64(w.packets_delivered());
    fp.u64(w.packets_dropped());
    fp.u64(delivered_packets);
    let e = w.totals();
    for j in [e.data, e.mobility, e.hello, e.notification] {
        fp.f64(j);
    }
    let k = w.kernel_stats();
    fp.u64(k.hello_beacons);
    fp.u64(k.timers_fired);
    for b in k.hello_fanout_bins {
        fp.u64(b);
    }
    fp.value()
}

fn post_checks<A: Application>(w: &ShardedWorld<A>, delivered: u64, tally: &mut Tally) {
    tally.op(if delivered > 0 { Ok(()) } else { Err("arena delivered no packets".into()) });
    tally.op(w.verify_replica_sync().map_err(|e| format!("replica sync: {e}")));
}

/// One job: build, then run `SIM_SECS` in `SLICES` slices.
pub fn job(seed: u64, threads: usize, layers: Option<&mut Layers>) -> Job {
    let mut tally = Tally::default();
    match layers {
        None => {
            let t = Instant::now();
            let mut run = build_sharded_workload(NODES, FLOWS, SHARDS, seed, false);
            run.world.set_threads(threads);
            let setup_s = t.elapsed().as_secs_f64();
            let mut sw = Stopwatch::start();
            for i in 1..=SLICES {
                run.world.run_until(deadline(i));
                sw.lap();
                tally.op(Ok(()));
            }
            let peak_heap_mib = crate::heap::peak_mib();
            let delivered = run.delivered_packets();
            post_checks(&run.world, delivered, &mut tally);
            let fingerprint = fingerprint(&run.world, delivered);
            Job { setup_s, laps: sw.laps(), peak_heap_mib, tally, fingerprint }
        }
        Some(l) => {
            let acc = Arc::new(AppAcc::default());
            let t = Instant::now();
            let (mut world, flows, packet_bits) =
                build_sharded_traced(NODES, FLOWS, SHARDS, seed, &acc);
            l.add("shard.build_s", t.elapsed().as_secs_f64());
            world.enable_spans(DEFAULT_SPAN_CAPACITY);
            world.set_threads(threads);
            let setup_s = t.elapsed().as_secs_f64();
            let mut sw = Stopwatch::start();
            let mut slices = Vec::with_capacity(SLICES as usize);
            for i in 1..=SLICES {
                let ts = Instant::now();
                world.run_until(deadline(i));
                slices.push(ts.elapsed().as_secs_f64());
                tally.op(Ok(()));
            }
            sw.lap();
            let peak_heap_mib = crate::heap::peak_mib();
            l.add("shard.run_s", slices.iter().sum::<f64>());
            let slice_ms: Vec<f64> = slices.iter().map(|s| s * 1e3).collect();
            l.samples("shard.slice_ms", &slice_ms);
            let spans = world.spans().expect("spans enabled");
            for (name, ph) in [
                ("shard.sched_s", phase::SCHED),
                ("shard.compute_s", phase::COMPUTE),
                ("shard.barrier_wait_s", phase::BARRIER_WAIT),
                ("shard.obs_apply_s", phase::OBS_APPLY),
                ("shard.xfer_merge_s", phase::XFER_MERGE),
                ("shard.replica_sync_s", phase::REPLICA_SYNC),
            ] {
                l.add(name, spans.total_secs(ph));
            }
            let profile = world.epoch_profile().expect("spans enabled");
            l.add("shard.epochs", profile.epochs as f64);
            l.add("shard.shard_epochs", profile.shard_epochs as f64);
            l.add("shard.observations", profile.observations_applied as f64);
            let registry = Registry::enabled();
            world.publish_metrics(&registry);
            let ff = registry.snapshot().counter("shard.fast_forward.epochs").unwrap_or(0);
            l.add("shard.fast_forward_epochs", ff as f64);
            acc.publish(l, 1.0);
            for i in 0..world.node_count() {
                let c = world.app(NodeId::new(i as u32)).inner.counters();
                l.add("imobif.cache_hits", c.cache_hits as f64);
                l.add("imobif.cache_lookups", (c.cache_hits + c.cache_misses) as f64);
            }
            let mut delivered = 0;
            for &(flow, dst) in &flows {
                let dest = world.app(dst).inner.dest(flow);
                delivered += dest.map_or(0, |d| d.received_bits) / packet_bits;
                l.add("imobif.notifications", dest.map_or(0, |d| d.notifications_sent) as f64);
            }
            post_checks(&world, delivered, &mut tally);
            let fingerprint = fingerprint(&world, delivered);
            Job { setup_s, laps: sw.laps(), peak_heap_mib, tally, fingerprint }
        }
    }
}

/// Once per invocation: the same arena run to the horizon in one call must
/// match the sliced repetitions.
pub fn unsliced_fingerprint(seed: u64, threads: usize) -> u64 {
    let mut run = build_sharded_workload(NODES, FLOWS, SHARDS, seed, false);
    run.world.set_threads(threads);
    run.world.run_until(deadline(SLICES));
    fingerprint(&run.world, run.delivered_packets())
}
