//! The epoch-barrier worker pool behind [`Simulator`](crate::Simulator)'s
//! parallel drain (DESIGN.md §12).
//!
//! Shards are whole switches, statically assigned to workers (switch `i` →
//! worker `i % W` unless the assignment was scrambled for testing). Each
//! drain is one epoch: the coordinator broadcasts a `Go`, every worker
//! pumps its owned switches concurrently — recording telemetry into that
//! switch's staging buffer — and replies with one
//! [`ShardResult`] per switch. The coordinator then merges stagings and
//! routes transmit batches in canonical switch-index order, which is what
//! makes the output byte-identical to the sequential engine at any worker
//! count.
//!
//! Workers never touch the event heap, the topology, or each other's
//! switches; cross-shard effects (wire deliveries, fabric-exit packets)
//! travel through `ShardResult::batch` and are applied serially at the
//! barrier.

use mantis_telemetry::Telemetry;
use rmt_sim::{SharedSwitch, TxPacket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// What one switch produced during one epoch's pump.
pub(crate) struct ShardResult {
    /// Fabric index of the switch this came from.
    pub switch: usize,
    /// Packets served (the deterministic work unit for scaling stats).
    pub work: u64,
    /// Transmitted packets with their frame length, in transmit order.
    pub batch: Vec<(TxPacket, u32)>,
    /// Packets still waiting in the switch's TM after the pump; the
    /// coordinator uses it to refresh the busy flag.
    pub queued: u64,
    /// The staging telemetry buffer recorded during the pump; folded into
    /// the main registry in switch-index order at the barrier.
    pub staging: Arc<Telemetry>,
}

enum Msg {
    Go,
    Shutdown,
}

struct Worker {
    go_tx: mpsc::Sender<Msg>,
    reply_rx: mpsc::Receiver<Vec<ShardResult>>,
    join: Option<JoinHandle<()>>,
}

/// A fixed pool of pump workers with static shard ownership.
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Spawn one thread per entry of `shards`; `shards[w]` is the list of
    /// `(switch_index, handle)` pairs worker `w` owns for the pool's
    /// lifetime. `busy` is the coordinator's per-switch activity flags:
    /// workers skip owned switches whose flag is clear (an idle pump has
    /// no side effects, so skipping is byte-exact). The coordinator only
    /// writes the flags outside epochs; the `Go` channel send orders
    /// those writes before the workers' relaxed reads.
    pub fn new(shards: Vec<Vec<(usize, SharedSwitch)>>, busy: Arc<Vec<AtomicBool>>) -> Self {
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(w, owned)| {
                let (go_tx, go_rx) = mpsc::channel::<Msg>();
                let (reply_tx, reply_rx) = mpsc::channel::<Vec<ShardResult>>();
                let busy = busy.clone();
                let join = std::thread::Builder::new()
                    .name(format!("mantis-pump-{w}"))
                    .spawn(move || worker_loop(&owned, &busy, &go_rx, &reply_tx))
                    .expect("spawn pump worker");
                Worker {
                    go_tx,
                    reply_rx,
                    join: Some(join),
                }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Run one epoch: pump every shard concurrently, gather every worker's
    /// results. `out[w]` holds worker `w`'s shard results in its ownership
    /// order — the caller re-sorts by switch index for the canonical merge.
    pub fn run_epoch(&self) -> Vec<Vec<ShardResult>> {
        for w in &self.workers {
            w.go_tx.send(Msg::Go).expect("pump worker alive");
        }
        self.workers
            .iter()
            .map(|w| w.reply_rx.recv().expect("pump worker reply"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.go_tx.send(Msg::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(join) = w.join.take() {
                let _ = join.join();
            }
        }
    }
}

fn worker_loop(
    owned: &[(usize, SharedSwitch)],
    busy: &[AtomicBool],
    go_rx: &mpsc::Receiver<Msg>,
    reply_tx: &mpsc::Sender<Vec<ShardResult>>,
) {
    // One `(main, staging)` pair per owned switch for the pool's lifetime:
    // the staging shares the main registry's name table, so the handles
    // the switch resolved against `main` stay valid across the swap, and
    // `merge_from` leaves it empty (capacity kept) for the next epoch.
    let mut stagings: Vec<Option<(Arc<Telemetry>, Arc<Telemetry>)>> = vec![None; owned.len()];
    while let Ok(Msg::Go) = go_rx.recv() {
        let results = owned
            .iter()
            .zip(&mut stagings)
            .filter(|((idx, _), _)| busy[*idx].load(Ordering::Relaxed))
            .filter_map(|((idx, handle), slot)| {
                let mut sw = handle.borrow_mut();
                // Same provable-no-op skip as the serial drain: queued
                // packets none of which can serve yet leave the switch
                // busy for a later epoch.
                if sw.tm_queued() > 0 && !sw.tx_ready() {
                    return None;
                }
                // Record this pump into a private staging buffer so
                // concurrent shards never interleave writes to the shared
                // registry; the coordinator merges in switch-index order.
                let main = sw.telemetry().clone();
                let staging = match slot {
                    Some((of, staging)) if Arc::ptr_eq(of, &main) => staging.clone(),
                    // First epoch, or the switch was re-pointed at
                    // another registry since.
                    _ => {
                        let staging = main.staging_for_switch(*idx);
                        *slot = Some((main.clone(), staging.clone()));
                        staging
                    }
                };
                sw.set_telemetry(staging.clone());
                let work = sw.pump();
                sw.set_telemetry(main);
                let queued = sw.tm_queued();
                let batch = sw
                    .take_transmitted()
                    .into_iter()
                    .map(|pkt| {
                        let bytes = pkt.phv.frame_len(sw.spec());
                        (pkt, bytes)
                    })
                    .collect();
                Some(ShardResult {
                    switch: *idx,
                    work,
                    batch,
                    queued,
                    staging,
                })
            })
            .collect();
        if reply_tx.send(results).is_err() {
            break;
        }
    }
}
