//! The epoch-barrier worker pool: the pooled executor of
//! [`Simulator`](crate::Simulator)'s drain (DESIGN.md §12).
//!
//! Shards are whole switches, statically assigned to workers (switch `i` →
//! worker `i % W` unless the assignment was scrambled for testing). Each
//! dispatched drain is one epoch: the coordinator hands every worker the
//! due switches it owns, the workers run the drain's
//! [`visit`](crate::sim::visit) on them concurrently — each switch
//! recording telemetry into the buffer it owns — and reply with one
//! [`ShardResult`] per switch. The coordinator then settles the replies
//! in canonical switch-index order, flushing those buffers as it goes,
//! which is what makes the output byte-identical to inline execution at
//! any worker count.
//!
//! Which switches are due, and whether a visited switch is pumped, is the
//! drain's business; a worker visits exactly what it is handed. Workers
//! never touch the event wheel, the topology, or each other's switches;
//! cross-shard effects (wire deliveries, fabric-exit packets) travel
//! through `ShardResult::batch` and are applied serially at the barrier.

use crate::sim::{visit, Visit};
use rmt_sim::{SharedSwitch, TxPacket};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// What one switch produced during one epoch's visit.
pub(crate) struct ShardResult {
    /// Fabric index of the switch this came from.
    pub switch: usize,
    pub visit: Visit,
    /// Transmitted packets with their frame length, in transmit order.
    pub batch: Vec<(TxPacket, u32)>,
}

enum Msg {
    /// Visit these switches (fabric indices, all owned by the receiver).
    Go(Vec<usize>),
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
    /// Switch → owning worker.
    owner: Vec<usize>,
}

impl WorkerPool {
    /// Spawn `workers` threads over `switches`. Switch `i` belongs to
    /// worker `assignment[i] % workers` (the canonical `i % workers`
    /// without one) for the pool's lifetime.
    pub fn new(switches: &[SharedSwitch], workers: usize, assignment: Option<&[usize]>) -> Self {
        let owner: Vec<usize> = (0..switches.len())
            .map(|i| assignment.map_or(i, |a| a[i]) % workers)
            .collect();
        let workers = (0..workers)
            .map(|w| {
                let (go_tx, go_rx) = mpsc::channel::<Msg>();
                let (reply_tx, reply_rx) = mpsc::channel::<Vec<ShardResult>>();
                let owned: Vec<Option<SharedSwitch>> = switches
                    .iter()
                    .zip(&owner)
                    .map(|(sw, &o)| (o == w).then(|| sw.clone()))
                    .collect();
                let join = std::thread::Builder::new()
                    .name(format!("mantis-pump-{w}"))
                    .spawn(move || worker_loop(&owned, &go_rx, &reply_tx))
                    .expect("spawn pump worker");
                Worker {
                    go_tx,
                    reply_rx,
                    join: Some(join),
                }
            })
            .collect();
        WorkerPool { workers, owner }
    }

    /// Run one epoch: every worker that owns a switch of `due` visits its
    /// share concurrently; the others are not woken. Returns one reply
    /// per dispatched worker, each in that worker's share of `due` order —
    /// the caller re-sorts by switch index for the canonical merge.
    pub fn run_epoch(&self, due: &[usize]) -> Vec<Vec<ShardResult>> {
        let mut shares: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for &i in due {
            shares[self.owner[i]].push(i);
        }
        let dispatched: Vec<&Worker> = self
            .workers
            .iter()
            .zip(shares)
            .filter(|(_, share)| !share.is_empty())
            .map(|(w, share)| {
                w.go_tx.send(Msg::Go(share)).expect("pump worker alive");
                w
            })
            .collect();
        dispatched
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
    owned: &[Option<SharedSwitch>],
    go_rx: &mpsc::Receiver<Msg>,
    reply_tx: &mpsc::Sender<Vec<ShardResult>>,
) {
    while let Ok(Msg::Go(share)) = go_rx.recv() {
        let results = share
            .into_iter()
            .map(|idx| {
                let mut sw = owned[idx]
                    .as_ref()
                    .expect("dispatched to the owner")
                    .borrow_mut();
                let mut batch = Vec::new();
                let visit = visit(&mut sw, &mut batch);
                ShardResult {
                    switch: idx,
                    visit,
                    batch,
                }
            })
            .collect();
        if reply_tx.send(results).is_err() {
            break;
        }
    }
}
