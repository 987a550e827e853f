//! Fixture: a marked reactor loop reaching blocking leaves through calls —
//! a mutex lock, and a bounded channel's `send` on a field and on a local
//! taken from a field. `try_send` and an unbounded `Sender::send` never
//! block and stay silent.

use std::sync::mpsc::{Sender, SyncSender};
use std::sync::Mutex;

pub fn io_loop(m: &Mutex<u32>, q: &Queues) {
    // lint:reactor-loop start(io-loop) — the fixture's latency-critical loop
    loop {
        step(m);
        q.push();
        q.push_to(0);
        q.offer();
        q.notify();
    }
    // lint:reactor-loop end
}

fn step(m: &Mutex<u32>) {
    let g = m.lock();
    drop(g);
}

pub struct Queues {
    bounded: SyncSender<u32>,
    shards: Vec<SyncSender<u32>>,
    unbounded: Sender<u32>,
}

impl Queues {
    fn push(&self) {
        let _ = self.bounded.send(1);
    }

    fn push_to(&self, shard: usize) {
        let Some(tx) = self.shards.get(shard) else {
            return;
        };
        let _ = tx.send(2);
    }

    fn offer(&self) {
        let _ = self.bounded.try_send(3);
    }

    fn notify(&self) {
        let _ = self.unbounded.send(4);
    }
}
