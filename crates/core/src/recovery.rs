//! Hop-boundary checkpoint/restart machinery.
//!
//! Recovery in NavP exploits the programming model itself: a messenger's
//! entire computation state travels in its agent variables, and those
//! are only externally visible at *delivery points* — injection, hop
//! arrival, event wake-up. So a checkpoint is simply a clone of the
//! boxed agent state taken at each delivery point
//! ([`Messenger::snapshot`]), and a crashed PE is restored by
//!
//! 1. rebuilding its node store as `initial store + replay of the write
//!    journal` ([`WriteJournal`]), and
//! 2. re-delivering the last checkpoint of every messenger that was
//!    resident on (or in flight to) the PE ([`CheckpointTable`]).
//!
//! Journals are committed once per *run* (the non-preemptive span from
//! delivery until the messenger hops away, parks, or finishes), the
//! same granularity at which `fault` injects crashes — so a crash never
//! observes half a run's writes, and replay reproduces the store
//! bitwise.

use crate::agent::Messenger;
use navp_sim::store::SharedValue;
use navp_sim::{NodeStore, VarKey};
use std::collections::HashMap;

/// One journaled store mutation.
///
/// `Write` holds a [`SharedValue`]: committing a run's writes and
/// cloning a journal are reference bumps. The store's copy-on-write
/// machinery un-shares a live entry only when a later run actually
/// mutates it, so journaling never deep-copies untouched blocks.
#[derive(Clone)]
pub enum JournalOp {
    /// `key` held this value (with these declared bytes) after the run.
    Write {
        /// The mutated node variable.
        key: VarKey,
        /// Shared snapshot of its value at commit time.
        val: SharedValue,
        /// Declared resident bytes.
        bytes: u64,
    },
    /// `key` was removed (e.g. a `take` that carried a block away).
    Remove {
        /// The removed node variable.
        key: VarKey,
    },
}

/// Ordered log of one PE's node-store mutations, committed at run
/// boundaries. Replaying it over a clone of the initial store rebuilds
/// the exact store a crash destroyed.
#[derive(Default)]
pub struct WriteJournal {
    ops: Vec<JournalOp>,
}

impl WriteJournal {
    /// An empty journal.
    pub fn new() -> WriteJournal {
        WriteJournal::default()
    }

    /// Commit the run that just finished: drain the store's dirty keys
    /// (deterministically sorted) and append each key's post-run state —
    /// a shared (copy-on-write) snapshot, or a removal marker if the key
    /// is gone.
    ///
    /// The store must have tracking enabled ([`NodeStore::enable_tracking`]);
    /// with tracking off this is a no-op.
    pub fn commit_dirty(&mut self, store: &mut NodeStore) {
        for key in store.drain_dirty() {
            match store.clone_entry(key) {
                Some((val, bytes)) => self.ops.push(JournalOp::Write { key, val, bytes }),
                None => self.ops.push(JournalOp::Remove { key }),
            }
        }
    }

    /// Replay every journaled op into `store` (in commit order). Returns
    /// the number of ops replayed. The journal is left intact so a later
    /// crash of the same PE can replay again.
    pub fn replay_into(&self, store: &mut NodeStore) -> u64 {
        for op in &self.ops {
            match op {
                JournalOp::Write { key, val, bytes } => {
                    store.insert_shared(*key, val.clone(), *bytes);
                }
                JournalOp::Remove { key } => {
                    store.remove_key(*key);
                }
            }
        }
        self.ops.len() as u64
    }
}

struct Checkpoint {
    pe: usize,
    label: String,
    snap: Option<Box<dyn Messenger>>,
}

/// A checkpoint restored from the table by [`CheckpointTable::drain_pe`]:
/// the messenger's id, its label, and the snapshot (or `None` when the
/// messenger type does not support snapshots — recovery must then fail
/// with [`RunError::RecoveryFailed`](crate::RunError::RecoveryFailed)).
pub type RestoredCheckpoint = (u64, String, Option<Box<dyn Messenger>>);

/// The live checkpoint of every in-flight messenger, keyed by the
/// executor's messenger id.
///
/// Lifecycle: [`register`](CheckpointTable::register)ed at each delivery
/// point (a hop re-registers the messenger into the destination's
/// failure domain), [`remove`](CheckpointTable::remove)d when the
/// messenger finishes or parks on an event (parked state is held by the
/// executor's event service, which survives PE crashes).
#[derive(Default)]
pub struct CheckpointTable {
    map: HashMap<u64, Checkpoint>,
}

impl CheckpointTable {
    /// An empty table.
    pub fn new() -> CheckpointTable {
        CheckpointTable::default()
    }

    /// Number of live checkpoints.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no checkpoints are held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Record messenger `id`'s state at a delivery point on `pe`.
    /// Overwrites any earlier checkpoint of the same messenger.
    pub fn register(&mut self, id: u64, pe: usize, msgr: &dyn Messenger) {
        self.map.insert(
            id,
            Checkpoint {
                pe,
                label: msgr.label(),
                snap: msgr.snapshot(),
            },
        );
    }

    /// Drop messenger `id`'s checkpoint (it finished, or parked into the
    /// crash-safe event service).
    pub fn remove(&mut self, id: u64) {
        self.map.remove(&id);
    }

    /// Visit every live checkpoint in ascending id order (deterministic
    /// spill order for the durable on-disk format): `(id, pe, label,
    /// snapshot)`. The snapshot is `None` for messenger types without
    /// snapshot support — the durable layer must reject those.
    pub fn iter_ordered(
        &self,
    ) -> impl Iterator<Item = (u64, usize, &str, Option<&dyn Messenger>)> + '_ {
        let mut ids: Vec<u64> = self.map.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(move |id| {
            let c = &self.map[&id];
            (id, c.pe, c.label.as_str(), c.snap.as_deref())
        })
    }

    /// Remove and return every checkpoint owned by crashed PE `pe`, in
    /// ascending id order (deterministic re-delivery).
    pub fn drain_pe(&mut self, pe: usize) -> Vec<RestoredCheckpoint> {
        let mut ids: Vec<u64> = self
            .map
            .iter()
            .filter(|(_, c)| c.pe == pe)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                let c = self.map.remove(&id).expect("id just listed");
                (id, c.label, c.snap)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Effect, MsgrCtx};
    use navp_sim::Key;

    #[test]
    fn journal_replay_rebuilds_store() {
        let initial = {
            let mut s = NodeStore::new();
            s.insert(Key::plain("keep"), 7u32, 4);
            s.insert(Key::plain("gone"), 1u8, 1);
            s
        };
        let mut live = initial.clone();
        live.enable_tracking();
        live.drain_dirty(); // clone carried the enable; start clean

        let mut journal = WriteJournal::new();
        // Run 1: write a vec, mutate it, remove "gone".
        live.insert(Key::plain("v"), vec![1.0f64, 2.0], 16);
        live.get_mut::<Vec<f64>>(Key::plain("v")).unwrap()[0] = 5.0;
        let _: Option<u8> = live.take(Key::plain("gone"));
        journal.commit_dirty(&mut live);
        // Run 2: overwrite the vec.
        live.insert(Key::plain("v"), vec![9.0f64], 8);
        journal.commit_dirty(&mut live);

        let mut rebuilt = initial.clone();
        let replayed = journal.replay_into(&mut rebuilt);
        assert_eq!(replayed, 3); // v + gone, then v again
        assert_eq!(rebuilt.get::<Vec<f64>>(Key::plain("v")), Some(&vec![9.0]));
        assert!(!rebuilt.contains(Key::plain("gone")));
        assert_eq!(rebuilt.get::<u32>(Key::plain("keep")), Some(&7));
        assert_eq!(rebuilt.total_bytes(), live.total_bytes());

        // Replay is repeatable (journal intact for a second crash).
        let mut again = initial.clone();
        journal.replay_into(&mut again);
        assert_eq!(again.get::<Vec<f64>>(Key::plain("v")), Some(&vec![9.0]));
    }

    #[derive(Clone)]
    struct Probe(u32);
    impl Messenger for Probe {
        fn step(&mut self, _ctx: &mut MsgrCtx<'_>) -> Effect {
            Effect::Done
        }
        fn label(&self) -> String {
            format!("probe{}", self.0)
        }
        fn snapshot(&self) -> Option<Box<dyn Messenger>> {
            Some(Box::new(self.clone()))
        }
    }

    struct NoSnap;
    impl Messenger for NoSnap {
        fn step(&mut self, _ctx: &mut MsgrCtx<'_>) -> Effect {
            Effect::Done
        }
        fn label(&self) -> String {
            "nosnap".to_string()
        }
    }

    #[test]
    fn checkpoint_lifecycle() {
        let mut t = CheckpointTable::new();
        t.register(1, 0, &Probe(10));
        t.register(2, 0, &Probe(20));
        t.register(3, 1, &Probe(30));
        assert_eq!(t.len(), 3);

        // Messenger 2 hops from PE 0 to PE 1: its failure domain moves.
        t.register(2, 1, &Probe(20));
        // Messenger 1 finishes.
        t.remove(1);

        let pe0 = t.drain_pe(0);
        assert!(pe0.is_empty());
        let pe1 = t.drain_pe(1);
        assert_eq!(
            pe1.iter().map(|(id, _, _)| *id).collect::<Vec<_>>(),
            vec![2, 3],
            "drained in ascending id order"
        );
        assert!(pe1.iter().all(|(_, _, s)| s.is_some()));
        assert!(t.is_empty());
    }

    #[test]
    fn snapshotless_messenger_yields_none() {
        let mut t = CheckpointTable::new();
        t.register(7, 0, &NoSnap);
        let drained = t.drain_pe(0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1, "nosnap");
        assert!(drained[0].2.is_none(), "recovery must report failure");
    }

    #[test]
    fn reregister_overwrites() {
        let mut t = CheckpointTable::new();
        t.register(1, 0, &Probe(1));
        t.register(1, 2, &Probe(2));
        assert_eq!(t.len(), 1);
        let drained = t.drain_pe(2);
        assert_eq!(drained.len(), 1);
    }
}
