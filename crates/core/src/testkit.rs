//! Messengers and a codec shared by the executors' unit tests.

use crate::agent::{Effect, Messenger, MsgrCtx};
use crate::durable::DurableCodec;
use navp_sim::key::Key;
use navp_sim::store::NodeStore;

/// A checkpointable messenger that ping-pongs between PEs, bumping a
/// per-PE visit counter on each arrival.
#[derive(Clone)]
pub(crate) struct PingPong {
    pub(crate) hops_left: usize,
}
impl Messenger for PingPong {
    fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
        let k = Key::plain("count");
        let cur = ctx.store_ref().get::<u64>(k).copied().unwrap_or(0);
        ctx.store().insert(k, cur + 1, 8);
        if self.hops_left == 0 {
            return Effect::Done;
        }
        self.hops_left -= 1;
        Effect::Hop((ctx.here() + 1) % ctx.num_nodes())
    }
    fn label(&self) -> String {
        "pingpong".to_string()
    }
    fn snapshot(&self) -> Option<Box<dyn Messenger>> {
        Some(Box::new(self.clone()))
    }
}

/// Wire-serializable ping-pong for the durable tests (the plain
/// [`PingPong`] has snapshots but no wire form).
#[derive(Clone)]
pub(crate) struct WirePingPong {
    pub(crate) hops_left: usize,
}
impl Messenger for WirePingPong {
    fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
        let k = Key::plain("count");
        let cur = ctx.store_ref().get::<u64>(k).copied().unwrap_or(0);
        ctx.store().insert(k, cur + 1, 8);
        if self.hops_left == 0 {
            return Effect::Done;
        }
        self.hops_left -= 1;
        Effect::Hop((ctx.here() + 1) % ctx.num_nodes())
    }
    fn label(&self) -> String {
        "wirepingpong".to_string()
    }
    fn snapshot(&self) -> Option<Box<dyn Messenger>> {
        Some(Box::new(self.clone()))
    }
    fn wire_snapshot(&self) -> Option<crate::agent::WireSnapshot> {
        let mut w = navp_sim::codec::WireWriter::new();
        w.put_usize(self.hops_left);
        Some(crate::agent::WireSnapshot::new("test.wpp", w.into_vec()))
    }
}

/// Minimal durable codec for stores whose values are all `u64`.
pub(crate) struct ToyCodec;
impl DurableCodec for ToyCodec {
    fn encode_store(&self, store: &NodeStore) -> Result<Vec<u8>, String> {
        let mut keys: Vec<Key> = store.keys().copied().collect();
        keys.sort();
        let mut w = navp_sim::codec::WireWriter::new();
        for k in keys {
            let v = store
                .get::<u64>(k)
                .ok_or_else(|| format!("{k} is not a u64"))?;
            w.put_key(&k);
            w.put_u64(*v);
        }
        Ok(w.into_vec())
    }
    fn decode_store(&self, bytes: &[u8]) -> Result<NodeStore, String> {
        let mut r = navp_sim::codec::WireReader::new(bytes);
        let mut s = NodeStore::new();
        while r.remaining() > 0 {
            let k = r.get_key().map_err(|e| e.to_string())?;
            let v = r.get_u64().map_err(|e| e.to_string())?;
            s.insert(k, v, 8);
        }
        Ok(s)
    }
    fn decode_messenger(
        &self,
        snap: &crate::agent::WireSnapshot,
    ) -> Result<Box<dyn Messenger>, String> {
        match snap.tag.as_str() {
            "test.wpp" => {
                let mut r = navp_sim::codec::WireReader::new(&snap.bytes);
                Ok(Box::new(WirePingPong {
                    hops_left: r.get_usize().map_err(|e| e.to_string())?,
                }))
            }
            other => Err(format!("unknown messenger tag {other:?}")),
        }
    }
}
