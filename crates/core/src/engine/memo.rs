//! A single-entry memo of state derived from one network.

use sparsenn_model::fixedpoint::FixedNetwork;
use std::sync::{Arc, Mutex};

/// State derived from the last network a backend served (a repacked
/// kernel, cut chip tiles), keyed by the network handle itself.
///
/// Serving the same [`FixedNetwork`] handle (or a clone of it) again is an
/// O(1) hit: `==` checks `Arc::ptr_eq` first. The memo holds its own
/// clone of the key, so the weights it was built from stay alive and
/// their address cannot be reused by another network. A separately built
/// network is compared by content; a different one replaces the entry.
///
/// The lock covers only the lookup and the swap — callers build on a miss
/// and run their forward pass without holding it. A poisoned lock is
/// recovered: the slot is only ever replaced whole, so it is valid at
/// every step.
pub(crate) struct NetMemo<T> {
    slot: Mutex<Option<(FixedNetwork, Arc<T>)>>,
}

impl<T> std::fmt::Debug for NetMemo<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NetMemo { .. }")
    }
}

impl<T> NetMemo<T> {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        Self {
            slot: Mutex::new(None),
        }
    }

    /// The state for `net`, if it is the memoized network.
    pub(crate) fn get(&self, net: &FixedNetwork) -> Option<Arc<T>> {
        let slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        match &*slot {
            Some((key, value)) if key == net => Some(Arc::clone(value)),
            _ => None,
        }
    }

    /// Makes `value` the state for `net`, evicting the previous entry.
    pub(crate) fn insert(&self, net: &FixedNetwork, value: T) -> Arc<T> {
        let value = Arc::new(value);
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) =
            Some((net.clone(), Arc::clone(&value)));
        value
    }
}
