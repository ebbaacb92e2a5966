//! Address interning: destination addresses are assigned dense `u32`
//! indices at topology-build time so per-node route tables can be plain
//! arrays instead of per-hop hash maps (see DESIGN.md "Hot path").
//!
//! Indices are assigned in `bind_addr` order, which is deterministic for a
//! given topology program; the map itself uses the seeded deterministic
//! hasher, so even its iteration order (unused) is process-independent.

use tva_wire::{Addr, DetHashMap};

/// Interns [`Addr`]s to dense indices `0..len`.
#[derive(Default)]
pub(crate) struct AddrInterner {
    map: DetHashMap<Addr, u32>,
}

impl AddrInterner {
    /// Creates an empty interner.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Interns `addr`, assigning the next index if it is new.
    pub(crate) fn intern(&mut self, addr: Addr) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(addr).or_insert(next)
    }

    /// The index of `addr`, if it was interned.
    #[inline]
    pub(crate) fn get(&self, addr: Addr) -> Option<u32> {
        self.map.get(&addr).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_idempotent() {
        let mut i = AddrInterner::new();
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(10, 0, 0, 2);
        assert_eq!(i.intern(a), 0);
        assert_eq!(i.intern(b), 1);
        assert_eq!(i.intern(a), 0, "re-interning returns the same index");
        assert_eq!(i.map.len(), 2);
        assert_eq!(i.get(b), Some(1));
        assert_eq!(i.get(Addr::new(9, 9, 9, 9)), None);
    }
}
