//! Per-id tables keyed by a node or sender id.

use std::collections::BTreeMap;

/// Ids below this index a dense table; anything larger spills to a map.
const DENSE_IDS: usize = 1024;

/// Per-id state keyed by a node or sender id. Ids are small and dense in
/// every run a stack produces (group positions), so the hot path is one
/// bounds-checked index; an id a stream is not expected to carry (the
/// recorder and the monitors take whatever they are handed) costs a map
/// entry, never a table sized by its value.
pub(crate) struct IdTable<T> {
    dense: Vec<T>,
    spill: BTreeMap<u32, T>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        Self { dense: Vec::new(), spill: BTreeMap::new() }
    }
}

impl<T: Default> IdTable<T> {
    /// The slot of `id`, created as `T::default()` on first use.
    #[inline]
    pub(crate) fn slot(&mut self, id: u32) -> &mut T {
        let i = id as usize;
        if i < DENSE_IDS {
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, T::default);
            }
            &mut self.dense[i]
        } else {
            self.spill.entry(id).or_default()
        }
    }
}
