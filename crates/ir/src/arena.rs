//! Typed index arenas.
//!
//! Every IR entity (variable, operation, basic block, HTG node, region) lives
//! in an arena owned by its [`Function`](crate::Function) and is referred to
//! by a small, copyable, typed id. This mirrors how Spark keeps its CDFG and
//! hierarchical task graph in flat tables and lets transformations clone and
//! splice program fragments cheaply.

use std::fmt;
use std::marker::PhantomData;

/// A typed index into an [`Arena`].
///
/// `Id<T>` is `Copy` and ordered, which makes it usable as a key in
/// `BTreeMap`/`BTreeSet` for deterministic iteration — determinism matters for
/// reproducible schedules and RTL output.
pub struct Id<T> {
    index: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Id<T> {
    /// Creates an id from a raw index. Intended for use by [`Arena`] and tests.
    #[inline]
    pub fn from_raw(index: u32) -> Self {
        Id {
            index,
            _marker: PhantomData,
        }
    }

    /// Returns the raw index backing this id.
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// Returns the raw index as `u32`.
    #[inline]
    pub fn raw(self) -> u32 {
        self.index
    }
}

impl<T> Clone for Id<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Id<T> {}
impl<T> PartialEq for Id<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}
impl<T> Eq for Id<T> {}
impl<T> PartialOrd for Id<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Id<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.index.cmp(&other.index)
    }
}
impl<T> std::hash::Hash for Id<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.index.hash(state);
    }
}
impl<T> fmt::Debug for Id<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({})", self.index)
    }
}

/// A growable, index-stable container of IR entities.
///
/// Transformations never remove entities from an arena (they mark them dead
/// instead); this keeps all outstanding ids valid while a function is being
/// rewritten. Only [`Function::compact`](crate::Function::compact), called
/// once a function is final, drops entities and renumbers the rest.
#[derive(Clone, Debug)]
pub struct Arena<T> {
    items: Vec<T>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena { items: Vec::new() }
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `item` and returns its id.
    pub fn alloc(&mut self, item: T) -> Id<T> {
        let id = Id::from_raw(self.items.len() as u32);
        self.items.push(item);
        id
    }

    /// Number of entities ever allocated (including dead ones).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Immutable access. Panics on an id from a different arena that is out of
    /// range.
    pub fn get(&self, id: Id<T>) -> &T {
        &self.items[id.index()]
    }

    /// Mutable access.
    pub fn get_mut(&mut self, id: Id<T>) -> &mut T {
        &mut self.items[id.index()]
    }

    /// Checked access.
    pub fn try_get(&self, id: Id<T>) -> Option<&T> {
        self.items.get(id.index())
    }

    /// Iterates over `(id, &item)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (Id<T>, &T)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, item)| (Id::from_raw(i as u32), item))
    }

    /// Iterates over `(id, &mut item)` pairs in allocation order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Id<T>, &mut T)> {
        self.items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| (Id::from_raw(i as u32), item))
    }

    /// Iterates over all ids in allocation order.
    pub fn ids(&self) -> impl Iterator<Item = Id<T>> + '_ {
        (0..self.items.len() as u32).map(Id::from_raw)
    }

    /// Keeps only the entities whose flag in `keep` (indexed by id) is set
    /// and renumbers the survivors densely in allocation order. Returns the
    /// old → new id map, `None` for a dropped entity.
    ///
    /// This invalidates every outstanding id: the owner must remap them.
    ///
    /// # Panics
    /// Panics if `keep` is shorter than the arena.
    pub(crate) fn retain(&mut self, keep: &[bool]) -> Vec<Option<Id<T>>> {
        let mut renumbered = Vec::with_capacity(self.items.len());
        let mut next = 0u32;
        let mut flags = keep.iter();
        self.items.retain(|_| {
            let kept = *flags.next().expect("a keep flag per entity");
            renumbered.push(kept.then(|| {
                next += 1;
                Id::from_raw(next - 1)
            }));
            kept
        });
        renumbered
    }
}

impl<T> std::ops::Index<Id<T>> for Arena<T> {
    type Output = T;
    fn index(&self, id: Id<T>) -> &T {
        self.get(id)
    }
}

impl<T> std::ops::IndexMut<Id<T>> for Arena<T> {
    fn index_mut(&mut self, id: Id<T>) -> &mut T {
        self.get_mut(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_get_roundtrip() {
        let mut arena: Arena<String> = Arena::new();
        let a = arena.alloc("a".to_string());
        let b = arena.alloc("b".to_string());
        assert_eq!(arena[a], "a");
        assert_eq!(arena[b], "b");
        assert_eq!(arena.len(), 2);
        assert!(!arena.is_empty());
    }

    #[test]
    fn ids_are_ordered_by_allocation() {
        let mut arena: Arena<u32> = Arena::new();
        let a = arena.alloc(10);
        let b = arena.alloc(20);
        assert!(a < b);
        let collected: Vec<_> = arena.ids().collect();
        assert_eq!(collected, vec![a, b]);
    }

    #[test]
    fn iter_mut_allows_updates() {
        let mut arena: Arena<u32> = Arena::new();
        arena.alloc(1);
        arena.alloc(2);
        for (_, v) in arena.iter_mut() {
            *v += 10;
        }
        let values: Vec<_> = arena.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![11, 12]);
    }

    #[test]
    fn retain_renumbers_survivors_in_allocation_order() {
        let mut arena: Arena<&str> = Arena::new();
        for item in ["a", "b", "c", "d"] {
            arena.alloc(item);
        }
        let renumbered = arena.retain(&[false, true, false, true]);
        assert_eq!(
            renumbered,
            vec![None, Some(Id::from_raw(0)), None, Some(Id::from_raw(1))]
        );
        let items: Vec<_> = arena.iter().map(|(_, &item)| item).collect();
        assert_eq!(items, vec!["b", "d"]);
    }

    #[test]
    fn try_get_out_of_range_is_none() {
        let arena: Arena<u32> = Arena::new();
        assert!(arena.try_get(Id::from_raw(3)).is_none());
    }

    #[test]
    fn id_debug_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Id::<u32>::from_raw(1));
        set.insert(Id::<u32>::from_raw(1));
        assert_eq!(set.len(), 1);
        assert_eq!(format!("{:?}", Id::<u32>::from_raw(7)), "Id(7)");
    }
}
