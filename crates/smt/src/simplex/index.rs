//! The simplex's index spaces, one newtype over `u32` each, and the vector
//! indexed by one of them. Every conversion between an index and a `usize`
//! happens in this file.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Index, IndexMut};

use super::Side;
use crate::VarId;

/// Defines one index newtype per name, with its conversions and its
/// indexing of an [`IndexVec`].
macro_rules! index_types {
    ($($(#[$doc:meta])* $name:ident,)*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// The index `index`.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in 32 bits.
            #[inline]
            pub fn new(index: usize) -> Self {
                let index = u32::try_from(index);
                Self(index.expect(concat!(stringify!($name), " indices fit in 32 bits")))
            }

            /// The index as a `usize`.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl<T> Index<$name> for IndexVec<$name, T> {
            type Output = T;
            fn index(&self, index: $name) -> &T {
                &self.raw[index.index()]
            }
        }

        impl<T> IndexMut<$name> for IndexVec<$name, T> {
            fn index_mut(&mut self, index: $name) -> &mut T {
                &mut self.raw[index.index()]
            }
        }
    )*};
}

index_types! {
    /// A tableau variable: a problem variable, numbered as its [`VarId`],
    /// or the slack of a row, numbered after the problem variables in the
    /// order the rows were defined.
    Var,
    /// A tableau row, which expresses the basic variable owning it over the
    /// nonbasic ones.
    Row,
    /// A nonbasic column of the tableau: the position of one nonbasic
    /// variable's coefficient in every row.
    Slot,
    /// An explanation tag: the caller's name for an asserted bound, echoed
    /// back in every explanation the bound takes part in.
    Tag,
    /// A node of the implication graph: one installed derived bound.
    Node,
}

impl From<VarId> for Var {
    fn from(var: VarId) -> Var {
        Var::new(var.index())
    }
}

impl<T> Index<Side> for [T; 2] {
    type Output = T;
    fn index(&self, side: Side) -> &T {
        &self[side as usize]
    }
}

impl<T> IndexMut<Side> for [T; 2] {
    fn index_mut(&mut self, side: Side) -> &mut T {
        &mut self[side as usize]
    }
}

/// A vector indexed by the index type `I` only. It dereferences to the
/// `Vec` it wraps, for everything that takes no index.
#[derive(Debug)]
pub(crate) struct IndexVec<I, T> {
    raw: Vec<T>,
    index: PhantomData<fn(I) -> I>,
}

impl<I, T> Default for IndexVec<I, T> {
    fn default() -> Self {
        Vec::new().into()
    }
}

impl<I, T> From<Vec<T>> for IndexVec<I, T> {
    fn from(raw: Vec<T>) -> Self {
        IndexVec {
            raw,
            index: PhantomData,
        }
    }
}

/// Written out, so that `clone_from` reuses the wrapped allocation.
impl<I, T: Clone> Clone for IndexVec<I, T> {
    fn clone(&self) -> Self {
        self.raw.clone().into()
    }

    fn clone_from(&mut self, source: &Self) {
        self.raw.clone_from(&source.raw);
    }
}

impl<I, T> Deref for IndexVec<I, T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.raw
    }
}

impl<I, T> DerefMut for IndexVec<I, T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.raw
    }
}
