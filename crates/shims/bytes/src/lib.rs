//! Offline stand-in for the `bytes` crate: a cheaply clonable, immutable,
//! shared byte buffer with the subset of the `Bytes` API this workspace uses.

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted view into a shared byte buffer. Cloning
/// and slicing are O(1): both bump the allocation's refcount and copy
/// nothing.
///
/// The view is a thin pointer plus a `u32` offset and length, so the handle
/// stays at 16 bytes inside every scheduled datagram and message element.
/// The price is a 4 GiB ceiling per buffer, checked where a buffer is built.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` is the empty buffer, which owns no allocation.
    data: Option<Arc<Vec<u8>>>,
    offset: u32,
    len: u32,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer borrowing nothing: the static slice is copied once into the
    /// shared allocation (the real crate borrows it; the semantics are the
    /// same for immutable data).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// The number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of `range` within this buffer, sharing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or ends past the buffer.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("range start out of bounds"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("range end out of bounds"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "range {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        if start == end {
            return Bytes::new();
        }
        // In range of a length that fits `u32`, so neither cast truncates.
        Bytes {
            data: self.data.clone(),
            offset: self.offset + start as u32,
            len: (end - start) as u32,
        }
    }

    /// The view of this buffer that `subset` (a sub-slice borrowed from it,
    /// for instance by a parser) occupies, sharing the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `subset` is not empty and does not lie inside this buffer.
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ptr() as usize;
        let start = (subset.as_ptr() as usize)
            .checked_sub(base)
            .filter(|start| {
                start
                    .checked_add(subset.len())
                    .is_some_and(|end| end <= self.len())
            })
            .expect("slice_ref: subset is not inside this Bytes");
        self.slice(start..start + subset.len())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(data) => {
                let start = self.offset as usize;
                &data[start..start + self.len as usize]
            }
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector over as the shared allocation; the bytes are not
    /// copied.
    ///
    /// # Panics
    ///
    /// Panics if the vector is longer than `u32::MAX` bytes.
    fn from(v: Vec<u8>) -> Self {
        let len = u32::try_from(v.len()).expect("a Bytes buffer holds at most u32::MAX bytes");
        if len == 0 {
            return Bytes::new();
        }
        Bytes {
            data: Some(Arc::new(v)),
            offset: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    use std::sync::Arc;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        let c = Bytes::from_static(b"\x01\x02\x03");
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![9u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    /// Handles sharing `bytes`' allocation (0 for the empty buffer).
    fn handles(bytes: &Bytes) -> usize {
        bytes.data.as_ref().map_or(0, Arc::strong_count)
    }

    fn hash_of(bytes: &Bytes) -> u64 {
        let mut hasher = DefaultHasher::new();
        bytes.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn clone_is_refcount_only() {
        // A clone must never copy the payload: it bumps the shared
        // allocation's refcount and nothing else, no matter the size.
        let a = Bytes::from(vec![7u8; 1 << 20]);
        assert_eq!(handles(&a), 1);
        let clones: Vec<Bytes> = (0..64).map(|_| a.clone()).collect();
        assert_eq!(handles(&a), 65);
        assert!(clones.iter().all(|c| c.as_ptr() == a.as_ptr()));
        drop(clones);
        assert_eq!(handles(&a), 1);
    }

    #[test]
    fn from_vec_takes_the_allocation_over() {
        let v = vec![5u8; 4096];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), ptr);
    }

    #[test]
    fn slice_shares_storage_and_is_refcount_only() {
        let a = Bytes::from((0u8..=255).collect::<Vec<u8>>());
        let mid = a.slice(16..48);
        assert_eq!(mid.len(), 32);
        assert_eq!(mid[..], a[16..48]);
        assert_eq!(mid.as_ptr(), a[16..].as_ptr());
        assert_eq!(handles(&a), 2);
        // A slice of a slice is still a view of the one allocation.
        let inner = mid.slice(8..=15);
        assert_eq!(inner[..], a[24..32]);
        assert_eq!(inner.as_ptr(), a[24..].as_ptr());
        assert_eq!(handles(&a), 3);
        // The view outlives the handle it was cut from.
        drop(a);
        assert_eq!(inner[0], 24);
        assert_eq!(handles(&inner), 2);
    }

    #[test]
    fn slice_full_and_empty_ranges() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let full = a.slice(..);
        assert_eq!(full, a);
        assert_eq!(full.as_ptr(), a.as_ptr());
        assert_eq!(a.slice(1..), [2u8, 3, 4][..]);
        assert_eq!(a.slice(..2), [1u8, 2][..]);
        // Empty ranges are legal anywhere up to the end and hold no
        // reference to the allocation.
        for at in 0..=4 {
            assert!(a.slice(at..at).is_empty());
        }
        assert_eq!(handles(&a), 2, "only `full` shares the allocation");
        assert!(Bytes::new().slice(..).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        let _ = Bytes::from(vec![1u8, 2, 3]).slice(1..5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_of_a_view_panics() {
        // Bounds are the view's, not the allocation's.
        let _ = Bytes::from(vec![0u8; 32]).slice(..8).slice(4..12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[allow(clippy::reversed_empty_ranges)]
    fn slice_decreasing_range_panics() {
        let _ = Bytes::from(vec![1u8, 2, 3]).slice(2..1);
    }

    #[test]
    fn slice_ref_finds_the_borrowed_subslice() {
        let a = Bytes::from(b"header:payload".to_vec());
        let view = a.slice(7..);
        let borrowed: &[u8] = &view[3..];
        let owned = view.slice_ref(borrowed);
        assert_eq!(owned, b"load"[..]);
        assert_eq!(owned.as_ptr(), a[10..].as_ptr());
        assert_eq!(handles(&a), 3);
        assert_eq!(a.slice_ref(&a[..]), a);
        assert!(a.slice_ref(&a[3..3]).is_empty());
        // An empty subset is accepted wherever it points, as in the real crate.
        assert!(a.slice_ref(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "not inside")]
    fn slice_ref_of_foreign_memory_panics() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let other = [1u8, 2, 3];
        let _ = a.slice_ref(&other);
    }

    #[test]
    #[should_panic(expected = "not inside")]
    fn slice_ref_outside_the_view_panics() {
        // Inside the allocation but outside this view of it.
        let a = Bytes::from(vec![0u8; 32]);
        let _ = a.slice(..8).slice_ref(&a[4..12]);
    }

    #[test]
    fn comparisons_hash_and_debug_see_only_the_view() {
        let a = Bytes::from(b"xxabcxx".to_vec());
        let view = a.slice(2..5);
        let fresh = Bytes::from_static(b"abc");
        assert_eq!(view, fresh);
        assert_eq!(view, b"abc"[..]);
        assert_eq!(view, b"abc".to_vec());
        assert_ne!(view, a);
        assert_eq!(view.cmp(&fresh), std::cmp::Ordering::Equal);
        assert!(view < Bytes::from_static(b"abd"));
        assert!(
            view < a.slice(1..4),
            "ordering compares the viewed bytes, not offsets"
        );
        assert_eq!(hash_of(&view), hash_of(&fresh));
        assert_eq!(format!("{view:?}"), "b\"abc\"");
        assert_eq!(format!("{:?}", Bytes::new()), "b\"\"");
    }

    #[test]
    fn copies_detach_from_the_source() {
        // `Bytes` is immutable, so clone-then-mutate hazards can only come
        // from aliasing the *source* buffer. Construction must snapshot.
        let mut src = vec![1u8, 2, 3];
        let snapshot = Bytes::copy_from_slice(&src);
        let via_slice = Bytes::from(&src[..]);
        src[0] = 99;
        src.push(4);
        assert_eq!(snapshot, [1u8, 2, 3][..]);
        assert_eq!(via_slice, [1u8, 2, 3][..]);
        assert_eq!(Bytes::from(src), [99u8, 2, 3, 4][..]);
    }

    #[test]
    fn deref_gives_slice_methods() {
        let a = Bytes::from("hello".to_owned());
        assert_eq!(&a[1..3], b"el");
        assert_eq!(a.to_vec(), b"hello");
    }
}
