//! Owned `f32` buffers with cache-line alignment.
//!
//! The SIMD micro-kernels in [`crate::kernel`] want their hot loads — packed
//! B panels, output tiles, tape values and gradients — to never straddle a
//! cache line. `Vec<f32>` only guarantees 4-byte alignment, and a `Vec`
//! cannot legally adopt storage allocated at a larger alignment (its `Drop`
//! deallocates with the element layout, which would be undefined behavior).
//! [`Buf`] is the replacement: an owned `f32` slice whose every allocation
//! goes through [`Buf::zeroed`] and is 64-byte aligned ([`ALIGN`]), with a
//! zero-copy escape hatch for adopting plain `Vec<f32>` storage on cold
//! constructor paths. Dropping a `Buf` frees it.
//!
//! Alignment never changes numeric results — kernels use unaligned loads and
//! identical instruction sequences either way — it only removes split-line
//! penalties.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment in bytes of every aligned allocation: one cache line, which
/// also satisfies any SSE/AVX/AVX-512 vector width.
pub const ALIGN: usize = 64;

enum Inner {
    /// Owned allocation of exactly `len` f32s at [`ALIGN`]-byte alignment.
    Aligned { ptr: NonNull<f32>, len: usize },
    /// Adopted `Vec` storage (4-byte aligned); used by cold constructors
    /// like `Matrix::from_vec` so they stay zero-copy.
    Heap(Vec<f32>),
}

/// An owned `f32` buffer; dereferences to `[f32]`.
pub struct Buf {
    inner: Inner,
}

// SAFETY: `Buf` uniquely owns its storage of plain `f32`s; there is no
// interior mutability or thread affinity.
unsafe impl Send for Buf {}
unsafe impl Sync for Buf {}

fn aligned_layout(len: usize) -> Layout {
    Layout::array::<f32>(len).expect("buffer size overflow").align_to(ALIGN).expect("bad alignment")
}

impl Buf {
    /// A zero-filled buffer at [`ALIGN`]-byte alignment (`len == 0` holds no
    /// allocation).
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self { inner: Inner::Heap(Vec::new()) };
        }
        let layout = aligned_layout(len);
        // SAFETY: `layout` has non-zero size; a null return is handled.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f32>()) else { handle_alloc_error(layout) };
        Self { inner: Inner::Aligned { ptr, len } }
    }

    /// An aligned copy of `src`.
    pub(crate) fn copied(src: &[f32]) -> Self {
        let mut out = Self::zeroed(src.len());
        out.copy_from_slice(src);
        out
    }

    /// Adopts `Vec` storage without copying. The result reports
    /// [`Self::is_lane_aligned`] only if the allocator happened to align it.
    pub fn from_vec(v: Vec<f32>) -> Self {
        Self { inner: Inner::Heap(v) }
    }

    /// Extracts a `Vec<f32>`: zero-copy for adopted `Vec` storage, a copy
    /// for aligned allocations (cold-path conversions only).
    pub fn into_vec(mut self) -> Vec<f32> {
        match std::mem::replace(&mut self.inner, Inner::Heap(Vec::new())) {
            Inner::Heap(v) => v,
            aligned @ Inner::Aligned { .. } => Self { inner: aligned }.to_vec(),
        }
    }

    /// Whether the storage sits on an [`ALIGN`]-byte boundary (vacuously
    /// true when empty). Every buffer from [`Self::zeroed`] satisfies this.
    pub fn is_lane_aligned(&self) -> bool {
        self.is_empty() || (self.as_ptr() as usize).is_multiple_of(ALIGN)
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        if let Inner::Aligned { ptr, len } = self.inner {
            // SAFETY: allocated in `zeroed` with exactly this layout.
            unsafe { dealloc(ptr.as_ptr().cast::<u8>(), aligned_layout(len)) };
        }
    }
}

impl Deref for Buf {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        match &self.inner {
            // SAFETY: `ptr` is a live allocation of `len` initialised f32s.
            Inner::Aligned { ptr, len } => unsafe { std::slice::from_raw_parts(ptr.as_ptr(), *len) },
            Inner::Heap(v) => v,
        }
    }
}

impl DerefMut for Buf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        match &mut self.inner {
            // SAFETY: as in `deref`, plus `&mut self` gives unique access.
            Inner::Aligned { ptr, len } => unsafe { std::slice::from_raw_parts_mut(ptr.as_ptr(), *len) },
            Inner::Heap(v) => v,
        }
    }
}

impl Clone for Buf {
    /// Clones preserve the storage class: aligned buffers clone into fresh
    /// aligned allocations, adopted `Vec`s into `Vec`s.
    fn clone(&self) -> Self {
        match &self.inner {
            Inner::Aligned { .. } => Self::copied(self),
            Inner::Heap(v) => Self { inner: Inner::Heap(v.clone()) },
        }
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Default for Buf {
    fn default() -> Self {
        Self { inner: Inner::Heap(Vec::new()) }
    }
}

impl From<Vec<f32>> for Buf {
    fn from(v: Vec<f32>) -> Self {
        Self::from_vec(v)
    }
}

impl<'a> IntoIterator for &'a Buf {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut Buf {
    type Item = &'a mut f32;
    type IntoIter = std::slice::IterMut<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_aligned_and_zero() {
        for len in [1, 7, 16, 63, 64, 65, 1000] {
            let b = Buf::zeroed(len);
            assert_eq!(b.len(), len);
            assert!(b.is_lane_aligned(), "len {len} not {ALIGN}-byte aligned");
            assert!(b.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn empty_holds_no_allocation() {
        let b = Buf::zeroed(0);
        assert!(b.is_empty());
        assert!(b.is_lane_aligned());
        assert_eq!(b.into_vec(), Vec::<f32>::new());
    }

    #[test]
    fn vec_round_trip_is_zero_copy() {
        let v = vec![1.0, 2.0, 3.0];
        let ptr = v.as_ptr();
        let b = Buf::from_vec(v);
        assert_eq!(&b[..], &[1.0, 2.0, 3.0]);
        let back = b.into_vec();
        assert_eq!(back.as_ptr(), ptr, "Vec adoption must not copy");
    }

    #[test]
    fn aligned_into_vec_copies_contents() {
        let mut b = Buf::zeroed(5);
        b.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(b.into_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn clone_preserves_contents_and_alignment() {
        let mut a = Buf::zeroed(9);
        a[4] = 7.5;
        let c = a.clone();
        assert_eq!(a, c);
        assert!(c.is_lane_aligned());
        let h = Buf::from_vec(vec![1.0; 3]);
        assert_eq!(h.clone(), h);
    }

    #[test]
    fn mutation_through_deref() {
        let mut b = Buf::zeroed(4);
        b.fill(2.0);
        b[1] = -1.0;
        assert_eq!(&b[..], &[2.0, -1.0, 2.0, 2.0]);
    }
}
