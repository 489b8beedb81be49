//! Minimal in-tree stand-in for the `bytes` crate.
//!
//! The build environment has no crates.io access, so this shim provides
//! the small slice of the real crate's API the workspace uses: an
//! immutable, cheaply cloneable byte buffer backed by `Arc<[u8]>`. As in
//! the real crate, an empty buffer allocates nothing.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable contiguous byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` is the empty buffer.
    data: Option<Arc<[u8]>>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes { data: None }
    }

    /// A buffer referencing static data (copied here; the real crate
    /// borrows, but the semantics callers observe are identical).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes {
            data: (!data.is_empty()).then(|| Arc::from(data)),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_none()
    }

    /// Copy out to a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.data.as_deref().unwrap_or_default()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes {
            data: (!v.is_empty()).then(|| Arc::from(v)),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
        assert_eq!(&a[1..], &[2, 3]);
    }

    #[test]
    fn clone_is_shallow() {
        let a = Bytes::from(vec![9u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr());
    }

    #[test]
    fn every_empty_buffer_is_the_same_buffer() {
        let empties = [
            Bytes::new(),
            Bytes::default(),
            Bytes::from(Vec::new()),
            Bytes::copy_from_slice(&[]),
            Bytes::from_static(b""),
        ];
        for e in &empties {
            assert_eq!(e, &Bytes::new());
            assert_eq!(e.len(), 0);
            assert_eq!(&e[..], &[] as &[u8]);
            assert_eq!(format!("{e:?}"), "b\"\"");
        }
    }
}
