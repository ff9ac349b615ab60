//! Strongly-typed address quantities.
//!
//! The paper assumes a 32-bit address space with 4 KiB pages and 64 B cache
//! lines (Table II). All address slicing is nevertheless performed through
//! [`crate::geometry`] so alternative geometries (Sec. VI-D sensitivity) work
//! unchanged; the newtypes here only prevent the classic unit mix-ups
//! (virtual vs physical, page id vs full address).

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! addr_newtype {
    ($(#[$meta:meta])* $name:ident, $inner:ty) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        pub struct $name($inner);

        impl $name {
            /// Wraps a raw value.
            #[inline]
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// Returns the raw underlying value.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl fmt::Octal for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Octal::fmt(&self.0, f)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $inner {
            fn from(v: $name) -> $inner {
                v.0
            }
        }
    };
}

addr_newtype!(
    /// A virtual byte address (32-bit address space per Table II).
    VAddr,
    u64
);
addr_newtype!(
    /// A physical byte address.
    PAddr,
    u64
);
addr_newtype!(
    /// A virtual page identifier (`vaddr >> page_bits`); 20 bits for 4 KiB
    /// pages in a 32-bit address space.
    VPageId,
    u64
);
addr_newtype!(
    /// A physical page identifier (`paddr >> page_bits`).
    PPageId,
    u64
);
addr_newtype!(
    /// A line-aligned address (`addr >> line_bits`), used as the unit of
    /// cache residency and of load merging.
    LineAddr,
    u64
);

impl VAddr {
    /// Byte-offset addition, saturating at the top of the address space.
    #[inline]
    #[must_use]
    pub fn offset(self, bytes: u64) -> Self {
        Self(self.0.saturating_add(bytes))
    }
}

impl PAddr {
    /// Byte-offset addition, saturating at the top of the address space.
    #[inline]
    #[must_use]
    pub fn offset(self, bytes: u64) -> Self {
        Self(self.0.saturating_add(bytes))
    }
}

/// Index of a cache bank (0-based; the paper uses 4 banks).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct BankId(pub u8);

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// Index of a cache way (0-based; the paper's L1 is 4-way set-associative).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct WayId(pub u8);

impl fmt::Display for WayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "way{}", self.0)
    }
}

/// Index of a set within a single cache bank.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct SetIndex(pub u32);

impl fmt::Display for SetIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "set{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtype_roundtrip() {
        let a = VAddr::new(0xdead_beef);
        assert_eq!(a.raw(), 0xdead_beef);
        assert_eq!(u64::from(a), 0xdead_beef);
        assert_eq!(VAddr::from(0xdead_beefu64), a);
    }

    #[test]
    fn debug_is_nonempty_and_hex() {
        let a = PAddr::new(0xff);
        assert_eq!(format!("{a:?}"), "PAddr(0xff)");
        assert_eq!(format!("{a}"), "0xff");
        assert_eq!(format!("{a:x}"), "ff");
        assert_eq!(format!("{a:X}"), "FF");
        assert_eq!(format!("{a:b}"), "11111111");
        assert_eq!(format!("{a:o}"), "377");
    }

    #[test]
    fn offset_saturates() {
        let a = VAddr::new(u64::MAX - 1);
        assert_eq!(a.offset(10).raw(), u64::MAX);
        let p = PAddr::new(u64::MAX);
        assert_eq!(p.offset(1).raw(), u64::MAX);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(LineAddr::new(1) < LineAddr::new(2));
        assert!(VPageId::new(0x10) > VPageId::new(0xf));
    }

    #[test]
    fn ids_display() {
        assert_eq!(BankId(2).to_string(), "bank2");
        assert_eq!(WayId(3).to_string(), "way3");
        assert_eq!(SetIndex(7).to_string(), "set7");
    }

    #[test]
    fn types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VAddr>();
        assert_send_sync::<PAddr>();
        assert_send_sync::<VPageId>();
        assert_send_sync::<PPageId>();
        assert_send_sync::<LineAddr>();
        assert_send_sync::<BankId>();
        assert_send_sync::<WayId>();
    }
}
