//! Identifier newtypes for physical entities.
//!
//! Every physical entity in the layout — aisle, row, rack, server, GPU — is referred to by a
//! compact index newtype so the rest of the workspace cannot accidentally index a row vector
//! with a server id.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize,
            Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(usize);

        impl $name {
            /// Creates an id from a raw index.
            #[must_use]
            pub const fn new(index: usize) -> Self {
                Self(index)
            }

            /// The raw index, usable to index per-entity vectors.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}-{}", $prefix, self.0)
            }
        }

        impl From<usize> for $name {
            fn from(index: usize) -> Self {
                Self(index)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifies a cold aisle (two rows sharing AHUs).
    AisleId,
    "aisle"
);
id_type!(
    /// Identifies a row of racks.
    RowId,
    "row"
);
id_type!(
    /// Identifies a rack within the datacenter (global index).
    RackId,
    "rack"
);
id_type!(
    /// Identifies a GPU server (global index).
    ServerId,
    "server"
);
id_type!(
    /// Identifies a UPS in the power hierarchy.
    UpsId,
    "ups"
);
id_type!(
    /// Identifies a PDU pair in the power hierarchy.
    PduId,
    "pdu"
);

/// Identifies a single GPU: the server it lives in plus its slot index (0–7 in a DGX).
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct GpuId {
    /// The hosting server.
    pub server: ServerId,
    /// GPU slot within the server.
    pub slot: usize,
}

impl GpuId {
    /// Creates a GPU id from a server and a slot index.
    #[must_use]
    pub const fn new(server: ServerId, slot: usize) -> Self {
        Self { server, slot }
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/gpu-{}", self.server, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_display() {
        let s = ServerId::new(42);
        assert_eq!(s.index(), 42);
        assert_eq!(usize::from(s), 42);
        assert_eq!(ServerId::from(42), s);
        assert_eq!(s.to_string(), "server-42");
        assert_eq!(RowId::new(3).to_string(), "row-3");
        assert_eq!(AisleId::new(1).to_string(), "aisle-1");
        assert_eq!(RackId::new(9).to_string(), "rack-9");
        assert_eq!(UpsId::new(0).to_string(), "ups-0");
        assert_eq!(PduId::new(2).to_string(), "pdu-2");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<ServerId> = [2, 0, 1].into_iter().map(ServerId::new).collect();
        let ordered: Vec<usize> = set.into_iter().map(ServerId::index).collect();
        assert_eq!(ordered, vec![0, 1, 2]);
    }

    #[test]
    fn gpu_id_display_and_equality() {
        let g = GpuId::new(ServerId::new(7), 3);
        assert_eq!(g.to_string(), "server-7/gpu-3");
        assert_eq!(
            g,
            GpuId {
                server: ServerId::new(7),
                slot: 3
            }
        );
        assert_ne!(g, GpuId::new(ServerId::new(7), 4));
    }
}
