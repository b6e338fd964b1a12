//! VM descriptions.
//!
//! Every GPU VM in the studied datacenters occupies a full 8-GPU server (§3.1: "these VMs
//! occupy a full server"), so placement is a VM→server assignment. VMs are either IaaS
//! (opaque, unmodifiable, owned by a customer) or SaaS (provider-managed LLM inference,
//! belonging to an endpoint and reconfigurable).

use crate::endpoints::EndpointId;
use serde::{Deserialize, Serialize};
use simkit::time::{SimDuration, SimTime};
use std::fmt;

/// Unique VM identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct VmId(pub u64);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// Identifier of the customer owning an IaaS VM (used for load prediction, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IaasCustomerId(pub u64);

/// What kind of workload a VM runs, and who it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VmKind {
    /// Opaque customer VM: the provider sees only its power draw and cannot reconfigure it.
    Iaas {
        /// Owning customer.
        customer: IaasCustomerId,
    },
    /// Provider-managed LLM inference VM: belongs to an endpoint and can be reconfigured.
    Saas {
        /// The SaaS endpoint this VM serves.
        endpoint: EndpointId,
    },
}

impl VmKind {
    /// Returns `true` for SaaS VMs.
    #[must_use]
    pub fn is_saas(&self) -> bool {
        matches!(self, VmKind::Saas { .. })
    }

    /// Returns `true` for IaaS VMs.
    #[must_use]
    pub fn is_iaas(&self) -> bool {
        matches!(self, VmKind::Iaas { .. })
    }

    /// The endpoint of a SaaS VM, if any.
    #[must_use]
    pub fn endpoint(&self) -> Option<EndpointId> {
        match self {
            VmKind::Saas { endpoint } => Some(*endpoint),
            VmKind::Iaas { .. } => None,
        }
    }
}

/// One GPU VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vm {
    /// Unique id.
    pub id: VmId,
    /// Workload kind and owner.
    pub kind: VmKind,
    /// When the VM was requested.
    pub arrival: SimTime,
    /// How long the VM lives before being retired.
    pub lifetime: SimDuration,
}

impl Vm {
    /// The time at which the VM retires.
    #[must_use]
    pub fn departure(&self) -> SimTime {
        self.arrival + self.lifetime
    }

    /// Returns `true` if the VM is alive at `time` (arrival inclusive, departure exclusive).
    #[must_use]
    pub fn is_alive_at(&self, time: SimTime) -> bool {
        time >= self.arrival && time < self.departure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_helpers() {
        let saas = VmKind::Saas {
            endpoint: EndpointId(3),
        };
        let iaas = VmKind::Iaas {
            customer: IaasCustomerId(9),
        };
        assert!(saas.is_saas() && !saas.is_iaas());
        assert!(iaas.is_iaas() && !iaas.is_saas());
        assert_eq!(saas.endpoint(), Some(EndpointId(3)));
        assert_eq!(iaas.endpoint(), None);
    }

    #[test]
    fn lifetime_window() {
        let vm = Vm {
            id: VmId(1),
            kind: VmKind::Iaas {
                customer: IaasCustomerId(0),
            },
            arrival: SimTime::from_hours(10),
            lifetime: SimDuration::from_days(2),
        };
        assert_eq!(vm.departure(), SimTime::from_hours(58));
        assert!(!vm.is_alive_at(SimTime::from_hours(9)));
        assert!(vm.is_alive_at(SimTime::from_hours(10)));
        assert!(vm.is_alive_at(SimTime::from_hours(57)));
        assert!(!vm.is_alive_at(SimTime::from_hours(58)));
        assert_eq!(VmId(7).to_string(), "vm-7");
    }
}
