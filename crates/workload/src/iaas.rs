//! IaaS GPU-load traces.
//!
//! IaaS VMs are opaque: the provider sees their power draw but cannot see or change what runs
//! inside (§3.2). For the simulator we generate a per-VM normalized GPU load over time; the
//! datacenter power model then converts it to watts. Each IaaS customer gets its own diurnal
//! phase and intensity so that rows accumulating VMs of the same customer develop the
//! synchronized peaks that produce the heavy-tailed row-power distribution of Fig. 10.

use crate::diurnal::DiurnalPattern;
use crate::vm::{IaasCustomerId, Vm, VmId, VmKind};
use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::time::SimTime;

/// Per-customer load behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CustomerProfile {
    pattern: DiurnalPattern,
    /// Long-run intensity multiplier in `(0, 1]` — some customers run their GPUs flat out,
    /// others leave them mostly idle.
    intensity: f64,
}

/// Generates normalized GPU load for IaaS VMs.
///
/// A VM's load is its customer's shared load ([`Self::customer_load`]: diurnal pattern ×
/// intensity) times its own constant wobble ([`Self::vm_wobble`]), clamped to `[0, 1]`.
/// A simulator can therefore evaluate the customer loads once per step and the wobble
/// once per VM, and reproduce [`Self::load_at`] bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IaasLoadModel {
    /// Indexed by customer id: customers are `0..customer_count()`.
    profiles: Vec<CustomerProfile>,
    seed: u64,
}

impl IaasLoadModel {
    /// Creates the model for up to `customers` distinct customers.
    #[must_use]
    pub fn new(customers: u64, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed).derive("iaas-load");
        let profiles = (0..customers)
            .map(|c| {
                let batchy = rng.chance(0.4);
                let base = if batchy {
                    DiurnalPattern::batchy(seed ^ c)
                } else {
                    DiurnalPattern::interactive(seed ^ c)
                };
                let pattern = base.with_peak_hour(rng.uniform(0.0, 24.0));
                let intensity = rng.uniform(0.35, 1.0);
                CustomerProfile { pattern, intensity }
            })
            .collect();
        Self { profiles, seed }
    }

    /// Number of customer profiles.
    #[must_use]
    pub fn customer_count(&self) -> usize {
        self.profiles.len()
    }

    fn profile(&self, customer: IaasCustomerId) -> Option<&CustomerProfile> {
        self.profiles.get(usize::try_from(customer.0).ok()?)
    }

    /// Normalized GPU load in `[0, 1]` of an IaaS VM at a point in time.
    ///
    /// Returns 0 for SaaS VMs (their load comes from the request stream, not this model) and
    /// for VMs that are not alive at `time`.
    #[must_use]
    pub fn load_at(&self, vm: &Vm, time: SimTime) -> f64 {
        if !vm.is_alive_at(time) {
            return 0.0;
        }
        let customer = match vm.kind {
            VmKind::Iaas { customer } => customer,
            VmKind::Saas { .. } => return 0.0,
        };
        match self.customer_load(customer, time) {
            Some(shared) => (shared * self.vm_wobble(vm.id)).clamp(0.0, 1.0),
            // Unknown customer: assume peak load, the conservative choice §4.1 prescribes
            // when historical data is missing.
            None => 1.0,
        }
    }

    /// A customer's shared load at `time` before the per-VM wobble (diurnal pattern ×
    /// intensity, unclamped), or `None` for an unknown customer. It changes only with the
    /// pattern's hourly noise and time of day, so one evaluation serves every VM of the
    /// customer.
    #[must_use]
    pub fn customer_load(&self, customer: IaasCustomerId, time: SimTime) -> Option<f64> {
        self.profile(customer)
            .map(|profile| profile.pattern.load_at(time) * profile.intensity)
    }

    /// A VM's constant load multiplier in `[0.9, 1.1)`. The small per-VM wobble decorrelates
    /// VMs of the same customer without hiding their shared diurnal phase.
    #[must_use]
    pub fn vm_wobble(&self, vm: VmId) -> f64 {
        SimRng::seed_from(self.seed ^ vm.0.wrapping_mul(0x2545_F491_4F6C_DD1D)).uniform(0.9, 1.1)
    }

    /// The predicted peak load of a VM (used by the allocator, §4.1): the customer's intensity
    /// at the top of the diurnal cycle, or 1.0 when the customer is unknown.
    #[must_use]
    pub fn predicted_peak(&self, customer: IaasCustomerId) -> f64 {
        self.profile(customer)
            .map(|p| p.intensity.min(1.0))
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmKind;
    use simkit::stats;
    use simkit::time::SimDuration;

    fn iaas_vm(id: u64, customer: u64) -> Vm {
        Vm {
            id: VmId(id),
            kind: VmKind::Iaas {
                customer: IaasCustomerId(customer),
            },
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_days(30),
        }
    }

    #[test]
    fn load_is_bounded_and_zero_when_dead() {
        let model = IaasLoadModel::new(20, 1);
        assert_eq!(model.customer_count(), 20);
        let vm = iaas_vm(0, 3);
        for m in (0..3 * 1440).step_by(60) {
            let load = model.load_at(&vm, SimTime::from_minutes(m));
            assert!((0.0..=1.0).contains(&load));
        }
        let dead = Vm {
            lifetime: SimDuration::from_minutes(10),
            ..vm
        };
        assert_eq!(model.load_at(&dead, SimTime::from_hours(5)), 0.0);
    }

    #[test]
    fn saas_vms_get_no_iaas_load() {
        let model = IaasLoadModel::new(5, 2);
        let saas = Vm {
            id: VmId(1),
            kind: VmKind::Saas {
                endpoint: crate::endpoints::EndpointId(0),
            },
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_days(10),
        };
        assert_eq!(model.load_at(&saas, SimTime::from_hours(12)), 0.0);
    }

    #[test]
    fn unknown_customer_assumes_peak_load() {
        let model = IaasLoadModel::new(5, 3);
        let vm = iaas_vm(9, 99);
        assert_eq!(model.load_at(&vm, SimTime::from_hours(3)), 1.0);
        assert_eq!(model.predicted_peak(IaasCustomerId(99)), 1.0);
    }

    #[test]
    fn same_customer_vms_are_correlated() {
        let model = IaasLoadModel::new(30, 4);
        let a = iaas_vm(0, 7);
        let b = iaas_vm(1, 7);
        let c = iaas_vm(2, 23);
        let times: Vec<SimTime> = (0..48).map(SimTime::from_hours).collect();
        let load = |vm: &Vm| -> Vec<f64> { times.iter().map(|&t| model.load_at(vm, t)).collect() };
        let la = load(&a);
        let lb = load(&b);
        let lc = load(&c);
        let corr = correlation(&la, &lb);
        let cross = correlation(&la, &lc);
        assert!(
            corr > 0.9,
            "same-customer VMs should be strongly correlated, got {corr}"
        );
        assert!(
            corr > cross,
            "same-customer correlation should exceed cross-customer"
        );
    }

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let ma = stats::mean(a).unwrap();
        let mb = stats::mean(b).unwrap();
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        if va == 0.0 || vb == 0.0 {
            return 0.0;
        }
        cov / (va.sqrt() * vb.sqrt())
    }

    #[test]
    fn predicted_peak_bounds_observed_load() {
        let model = IaasLoadModel::new(15, 5);
        for customer in 0..15 {
            let vm = iaas_vm(customer, customer);
            let peak = model.predicted_peak(IaasCustomerId(customer));
            for h in 0..72 {
                let load = model.load_at(&vm, SimTime::from_hours(h));
                assert!(
                    load <= peak * 1.1 + 1e-9,
                    "observed load {load} exceeds predicted peak {peak}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = IaasLoadModel::new(10, 8);
        let b = IaasLoadModel::new(10, 8);
        let vm = iaas_vm(0, 2);
        for h in 0..24 {
            assert_eq!(
                a.load_at(&vm, SimTime::from_hours(h)),
                b.load_at(&vm, SimTime::from_hours(h))
            );
        }
    }
}
