//! The policy matrix of the ablation study (§5.2, Fig. 20).
//!
//! The evaluation compares the thermal/power-oblivious Baseline against every combination of
//! TAPAS's three mechanisms — placement (Place), request routing (Route) and instance
//! configuration (Config) — and against full TAPAS (all three).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which TAPAS mechanisms are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// Thermal- and power-oblivious placement and routing, no reconfiguration.
    Baseline,
    /// Only thermal/power-aware VM placement.
    Place,
    /// Only thermal/power-aware request routing.
    Route,
    /// Only instance reconfiguration.
    Config,
    /// Placement + routing.
    PlaceRoute,
    /// Placement + configuration.
    PlaceConfig,
    /// Routing + configuration.
    RouteConfig,
    /// Full TAPAS: placement + routing + configuration.
    Tapas,
}

impl Policy {
    /// All policies in the order Fig. 20 presents them.
    pub const ALL: [Policy; 8] = [
        Policy::Baseline,
        Policy::Place,
        Policy::Route,
        Policy::Config,
        Policy::PlaceRoute,
        Policy::PlaceConfig,
        Policy::RouteConfig,
        Policy::Tapas,
    ];

    /// Whether thermal/power-aware placement is enabled.
    #[must_use]
    pub fn placement_enabled(self) -> bool {
        matches!(
            self,
            Policy::Place | Policy::PlaceRoute | Policy::PlaceConfig | Policy::Tapas
        )
    }

    /// Whether thermal/power-aware routing is enabled.
    #[must_use]
    pub fn routing_enabled(self) -> bool {
        matches!(
            self,
            Policy::Route | Policy::PlaceRoute | Policy::RouteConfig | Policy::Tapas
        )
    }

    /// Whether instance reconfiguration is enabled.
    #[must_use]
    pub fn config_enabled(self) -> bool {
        matches!(
            self,
            Policy::Config | Policy::PlaceConfig | Policy::RouteConfig | Policy::Tapas
        )
    }

    /// Short label used in figures and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Policy::Baseline => "Baseline",
            Policy::Place => "Place",
            Policy::Route => "Route",
            Policy::Config => "Config",
            Policy::PlaceRoute => "Place+Route",
            Policy::PlaceConfig => "Place+Config",
            Policy::RouteConfig => "Route+Config",
            Policy::Tapas => "TAPAS",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_match_policy_names() {
        assert!(!Policy::Baseline.placement_enabled());
        assert!(!Policy::Baseline.routing_enabled());
        assert!(!Policy::Baseline.config_enabled());
        assert!(Policy::Place.placement_enabled() && !Policy::Place.routing_enabled());
        assert!(Policy::Route.routing_enabled() && !Policy::Route.config_enabled());
        assert!(Policy::Config.config_enabled() && !Policy::Config.placement_enabled());
        assert!(Policy::PlaceRoute.placement_enabled() && Policy::PlaceRoute.routing_enabled());
        assert!(Policy::Tapas.placement_enabled());
        assert!(Policy::Tapas.routing_enabled());
        assert!(Policy::Tapas.config_enabled());
    }

    #[test]
    fn mechanism_counts() {
        let mechanisms = |p: Policy| {
            [
                p.placement_enabled(),
                p.routing_enabled(),
                p.config_enabled(),
            ]
        };
        let count = |p: Policy| mechanisms(p).into_iter().filter(|&on| on).count();
        assert_eq!(count(Policy::Baseline), 0);
        assert_eq!(count(Policy::Place), 1);
        assert_eq!(count(Policy::RouteConfig), 2);
        assert_eq!(count(Policy::Tapas), 3);
        assert_eq!(Policy::ALL.len(), 8);
        // The eight policies are the eight subsets of the three mechanisms.
        let subsets: std::collections::BTreeSet<[bool; 3]> =
            Policy::ALL.into_iter().map(mechanisms).collect();
        assert_eq!(subsets.len(), 8);
        // All policies are distinct.
        let labels: std::collections::BTreeSet<&str> =
            Policy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn display_uses_figure_labels() {
        assert_eq!(Policy::Tapas.to_string(), "TAPAS");
        assert_eq!(Policy::PlaceConfig.to_string(), "Place+Config");
    }
}
