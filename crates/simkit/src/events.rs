//! Structured event log.
//!
//! The evaluation of TAPAS counts *events*: thermal throttling episodes, power capping
//! episodes, infrastructure failures, VM placements and instance reconfigurations. Rather
//! than letting every crate keep ad-hoc counters, the cluster simulator appends typed
//! [`Event`]s to an [`EventLog`] which the report generators then slice by kind and time
//! window. States that hold for a whole step (an SLO-violating or quality-degraded
//! instance) are not events; reports count them per step instead.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// The category of a logged event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A GPU exceeded its thermal limit and the hardware throttled it.
    ThermalThrottle,
    /// A power-hierarchy level exceeded its budget and its servers were power-capped.
    PowerCap,
    /// An aisle's servers demanded more airflow than the AHUs provide (heat recirculation).
    AirflowViolation,
    /// A cooling device or AHU failed.
    CoolingFailure,
    /// A UPS or other power-hierarchy component failed.
    PowerFailure,
    /// A failed component was restored.
    FailureRecovered,
    /// A VM was placed on a server.
    VmPlaced,
    /// A VM could not be placed (no feasible server).
    VmRejected,
    /// A VM finished and released its server.
    VmRetired,
    /// A SaaS instance changed configuration (frequency, batch, parallelism, model, quant).
    InstanceReconfigured,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            EventKind::ThermalThrottle => "thermal-throttle",
            EventKind::PowerCap => "power-cap",
            EventKind::AirflowViolation => "airflow-violation",
            EventKind::CoolingFailure => "cooling-failure",
            EventKind::PowerFailure => "power-failure",
            EventKind::FailureRecovered => "failure-recovered",
            EventKind::VmPlaced => "vm-placed",
            EventKind::VmRejected => "vm-rejected",
            EventKind::VmRetired => "vm-retired",
            EventKind::InstanceReconfigured => "instance-reconfigured",
        };
        f.write_str(label)
    }
}

/// An interned entity label: a cheap-to-clone, shared string.
///
/// Hot recording paths log many events against the same entity ("row-3" every capped
/// step, one label per routed quantum for a misbehaving VM). Formatting a fresh `String`
/// per event made `record_kind` an allocation hot spot; an `EntityLabel` is an
/// `Arc<str>`, so re-recording against a cached label is a reference-count bump. Labels
/// serialize exactly like the plain strings they replaced, keeping every golden artifact
/// byte-identical.
///
/// Build one from any string (`"row-3".into()`), or cache per-ordinal labels in a
/// [`LabelInterner`] so each entity's label is formatted at most once per run.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityLabel(Arc<str>);

impl EntityLabel {
    /// The label text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EntityLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for EntityLabel {
    fn from(value: &str) -> Self {
        Self(Arc::from(value))
    }
}

impl From<String> for EntityLabel {
    fn from(value: String) -> Self {
        Self(Arc::from(value))
    }
}

impl From<&String> for EntityLabel {
    fn from(value: &String) -> Self {
        Self(Arc::from(value.as_str()))
    }
}

impl PartialEq<str> for EntityLabel {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for EntityLabel {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

// Hand-written serde: the vendored derive would also produce `Value::Str`, but the
// facade's derive macro rejects tuple structs around non-`String` fields; encoding is
// identical to the `String` field this type replaced.
impl Serialize for EntityLabel {
    fn to_value(&self) -> Value {
        Value::Str(self.0.to_string())
    }
}

impl Deserialize for EntityLabel {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(Self::from(s.as_str())),
            other => Err(Error::new(format!("expected a string entity label, got {other:?}"))),
        }
    }
}

/// A per-ordinal cache of [`EntityLabel`]s.
///
/// Recording paths index entities by dense ordinals (VM ids, row ordinals, GPU slots).
/// The interner formats each ordinal's label at most once and hands out shared clones
/// afterwards, so steady-state event recording performs no formatting or allocation.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    labels: Vec<Option<EntityLabel>>,
}

impl LabelInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached label for `ordinal`, formatting it with `make` on first use.
    pub fn get_or_insert_with(
        &mut self,
        ordinal: usize,
        make: impl FnOnce() -> String,
    ) -> EntityLabel {
        if ordinal >= self.labels.len() {
            self.labels.resize(ordinal + 1, None);
        }
        self.labels[ordinal]
            .get_or_insert_with(|| EntityLabel::from(make()))
            .clone()
    }

    /// Number of ordinals with a cached label.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Returns `true` if no labels are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A single logged event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// When the event occurred.
    pub time: SimTime,
    /// What happened.
    pub kind: EventKind,
    /// The affected entity, e.g. `"row-3"`, `"server-0412"`, `"vm-saas-17"`.
    pub entity: EntityLabel,
    /// Optional magnitude (degrees above the limit, kilowatts shed, …).
    pub magnitude: f64,
    /// Free-form detail for reports and debugging.
    pub detail: String,
}

/// An append-only log of simulation events.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Convenience constructor-and-append.
    ///
    /// Pass a cached [`EntityLabel`] (e.g. from a [`LabelInterner`]) on hot paths so the
    /// append does not format or allocate; `&str`/`String` still convert for cold paths.
    pub fn record_kind(
        &mut self,
        time: SimTime,
        kind: EventKind,
        entity: impl Into<EntityLabel>,
        magnitude: f64,
        detail: impl Into<String>,
    ) {
        self.record(Event { time, kind, entity: entity.into(), magnitude, detail: detail.into() });
    }

    /// All events in insertion order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events of the given kind.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Total number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of the given kind.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Fraction of simulation steps in `[0, horizon)` during which at least one event of the
    /// given kind occurred, assuming events are logged at step boundaries of length `step`.
    ///
    /// This is the "% of time under thermal/power capping" metric of Fig. 21.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    #[must_use]
    pub fn fraction_of_time(&self, kind: EventKind, horizon: SimTime, step: SimDuration) -> f64 {
        assert!(!step.is_zero(), "step must be non-zero");
        let total_steps = horizon.as_minutes().div_ceil(step.as_minutes());
        if total_steps == 0 {
            return 0.0;
        }
        let mut steps_with_event: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for event in self.of_kind(kind) {
            steps_with_event.insert(event.time.as_minutes() / step.as_minutes());
        }
        steps_with_event.len() as f64 / total_steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(minute: u64, kind: EventKind, entity: &str) -> Event {
        Event {
            time: SimTime::from_minutes(minute),
            kind,
            entity: entity.into(),
            magnitude: 1.0,
            detail: String::new(),
        }
    }

    #[test]
    fn record_and_count() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.record(event(0, EventKind::ThermalThrottle, "server-1"));
        log.record(event(5, EventKind::PowerCap, "row-1"));
        log.record(event(7, EventKind::ThermalThrottle, "server-2"));
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(EventKind::ThermalThrottle), 2);
        assert_eq!(log.count(EventKind::PowerCap), 1);
        assert_eq!(log.count(EventKind::CoolingFailure), 0);
        assert_eq!(log.of_kind(EventKind::PowerCap).count(), 1);
    }

    #[test]
    fn record_kind_builds_event() {
        let mut log = EventLog::new();
        log.record_kind(
            SimTime::from_minutes(3),
            EventKind::VmPlaced,
            "vm-7",
            0.0,
            "placed on server-12",
        );
        assert_eq!(log.events()[0].entity, "vm-7");
        assert_eq!(log.events()[0].detail, "placed on server-12");
    }

    #[test]
    fn fraction_of_time_counts_distinct_steps() {
        let mut log = EventLog::new();
        // Two events within the same 5-minute step should count once.
        log.record(event(0, EventKind::PowerCap, "row-1"));
        log.record(event(2, EventKind::PowerCap, "row-2"));
        log.record(event(10, EventKind::PowerCap, "row-1"));
        let fraction = log.fraction_of_time(
            EventKind::PowerCap,
            SimTime::from_minutes(20),
            SimDuration::from_minutes(5),
        );
        assert!((fraction - 0.5).abs() < 1e-12);
        assert_eq!(
            log.fraction_of_time(
                EventKind::ThermalThrottle,
                SimTime::from_minutes(20),
                SimDuration::from_minutes(5)
            ),
            0.0
        );
    }

    #[test]
    fn entity_labels_serialize_like_plain_strings() {
        let label = EntityLabel::from("row-3");
        assert_eq!(label.to_value(), Value::Str("row-3".to_string()));
        let back = EntityLabel::from_value(&Value::Str("row-3".to_string())).unwrap();
        assert_eq!(back, label);
        assert_eq!(label, "row-3");
        assert_eq!(label.to_string(), "row-3");
        assert!(EntityLabel::from_value(&Value::U64(3)).is_err());
    }

    #[test]
    fn interner_formats_each_ordinal_once() {
        let mut interner = LabelInterner::new();
        let mut calls = 0;
        let first = interner.get_or_insert_with(3, || {
            calls += 1;
            "row-3".to_string()
        });
        let again = interner.get_or_insert_with(3, || {
            calls += 1;
            "unreachable".to_string()
        });
        assert_eq!(calls, 1);
        assert_eq!(first, again);
        assert_eq!(first, "row-3");
        assert_eq!(interner.len(), 1);
        assert!(!interner.is_empty());
    }

    #[test]
    fn event_kind_display_is_kebab_case() {
        assert_eq!(EventKind::ThermalThrottle.to_string(), "thermal-throttle");
        assert_eq!(EventKind::InstanceReconfigured.to_string(), "instance-reconfigured");
    }
}
