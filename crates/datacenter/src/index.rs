//! Frozen topology ordinals and dense, id-keyed telemetry containers.
//!
//! Every physical entity already carries a dense index in its id newtype
//! ([`ServerId::index`] and friends). A [`TopologyIndex`] freezes those ordinals for one
//! datacenter — entity counts, the server-major GPU offset table and the contiguous
//! per-row and per-aisle server ranges — so per-step telemetry can live in flat vectors
//! instead of tree maps. [`OrdinalMap`] is the id-keyed dense container those telemetry
//! types use: an ordinal-indexed `Vec` with map-like (`get`/`iter`) accessors so call
//! sites read like the `BTreeMap`s they replace while costing an array index.
//!
//! The index is a *handle*, not a global: a future fleet layer holds one per datacenter
//! and telemetry types stay valid against the index that shaped them.

use crate::ids::{AisleId, GpuId, PduId, RackId, RowId, ServerId, UpsId};
use crate::topology::Layout;
use serde::{Deserialize, Error, Serialize, Value};
use std::marker::PhantomData;
use std::ops::{Index, IndexMut, Range};

/// An id newtype that is a dense ordinal: convertible to and from its raw index.
///
/// Implemented by every physical id in [`crate::ids`]; [`OrdinalMap`] uses it to key
/// flat vectors by typed ids.
pub trait TopologyOrdinal: Copy {
    /// The raw ordinal of this id.
    fn ordinal(self) -> usize;
    /// Reconstructs the id from a raw ordinal.
    fn from_ordinal(ordinal: usize) -> Self;
}

macro_rules! ordinal_impl {
    ($($ty:ty),*) => {$(
        impl TopologyOrdinal for $ty {
            fn ordinal(self) -> usize {
                self.index()
            }
            fn from_ordinal(ordinal: usize) -> Self {
                Self::new(ordinal)
            }
        }
    )*};
}

ordinal_impl!(ServerId, RowId, AisleId, RackId, PduId, UpsId);

/// A dense map keyed by a [`TopologyOrdinal`] id: a flat `Vec<V>` whose slot `i` belongs
/// to the id with ordinal `i`.
///
/// This is the telemetry-grid building block: `get`/`iter` keep call sites id-keyed and
/// readable, while storage stays contiguous and lookups are O(1) array indexing. Unlike a
/// `BTreeMap`, the key set is always the full ordinal range `0..len` — exactly right for
/// per-row/per-aisle/per-PDU grids that cover every entity each step.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdinalMap<K, V> {
    values: Vec<V>,
    _key: PhantomData<K>,
}

impl<K, V> Default for OrdinalMap<K, V> {
    fn default() -> Self {
        Self {
            values: Vec::new(),
            _key: PhantomData,
        }
    }
}

impl<K: TopologyOrdinal, V> OrdinalMap<K, V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A map of `len` slots, every slot holding a clone of `value`.
    #[must_use]
    pub fn filled(len: usize, value: V) -> Self
    where
        V: Clone,
    {
        Self {
            values: vec![value; len],
            _key: PhantomData,
        }
    }

    /// Wraps an ordinal-ordered vector (slot `i` belongs to the id with ordinal `i`).
    #[must_use]
    pub fn from_ordered(values: Vec<V>) -> Self {
        Self {
            values,
            _key: PhantomData,
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the map has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value for `key`, or `None` if the ordinal is out of range.
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        self.values.get(key.ordinal())
    }

    /// Mutable access to the value for `key`.
    #[must_use]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.values.get_mut(key.ordinal())
    }

    /// Iterates `(id, value)` pairs in ordinal order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (K, &V)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (K::from_ordinal(i), v))
    }

    /// Iterates the values in ordinal order.
    pub fn values(&self) -> std::slice::Iter<'_, V> {
        self.values.iter()
    }

    /// Mutably iterates the values in ordinal order.
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, V> {
        self.values.iter_mut()
    }

    /// Iterates the keys in ordinal order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = K> + '_ {
        (0..self.values.len()).map(K::from_ordinal)
    }

    /// Resizes to `len` slots, filling new slots with clones of `value`. Existing slots
    /// keep their contents; shrinking truncates. Reuses the allocation across steps.
    pub fn resize(&mut self, len: usize, value: V)
    where
        V: Clone,
    {
        self.values.resize(len, value);
    }

    /// Overwrites every slot with clones of `value` (allocation-free).
    pub fn fill(&mut self, value: V)
    where
        V: Clone,
    {
        self.values.fill(value);
    }

    /// Removes all slots, keeping the allocation.
    pub fn clear(&mut self) {
        self.values.clear();
    }
}

impl<K: TopologyOrdinal, V> Index<K> for OrdinalMap<K, V> {
    type Output = V;
    fn index(&self, key: K) -> &V {
        &self.values[key.ordinal()]
    }
}

impl<K: TopologyOrdinal, V> IndexMut<K> for OrdinalMap<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        &mut self.values[key.ordinal()]
    }
}

impl<K: TopologyOrdinal, V> FromIterator<V> for OrdinalMap<K, V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        Self::from_ordered(iter.into_iter().collect())
    }
}

// The vendored serde derive rejects generics, so the impls are written out: an
// `OrdinalMap` serializes as the plain sequence of its values in ordinal order (the
// ordinals are implicit), which also keeps the encoding deterministic.
impl<K, V: Serialize> Serialize for OrdinalMap<K, V> {
    fn to_value(&self) -> Value {
        self.values.to_value()
    }
}

impl<K, V: Deserialize> Deserialize for OrdinalMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Self {
            values: Vec::from_value(value)?,
            _key: PhantomData,
        })
    }
}

/// Returns `true` when `ids` is an ascending, contiguous ordinal run — the layout
/// builder's invariant for row and aisle member lists. Dense-slice reductions over
/// `[first, first + len)` windows (hierarchy row draws, aisle demand) are bit-identical
/// to the id-list walks exactly when this holds.
#[must_use]
pub fn is_contiguous_run<K: TopologyOrdinal>(ids: &[K]) -> bool {
    ids.windows(2).all(|w| w[1].ordinal() == w[0].ordinal() + 1)
}

/// Frozen ordinal geometry of one datacenter, built once from its [`Layout`].
///
/// Holds the entity counts and the stride tables (server-major GPU offsets, contiguous
/// per-row and per-aisle server ranges) that shape every dense telemetry grid. Cheap to
/// clone behind an `Arc`; the engine, its workspaces and any fleet-level aggregation share
/// one handle per datacenter.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyIndex {
    server_count: usize,
    row_count: usize,
    aisle_count: usize,
    rack_count: usize,
    pdu_count: usize,
    ups_count: usize,
    /// Server-major GPU prefix sums (length `server_count + 1`).
    gpu_offsets: Vec<u32>,
    /// Contiguous `[start, end)` server-index range per row, in row-ordinal order.
    row_ranges: Vec<Range<usize>>,
    /// Contiguous `[start, end)` server-index range per aisle, in aisle-ordinal order.
    aisle_ranges: Vec<Range<usize>>,
}

/// The `[start, end)` server-index span of a row's or aisle's member list, which must be
/// an ascending contiguous run.
///
/// # Panics
/// Panics, naming the `level`, if the list is not an ascending contiguous run.
pub(crate) fn server_span(servers: &[ServerId], level: &str) -> Range<usize> {
    assert!(
        is_contiguous_run(servers),
        "{level} must cover contiguous server-index ranges"
    );
    let start = servers.first().map_or(0, |s| s.index());
    start..start + servers.len()
}

impl TopologyIndex {
    /// Freezes the ordinal geometry of a layout.
    ///
    /// # Panics
    /// Panics if the layout's rows or aisles are not ascending contiguous server-index
    /// runs (the builder always produces contiguous ones).
    #[must_use]
    pub fn from_layout(layout: &Layout) -> Self {
        let server_count = layout.server_count();
        let mut gpu_offsets = Vec::with_capacity(server_count + 1);
        let mut total_gpus = 0u32;
        gpu_offsets.push(0);
        for server in layout.servers() {
            total_gpus += u32::try_from(server.spec.gpus_per_server)
                .expect("per-server GPU count fits in u32");
            gpu_offsets.push(total_gpus);
        }
        let row_ranges = layout
            .rows()
            .iter()
            .map(|r| server_span(&r.servers, "rows"))
            .collect();
        let aisle_ranges = layout
            .aisles()
            .iter()
            .map(|a| server_span(&a.servers, "aisles"))
            .collect();
        Self {
            server_count,
            row_count: layout.rows().len(),
            aisle_count: layout.aisles().len(),
            rack_count: layout.racks().len(),
            pdu_count: layout.pdus().len(),
            ups_count: layout.upses().len(),
            gpu_offsets,
            row_ranges,
            aisle_ranges,
        }
    }

    /// Number of servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.server_count
    }

    /// Number of rows.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of cold aisles.
    #[must_use]
    pub fn aisle_count(&self) -> usize {
        self.aisle_count
    }

    /// Number of racks.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.rack_count
    }

    /// Number of PDU pairs.
    #[must_use]
    pub fn pdu_count(&self) -> usize {
        self.pdu_count
    }

    /// Number of UPSes.
    #[must_use]
    pub fn ups_count(&self) -> usize {
        self.ups_count
    }

    /// Total GPU count.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        *self.gpu_offsets.last().expect("offsets non-empty") as usize
    }

    /// The server-major GPU prefix sums (length `server_count + 1`).
    #[must_use]
    pub fn gpu_offsets(&self) -> &[u32] {
        &self.gpu_offsets
    }

    /// The flat GPU range of one server.
    ///
    /// # Panics
    /// Panics if the server ordinal is out of range.
    #[must_use]
    pub fn gpu_range(&self, server: ServerId) -> Range<usize> {
        let start = self.gpu_offsets[server.index()] as usize;
        let end = self.gpu_offsets[server.index() + 1] as usize;
        start..end
    }

    /// The flat (server-major) ordinal of one GPU.
    ///
    /// # Panics
    /// Panics if the server ordinal is out of range or the slot exceeds the server's GPU
    /// count.
    #[must_use]
    pub fn gpu_flat_index(&self, gpu: GpuId) -> usize {
        let range = self.gpu_range(gpu.server);
        assert!(gpu.slot < range.end - range.start, "GPU slot out of range");
        range.start + gpu.slot
    }

    /// The contiguous server-index ranges of every row, in row-ordinal order.
    #[must_use]
    pub fn row_ranges(&self) -> &[Range<usize>] {
        &self.row_ranges
    }

    /// The contiguous server-index range of one row.
    ///
    /// # Panics
    /// Panics if the row ordinal is out of range.
    #[must_use]
    pub fn row_range(&self, row: RowId) -> Range<usize> {
        self.row_ranges[row.index()].clone()
    }

    /// The contiguous server-index range of one aisle.
    ///
    /// # Panics
    /// Panics if the aisle ordinal is out of range.
    #[must_use]
    pub fn aisle_range(&self, aisle: AisleId) -> Range<usize> {
        self.aisle_ranges[aisle.index()].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LayoutConfig;

    #[test]
    fn index_matches_layout_geometry() {
        let layout = LayoutConfig::production_datacenter().build();
        let index = TopologyIndex::from_layout(&layout);
        assert_eq!(index.server_count(), layout.server_count());
        assert_eq!(index.row_count(), layout.rows().len());
        assert_eq!(index.aisle_count(), layout.aisles().len());
        assert_eq!(index.rack_count(), layout.racks().len());
        assert_eq!(index.pdu_count(), layout.pdus().len());
        assert_eq!(index.ups_count(), layout.upses().len());
        assert_eq!(index.gpu_count(), layout.gpu_count());
        for row in layout.rows() {
            let range = index.row_range(row.id);
            assert_eq!(range.end - range.start, row.servers.len());
            for server in &row.servers {
                assert!(range.contains(&server.index()));
            }
        }
    }

    #[test]
    fn gpu_offsets_are_server_major_prefix_sums() {
        let layout = LayoutConfig::small_test_cluster().build();
        let index = TopologyIndex::from_layout(&layout);
        assert_eq!(index.gpu_offsets().len(), layout.server_count() + 1);
        for server in layout.servers() {
            assert_eq!(
                index.gpu_range(server.id).len(),
                server.spec.gpus_per_server
            );
            let flat = index.gpu_flat_index(GpuId::new(server.id, 0));
            assert_eq!(flat, index.gpu_range(server.id).start);
        }
        assert_eq!(
            index.gpu_flat_index(GpuId::new(ServerId::new(1), 3)),
            8 + 3,
            "second server's slot 3 sits after the first server's 8 GPUs"
        );
    }

    #[test]
    #[should_panic(expected = "GPU slot out of range")]
    fn out_of_range_slot_panics() {
        let layout = LayoutConfig::small_test_cluster().build();
        let index = TopologyIndex::from_layout(&layout);
        let _ = index.gpu_flat_index(GpuId::new(ServerId::new(0), 8));
    }

    #[test]
    fn contiguous_run_predicate() {
        assert!(is_contiguous_run::<ServerId>(&[]));
        assert!(is_contiguous_run(&[ServerId::new(3)]));
        assert!(is_contiguous_run(&[
            ServerId::new(3),
            ServerId::new(4),
            ServerId::new(5)
        ]));
        assert!(!is_contiguous_run(&[ServerId::new(3), ServerId::new(5)]));
        assert!(!is_contiguous_run(&[ServerId::new(4), ServerId::new(3)]));
    }

    /// Every aisle the builder produces — uniform layouts of each preset and a ragged
    /// mixed-spec remap — is one ascending contiguous span matching its member list.
    #[test]
    fn aisles_are_contiguous_spans_of_their_members() {
        let ragged = LayoutConfig::production_datacenter()
            .build()
            .map_server_specs(|s| {
                let mut spec = s.spec;
                spec.gpus_per_server = 1 + s.id.index() % 8;
                spec
            });
        for layout in [
            LayoutConfig::small_test_cluster().build(),
            LayoutConfig::real_cluster_two_rows().build(),
            LayoutConfig::production_datacenter().build(),
            ragged,
        ] {
            let index = TopologyIndex::from_layout(&layout);
            let mut covered = 0;
            for aisle in layout.aisles() {
                let span = index.aisle_range(aisle.id);
                let members: Vec<usize> = aisle.servers.iter().map(|s| s.index()).collect();
                assert!(!members.is_empty());
                assert_eq!(members, span.clone().collect::<Vec<_>>());
                assert_eq!(
                    span.start, covered,
                    "aisles tile the server indices in order"
                );
                covered = span.end;
            }
            assert_eq!(covered, layout.server_count());
        }
    }

    #[test]
    #[should_panic(expected = "aisles must cover contiguous server-index ranges")]
    fn non_contiguous_aisle_panics() {
        let _ = server_span(&[ServerId::new(0), ServerId::new(2)], "aisles");
    }

    #[test]
    #[should_panic(expected = "rows must cover contiguous server-index ranges")]
    fn permuted_row_panics() {
        let _ = server_span(&[ServerId::new(1), ServerId::new(0)], "rows");
    }

    #[test]
    fn ordinal_map_reads_like_a_map() {
        let mut map: OrdinalMap<RowId, f64> = OrdinalMap::filled(3, 0.0);
        map[RowId::new(1)] = 2.5;
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(RowId::new(1)), Some(&2.5));
        assert_eq!(map.get(RowId::new(9)), None);
        assert_eq!(map[RowId::new(0)], 0.0);
        let pairs: Vec<(usize, f64)> = map.iter().map(|(k, &v)| (k.index(), v)).collect();
        assert_eq!(pairs, vec![(0, 0.0), (1, 2.5), (2, 0.0)]);
        let keys: Vec<usize> = map.keys().map(RowId::index).collect();
        assert_eq!(keys, vec![0, 1, 2]);
        map.fill(1.0);
        assert!(map.values().all(|&v| (v - 1.0).abs() < f64::EPSILON));
        map.resize(5, 7.0);
        assert_eq!(map[RowId::new(4)], 7.0);
        map.clear();
        assert!(map.is_empty());
    }

    #[test]
    fn ordinal_map_round_trips_through_serde() {
        let map: OrdinalMap<AisleId, f64> = [1.0, 2.0, 3.0].into_iter().collect();
        let back = OrdinalMap::<AisleId, f64>::from_value(&map.to_value()).unwrap();
        assert_eq!(back, map);
        assert_eq!(back.values().copied().collect::<Vec<_>>(), [1.0, 2.0, 3.0]);
    }
}
