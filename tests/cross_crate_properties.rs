//! Property-style integration tests spanning crates: invariants that must hold for any
//! workload mix, load level or configuration the generators can produce.
//!
//! The build environment vendors its dependencies offline, so instead of proptest these
//! tests drive the same randomized cases from a seeded [`simkit::rng::SimRng`] stream: every
//! case is deterministic, reproducible from the printed seed, and exercises the same
//! parameter ranges the original proptest strategies used.

use tapas_repro::prelude::*;

use dc_sim::engine::StepInput;
use dc_sim::failures::FailureState;
use dc_sim::ids::ServerId;
use dc_sim::topology::LayoutConfig;
use llm_sim::config::{FrequencyScale, TensorParallelism};
use llm_sim::model::{ModelSize, ModelVariant, Quantization};
use llm_sim::perf::PerfModel;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use tapas::placement::{PlacementPlanner, PlacementRequest, TapasPlacement};
use tapas::state::ClusterState;
use workload::endpoints::EndpointId;
use workload::vm::{IaasCustomerId, Vm, VmId, VmKind};

const CASES: usize = 24;

fn small_datacenter() -> Datacenter {
    Datacenter::new(LayoutConfig::small_test_cluster().build(), 7)
}

/// The physics engine never produces non-finite temperatures or powers, and both are
/// monotone in a uniform load increase, for any outside temperature and load level.
#[test]
fn physics_is_finite_and_monotone() {
    let dc = small_datacenter();
    let mut rng = SimRng::seed_from(101).derive("physics-cases");
    for case in 0..CASES {
        let outside = rng.uniform(-10.0, 45.0);
        let load = rng.uniform(0.0, 1.0);
        let low = dc.evaluate(&StepInput::uniform_load(
            dc.layout(),
            Celsius::new(outside),
            load * 0.5,
        ));
        let high = dc.evaluate(&StepInput::uniform_load(
            dc.layout(),
            Celsius::new(outside),
            load,
        ));
        assert!(low.max_gpu_temp().value().is_finite(), "case {case}");
        assert!(high.peak_row_power().value().is_finite(), "case {case}");
        assert!(
            high.max_gpu_temp().value() + 1e-9 >= low.max_gpu_temp().value(),
            "case {case}: temperature must be monotone in load"
        );
        assert!(
            high.peak_row_power().value() + 1e-9 >= low.peak_row_power().value(),
            "case {case}: power must be monotone in load"
        );
    }
}

/// Power capping directives always reduce power (fractions in (0, 1)) and only appear when
/// some level is genuinely over budget.
#[test]
fn capping_fractions_are_valid() {
    let dc = small_datacenter();
    let mut rng = SimRng::seed_from(102).derive("capping-cases");
    for case in 0..CASES {
        let load = rng.uniform(0.0, 1.0);
        let capacity = rng.uniform(0.3, 1.0);
        let mut input = StepInput::uniform_load(dc.layout(), Celsius::new(25.0), load);
        let mut failures = FailureState::healthy();
        failures.fail_ups(dc_sim::ids::UpsId::new(0), capacity);
        input.failures = failures;
        let outcome = dc.evaluate(&input);
        for directive in &outcome.power.capping {
            assert!(
                directive.power_fraction > 0.0 && directive.power_fraction < 1.0,
                "case {case}: fraction {}",
                directive.power_fraction
            );
        }
        if outcome.power.capping.is_empty() {
            assert!(!outcome.power.any_over_budget(), "case {case}");
        }
    }
}

/// The TAPAS allocator never places a VM on an occupied server, and accepts every VM while
/// free servers remain.
#[test]
fn allocator_respects_occupancy() {
    let layout = LayoutConfig::small_test_cluster().build();
    let dc = Datacenter::new(layout.clone(), 3);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let policy = TapasPlacement::default();
    let mut rng = SimRng::seed_from(103).derive("allocator-cases");
    for case in 0..CASES {
        let vm_count = rng.uniform_usize(1, 8);
        let saas_mask = rng.next_u64();
        let mut state = ClusterState::new(layout.server_count());
        let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
        for i in 0..vm_count {
            let load = rng.uniform(0.3, 1.0);
            let saas = (saas_mask >> (i % 8)) & 1 == 1;
            let vm = Vm {
                id: VmId(i as u64),
                kind: if saas {
                    VmKind::Saas {
                        endpoint: EndpointId(0),
                    }
                } else {
                    VmKind::Iaas {
                        customer: IaasCustomerId(0),
                    }
                },
                arrival: SimTime::ZERO,
                lifetime: SimDuration::from_days(7),
            };
            let request = PlacementRequest {
                vm,
                predicted_peak_load: load,
            };
            let chosen = policy.place_with(&request, &state, &layout, &profiles, &mut planner);
            let server = chosen.expect("free servers remain");
            assert!(
                state.is_free(server),
                "case {case}: server {server} occupied"
            );
            state
                .place(vm, server, load, None)
                .expect("placement on a free server");
            planner.on_place(server, load, &profiles);
        }
        assert_eq!(state.placed_count(), vm_count, "case {case}");
    }
}

/// The analytic LLM performance model is consistent for every configuration in the sweep:
/// goodput positive, decode slower with longer contexts, prefill slower at lower clocks.
#[test]
fn perf_model_is_consistent() {
    let perf = PerfModel::new(GpuHardware::a100());
    let mut rng = SimRng::seed_from(104).derive("perf-cases");
    for case in 0..CASES {
        let config = InstanceConfig {
            variant: ModelVariant::new(
                ModelSize::ALL[rng.uniform_usize(0, 3)],
                Quantization::ALL[rng.uniform_usize(0, 3)],
            ),
            parallelism: TensorParallelism::ALL[rng.uniform_usize(0, 3)],
            max_batch_size: rng.uniform_usize(1, 64),
            frequency: FrequencyScale::new(rng.uniform(0.55, 1.0)),
        };
        assert!(perf.goodput_tokens_per_s(&config) > 0.0, "case {case}");
        assert!(
            perf.decode_step_time_s(&config, config.max_batch_size, 2000)
                >= perf.decode_step_time_s(&config, config.max_batch_size, 500),
            "case {case}: decode must slow down with context length"
        );
        let slower = InstanceConfig {
            frequency: FrequencyScale::new(config.frequency.value() * 0.8),
            ..config
        };
        assert!(
            perf.prefill_time_s(&slower, 512) > perf.prefill_time_s(&config, 512) * 0.99,
            "case {case}: prefill must slow down at lower clocks"
        );
        let targets = perf.slo_targets(&config);
        assert!(
            targets.ttft_s > perf.ttft_unloaded_s(&config),
            "case {case}"
        );
    }
}

/// Profiled configurations always stay below the DGX A100 server TDP and keep quality in
/// (0, 1], for any point of the configuration space that fits in memory.
#[test]
fn profiles_respect_hardware_envelope() {
    let gpu = GpuHardware::a100();
    let mut rng = SimRng::seed_from(105).derive("profile-cases");
    let mut checked = 0usize;
    while checked < CASES {
        let config = InstanceConfig {
            variant: ModelVariant::new(
                ModelSize::ALL[rng.uniform_usize(0, 3)],
                Quantization::ALL[rng.uniform_usize(0, 3)],
            ),
            parallelism: TensorParallelism::ALL[rng.uniform_usize(0, 3)],
            max_batch_size: InstanceConfig::BATCH_SIZES[rng.uniform_usize(0, 3)],
            frequency: FrequencyScale::new(FrequencyScale::STEPS[rng.uniform_usize(0, 4)]),
        };
        if !config.fits_in_memory(gpu.memory_capacity_gb) {
            continue;
        }
        checked += 1;
        let profile = ConfigProfile::build(&config, &gpu);
        assert!(
            profile.prefill.server_power.value() <= 6.5 + 1e-9,
            "{config}"
        );
        assert!(
            profile.decode.server_power.value() <= 6.5 + 1e-9,
            "{config}"
        );
        assert!(profile.quality > 0.0 && profile.quality <= 1.0, "{config}");
        assert!(
            profile.prefill.gpu_power.value() <= 400.0 + 1e-9,
            "{config}"
        );
    }
}

/// The dense, index-based [`ClusterState`] must agree with a naive `BTreeMap` reference
/// model over any randomized sequence of place/retire/reconfigure operations: same
/// occupancy, same `VmId → server` mapping, same ordered free list and same per-row mix.
#[test]
fn dense_state_matches_btreemap_reference_model() {
    use std::collections::BTreeMap;

    #[derive(Clone)]
    struct RefEntry {
        server: ServerId,
        kind: VmKind,
        config: Option<InstanceConfig>,
    }

    let layout = LayoutConfig::small_test_cluster().build();
    let mut rng = SimRng::seed_from(106).derive("state-model-cases");
    for case in 0..CASES {
        let mut dense = tapas::state::ClusterState::with_layout(&layout);
        let mut reference: BTreeMap<VmId, RefEntry> = BTreeMap::new();
        let mut next_vm: u64 = 0;
        for _op in 0..200 {
            match rng.uniform_usize(0, 2) {
                // Place a new VM on a random free server.
                0 => {
                    let free = dense.free_servers();
                    if free.is_empty() {
                        continue;
                    }
                    let server = free[rng.uniform_usize(0, free.len())];
                    let saas = rng.chance(0.5);
                    let kind = if saas {
                        VmKind::Saas {
                            endpoint: EndpointId(rng.next_u64() % 3),
                        }
                    } else {
                        VmKind::Iaas {
                            customer: IaasCustomerId(0),
                        }
                    };
                    let vm = Vm {
                        id: VmId(next_vm),
                        kind,
                        arrival: SimTime::ZERO,
                        lifetime: SimDuration::from_days(7),
                    };
                    next_vm += 1;
                    let config = saas.then(InstanceConfig::default_70b);
                    dense.place(vm, server, 0.8, config).expect("free server");
                    reference.insert(
                        vm.id,
                        RefEntry {
                            server,
                            kind,
                            config,
                        },
                    );
                }
                // Retire a random placed VM.
                _ => {
                    if reference.is_empty() {
                        continue;
                    }
                    let victim = *reference
                        .keys()
                        .nth(rng.uniform_usize(0, reference.len()))
                        .expect("non-empty");
                    let removed = dense.remove(victim).expect("placed in both models");
                    let expected = reference.remove(&victim).expect("placed in both models");
                    assert_eq!(removed.server, expected.server, "case {case}");
                }
            }

            // Full agreement check after every mutation.
            assert_eq!(dense.placed_count(), reference.len(), "case {case}");
            for (&vm, entry) in &reference {
                assert_eq!(dense.server_of(vm), Some(entry.server), "case {case}");
                let placed = dense.vm_on(entry.server).expect("occupied");
                assert_eq!(placed.vm.id, vm, "case {case}");
                assert_eq!(placed.config, entry.config, "case {case}");
            }
            let expected_free: Vec<ServerId> = (0..layout.server_count())
                .map(ServerId::new)
                .filter(|s| !reference.values().any(|e| e.server == *s))
                .collect();
            assert_eq!(dense.free_servers(), expected_free, "case {case}");
            for row in layout.rows() {
                let mut iaas = 0;
                let mut saas = 0;
                for entry in reference.values() {
                    if layout.server(entry.server).row == row.id {
                        match entry.kind {
                            VmKind::Iaas { .. } => iaas += 1,
                            VmKind::Saas { .. } => saas += 1,
                        }
                    }
                }
                assert_eq!(dense.row_mix(&layout, row.id), (iaas, saas), "case {case}");
            }
        }
    }
}

/// Two simulator runs with the same seed must produce byte-identical serialized reports —
/// the determinism contract the indexed hot path and the `parallel` feature must preserve.
#[test]
fn seeded_runs_serialize_identically() {
    let run = || {
        let mut config = ExperimentConfig::small_smoke_test();
        config.policy = Policy::Tapas;
        ClusterSimulator::new(config).run()
    };
    let a = serde_json::to_string(&run()).expect("serialize");
    let b = serde_json::to_string(&run()).expect("serialize");
    assert_eq!(a, b, "same seed must yield byte-identical reports");
}

/// Deterministic cross-crate check: the cluster state retires VMs exactly at their departure
/// and placement never exceeds the server count (spans the whole arrival generator).
#[test]
fn arrival_stream_fits_the_cluster() {
    let layout = LayoutConfig::small_test_cluster().build();
    let dc = Datacenter::new(layout.clone(), 5);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let catalog = workload::endpoints::EndpointCatalog::evaluation(2, 10.0, 5);
    let mut generator = workload::arrivals::VmArrivalGenerator::new(
        workload::arrivals::ArrivalConfig {
            saas_fraction: 0.5,
            initial_population: 6,
            arrivals_per_day: 4.0,
            iaas_customers: 5,
            horizon: SimTime::from_days(2),
        },
        5,
    );
    let policy = TapasPlacement::default();
    let mut state = ClusterState::new(layout.server_count());
    let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
    let mut placed = 0;
    for vm in generator.generate(&catalog) {
        state.retire_expired(vm.arrival, |retired| {
            planner.on_remove(retired.server, retired.predicted_peak_load, &profiles);
        });
        let request = PlacementRequest {
            vm,
            predicted_peak_load: 0.8,
        };
        let chosen = policy.place_with(&request, &state, &layout, &profiles, &mut planner);
        if let Some(server) = chosen {
            assert!(server.index() < layout.server_count());
            state.place(vm, server, 0.8, None).unwrap();
            planner.on_place(server, 0.8, &profiles);
            placed += 1;
        }
    }
    assert!(placed >= 6, "at least the initial population fits");
    assert!(state.placed_count() <= layout.server_count());
}
