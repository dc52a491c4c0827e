//! Cross-crate integration: every index access strategy must produce the
//! same job output — strategies change *where and how often* lookups
//! happen, never *what* the job computes.

use efind_repro::common::Record;
use efind_repro::core::{Mode, Strategy};
use efind_repro::workloads::harness::{run_mode, Scenario};
use efind_repro::workloads::{log, osm, synthetic, topics};

fn output_of(mut scenario: Scenario, output: &str, mode: Mode) -> Vec<Record> {
    run_mode(&mut scenario, "test", mode).expect("run succeeds");
    let mut out = scenario.dfs.read_file(output).expect("output exists");
    out.sort();
    out
}

fn log_config() -> log::LogConfig {
    log::LogConfig {
        num_events: 4_000,
        num_ips: 200,
        num_urls: 80,
        chunks: 30,
        ..log::LogConfig::default()
    }
}

#[test]
fn log_all_strategies_agree() {
    let config = log_config();
    let reference = output_of(
        log::scenario(&config),
        "log.topk",
        Mode::Uniform(Strategy::Baseline),
    );
    assert!(!reference.is_empty());
    for strategy in [Strategy::Cache, Strategy::Repartition] {
        let got = output_of(log::scenario(&config), "log.topk", Mode::Uniform(strategy));
        assert_eq!(got, reference, "{strategy:?}");
    }
    let dynamic = output_of(log::scenario(&config), "log.topk", Mode::Dynamic);
    assert_eq!(dynamic, reference, "dynamic");
}

#[test]
fn topics_three_placements_agree() {
    // Head, body, AND tail operators in one job.
    let config = topics::TopicsConfig {
        num_tweets: 3_000,
        num_users: 200,
        num_cities: 12,
        days: 6,
        chunks: 20,
        ..topics::TopicsConfig::default()
    };
    let reference = output_of(
        topics::scenario(&config),
        "topics.out",
        Mode::Uniform(Strategy::Baseline),
    );
    assert!(!reference.is_empty());
    for mode in [
        Mode::Uniform(Strategy::Cache),
        Mode::Uniform(Strategy::Repartition),
        Mode::Uniform(Strategy::IndexLocality),
        // `run_mode` runs Baseline first, then Optimized on the same
        // runtime from the statistics that run collected.
        Mode::Optimized,
    ] {
        let label = format!("{mode:?}");
        let got = output_of(topics::scenario(&config), "topics.out", mode);
        assert_eq!(got, reference, "{label}");
    }
}

#[test]
fn synthetic_idxloc_agrees_with_baseline() {
    let config = synthetic::SyntheticConfig {
        num_records: 3_000,
        key_space: 1_500,
        record_pad: 64,
        index_value_size: 256,
        chunks: 24,
        ..synthetic::SyntheticConfig::default()
    };
    let reference = output_of(
        synthetic::scenario(&config),
        "syn.joined",
        Mode::Uniform(Strategy::Baseline),
    );
    let got = output_of(
        synthetic::scenario(&config),
        "syn.joined",
        Mode::Uniform(Strategy::IndexLocality),
    );
    assert_eq!(got, reference);
}

#[test]
fn osm_knnj_strategy_equivalence_and_exactness() {
    let config = osm::OsmConfig {
        num_a: 400,
        num_b: 600,
        clusters: 8,
        chunks: 12,
        ..osm::OsmConfig::default()
    };
    let reference = output_of(
        osm::scenario(&config),
        "osm.knnj",
        Mode::Uniform(Strategy::Baseline),
    );
    assert_eq!(reference.len(), config.num_a);
    let got = output_of(
        osm::scenario(&config),
        "osm.knnj",
        Mode::Uniform(Strategy::IndexLocality),
    );
    assert_eq!(got, reference);
}

#[test]
fn optimized_mode_is_output_stable() {
    // Whatever plan the optimizer picks, the answer must not change.
    let config = log_config();
    let mut scenario = log::scenario(&config);
    run_mode(&mut scenario, "seed", Mode::Uniform(Strategy::Baseline)).unwrap();
    let mut reference = scenario.dfs.read_file("log.topk").unwrap();
    reference.sort();
    run_mode(&mut scenario, "opt", Mode::Optimized).unwrap();
    let mut got = scenario.dfs.read_file("log.topk").unwrap();
    got.sort();
    assert_eq!(got, reference);
}
