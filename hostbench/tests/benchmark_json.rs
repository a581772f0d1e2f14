//! `BENCHMARK.json` declares exactly the metrics the benchmark prints.

use hostbench::metrics::{END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_declares_every_printed_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: String = json.split_whitespace().collect();
    let declared = json.matches("\"unit\"").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len(), "metric count differs");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {name} in {unit}");
    }
}
