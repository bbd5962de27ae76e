//! Outputs recorded for given seeds (`perfbench/expected.json`): the
//! digest of each workload's checked outputs, and the committed
//! `BENCH_fleet.json` rows the default seed must reproduce.

use serde_json::{Map, Value};

const EXPECTED: &str = include_str!("../expected.json");

fn table() -> Map {
    match serde_json::from_str(EXPECTED) {
        Ok(Value::Object(map)) => map,
        _ => panic!("expected.json is a JSON object"),
    }
}

/// The recorded output digest of `workload` for `seed`, if one was recorded.
pub fn digest(workload: &str, seed: u64) -> Option<String> {
    let table = table();
    let value = table.get(workload)?.as_object()?.get(&seed.to_string())?;
    value.as_str().map(str::to_owned)
}

/// The committed bench row of a DES cell at the default seed: summary
/// field → value.
pub fn bench_row(cell: &str) -> Option<Map> {
    let table = table();
    table.get("bench_fleet_rows")?.as_object()?.get(cell)?.as_object().cloned()
}

/// The seed the committed scenarios and bench rows use.
pub const DEFAULT_SEED: u64 = 2024;
