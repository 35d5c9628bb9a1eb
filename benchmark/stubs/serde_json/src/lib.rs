//! Empty offline stand-in: no library code the benchmark links calls `serde_json`.
