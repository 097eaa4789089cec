//! Regenerate the two shipped spec files that mirror in-crate workloads,
//! so `examples/specs/ycsb_a.json` and `examples/specs/simple_ab.json`
//! stay byte-equal to what `YcsbConfig::workload_a(25_000)` (renamed,
//! without its zero-weight templates) and `spec::simple_ab(10_000)`
//! describe — `figures::specs`' tests fail on drift:
//!
//! ```text
//! cargo run -p atrapos-workloads --example regen_shipped_specs
//! ```

use atrapos_workloads::spec::simple_ab;
use atrapos_workloads::YcsbConfig;
use std::path::Path;

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    std::fs::create_dir_all(&dir).expect("create examples/specs");
    let mut ycsb_a = YcsbConfig::workload_a(25_000).spec();
    ycsb_a.name = "ycsb-a-spec".to_string();
    ycsb_a.templates.retain(|t| t.weight > 0.0);
    for (file, spec) in [
        ("ycsb_a.json", ycsb_a),
        ("simple_ab.json", simple_ab(10_000)),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, spec.to_json() + "\n").expect("write spec file");
        println!("wrote {}", path.display());
    }
}
