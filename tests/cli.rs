//! End-to-end checks of the `wfasic-align` binary: a bad argument exits
//! with the usage code instead of aborting, and the `device` backend prints
//! exactly what a one-lane `multilane` backend prints.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wfasic::seqio::InputSetSpec;

/// Write `n` generated pairs as `a.fasta` and `b.fasta` in a fresh
/// directory under the system temp dir.
fn write_fasta_pair(tag: &str, n: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wfasic-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pairs = InputSetSpec {
        length: 100,
        error_pct: 5,
    }
    .generate(n, 0xC11)
    .pairs;
    let (mut a, mut b) = (String::new(), String::new());
    for p in &pairs {
        a.push_str(&format!(
            ">r{}\n{}\n",
            p.id,
            String::from_utf8_lossy(&p.a.bytes())
        ));
        b.push_str(&format!(
            ">r{}\n{}\n",
            p.id,
            String::from_utf8_lossy(&p.b.bytes())
        ));
    }
    std::fs::write(dir.join("a.fasta"), a).unwrap();
    std::fs::write(dir.join("b.fasta"), b).unwrap();
    dir
}

fn align(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfasic-align"))
        .arg(dir.join("a.fasta"))
        .arg(dir.join("b.fasta"))
        .args(args)
        .output()
        .expect("wfasic-align runs")
}

#[test]
fn zero_aligners_is_a_usage_error() {
    let dir = write_fasta_pair("zero", 2);
    let out = align(&dir, &["--aligners", "0"]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn device_backend_prints_what_one_multilane_lane_prints() {
    let dir = write_fasta_pair("device", 28);
    let device = align(&dir, &["--backend", "device", "--cycles"]);
    let one_lane = align(
        &dir,
        &["--backend", "multilane", "--lanes", "1", "--cycles"],
    );
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(device.status.success(), "{device:?}");
    assert!(one_lane.status.success(), "{one_lane:?}");
    let stdout = String::from_utf8(device.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 28);
    assert_eq!(stdout, String::from_utf8(one_lane.stdout).unwrap());
}
