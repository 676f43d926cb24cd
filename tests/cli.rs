//! End-to-end checks of the `wfasic-align` binary: a bad argument, or an
//! Aligner or lane count too large for the model, exits with the usage code
//! instead of aborting, the `device` backend prints
//! exactly what a one-lane `multilane` backend prints, and lowercase bases
//! mean the same to the device as to the software engines.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wfasic::seqio::InputSetSpec;

/// Write `a` and `b` as `a.fasta` and `b.fasta` in a fresh directory under
/// the system temp dir.
fn write_fasta(tag: &str, a: &str, b: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wfasic-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("a.fasta"), a).unwrap();
    std::fs::write(dir.join("b.fasta"), b).unwrap();
    dir
}

/// Write `n` generated pairs with [`write_fasta`].
fn write_fasta_pair(tag: &str, n: usize) -> PathBuf {
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
    write_fasta(tag, &a, &b)
}

fn align(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfasic-align"))
        .arg(dir.join("a.fasta"))
        .arg(dir.join("b.fasta"))
        .args(args)
        .output()
        .expect("wfasic-align runs")
}

/// An Aligner or lane count the model has no room for is a usage error,
/// not an abort: lanes past the 8 staging windows of the SoC's memory,
/// Aligners past the 61 perf tracks of a lane. The largest counts that fit
/// still run. An unknown strategy or flag is a usage error too, the
/// retired `--long-read-threshold` included, even with a value it took.
#[test]
fn zero_aligners_is_a_usage_error() {
    let dir = write_fasta_pair("zero", 2);
    let cases = [
        ("device", "--aligners", "0", 2),
        ("device", "--aligners", "62", 2),
        ("device", "--aligners", "18446744073709551615", 2),
        ("device", "--aligners", "61", 0),
        ("multilane", "--lanes", "0", 2),
        ("multilane", "--lanes", "9", 2),
        ("multilane", "--lanes", "18446744073709551615", 2),
        ("multilane", "--lanes", "8", 0),
        ("cpu", "--strategy", "adaptive", 2),
        ("cpu", "--adaptive", "10,50", 2),
        ("cpu", "--long-read-threshold", "10000", 2),
    ];
    let outs: Vec<Output> = cases
        .iter()
        .map(|&(backend, flag, n, _)| align(&dir, &["--backend", backend, flag, n]))
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    for (case, out) in cases.iter().zip(&outs) {
        assert_eq!(out.status.code(), Some(case.3), "{case:?}: {out:?}");
    }
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

/// `a`-side lowercase against `b`-side uppercase: the software engines
/// compare bytes, so every base mismatches. The device must not fold the
/// case away and report a perfect match; it flags the read unsupported.
#[test]
fn mixed_case_pair_fails_on_the_device_and_mismatches_in_software() {
    let dir = write_fasta(
        "case",
        ">r0\nacgtacgtacgtacgtacgt\n",
        ">r0\nACGTACGTACGTACGTACGT\n",
    );
    let software: Vec<(&str, Output)> = ["cpu", "swg", "hetero"]
        .into_iter()
        .map(|b| (b, align(&dir, &["--backend", b])))
        .collect();
    let device: Vec<Output> = [&[][..], &["--no-backtrace"]]
        .into_iter()
        .map(|extra| align(&dir, &[&["--backend", "device"][..], extra].concat()))
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    for (backend, out) in software {
        assert!(out.status.success(), "{backend}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(stdout, "r0\tOK\tscore=80\tcigar=20X\n", "{backend}");
    }
    for out in device {
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("r0\tFAIL\t"), "{stdout}");
    }
}
