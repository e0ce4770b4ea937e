//! Paper-experiment golden: `harness all` and three `harness custom` runs
//! must print **byte-identical** stdout to fixtures captured from commit
//! 87deaa3, before `SystemModel` became the capability model of a
//! `MemsDevice`.
//!
//! The fixtures under `tests/golden/` are the verbatim stdout of
//!
//! ```text
//! harness all                                          -> harness_all.stdout
//! harness custom --rate 2895kbps --saving 0.7 --capacity 0.88 --lifetime 7 --buffer 300KiB
//!                                                      -> custom_2895kbps.stdout
//! harness custom --rate 1024kbps --buffer 1000KiB      -> custom_1024kbps_buffer.stdout
//! harness custom --rate 64kbps --saving 80% --capacity 88% --lifetime 7y
//!                                                      -> custom_64kbps_goal.stdout
//! ```
//!
//! `tests/paper_anchors.rs` checks the paper's numbers within tolerances;
//! this test pins every printed digit of the experiments behind them.

use std::process::Command;

const HARNESS: &str = env!("CARGO_BIN_EXE_harness");

fn first_divergence(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: got `{la}`, golden `{lb}`", i + 1);
        }
    }
    format!(
        "line counts differ: got {}, golden {}",
        a.lines().count(),
        b.lines().count()
    )
}

fn assert_stdout(args: &[&str], golden: &str) {
    let output = Command::new(HARNESS)
        .args(args)
        .output()
        .expect("harness spawns");
    assert!(output.status.success(), "{args:?} exited {}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(
        stdout == golden,
        "{args:?} changed stdout — {}",
        first_divergence(&stdout, golden)
    );
}

#[test]
fn harness_all_is_byte_identical_to_the_fixture() {
    assert_stdout(&["all"], include_str!("golden/harness_all.stdout"));
}

#[test]
fn custom_reports_are_byte_identical_to_the_fixtures() {
    let cases: [(&[&str], &str); 3] = [
        (
            &[
                "custom",
                "--rate",
                "2895kbps",
                "--saving",
                "0.7",
                "--capacity",
                "0.88",
                "--lifetime",
                "7",
                "--buffer",
                "300KiB",
            ],
            include_str!("golden/custom_2895kbps.stdout"),
        ),
        (
            &["custom", "--rate", "1024kbps", "--buffer", "1000KiB"],
            include_str!("golden/custom_1024kbps_buffer.stdout"),
        ),
        (
            &[
                "custom",
                "--rate",
                "64kbps",
                "--saving",
                "80%",
                "--capacity",
                "88%",
                "--lifetime",
                "7y",
            ],
            include_str!("golden/custom_64kbps_goal.stdout"),
        ),
    ];
    for (args, golden) in cases {
        assert_stdout(args, golden);
    }
}
