//! Out-of-range flag values and arguments to experiments that take none:
//! each is rejected up front with exit 2 and a one-line reason naming the
//! flag, instead of a panic deep in the model or a silently substituted
//! or dropped value.

use std::process::Command;

const HARNESS: &str = env!("CARGO_BIN_EXE_harness");

#[test]
fn out_of_range_values_exit_2_naming_the_flag() {
    let validate = "--validate must be finite, positive and at most";
    let rate = "--rate must be positive and below the media rate (102.40 Mbps)";
    let buffer = "--buffer must be at most the device capacity (111.76 GiB)";
    let lifetime = "--lifetime must leave the springs requirement at 1.02 Mbps a finite size";
    let rates = "--rates must be at most 1000000";
    let cases: &[(&[&str], &str)] = &[
        (&["grid", "--rates", "2", "--validate", "inf"], validate),
        (&["grid", "--rates", "2", "--validate", "1e30"], validate),
        (&["grid", "--rates", "2", "--validate", "1.9e10"], validate),
        (&["grid", "--rates", "2", "--validate", "-1"], validate),
        (&["grid", "--rates", "2", "--validate", "nan"], validate),
        (&["grid", "--rates", "2", "--validate", "0"], validate),
        (&["grid", "--rates", "1000001"], rates),
        (&["grid", "--rates", "100000000000"], rates),
        (&["refine", "--rates", "18446744073709551615"], rates),
        (&["custom", "--rate", "0"], rate),
        (&["custom", "--rate", "0kbps"], rate),
        (&["custom", "--rate", "102.4Mbps"], rate),
        (&["custom", "--rate", "200Mbps"], rate),
        (&["custom", "--buffer", "1e20b"], buffer),
        (&["custom", "--buffer", "121GB"], buffer),
        (
            &["custom", "--rate", "1024kbps", "--lifetime", "1e300y"],
            lifetime,
        ),
        (
            &["fig3a", "--rates", "100"],
            "`fig3a` takes no arguments; got `--rates`",
        ),
        (
            &["table1", "extra"],
            "`table1` takes no arguments; got `extra`",
        ),
        (&["all", "x"], "`all` takes no arguments; got `x`"),
    ];
    for (args, reason) in cases {
        let output = Command::new(HARNESS)
            .args(*args)
            .output()
            .expect("harness spawns");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn cargo_separator_is_not_an_argument() {
    let output = Command::new(HARNESS)
        .args(["breakeven", "--"])
        .output()
        .expect("harness spawns");
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("break-even buffers"));
}
