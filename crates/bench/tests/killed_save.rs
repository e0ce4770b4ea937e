//! A `grid --cache F` run killed at any moment leaves `F` whole: byte for
//! byte the file it started from, or the file a complete run writes —
//! never a torn mix. The save writes a sibling temp file and renames it
//! over `F`; a kill can leave that temp file behind, and the next save of
//! `F` removes it.

#![cfg(target_os = "linux")]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const HARNESS: &str = env!("CARGO_BIN_EXE_harness");

/// The run under test: a small grid over the file of a large one. It
/// evaluates the few cells the file lacks and spends most of its time in
/// the save that copies the file's records, so many kills land in it.
const RUN: [&str; 5] = ["grid", "--classic", "--rates", "4", "--cache"];

fn harness(args: &[&str], cache: &Path) -> Command {
    let mut command = Command::new(HARNESS);
    command
        .args(args)
        .arg(cache)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    command
}

fn run_to_completion(args: &[&str], cache: &Path) {
    let status = harness(args, cache).status().expect("harness spawns");
    assert!(status.success(), "{args:?} exited {status}");
}

/// The names of the temp files that saves of `cache` left beside it.
fn temp_files(cache: &Path) -> Vec<String> {
    let name = cache.file_name().unwrap().to_str().unwrap();
    let prefix = format!("{name}.");
    fs::read_dir(cache.parent().unwrap())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|file| file.starts_with(&prefix) && file.ends_with(".tmp"))
        .collect()
}

#[test]
fn a_killed_run_leaves_the_old_or_the_new_file_and_the_next_save_sweeps_its_temps() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("memstream-killed-save-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("grid.cache");

    // The older file, and the file one complete run writes over it.
    run_to_completion(&["grid", "--rates", "400", "--cache"], &cache);
    let old = fs::read(&cache).unwrap();
    let reference = dir.join("reference.cache");
    fs::write(&reference, &old).unwrap();
    let started = Instant::now();
    run_to_completion(&RUN, &reference);
    let duration = started.elapsed();
    let new = fs::read(&reference).unwrap();
    assert_ne!(old, new, "the run must change the file");

    // Twelve kills, one after another, from right after the spawn to
    // past the point where an undisturbed run is done.
    let (mut kept_old, mut got_new, mut left_temps) = (0, 0, 0);
    for step in 0..12u32 {
        fs::write(&cache, &old).unwrap();
        let delay = duration.mul_f64(f64::from(step) / 10.0);
        let mut child = harness(&RUN, &cache).spawn().expect("harness spawns");
        std::thread::sleep(delay);
        child
            .kill()
            .expect("SIGKILL is delivered or the run is over");
        child.wait().expect("the child is reaped");
        left_temps += temp_files(&cache).len();
        let bytes = fs::read(&cache).unwrap();
        if bytes == old {
            kept_old += 1;
        } else if bytes == new {
            got_new += 1;
        } else {
            panic!(
                "a kill after {delay:?} left {} bytes that are neither file ({} or {})",
                bytes.len(),
                old.len(),
                new.len()
            );
        }
    }
    assert!(
        kept_old > 0,
        "no kill landed before the save ({got_new} new)"
    );

    // The killed runs are gone, so the next save that writes `F` removes
    // any temp file they left. (A fully warm run writes nothing.)
    fs::write(&cache, &old).unwrap();
    run_to_completion(&RUN, &cache);
    assert_eq!(fs::read(&cache).unwrap(), new);
    assert_eq!(
        temp_files(&cache),
        Vec::<String>::new(),
        "the kills left {left_temps} temp files"
    );
    fs::remove_dir_all(dir).unwrap();
}
