//! The shard worker as a binary of this crate, for its integration
//! tests: `CARGO_BIN_EXE_memstream-shard-worker` is only defined for
//! binaries of the crate under test. It runs [`memstream_shard::worker_main`],
//! the same body as the harness's `shard-worker` subcommand, so the
//! fault suites spawn the worker that users run.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(memstream_shard::worker_main(&args));
}
