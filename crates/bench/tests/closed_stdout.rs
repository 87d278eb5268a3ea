//! A paper bin whose reader has closed stdout ends quietly with exit 0,
//! as `foray-gen` does, instead of panicking on the broken pipe.

use std::process::Command;

#[test]
fn a_closed_stdout_ends_the_figures_bin_quietly() {
    // The read end is dropped before the child starts, so every write the
    // child makes to the pipe fails at once with a broken pipe.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .stdout(writer)
        .output()
        .expect("the figures bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
