// The integration-tests crate exists only to host the cross-crate tests in /tests.

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
