//! The `forest-serve` binary: bind, announce, serve until a `Shutdown`
//! frame arrives.
//!
//! Usage: `forest-serve [ADDR]` (default `127.0.0.1:7433`; use port 0 to
//! let the OS pick). The bound address is printed to stdout as
//! `forest-serve listening on ADDR` before serving, so harnesses that
//! start the binary with port 0 can read the port back.

#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

use forest_serve::Server;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let addr = match (args.next(), args.next()) {
        (None, _) => "127.0.0.1:7433".to_string(),
        (Some(addr), None) if addr != "--help" && addr != "-h" => addr,
        _ => {
            eprintln!("usage: forest-serve [ADDR]   (default 127.0.0.1:7433)");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(&addr) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("forest-serve: cannot bind {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(bound) => {
            println!("forest-serve listening on {bound}");
            let _ = std::io::stdout().flush();
        }
        Err(err) => {
            eprintln!("forest-serve: cannot read bound address: {err}");
            return ExitCode::FAILURE;
        }
    }
    match server.serve() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("forest-serve: {err}");
            ExitCode::FAILURE
        }
    }
}
