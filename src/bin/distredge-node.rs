//! `distredge-node` — one cluster node process.
//!
//! Serves one device of a DistrEdge cluster: binds the listen address
//! (port 0 lets the OS pick one), prints the address it bound — the first
//! line on stdout, so whoever started the process can read it — waits for a
//! coordinator's bootstrap handshake (model + plan + weight shard), then
//! runs the provider pipeline until halted.
//!
//! ```text
//! distredge-node --config node0.toml
//! distredge-node --device 0 --listen 127.0.0.1:7700 [--profile pi4]
//! ```

use edge_cluster::{BoundNode, NodeConfig};
use edge_telemetry::Telemetry;
use std::process::ExitCode;

const USAGE: &str = "usage: distredge-node --config <file.toml|file.json>
       distredge-node --device <N> --listen <addr> [--profile <name>]";

fn parse_args(args: &[String]) -> Result<NodeConfig, String> {
    let mut config_path: Option<String> = None;
    let mut device: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut profile: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--config" => config_path = Some(value("--config")?),
            "--device" => {
                device = Some(
                    value("--device")?
                        .parse()
                        .map_err(|e| format!("bad --device: {e}"))?,
                )
            }
            "--listen" => listen = Some(value("--listen")?),
            "--profile" => profile = Some(value("--profile")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    // `--config` stands alone: the file carries the profile too.
    match (config_path, device, listen, profile) {
        (Some(path), None, None, None) => {
            NodeConfig::from_file(&path).map_err(|e| format!("load {path}: {e}"))
        }
        (None, Some(device), Some(listen), profile) => Ok(NodeConfig {
            device,
            listen,
            profile,
        }),
        _ => Err(format!(
            "need either --config alone, or both --device and --listen\n{USAGE}"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let run = BoundNode::bind(&cfg).and_then(|node| {
        println!(
            "distredge-node: device {} listening on {}{}",
            cfg.device,
            node.addr(),
            cfg.profile
                .as_deref()
                .map(|p| format!(" (profile {p})"))
                .unwrap_or_default()
        );
        node.run(&Telemetry::disabled())
    });
    match run {
        Ok(()) => {
            println!("distredge-node: device {} halted", cfg.device);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("distredge-node: device {}: {e}", cfg.device);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_build_a_node_config() {
        let cfg = parse_args(&args(&[
            "--device",
            "1",
            "--listen",
            "127.0.0.1:0",
            "--profile",
            "pi4",
        ]))
        .unwrap();
        assert_eq!(cfg.device, 1);
        assert_eq!(cfg.listen, "127.0.0.1:0");
        assert_eq!(cfg.profile.as_deref(), Some("pi4"));
    }

    #[test]
    fn config_rejects_a_profile_flag_it_would_drop() {
        let err = parse_args(&args(&["--config", "node0.toml", "--profile", "pi4"])).unwrap_err();
        assert!(err.contains(USAGE), "{err}");
    }

    #[test]
    fn config_mixed_with_device_flags_is_rejected() {
        let err = parse_args(&args(&["--config", "node0.toml", "--device", "0"])).unwrap_err();
        assert!(err.contains(USAGE), "{err}");
    }
}
