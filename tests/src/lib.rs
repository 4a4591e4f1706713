//! Integration-test crate: see `tests/` for the cross-crate suites. The
//! library holds what several suites share.
#![forbid(unsafe_code)]

use mantis::{ChannelConfig, CostModel, DriverMode, SwitchConfig, Testbed, TestbedError};

/// Both ways an agent reaches its switch: in process, and over the wire
/// protocol at zero RTT (`ChannelConfig::default()`), so a remote run keeps
/// the local run's timing. A suite that builds a testbed runs once under
/// each.
pub fn driver_modes() -> [DriverMode; 2] {
    [
        DriverMode::Local,
        DriverMode::Remote(ChannelConfig::default()),
    ]
}

/// `src` on a default switch with `num_pipes` hardware pipes, its agent
/// driving it by `mode`.
pub fn testbed(src: &str, num_pipes: u16, mode: DriverMode) -> Result<Testbed, TestbedError> {
    let switch_cfg = SwitchConfig {
        num_pipes,
        ..SwitchConfig::default()
    };
    Testbed::with_config_mode(src, switch_cfg, CostModel::default(), mode)
}
