//! Clock-gating policy (§IV).
//!
//! "When the router is not serving any packets, the logic or memory
//! resources can be sent to an idle mode. Hence, during the off period of
//! the duty cycle, the dynamic power can be assumed to be zero, but the
//! static power is dissipated constantly." Turning resources off uses
//! flags (logic) and clock gating (memory). Without gating, dynamic power
//! burns regardless of utilization — the contrast the ablation bench
//! `ablation_gating` sweeps. The policy is applied cycle by cycle by
//! `vr-power`'s pipeline engine; the analytical models weight by µ.

use serde::{Deserialize, Serialize};

/// Power-management configuration of an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatingPolicy {
    /// Logic idles via service-required flags (§IV).
    pub logic_flags: bool,
    /// Memories idle via clock gating (§IV).
    pub memory_clock_gating: bool,
}

impl GatingPolicy {
    /// The paper's assumed configuration: both mechanisms on.
    pub const PAPER: GatingPolicy = GatingPolicy {
        logic_flags: true,
        memory_clock_gating: true,
    };

    /// No power management: dynamic power is burned continuously.
    pub const NONE: GatingPolicy = GatingPolicy {
        logic_flags: false,
        memory_clock_gating: false,
    };
}
