//! I/O pin accounting (§VI-A).
//!
//! The paper caps the separate scheme at 15 virtual networks because "the
//! I/O pin requirement exceeded when the number of virtual networks was
//! increased". Each lookup engine needs its own data-in/data-out pins on
//! top of a shared clock/control budget.
//!
//! The paper does not publish its pin budget. [`PINS_PER_ENGINE`] and
//! [`SHARED_PINS`] were chosen so that the 1200-pin XC6VLX760 fits exactly
//! the paper's K = 15 engines, so the `vs-pin-limit` claim holds by
//! construction, not by measurement. With [`SHARED_PINS`] at 60 the claim
//! holds only for 72 ≤ [`PINS_PER_ENGINE`] ≤ 76, the range where
//! ⌊1 140 / p⌋ = 15.

use crate::device::Device;
use crate::PowerError;

/// Pins per lookup engine: 32 destination-address in + 16 VNID/metadata in
/// + 8 NHI out + 16 handshake/flow control.
pub(crate) const PINS_PER_ENGINE: u64 = 72;

/// Shared pins: clocking, reset, configuration, update interface.
pub(crate) const SHARED_PINS: u64 = 60;

/// Total user I/O pins required by `engines` parallel lookup engines.
#[must_use]
pub(crate) fn pins_required(engines: usize) -> u64 {
    SHARED_PINS + PINS_PER_ENGINE * engines as u64
}

/// Checks that the pin budget of `device` accommodates `engines`.
///
/// # Errors
/// [`PowerError::ResourceExhausted`] naming the I/O pins when it does not.
pub(crate) fn check(device: &Device, engines: usize) -> Result<(), PowerError> {
    let requested = pins_required(engines);
    if requested > device.io_pins {
        return Err(PowerError::ResourceExhausted {
            resource: "I/O pins",
            requested,
            available: device.io_pins,
        });
    }
    Ok(())
}

/// The largest engine count that fits the device's pin budget.
#[must_use]
pub(crate) fn max_engines(device: &Device) -> usize {
    if device.io_pins < SHARED_PINS {
        return 0;
    }
    ((device.io_pins - SHARED_PINS) / PINS_PER_ENGINE) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_limit_of_15_engines_is_reproduced() {
        let d = Device::xc6vlx760();
        assert_eq!(max_engines(&d), 15);
        assert!(check(&d, 15).is_ok());
        assert!(matches!(
            check(&d, 16),
            Err(PowerError::ResourceExhausted {
                resource: "I/O pins",
                ..
            })
        ));
    }

    #[test]
    fn pins_required_is_affine() {
        assert_eq!(pins_required(0), SHARED_PINS);
        assert_eq!(pins_required(1), SHARED_PINS + PINS_PER_ENGINE);
        assert_eq!(pins_required(10) - pins_required(9), PINS_PER_ENGINE);
    }

    #[test]
    fn tiny_device_fits_fewer_engines() {
        let d = Device::test_small(); // 200 pins
        assert_eq!(max_engines(&d), 1);
        assert!(check(&d, 1).is_ok());
        assert!(check(&d, 2).is_err());
    }

    #[test]
    fn device_smaller_than_shared_budget_fits_nothing() {
        let mut d = Device::test_small();
        d.io_pins = 10;
        assert_eq!(max_engines(&d), 0);
        assert!(check(&d, 0).is_err());
    }
}
