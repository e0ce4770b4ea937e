//! The open device-model seam: [`StorageDevice`] plus optional
//! capabilities.
//!
//! The paper's study hardcodes two devices (a MEMS store and a 1.8-inch
//! disk); its *result* — buffer dimensioning trades energy saving against
//! device lifetime — is device-generic. This module is the seam that makes
//! the rest of the workspace generic too: a device is a [`StorageDevice`]
//! that *opts into* capabilities:
//!
//! * [`EnergyModelled`] — the refill-cycle power model of Eq. (1) can
//!   price it;
//! * [`WearModelled`] — it exposes wear channels (spring duty cycles,
//!   probe write budgets, flash erase budgets) the lifetime model folds
//!   into Eqs. (5)–(6) and their generalisations;
//! * [`SimBacked`] — the discrete-event simulator can replay it.
//!
//! Adding a device to the workspace is now: implement these traits in one
//! file and register the device on a grid. No enum surgery anywhere.

use std::fmt;
use std::fmt::Write as _;

use memstream_units::{DataSize, Duration};

use crate::power::EnergyModelled;

/// How the analytic stack should model capacity utilisation `u(B)` for a
/// device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtilizationSpec {
    /// `u(B)` follows the probe-striped sector format of §III-B: sync and
    /// ECC overheads amortise over buffer-sized sectors striped this wide.
    SectorFormat {
        /// The striping width `K` (simultaneously active probes).
        stripe_width: u32,
    },
    /// `u` is a buffer-independent constant — e.g. a flash part whose
    /// over-provisioning and translation-layer reserve are fixed at
    /// manufacture time.
    Constant {
        /// The fixed utilisation as a fraction in `(0, 1]`.
        fraction: f64,
    },
}

/// One wear mechanism of a device, in the units the lifetime model folds
/// into years.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WearChannel {
    /// A component rated for a fixed number of duty cycles, consumed one
    /// per refill (seek + shutdown) round trip: MEMS springs (Eq. (5)),
    /// disk head load/unload.
    DutyCycle {
        /// The duty-cycle rating `Dsp`.
        rating: f64,
    },
    /// A physical-write budget scaled by format utilisation: probe fatigue
    /// (Eq. (6)). `budget_bits = C · Dpb`; lifetime is
    /// `budget · u(B) / (w · T · rs)`.
    WriteBudget {
        /// The per-location write-cycle rating `Dpb` (for reporting).
        rating: f64,
        /// The total device write budget in bit-writes (`C · Dpb`).
        budget_bits: f64,
    },
    /// An erase-block program/erase budget with buffer-dependent write
    /// amplification: flash. Lifetime is
    /// `budget / (w · T · rs · waf(B))` with
    /// `waf(B) = waf_floor + block_bits / B` — small buffers force partial
    /// block programs and extra copy-back traffic, large buffers approach
    /// the floor.
    EraseBudget {
        /// Total bit-writes before the P/E budget is exhausted
        /// (`C · pe_cycles`).
        budget_bits: f64,
        /// Size of one erase block in bits.
        block_bits: f64,
        /// The write-amplification asymptote for large, aligned writes
        /// (≥ 1).
        waf_floor: f64,
    },
}

/// Capability: the device wears out in a way the lifetime model can fold
/// into years as a function of buffer size.
pub trait WearModelled: fmt::Debug {
    /// The device's wear channels, most binding first by convention. The
    /// lifetime model takes the minimum across channels.
    fn wear_channels(&self) -> Vec<WearChannel>;
}

/// What the simulator should account wear into — the data half of the
/// wear-sink seam (`memstream_sim` owns the accounting types; this spec
/// tells it which one to build).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WearSpec {
    /// Spring duty cycles + probe write budget (MEMS).
    ProbeFatigue {
        /// Striped probes sharing every write.
        active_probes: u32,
        /// Spring duty-cycle rating `Dsp`.
        spring_rating: f64,
        /// Total probe write budget in bit-writes (`C · Dpb`).
        probe_budget_bits: f64,
    },
    /// Erase blocks with a P/E-cycle budget and greedy wear-leveling
    /// (flash). The simulator inflates physical writes by the same
    /// `waf(B) = waf_floor + block_bits / B` the analytic
    /// [`WearChannel::EraseBudget`] charges, keeping the two wear models
    /// consistent.
    EraseBlocks {
        /// Number of erase blocks tracked by the leveler.
        blocks: u32,
        /// Size of one erase block in bits.
        block_bits: f64,
        /// Program/erase cycle rating per block.
        pe_cycles: f64,
        /// The write-amplification asymptote for large aligned writes.
        waf_floor: f64,
    },
}

/// Capability: the discrete-event simulator can replay this device.
pub trait SimBacked: EnergyModelled {
    /// Per-access I/O overhead charged to best-effort requests.
    fn io_overhead_time(&self) -> Duration;

    /// Striping width used to derive the simulated sector format.
    fn stripe_width(&self) -> u32;

    /// The wear sink the simulator should account into.
    fn wear_spec(&self) -> WearSpec;

    /// Boxed clone, so simulation configs can own heterogeneous devices.
    fn clone_sim(&self) -> Box<dyn SimBacked>;
}

impl Clone for Box<dyn SimBacked> {
    fn clone(&self) -> Self {
        self.clone_sim()
    }
}

impl<T: EnergyModelled + ?Sized> EnergyModelled for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn media_rate(&self) -> memstream_units::BitRate {
        (**self).media_rate()
    }
    fn power(&self, state: crate::PowerState) -> memstream_units::Power {
        (**self).power(state)
    }
    fn seek_time(&self) -> Duration {
        (**self).seek_time()
    }
    fn shutdown_time(&self) -> Duration {
        (**self).shutdown_time()
    }
}

impl SimBacked for Box<dyn SimBacked> {
    fn io_overhead_time(&self) -> Duration {
        (**self).io_overhead_time()
    }
    fn stripe_width(&self) -> u32 {
        (**self).stripe_width()
    }
    fn wear_spec(&self) -> WearSpec {
        (**self).wear_spec()
    }
    fn clone_sim(&self) -> Box<dyn SimBacked> {
        (**self).clone_sim()
    }
}

/// The super-trait every registered device implements: identity plus
/// capability discovery. Object-safe, so registries hold
/// `Vec<Box<dyn StorageDevice>>`.
///
/// Capability accessors default to `None`: a freshly written device
/// participates in exactly the analyses it opts into, and every consumer
/// (grid evaluation, sim validation) accounts explicitly for the
/// capabilities a device lacks instead of silently skipping it.
pub trait StorageDevice: fmt::Debug + Send + Sync {
    /// Device-family tag used in dedup keys and capability matrices
    /// (`"mems"`, `"disk"`, `"flash"`, ...).
    fn kind(&self) -> &'static str;

    /// A canonical content key: two devices with equal tokens model the
    /// same physics regardless of display names. It is part of the
    /// result-cache key, so it lists the parameters the models read in a
    /// fixed order (`docs/CACHE_FORMAT.md` § "Key grammar"); a device's
    /// `Debug` output is not a contract and must not be used here.
    fn dedup_token(&self) -> String;

    /// Raw media capacity.
    fn capacity(&self) -> DataSize;

    /// The energy capability, if the refill-cycle model applies.
    fn energy(&self) -> Option<&dyn EnergyModelled> {
        None
    }

    /// The wear capability, if the device has modelled wear channels.
    fn wear(&self) -> Option<&dyn WearModelled> {
        None
    }

    /// The simulation capability, if the discrete-event simulator can
    /// replay the device.
    fn sim(&self) -> Option<&dyn SimBacked> {
        None
    }

    /// How utilisation should be modelled, if the device supports the
    /// capacity leg of the trade-off at all.
    fn utilization(&self) -> Option<UtilizationSpec> {
        None
    }

    /// Boxed clone, for registries.
    fn clone_box(&self) -> Box<dyn StorageDevice>;
}

/// Renders a device's dedup token: `kind`, a colon, then `values`
/// comma-separated in the device's documented parameter order. Each value
/// is its shortest round-trip decimal (`f64`'s `Display`: bit-exact and
/// never in exponent form), with no field names.
pub(crate) fn parameter_token(kind: &str, values: &[f64]) -> String {
    let mut token = String::with_capacity(kind.len() + 1 + 12 * values.len());
    token.push_str(kind);
    token.push(':');
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            token.push(',');
        }
        let _ = write!(token, "{value}");
    }
    token
}

impl Clone for Box<dyn StorageDevice> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Restricts a device to its energy capability, masking wear, utilisation
/// and sim backing.
///
/// This is the capability-algebra way to freeze a device into the role the
/// paper's §III-A.1 break-even comparison gives the 1.8″ disk: priced by
/// the refill-cycle model, nothing else. The wrapper's dedup token is
/// distinct from the inner device's — an energy-only view and the fully
/// modelled device evaluate differently, so they must never share a cached
/// outcome.
///
/// ```
/// use memstream_device::{DiskDevice, EnergyOnly, StorageDevice};
///
/// let full = DiskDevice::calibrated_1p8_inch();
/// let masked = EnergyOnly::new(full.clone());
/// assert!(full.wear().is_some());
/// assert!(masked.wear().is_none() && masked.energy().is_some());
/// assert_ne!(full.dedup_token(), masked.dedup_token());
/// ```
#[derive(Debug, Clone)]
pub struct EnergyOnly<D> {
    inner: D,
}

impl<D: StorageDevice> EnergyOnly<D> {
    /// Wraps `inner`, hiding every capability but energy.
    pub fn new(inner: D) -> Self {
        EnergyOnly { inner }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: StorageDevice + Clone + 'static> StorageDevice for EnergyOnly<D> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn dedup_token(&self) -> String {
        format!("energy-only:{}", self.inner.dedup_token())
    }

    fn capacity(&self) -> DataSize {
        self.inner.capacity()
    }

    fn energy(&self) -> Option<&dyn EnergyModelled> {
        self.inner.energy()
    }

    fn clone_box(&self) -> Box<dyn StorageDevice> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskDevice, FlashDevice, MemsDevice};

    fn capability_row(d: &dyn StorageDevice) -> (bool, bool, bool, bool) {
        (
            d.energy().is_some(),
            d.wear().is_some(),
            d.sim().is_some(),
            d.utilization().is_some(),
        )
    }

    #[test]
    fn capability_matrix_matches_readme() {
        let mems = MemsDevice::table1();
        let disk = DiskDevice::calibrated_1p8_inch();
        let flash = FlashDevice::mobile_mlc();
        assert_eq!(capability_row(&mems), (true, true, true, true));
        // The disk is full-pipeline on the analytic side (start-stop wear
        // plus a fixed LBA-format utilisation) but not sim-backed.
        assert_eq!(capability_row(&disk), (true, true, false, true));
        assert_eq!(capability_row(&flash), (true, true, true, true));
        // The paper-era energy-only role survives behind the mask.
        assert_eq!(
            capability_row(&EnergyOnly::new(disk)),
            (true, false, false, false)
        );
    }

    #[test]
    fn dedup_tokens_are_kind_prefixed_and_content_keyed() {
        let a = MemsDevice::table1();
        let b = MemsDevice::table1().with_probe_write_cycles(200.0);
        assert!(a.dedup_token().starts_with("mems:"));
        assert_ne!(a.dedup_token(), b.dedup_token());
        assert_eq!(a.dedup_token(), MemsDevice::table1().dedup_token());
        assert!(DiskDevice::calibrated_1p8_inch()
            .dedup_token()
            .starts_with("disk:"));
        assert!(FlashDevice::mobile_mlc()
            .dedup_token()
            .starts_with("flash:"));
    }

    /// Asserts that every variant's token differs from `base`'s and from
    /// each other's, and that a renamed `base` keeps its token (the name
    /// is a report label no model reads).
    fn assert_tokens_distinct<D: StorageDevice>(base: &D, renamed: &D, variants: &[D]) {
        assert_eq!(renamed.dedup_token(), base.dedup_token());
        let mut seen = std::collections::HashSet::from([base.dedup_token()]);
        for (i, variant) in variants.iter().enumerate() {
            let token = variant.dedup_token();
            assert!(
                seen.insert(token.clone()),
                "variant {i} repeats a token: {token}"
            );
        }
    }

    #[test]
    fn every_mems_builder_parameter_moves_the_token() {
        use crate::ProbeArray;
        use memstream_units::{BitRate, DataSize, Duration, Power};
        let b = MemsDevice::builder;
        let array = |rows, cols, active, side| ProbeArray::new(rows, cols, active, side).unwrap();
        let variants = [
            b().array(array(32, 64, 1024, 100.0)).build().unwrap(),
            b().array(array(64, 32, 1024, 100.0)).build().unwrap(),
            b().array(array(64, 64, 512, 100.0)).build().unwrap(),
            b().array(array(64, 64, 1024, 50.0)).build().unwrap(),
            b().capacity(DataSize::from_gigabytes(60.0))
                .build()
                .unwrap(),
            b().per_probe_rate(BitRate::from_kbps(200.0))
                .build()
                .unwrap(),
            b().seek_time(Duration::from_millis(3.0)).build().unwrap(),
            b().shutdown_time(Duration::from_millis(3.0))
                .build()
                .unwrap(),
            b().io_overhead_time(Duration::from_millis(3.0))
                .build()
                .unwrap(),
            b().read_write_power(Power::from_milliwatts(300.0))
                .build()
                .unwrap(),
            b().seek_power(Power::from_milliwatts(600.0))
                .build()
                .unwrap(),
            b().standby_power(Power::from_milliwatts(4.0))
                .build()
                .unwrap(),
            b().idle_power(Power::from_milliwatts(100.0))
                .build()
                .unwrap(),
            b().shutdown_power(Power::from_milliwatts(600.0))
                .build()
                .unwrap(),
            b().probe_write_cycles(200.0).build().unwrap(),
            b().spring_duty_cycles(1e12).build().unwrap(),
        ];
        let renamed = b().name("renamed").build().unwrap();
        assert_tokens_distinct(&MemsDevice::table1(), &renamed, &variants);
    }

    #[test]
    fn every_disk_builder_parameter_moves_the_token() {
        use memstream_units::{BitRate, DataSize, Duration, Power};
        let b = DiskDevice::builder;
        let variants = [
            b().capacity(DataSize::from_gigabytes(40.0))
                .build()
                .unwrap(),
            b().media_rate(BitRate::from_mbps(50.0)).build().unwrap(),
            b().spin_up_time(Duration::from_seconds(2.0))
                .build()
                .unwrap(),
            b().spin_down_time(Duration::from_seconds(2.0))
                .build()
                .unwrap(),
            b().spin_up_power(Power::from_watts(2.0)).build().unwrap(),
            b().spin_down_power(Power::from_watts(0.7)).build().unwrap(),
            b().read_write_power(Power::from_watts(1.3))
                .build()
                .unwrap(),
            b().idle_power(Power::from_milliwatts(300.0))
                .build()
                .unwrap(),
            b().standby_power(Power::from_milliwatts(90.0))
                .build()
                .unwrap(),
            b().start_stop_cycles(3e5).build().unwrap(),
            b().format_utilization(0.9).build().unwrap(),
        ];
        let renamed = b().name("renamed").build().unwrap();
        assert_tokens_distinct(&DiskDevice::calibrated_1p8_inch(), &renamed, &variants);
    }

    #[test]
    fn every_flash_builder_parameter_moves_the_token() {
        use memstream_units::{BitRate, DataSize, Duration, Power};
        let b = FlashDevice::builder;
        let variants = [
            b().capacity(DataSize::from_gigabytes(32.0))
                .build()
                .unwrap(),
            b().media_rate(BitRate::from_mbps(80.0)).build().unwrap(),
            b().resume_time(Duration::from_millis(0.4)).build().unwrap(),
            b().power_down_time(Duration::from_millis(0.4))
                .build()
                .unwrap(),
            b().io_overhead_time(Duration::from_millis(0.4))
                .build()
                .unwrap(),
            b().transition_power(Power::from_milliwatts(50.0))
                .build()
                .unwrap(),
            b().read_write_power(Power::from_milliwatts(200.0))
                .build()
                .unwrap(),
            b().idle_power(Power::from_milliwatts(70.0))
                .build()
                .unwrap(),
            b().deep_power_down(Power::from_milliwatts(0.2))
                .build()
                .unwrap(),
            b().erase_block(DataSize::from_kibibytes(256.0))
                .build()
                .unwrap(),
            b().pe_cycles(10_000.0).build().unwrap(),
            b().waf_floor(1.2).build().unwrap(),
            b().fixed_utilization(0.9).build().unwrap(),
        ];
        let renamed = b().name("renamed").build().unwrap();
        assert_tokens_distinct(&FlashDevice::mobile_mlc(), &renamed, &variants);
    }

    #[test]
    fn tokens_write_floats_exactly_without_field_names() {
        // One ulp apart must still be two tokens: values are written as
        // shortest round-trip decimals, never rounded.
        let a = FlashDevice::builder().waf_floor(1.1).build().unwrap();
        let b = FlashDevice::builder()
            .waf_floor(f64::from_bits(1.1f64.to_bits() + 1))
            .build()
            .unwrap();
        assert_ne!(a.dedup_token(), b.dedup_token());
        // Every value parses back to the bits it was written from, and
        // the token carries no Rust type or field names.
        let token = MemsDevice::table1().dedup_token();
        let values = token.strip_prefix("mems:").expect("kind prefix");
        assert_eq!(values.split(',').count(), 16);
        for value in values.split(',') {
            let parsed: f64 = value.parse().expect("a plain decimal");
            assert_eq!(parsed.to_string(), value, "not shortest round-trip");
        }
        assert!(!token.contains(['{', '}', '_', ' ']), "{token}");
        assert!(token.len() < 120, "{} bytes: {token}", token.len());
    }

    #[test]
    fn energy_only_token_differs_from_the_inner_device() {
        let (mems, disk, flash) = (
            MemsDevice::table1(),
            DiskDevice::calibrated_1p8_inch(),
            FlashDevice::mobile_mlc(),
        );
        for (inner, masked) in [
            (mems.dedup_token(), EnergyOnly::new(mems).dedup_token()),
            (disk.dedup_token(), EnergyOnly::new(disk).dedup_token()),
            (flash.dedup_token(), EnergyOnly::new(flash).dedup_token()),
        ] {
            assert_ne!(masked, inner);
            assert_eq!(masked, format!("energy-only:{inner}"));
        }
    }

    #[test]
    fn boxed_registry_round_trips_capabilities() {
        let devices: Vec<Box<dyn StorageDevice>> = vec![
            Box::new(MemsDevice::table1()),
            Box::new(DiskDevice::calibrated_1p8_inch()),
            Box::new(FlashDevice::mobile_mlc()),
        ];
        let cloned = devices.clone();
        for (a, b) in devices.iter().zip(&cloned) {
            assert_eq!(a.dedup_token(), b.dedup_token());
            assert_eq!(a.kind(), b.kind());
        }
        // The disk carries analytic wear but no sim backing; the others
        // carry every capability.
        assert!(cloned[1].wear().is_some());
        assert!(cloned[1].sim().is_none());
        assert!(cloned[0].sim().is_some());
        assert!(cloned[2].sim().is_some());
    }

    #[test]
    fn mems_wear_channels_mirror_the_ratings() {
        let d = MemsDevice::table1();
        let channels = d.wear_channels();
        assert_eq!(channels.len(), 2);
        match channels[0] {
            WearChannel::DutyCycle { rating } => assert_eq!(rating, 1e8),
            ref other => panic!("expected duty-cycle channel, got {other:?}"),
        }
        match channels[1] {
            WearChannel::WriteBudget {
                rating,
                budget_bits,
            } => {
                assert_eq!(rating, 100.0);
                assert_eq!(budget_bits, d.capacity().bits() * 100.0);
            }
            ref other => panic!("expected write-budget channel, got {other:?}"),
        }
    }
}
