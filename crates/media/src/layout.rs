//! Sector/subsector layout: Eqs. (2)–(4).

use std::fmt;

use memstream_units::{DataSize, Ratio};

use crate::ecc::EccPolicy;
use crate::error::FormatError;

/// A formatting rule for the medium: how sectors are striped into
/// subsectors and how much bookkeeping each subsector carries.
///
/// ```
/// use memstream_media::SectorFormat;
/// use memstream_units::DataSize;
///
/// let fmt = SectorFormat::paper_default();
/// // The paper's example: formatting the Table I device with large sectors
/// // yields ~88% utilisation, about 106 GB user data out of 120 GB raw.
/// let layout = fmt.layout(DataSize::from_kibibytes(64.0));
/// assert!(layout.utilization().percent() > 87.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SectorFormat {
    stripe_width: u32,
    ecc: EccPolicy,
    sync_bits_per_subsector: u64,
}

impl SectorFormat {
    /// The paper's format: stripe across `K = 1024` active probes,
    /// `SECC = ⌈Su/8⌉`, 3 sync bits per subsector (a 30 µs processing
    /// window at 100 kbps/probe).
    #[must_use]
    pub fn paper_default() -> Self {
        SectorFormat {
            stripe_width: 1024,
            ecc: EccPolicy::MEMS,
            sync_bits_per_subsector: 3,
        }
    }

    /// Creates a format.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::ZeroStripeWidth`] if `stripe_width == 0`.
    pub fn new(
        stripe_width: u32,
        ecc: EccPolicy,
        sync_bits_per_subsector: u64,
    ) -> Result<Self, FormatError> {
        if stripe_width == 0 {
            return Err(FormatError::ZeroStripeWidth);
        }
        Ok(SectorFormat {
            stripe_width,
            ecc,
            sync_bits_per_subsector,
        })
    }

    /// Derives a device's format from its striping width (the active
    /// probes a sector spans), with the paper's ECC and sync-bit
    /// assumptions.
    ///
    /// # Panics
    ///
    /// Panics if `stripe_width` is zero.
    #[must_use]
    pub fn for_stripe_width(stripe_width: u32) -> Self {
        assert!(stripe_width > 0, "stripe width must be positive");
        SectorFormat {
            stripe_width,
            ecc: EccPolicy::MEMS,
            sync_bits_per_subsector: 3,
        }
    }

    /// The striping width `K` (number of active probes a sector spans).
    #[must_use]
    pub fn stripe_width(&self) -> u32 {
        self.stripe_width
    }

    /// The ECC policy in force.
    #[must_use]
    pub fn ecc(&self) -> EccPolicy {
        self.ecc
    }

    /// Synchronisation bits stored per subsector.
    #[must_use]
    pub fn sync_bits_per_subsector(&self) -> u64 {
        self.sync_bits_per_subsector
    }

    /// Computes the exact layout for a sector holding `user` data
    /// (Eqs. (2) and (3)).
    ///
    /// The user size is truncated to whole bits; a sector smaller than one
    /// bit is clamped to one bit (Eq. (2) is only evaluated for `Su ≥ 1` —
    /// the inverse solvers never produce smaller sectors).
    #[must_use]
    pub fn layout(&self, user: DataSize) -> SectorLayout {
        self.layout_bits(user.bits().max(1.0) as u64)
    }

    /// Exact-integer form of [`SectorFormat::layout`].
    ///
    /// # Panics
    ///
    /// Panics if `user_bits == 0`.
    #[must_use]
    pub fn layout_bits(&self, user_bits: u64) -> SectorLayout {
        assert!(user_bits > 0, "sector must hold at least one user bit");
        let k = u64::from(self.stripe_width);
        let ecc_bits = self.ecc.ecc_bits(user_bits);
        // Eq. (2): s = ceil((Su + SECC) / K) + sync.
        let payload_per_probe = (user_bits + ecc_bits).div_ceil(k);
        let subsector_bits = payload_per_probe + self.sync_bits_per_subsector;
        // Eq. (3): S = K * s.
        let sector_bits = k * subsector_bits;
        SectorLayout {
            user_bits,
            ecc_bits,
            subsector_bits,
            sector_bits,
            stripe_width: self.stripe_width,
            sync_bits_total: k * self.sync_bits_per_subsector,
        }
    }

    /// The capacity utilisation `u(Su)` of Eq. (4) for a sector holding
    /// `user` data.
    #[must_use]
    pub fn utilization(&self, user: DataSize) -> Ratio {
        self.layout(user).utilization()
    }

    /// The least upper bound on utilisation as sectors grow without bound:
    /// `1 / (1 + ecc_ratio)`. For the paper's one-eighth ECC this is
    /// `8/9 ≈ 88.9%` — the "tops with 88%" of §III-B.2.
    #[must_use]
    pub fn utilization_supremum(&self) -> Ratio {
        Ratio::from_fraction(1.0 / (1.0 + self.ecc.overhead_ratio()))
    }
}

impl Default for SectorFormat {
    fn default() -> Self {
        SectorFormat::paper_default()
    }
}

impl fmt::Display for SectorFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stripe {} probes, {}, {} sync bits/subsector",
            self.stripe_width, self.ecc, self.sync_bits_per_subsector
        )
    }
}

/// The exact bit budget of one formatted sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SectorLayout {
    user_bits: u64,
    ecc_bits: u64,
    subsector_bits: u64,
    sector_bits: u64,
    stripe_width: u32,
    sync_bits_total: u64,
}

impl SectorLayout {
    /// User data bits `Su`.
    #[must_use]
    pub fn user_bits(&self) -> u64 {
        self.user_bits
    }

    /// ECC bits `SECC`.
    #[must_use]
    pub fn ecc_bits(&self) -> u64 {
        self.ecc_bits
    }

    /// Bits stored by each probe, the subsector size `s` of Eq. (2).
    #[must_use]
    pub fn subsector_bits(&self) -> u64 {
        self.subsector_bits
    }

    /// Total formatted sector size `S` of Eq. (3).
    #[must_use]
    pub fn sector_bits(&self) -> u64 {
        self.sector_bits
    }

    /// Total synchronisation bits across the stripe.
    #[must_use]
    pub fn sync_bits_total(&self) -> u64 {
        self.sync_bits_total
    }

    /// Padding bits lost to the per-probe ceiling in Eq. (2).
    #[must_use]
    pub fn padding_bits(&self) -> u64 {
        self.sector_bits - self.user_bits - self.ecc_bits - self.sync_bits_total
    }

    /// The sector size as a [`DataSize`].
    #[must_use]
    pub fn sector_size(&self) -> DataSize {
        DataSize::from_bit_count(self.sector_bits)
    }

    /// The user payload as a [`DataSize`].
    #[must_use]
    pub fn user_size(&self) -> DataSize {
        DataSize::from_bit_count(self.user_bits)
    }

    /// Capacity utilisation `u = Su / S` (Eq. (4)).
    #[must_use]
    pub fn utilization(&self) -> Ratio {
        Ratio::from_fraction(self.user_bits as f64 / self.sector_bits as f64)
    }

    /// User capacity available on a device with the given raw capacity
    /// under this format: `C · u`.
    #[must_use]
    pub fn effective_user_capacity(&self, raw: DataSize) -> DataSize {
        raw * self.utilization().fraction()
    }
}

impl fmt::Display for SectorLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sector: {} user + {} ecc + {} sync + {} pad = {} bits ({} across {} probes), u = {}",
            self.user_bits,
            self.ecc_bits,
            self.sync_bits_total,
            self.padding_bits(),
            self.sector_bits,
            self.subsector_bits,
            self.stripe_width,
            self.utilization()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn worked_example_from_equations() {
        // Su = 8192 bits (1 KiB): SECC = 1024, (8192+1024)/1024 = 9 exactly,
        // s = 9 + 3 = 12, S = 1024 * 12 = 12288, u = 8192/12288 = 2/3.
        let layout = SectorFormat::paper_default().layout_bits(8192);
        assert_eq!(layout.ecc_bits(), 1024);
        assert_eq!(layout.subsector_bits(), 12);
        assert_eq!(layout.sector_bits(), 12_288);
        assert!((layout.utilization().fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(layout.padding_bits(), 0);
    }

    #[test]
    fn ceiling_creates_padding() {
        // Su = 8000: SECC = 1000, 9000/1024 = 8.79 -> 9 per probe,
        // pad = 9*1024 - 9000 = 216 bits.
        let layout = SectorFormat::paper_default().layout_bits(8000);
        assert_eq!(layout.subsector_bits(), 9 + 3);
        assert_eq!(layout.padding_bits(), 216);
    }

    #[test]
    fn utilization_supremum_is_eight_ninths() {
        let fmt = SectorFormat::paper_default();
        let sup = fmt.utilization_supremum().fraction();
        assert!((sup - 8.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn paper_effective_capacity_example() {
        // §III-B.2: "approximately 106 GB out of 120 GB effective user
        // capacity" at the top utilisation. A large sector gets close to
        // the supremum.
        let fmt = SectorFormat::paper_default();
        let layout = fmt.layout(DataSize::from_kibibytes(512.0));
        let user = layout.effective_user_capacity(DataSize::from_gigabytes(120.0));
        assert!(
            user.gigabytes() > 105.0 && user.gigabytes() < 107.0,
            "got {} GB",
            user.gigabytes()
        );
    }

    #[test]
    fn capacity_saturates_beyond_7_kib() {
        // Fig. 2a: "Beyond 7 kB the capacity increase saturates."
        let fmt = SectorFormat::paper_default();
        let at_7k = fmt.utilization(DataSize::from_kibibytes(7.0)).fraction();
        let at_45k = fmt.utilization(DataSize::from_kibibytes(45.0)).fraction();
        let sup = fmt.utilization_supremum().fraction();
        assert!(at_7k > 0.80, "7 KiB should already be near saturation");
        assert!(
            sup - at_45k < 0.02,
            "45 KiB should be within 2% of supremum"
        );
    }

    #[test]
    fn small_sectors_waste_most_of_the_medium() {
        // The problem statement: a tiny (break-even-sized) buffer forces a
        // tiny sector whose sync bits dominate.
        let fmt = SectorFormat::paper_default();
        let u = fmt.utilization(DataSize::from_bytes(73.0)); // 0.07 kB
        assert!(
            u.fraction() < 0.20,
            "73-byte sectors should waste >80% of the medium, got {u}"
        );
    }

    #[test]
    fn zero_stripe_width_rejected() {
        assert_eq!(
            SectorFormat::new(0, EccPolicy::MEMS, 3).unwrap_err(),
            FormatError::ZeroStripeWidth
        );
    }

    #[test]
    #[should_panic(expected = "at least one user bit")]
    fn zero_user_bits_panics() {
        let _ = SectorFormat::paper_default().layout_bits(0);
    }

    #[test]
    fn display_reports_budget() {
        let text = SectorFormat::paper_default().layout_bits(8192).to_string();
        assert!(text.contains("8192 user"));
        assert!(text.contains("1024 ecc"));
    }

    proptest! {
        #[test]
        fn sector_accounting_always_balances(user in 1u64..1u64 << 30) {
            let layout = SectorFormat::paper_default().layout_bits(user);
            prop_assert_eq!(
                layout.user_bits() + layout.ecc_bits()
                    + layout.sync_bits_total() + layout.padding_bits(),
                layout.sector_bits()
            );
        }

        #[test]
        fn utilization_never_exceeds_supremum(user in 1u64..1u64 << 30) {
            let fmt = SectorFormat::paper_default();
            let u = fmt.layout_bits(user).utilization().fraction();
            prop_assert!(u > 0.0);
            prop_assert!(u <= fmt.utilization_supremum().fraction() + 1e-12);
        }

        #[test]
        fn padding_is_less_than_one_stripe(user in 1u64..1u64 << 30) {
            let fmt = SectorFormat::paper_default();
            let layout = fmt.layout_bits(user);
            // The ceil in Eq. (2) wastes at most K-1 bits.
            prop_assert!(layout.padding_bits() < u64::from(fmt.stripe_width()));
        }

        #[test]
        fn utilization_is_monotone_at_stripe_granularity(step in 1u64..1000) {
            // Exactly stripe-aligned user sizes give non-decreasing
            // utilisation (the sawtooth only appears between alignments).
            let fmt = SectorFormat::paper_default();
            let k = 8 * 1024; // aligned to both ecc divisor and stripe
            let a = fmt.layout_bits(step * k).utilization().fraction();
            let b = fmt.layout_bits((step + 1) * k).utilization().fraction();
            prop_assert!(b + 1e-12 >= a);
        }
    }
}
