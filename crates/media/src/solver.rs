//! Inverse capacity solver: smallest sector reaching a utilisation target.
//!
//! §IV-C implements the inverse of Eq. (4) "assuming `Su = B`": given a
//! capacity-utilisation goal `C`, find the smallest user payload (and hence
//! the smallest streaming buffer) whose formatted sector wastes little
//! enough on sync bits and ECC.
//!
//! `u(Su)` is a sawtooth — it climbs within one per-probe payload step and
//! drops when the ceiling in Eq. (2) ticks over — so the solver works per
//! payload step: for each candidate subsector payload `p` it computes the
//! best reachable utilisation, binary-searches for a feasible `p` (the
//! smallest one only where that utilisation is monotone in `p`), then
//! picks the smallest `Su` inside that step.

use memstream_units::{DataSize, Ratio};

use crate::ecc::EccPolicy;
use crate::error::FormatError;
use crate::layout::SectorFormat;

/// Largest user payload (bits) whose `Su + SECC` fits in `p` payload bits
/// per probe across the stripe: the largest `Su` with
/// `Su + ecc_bits(Su) ≤ budget`, where `budget = p·K`. `None` when the
/// budget does not fit in a `u64`.
///
/// For `SECC = ⌈Su/d⌉`, let `c = ⌈budget/(d+1)⌉`. `Su = budget − c` fits,
/// because `budget ≤ c·(d+1)` gives `⌈Su/d⌉ ≤ c`. `Su + 1` does not,
/// because `c ≤ (budget+d)/(d+1)` gives `⌈(Su+1)/d⌉ ≥ c`.
fn su_max_for_payload(fmt: &SectorFormat, p: u64) -> Option<u64> {
    let budget = p.checked_mul(u64::from(fmt.stripe_width()))?;
    Some(match fmt.ecc() {
        EccPolicy::Fractional { divisor } => budget - budget.div_ceil(divisor.checked_add(1)?),
        EccPolicy::Fixed { bits } => budget.saturating_sub(bits),
        EccPolicy::None => budget,
    })
}

/// Bits in a sector whose subsectors carry `p` payload bits each, or
/// `None` when that does not fit in a `u64`.
fn sector_bits_for_payload(fmt: &SectorFormat, p: u64) -> Option<u64> {
    p.checked_add(fmt.sync_bits_per_subsector())?
        .checked_mul(u64::from(fmt.stripe_width()))
}

/// Best utilisation attainable with subsector payload `p`, or `None` when
/// the sector's size does not fit in a `u64`.
fn best_utilization_for_payload(fmt: &SectorFormat, p: u64) -> Option<f64> {
    let su = su_max_for_payload(fmt, p)?;
    Some(su as f64 / sector_bits_for_payload(fmt, p)? as f64)
}

/// Smallest user payload `Su` (in bits) whose formatted utilisation reaches
/// `target`.
///
/// This is the inverse function of Eq. (4) used for the "C" curves of
/// Fig. 3 (with `Su = B`, the returned size is the capacity-dictated
/// minimum buffer). For fractional ECC the result always reaches `target`
/// but is occasionally not the smallest such `Su`: the payload search
/// assumes a monotonicity that does not hold (see the comment in the body).
///
/// # Errors
///
/// Returns [`FormatError::UtilizationUnreachable`] if `target` is at or
/// above the format's utilisation supremum (`8/9` for the paper's format),
/// which no finite sector reaches.
///
/// # Examples
///
/// ```
/// use memstream_media::{min_user_bits_for_utilization, SectorFormat};
/// use memstream_units::Ratio;
///
/// # fn main() -> Result<(), memstream_media::FormatError> {
/// let fmt = SectorFormat::paper_default();
/// let su = min_user_bits_for_utilization(&fmt, Ratio::from_percent(88.0))?;
/// assert!(fmt.layout_bits(su).utilization().percent() >= 88.0);
/// # Ok(())
/// # }
/// ```
pub fn min_user_bits_for_utilization(
    fmt: &SectorFormat,
    target: Ratio,
) -> Result<u64, FormatError> {
    let sup = fmt.utilization_supremum().fraction();
    let t = target.fraction();
    let unreachable = || FormatError::UtilizationUnreachable {
        requested: t,
        supremum: sup,
    };
    if t <= 0.0 {
        return Ok(1);
    }
    if t >= sup {
        return Err(unreachable());
    }

    // Find an upper payload bound by doubling, then binary-search a
    // feasible payload. For fractional ECC best_utilization_for_payload is
    // not monotone in p (stripe width 1, d = 8, 3 sync bits: p = 9 reaches
    // 8/12 but p = 10 only 8/13), so the bisection can land past the first
    // feasible payload step and the `Su` returned is then not minimal.
    // Feasibility is monotone only within one residue of p mod (d + 1).
    // A target so close to the supremum that the doubling outgrows a u64
    // sector is unreachable in practice.
    let mut hi = 1u64;
    while best_utilization_for_payload(fmt, hi).ok_or_else(unreachable)? < t {
        hi = hi.checked_mul(2).ok_or_else(unreachable)?;
    }
    // Every payload below `hi` fits, because `hi` does.
    let fits = "a payload below a fitting one fits";
    let mut lo = hi / 2; // infeasible (or zero)
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if best_utilization_for_payload(fmt, mid).expect(fits) < t {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let p = hi;

    // Smallest Su inside payload step p that reaches the target:
    // Su >= t * K * (p + sync). Round up, then nudge to the exact edge.
    let sector_bits = sector_bits_for_payload(fmt, p).expect(fits) as f64;
    let mut su = (t * sector_bits).ceil() as u64;
    su = su.max(1);
    while su > 1 && fmt.layout_bits(su - 1).utilization().fraction() >= t {
        su -= 1;
    }
    while fmt.layout_bits(su).utilization().fraction() < t {
        su += 1;
    }
    Ok(su)
}

/// Smallest user payload `Su ≥ at_least` (bits) whose utilisation reaches
/// `target`.
///
/// `u(Su)` is a sawtooth, so a payload *larger* than the minimum of
/// [`min_user_bits_for_utilization`] can dip back below the target; when
/// another requirement (springs lifetime, energy) demands a bigger buffer,
/// the dimensioner uses this to bump the buffer to the next valid size.
///
/// The search walks payload steps upward from `at_least`, one step at a
/// time, so start it at or above the minimum for `target`. The
/// dimensioner does: its buffer already covers that minimum, which it
/// solved as one of the goal's requirements. Below the minimum the walk
/// is still exact, just long.
///
/// # Errors
///
/// Returns [`FormatError::UtilizationUnreachable`] if `target` is at or
/// above the format's utilisation supremum, or so close to it that the
/// sector that reaches it does not fit in a `u64`.
pub fn min_user_bits_for_utilization_at_least(
    fmt: &SectorFormat,
    target: Ratio,
    at_least: u64,
) -> Result<u64, FormatError> {
    let sup = fmt.utilization_supremum().fraction();
    let t = target.fraction();
    let unreachable = || FormatError::UtilizationUnreachable {
        requested: t,
        supremum: sup,
    };
    if t >= sup {
        return Err(unreachable());
    }
    let start = at_least.max(1);
    if fmt.layout_bits(start).utilization() >= target {
        return Ok(start);
    }
    // Walk payload steps upward: for payload p, the smallest qualifying Su
    // is max(start, ceil(target * K * (p + sync))), valid if it still maps
    // to payload <= p.
    let mut p = fmt.layout_bits(start).subsector_bits() - fmt.sync_bits_per_subsector();
    loop {
        let sector_bits = sector_bits_for_payload(fmt, p).ok_or_else(unreachable)? as f64;
        let su_max = su_max_for_payload(fmt, p).ok_or_else(unreachable)?;
        let mut candidate = ((t * sector_bits).ceil() as u64).max(start);
        // Nudge across float rounding at the exact edge.
        while fmt.layout_bits(candidate).utilization().fraction() < t && candidate <= su_max {
            candidate += 1;
        }
        if candidate <= su_max && fmt.layout_bits(candidate).utilization() >= target {
            return Ok(candidate);
        }
        p += 1;
    }
}

/// The highest utilisation reachable by any sector with `Su ≤ max_user`
/// bits, together with the payload that reaches it.
///
/// Used to answer "what does a buffer cap cost in capacity?" in the
/// exploration harness.
#[must_use]
pub fn max_utilization_upto(fmt: &SectorFormat, max_user: DataSize) -> (u64, Ratio) {
    let max_bits = (max_user.bits().max(1.0)) as u64;
    // The best Su <= max_bits is either max_bits itself or the top of the
    // previous payload step (the sawtooth peak).
    let at_cap = fmt.layout_bits(max_bits);
    let mut best = (max_bits, at_cap.utilization());
    let p = at_cap.subsector_bits() - fmt.sync_bits_per_subsector();
    if p > 1 {
        if let Some(peak) = su_max_for_payload(fmt, p - 1) {
            let peak = peak.min(max_bits).max(1);
            let u = fmt.layout_bits(peak).utilization();
            if u > best.1 {
                best = (peak, u);
            }
        }
    }
    best
}

/// Samples `u(Su)` at the given user sizes — the capacity curve of Fig. 2a.
#[must_use]
pub fn utilization_profile(
    fmt: &SectorFormat,
    points: impl IntoIterator<Item = DataSize>,
) -> Vec<(DataSize, Ratio)> {
    points
        .into_iter()
        .map(|su| (su, fmt.utilization(su)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The estimate-and-nudge form of [`su_max_for_payload`]: start near
    /// the boundary and step `Su` to the exact integer edge of
    /// `Su + ecc_bits(Su) ≤ budget`.
    fn su_max_nudged(fmt: &SectorFormat, p: u64) -> u64 {
        let budget = p * u64::from(fmt.stripe_width());
        let mut su = match fmt.ecc() {
            EccPolicy::Fractional { divisor } => {
                budget / (divisor + 1) * divisor + budget % (divisor + 1)
            }
            EccPolicy::Fixed { bits } => budget.saturating_sub(bits),
            EccPolicy::None => budget,
        };
        while su > 0 && su + fmt.ecc().ecc_bits(su) > budget {
            su -= 1;
        }
        while su + 1 + fmt.ecc().ecc_bits(su + 1) <= budget {
            su += 1;
        }
        su
    }

    #[test]
    fn closed_form_su_max_equals_the_nudged_reference() {
        let policies = [
            EccPolicy::Fractional { divisor: 1 },
            EccPolicy::Fractional { divisor: 8 },
            EccPolicy::Fractional { divisor: 10 },
            EccPolicy::Fixed { bits: 0 },
            EccPolicy::Fixed { bits: 16 },
            EccPolicy::Fixed { bits: 5000 },
            EccPolicy::None,
        ];
        let payloads: Vec<u64> = (0..20_000u64)
            .chain([1 << 20, (1 << 30) + 7, (1 << 40) + 3])
            .collect();
        for ecc in policies {
            for k in [1u32, 2, 3, 7, 8, 9, 64, 1000, 1024] {
                let fmt = SectorFormat::new(k, ecc, 3).unwrap();
                for &p in &payloads {
                    assert_eq!(
                        su_max_for_payload(&fmt, p),
                        Some(su_max_nudged(&fmt, p)),
                        "{ecc}, stripe width {k}, payload {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn su_max_respects_budget_exactly() {
        let fmt = SectorFormat::paper_default();
        for p in [1u64, 2, 3, 9, 10, 100] {
            let su = su_max_for_payload(&fmt, p).unwrap();
            let budget = p * 1024;
            assert!(su + fmt.ecc().ecc_bits(su) <= budget);
            assert!(su + 1 + fmt.ecc().ecc_bits(su + 1) > budget);
        }
    }

    #[test]
    fn best_utilization_is_monotone_in_payload() {
        let fmt = SectorFormat::paper_default();
        let mut prev = 0.0;
        for p in 1..200 {
            let u = best_utilization_for_payload(&fmt, p).unwrap();
            assert!(u + 1e-12 >= prev, "payload {p}: {u} < {prev}");
            prev = u;
        }
    }

    #[test]
    fn paper_88_percent_target() {
        // Reaching the paper's headline C = 88% requires a multi-KiB sector.
        let fmt = SectorFormat::paper_default();
        let su = min_user_bits_for_utilization(&fmt, Ratio::from_percent(88.0)).unwrap();
        let u = fmt.layout_bits(su).utilization();
        assert!(u.percent() >= 88.0);
        // ...and the sector is in the tens-of-KiB range, far above the
        // sub-KiB break-even buffer: the crux of the paper.
        let kib = DataSize::from_bit_count(su).kibibytes();
        assert!(kib > 5.0 && kib < 200.0, "Su = {kib} KiB");
    }

    #[test]
    fn result_is_minimal() {
        let fmt = SectorFormat::paper_default();
        for pct in [30.0, 50.0, 66.0, 80.0, 85.0, 88.0] {
            let target = Ratio::from_percent(pct);
            let su = min_user_bits_for_utilization(&fmt, target).unwrap();
            assert!(fmt.layout_bits(su).utilization() >= target);
            if su > 1 {
                assert!(
                    fmt.layout_bits(su - 1).utilization() < target,
                    "{pct}%: Su = {su} is not minimal"
                );
            }
        }
    }

    #[test]
    fn supremum_is_unreachable() {
        let fmt = SectorFormat::paper_default();
        let err = min_user_bits_for_utilization(&fmt, Ratio::from_fraction(8.0 / 9.0)).unwrap_err();
        assert!(matches!(err, FormatError::UtilizationUnreachable { .. }));
        assert!(min_user_bits_for_utilization(&fmt, Ratio::from_percent(95.0)).is_err());
    }

    #[test]
    fn targets_just_below_the_supremum_never_overflow() {
        // The doubling search outgrows a u64 sector for the last floats
        // below 8/9; each target is either reached or reported unreachable.
        for k in [1u32, 1024, 5000] {
            let fmt = SectorFormat::for_stripe_width(k);
            let sup = fmt.utilization_supremum().fraction();
            for below in 1..=8u64 {
                let t = f64::from_bits(sup.to_bits() - below);
                let target = Ratio::from_fraction(t);
                match min_user_bits_for_utilization(&fmt, target) {
                    Ok(su) => assert!(
                        fmt.layout_bits(su).utilization() >= target,
                        "stripe width {k}, target {t}: Su = {su} falls short"
                    ),
                    Err(err) => {
                        assert!(matches!(err, FormatError::UtilizationUnreachable { .. }));
                    }
                }
            }
        }
    }

    #[test]
    fn zero_target_is_trivial() {
        let fmt = SectorFormat::paper_default();
        assert_eq!(min_user_bits_for_utilization(&fmt, Ratio::ZERO).unwrap(), 1);
    }

    #[test]
    fn max_utilization_upto_finds_sawtooth_peak() {
        let fmt = SectorFormat::paper_default();
        // Just past a step boundary, the previous peak beats the cap itself.
        let (su, u) = max_utilization_upto(&fmt, DataSize::from_bit_count(9300));
        assert!(u >= fmt.layout_bits(9300).utilization());
        assert!(su <= 9300);
    }

    #[test]
    fn profile_samples_every_point() {
        let fmt = SectorFormat::paper_default();
        let points: Vec<DataSize> = (1..=5)
            .map(|i| DataSize::from_kibibytes(f64::from(i)))
            .collect();
        let profile = utilization_profile(&fmt, points.clone());
        assert_eq!(profile.len(), 5);
        assert_eq!(profile[0].0, points[0]);
    }

    proptest! {
        #[test]
        fn solver_output_reaches_target(pct in 1.0..88.0f64) {
            let fmt = SectorFormat::paper_default();
            let target = Ratio::from_percent(pct);
            let su = min_user_bits_for_utilization(&fmt, target).unwrap();
            prop_assert!(fmt.layout_bits(su).utilization() >= target);
        }

        #[test]
        fn solver_output_is_locally_minimal(pct in 1.0..88.0f64) {
            let fmt = SectorFormat::paper_default();
            let target = Ratio::from_percent(pct);
            let su = min_user_bits_for_utilization(&fmt, target).unwrap();
            if su > 1 {
                prop_assert!(fmt.layout_bits(su - 1).utilization() < target);
            }
        }

        #[test]
        fn solver_works_for_other_stripe_widths(pct in 1.0..85.0f64, k in 1u32..5000) {
            let fmt = SectorFormat::new(k, EccPolicy::MEMS, 3).unwrap();
            let target = Ratio::from_percent(pct);
            let su = min_user_bits_for_utilization(&fmt, target).unwrap();
            prop_assert!(fmt.layout_bits(su).utilization() >= target);
        }
    }
}
