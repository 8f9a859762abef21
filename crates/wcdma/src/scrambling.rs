//! 3GPP TS 25.213 §5.2.2 downlink scrambling codes.
//!
//! Downlink scrambling codes are complex Gold sequences built from two
//! degree-18 m-sequences:
//!
//! * `x`: feedback `x(i+18) = x(i+7) + x(i) mod 2`, seeded `1,0,…,0`,
//! * `y`: feedback `y(i+18) = y(i+10) + y(i+7) + y(i+5) + y(i) mod 2`,
//!   seeded all ones.
//!
//! Code number `n` selects a phase shift of `x`:
//! `zₙ(i) = x((i+n) mod L) ⊕ y(i)` with `L = 2¹⁸ − 1`, and the complex chip is
//! `Sₙ(i) = m(zₙ(i)) + j·m(zₙ((i+131072) mod L))` with `m: 0 → +1, 1 → −1`.
//! One radio frame uses the first 38400 chips.
//!
//! In the paper's partitioning (Fig. 4) this generator is *dedicated
//! hardware* that hands the array a 2-bit code representation per chip; the
//! array's descrambler (Fig. 5) expands those bits to `±1±j`.
//!
//! Like that generator, codes here are generated once rather than per use.
//! The two m-sequences are built once per process. The 512 primary codes
//! (`n = 16·i`, `i < 512`) are each generated once, on first use, into a
//! fixed table and then shared: a [`ScramblingCode`] holds its frame of
//! 2-bit chips behind an [`Arc`], so cloning or re-requesting one is a
//! reference-count bump. The table holds at most 512 frames of 38.4 KB
//! (≈19.7 MB). Other code numbers are not cached; each request derives its
//! frame from the shared m-sequences, which costs one pass over 38400 chips.

use std::sync::{Arc, OnceLock};

use sdr_dsp::Cplx;

/// Length of one m-sequence period, `2¹⁸ − 1`.
pub const SEQUENCE_LEN: usize = (1 << 18) - 1;

/// Chips per 10 ms radio frame.
pub const FRAME_CHIPS: usize = 38_400;

/// Offset between the I and Q branches of the complex code.
const Q_BRANCH_OFFSET: usize = 131_072;

/// Primary downlink codes: numbers `16·i` for `i < 512`.
const PRIMARY_CODES: usize = 512;

/// Primary-code spacing in code numbers.
const PRIMARY_STRIDE: usize = 16;

/// One slot per primary code, filled on first use.
static PRIMARY: [OnceLock<Arc<[u8]>>; PRIMARY_CODES] = [const { OnceLock::new() }; PRIMARY_CODES];

/// Times the process built its shared m-sequences.
#[cfg(test)]
static M_SEQUENCE_BUILDS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn m_sequences() -> (Vec<u8>, Vec<u8>) {
    let mut x = vec![0u8; SEQUENCE_LEN];
    let mut y = vec![0u8; SEQUENCE_LEN];
    // Seeds: x = 1,0,...,0 ; y = all ones (registers hold x(i)..x(i+17)).
    let mut xr = [0u8; 18];
    xr[0] = 1;
    let mut yr = [1u8; 18];
    for i in 0..SEQUENCE_LEN {
        x[i] = xr[0];
        y[i] = yr[0];
        let xf = (xr[7] + xr[0]) & 1;
        let yf = (yr[10] + yr[7] + yr[5] + yr[0]) & 1;
        xr.copy_within(1..18, 0);
        xr[17] = xf;
        yr.copy_within(1..18, 0);
        yr[17] = yf;
    }
    (x, y)
}

/// The process-wide m-sequences, built on first use.
fn shared_m_sequences() -> &'static (Vec<u8>, Vec<u8>) {
    static SEQUENCES: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    SEQUENCES.get_or_init(|| {
        #[cfg(test)]
        M_SEQUENCE_BUILDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        m_sequences()
    })
}

/// One frame of code `n` as 2-bit chips: bit 0 is `cᵢ`, bit 1 is `c_q`.
fn frame_bits(n: usize) -> Arc<[u8]> {
    let (x, y) = shared_m_sequences();
    (0..FRAME_CHIPS)
        .map(|i| {
            let zi = x[(i + n) % SEQUENCE_LEN] ^ y[i];
            let iq = (i + Q_BRANCH_OFFSET) % SEQUENCE_LEN;
            let zq = x[(iq + n) % SEQUENCE_LEN] ^ y[iq];
            zi | zq << 1
        })
        .collect()
}

/// A downlink scrambling-code generator for one cell.
///
/// The generator holds one frame (38400 chips) of the complex code; the
/// per-chip interface hands out either the complex `±1±j` value or the 2-bit
/// representation the dedicated hardware would stream to the array. The
/// frame is shared, so cloning a code is cheap.
///
/// # Example
///
/// ```
/// use sdr_wcdma::scrambling::ScramblingCode;
///
/// let code = ScramblingCode::downlink(0);
/// let chip = code.chip(0);
/// assert!(chip.re.abs() == 1 && chip.im.abs() == 1);
/// // The 2-bit representation encodes the same chip.
/// let (ci, cq) = code.chip_bits(0);
/// assert_eq!(chip.re, 1 - 2 * ci as i32);
/// assert_eq!(chip.im, 1 - 2 * cq as i32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScramblingCode {
    number: u32,
    /// One frame of 2-bit chips (bit 0: I branch, bit 1: Q branch).
    bits: Arc<[u8]>,
}

impl ScramblingCode {
    /// Returns the downlink code with the given code number. A primary code
    /// is generated on its first request and shared by every later one.
    ///
    /// # Panics
    ///
    /// Panics if `number` is not less than `2¹⁸ − 1`.
    pub fn downlink(number: u32) -> Self {
        assert!(
            (number as usize) < SEQUENCE_LEN,
            "scrambling code number out of range"
        );
        let n = number as usize;
        let bits = match PRIMARY.get(n / PRIMARY_STRIDE) {
            Some(slot) if n.is_multiple_of(PRIMARY_STRIDE) => {
                Arc::clone(slot.get_or_init(|| frame_bits(n)))
            }
            _ => frame_bits(n),
        };
        ScramblingCode { number, bits }
    }

    /// The code number.
    pub fn number(&self) -> u32 {
        self.number
    }

    /// The complex code chip (`±1 ± j`) at frame position `i` (wraps at the
    /// frame boundary, matching the per-frame restart of the standard).
    #[inline]
    pub fn chip(&self, i: usize) -> Cplx<i32> {
        let (ci, cq) = self.chip_bits(i);
        Cplx::new(1 - 2 * ci as i32, 1 - 2 * cq as i32)
    }

    /// The 2-bit representation `(cᵢ, c_q)` of a chip — the stream the
    /// dedicated-hardware generator feeds the array in Fig. 5.
    #[inline]
    pub fn chip_bits(&self, i: usize) -> (u8, u8) {
        let b = self.bits[i % FRAME_CHIPS];
        (b & 1, b >> 1)
    }

    /// A full frame of complex chips.
    pub fn frame(&self) -> Vec<Cplx<i32>> {
        (0..FRAME_CHIPS).map(|i| self.chip(i)).collect()
    }

    /// True when both codes read the same frame storage.
    #[cfg(test)]
    fn shares_bits_with(&self, other: &ScramblingCode) -> bool {
        Arc::ptr_eq(&self.bits, &other.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_sequences_have_maximal_balance() {
        let (x, y) = m_sequences();
        // An m-sequence of period 2^18-1 has 2^17 ones and 2^17-1 zeros.
        let ones_x: usize = x.iter().map(|&b| b as usize).sum();
        let ones_y: usize = y.iter().map(|&b| b as usize).sum();
        assert_eq!(ones_x, 1 << 17);
        assert_eq!(ones_y, 1 << 17);
    }

    #[test]
    fn x_sequence_satisfies_recurrence() {
        let (x, _) = m_sequences();
        for i in 0..1000 {
            assert_eq!(x[i + 18], x[i + 7] ^ x[i]);
        }
    }

    #[test]
    fn y_sequence_satisfies_recurrence() {
        let (_, y) = m_sequences();
        for i in 0..1000 {
            assert_eq!(y[i + 18], y[i + 10] ^ y[i + 7] ^ y[i + 5] ^ y[i]);
        }
    }

    #[test]
    fn chips_are_qpsk_valued() {
        let code = ScramblingCode::downlink(17);
        for i in 0..500 {
            let c = code.chip(i);
            assert_eq!(c.re.abs(), 1);
            assert_eq!(c.im.abs(), 1);
        }
    }

    #[test]
    fn different_code_numbers_decorrelate() {
        let a = ScramblingCode::downlink(0);
        let b = ScramblingCode::downlink(16); // different primary code
        let n = 4096;
        let corr: i64 = (0..n)
            .map(|i| {
                let ca = a.chip(i);
                let cb = b.chip(i);
                (ca * cb.conj()).re as i64
            })
            .sum();
        // Cross-correlation of distinct Gold phases is far below n·|chip|²=2n.
        assert!(
            corr.abs() < n as i64 / 4,
            "cross-correlation too high: {corr}"
        );
    }

    #[test]
    fn autocorrelation_peaks_at_zero_lag() {
        let code = ScramblingCode::downlink(3);
        let n = 2048;
        let zero: i64 = (0..n)
            .map(|i| (code.chip(i) * code.chip(i).conj()).re as i64)
            .sum();
        assert_eq!(zero, 2 * n as i64);
        let lag: i64 = (0..n)
            .map(|i| (code.chip(i) * code.chip(i + 7).conj()).re as i64)
            .sum();
        assert!(lag.abs() < n as i64 / 4);
    }

    #[test]
    fn chip_bits_match_complex_chip() {
        let code = ScramblingCode::downlink(5);
        for i in 0..200 {
            let (ci, cq) = code.chip_bits(i);
            let c = code.chip(i);
            assert_eq!(c.re, 1 - 2 * ci as i32);
            assert_eq!(c.im, 1 - 2 * cq as i32);
        }
    }

    #[test]
    fn frame_wraps() {
        let code = ScramblingCode::downlink(9);
        assert_eq!(code.chip(0), code.chip(FRAME_CHIPS));
        assert_eq!(code.frame().len(), FRAME_CHIPS);
    }

    /// The code computed straight from the §5.2.2 formula over freshly
    /// built m-sequences, as `(cᵢ, c_q)` per chip.
    fn fresh_chip_bits(number: u32) -> Vec<(u8, u8)> {
        let (x, y) = m_sequences();
        let n = number as usize;
        (0..FRAME_CHIPS)
            .map(|i| {
                let iq = (i + Q_BRANCH_OFFSET) % SEQUENCE_LEN;
                (
                    x[(i + n) % SEQUENCE_LEN] ^ y[i],
                    x[(iq + n) % SEQUENCE_LEN] ^ y[iq],
                )
            })
            .collect()
    }

    #[test]
    fn downlink_matches_a_freshly_built_code() {
        for number in [0, 16, 8176, 1, 8191, SEQUENCE_LEN as u32 - 1] {
            let code = ScramblingCode::downlink(number);
            assert_eq!(code.number(), number);
            let bits: Vec<(u8, u8)> = (0..FRAME_CHIPS).map(|i| code.chip_bits(i)).collect();
            assert!(bits == fresh_chip_bits(number), "code {number} differs");
        }
    }

    #[test]
    fn primary_codes_share_storage_and_others_do_not() {
        let a = ScramblingCode::downlink(16);
        let b = ScramblingCode::downlink(16);
        assert!(a.shares_bits_with(&b));
        assert!(a.shares_bits_with(&a.clone()));
        // Non-primary codes, and multiples of 16 past the 512 primaries,
        // are rebuilt per request, so they never grow the 512-slot table.
        for number in [17, 16 * PRIMARY_CODES as u32] {
            let c = ScramblingCode::downlink(number);
            let d = ScramblingCode::downlink(number);
            assert_eq!(c, d);
            assert!(!c.shares_bits_with(&d), "code {number} was cached");
        }
    }

    #[test]
    fn m_sequences_are_built_once_per_process() {
        // Non-primary codes always read the shared m-sequences.
        ScramblingCode::downlink(1);
        ScramblingCode::downlink(2);
        assert_eq!(
            M_SEQUENCE_BUILDS.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn racing_first_use_yields_one_code() {
        // A primary code no other test requests, so its first use is here.
        const NUMBER: u32 = 16 * 500;
        let barrier = std::sync::Barrier::new(4);
        let codes: Vec<ScramblingCode> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        ScramblingCode::downlink(NUMBER)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("code thread panicked"))
                .collect()
        });
        for code in &codes[1..] {
            assert_eq!(*code, codes[0]);
            assert!(code.shares_bits_with(&codes[0]));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_code_number() {
        ScramblingCode::downlink(1 << 18);
    }
}
