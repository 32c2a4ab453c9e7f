//! The AVX-512F body of the compiled gate kernels: what
//! [`kernel::run`](super::kernel::run) runs on a register of at least
//! eight amplitudes when the CPU has AVX-512F.
//!
//! A *vector* is four consecutive amplitudes, eight `f64`s with real
//! and imaginary parts alternating (`Complex` is `#[repr(C)]`); a
//! *slot* is one amplitude of a vector. Index bits from 2 up pick
//! vectors, bits 0 and 1 pick slots:
//!
//! - a pair on a qubit `q ≥ 2` is two whole vectors, each computed from
//!   itself and its partner with its half's constants; on `q ∈ {0, 1}`
//!   one vector holds both halves of two pairs, its partner is one lane
//!   permute of it, and each slot takes its half's constants (a blend
//!   made once per gate);
//! - a two-qubit gate moves or phases whole vectors for its qubits from
//!   2 up, and permutes and blends slots for a qubit below 2.
//!
//! **Bit for bit the scalar body.** Every output `f64` is the scalar
//! kernel's expression: the same products of the same operands, summed
//! by the same single add. `x − b·y` is written `x + (−b)·y` (negation
//! does not round), and a sum may be written `b + a` (addition
//! commutes exactly). There is no fused multiply-add, no reduction and
//! no reassociation, and permutes and blends only move data.
//! `lane_kernels_equal_the_scalar_kernels_bit_for_bit` compares the two
//! bodies by `to_bits`.
//!
//! The trajectory draw's word screen ([`ScreenLanes`]) shares the file
//! and its one CPU detection: eight `u64` compares a vector, one mask
//! bit a word, the mask the scalar fold in `executor/draw.rs` builds.
//!
//! The `unsafe` here is the call of the `#[target_feature]` bodies from
//! plain code and the vector loads and store.

use core::arch::x86_64::{
    __m512d, __m512i, __mmask8, _mm512_add_pd, _mm512_castpd_si512, _mm512_castsi512_pd,
    _mm512_loadu_epi64, _mm512_loadu_pd, _mm512_mask_blend_pd, _mm512_mask_cmple_epu64_mask,
    _mm512_mask_cmplt_epu64_mask, _mm512_maskz_loadu_epi64, _mm512_mul_pd, _mm512_permute_pd,
    _mm512_permutexvar_pd, _mm512_set1_epi64, _mm512_set1_pd, _mm512_setr_epi64, _mm512_setr_pd,
    _mm512_storeu_pd, _mm512_xor_si512,
};

use super::kernel::{pair_bit, width, Op};
use crate::math::{Complex, Mat2};

/// One vector: four consecutive amplitudes.
type Quad = [Complex; 4];

/// Whether this CPU has AVX-512F: the one detection of the gate
/// kernels and the word screen (std caches it after the first call).
fn avx512f() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// Runs `op` on `amps` in AVX-512F lanes if the register has at least
/// eight amplitudes and this CPU has AVX-512F, and says whether it did.
/// The one place the body is chosen.
pub(super) fn run(amps: &mut [Complex], op: &Op, mats: &[Mat2]) -> bool {
    if amps.len() < 8 || !avx512f() {
        return false;
    }
    // SAFETY: the CPU has AVX-512F, detected just above.
    unsafe { run_avx512(amps, op, mats) };
    true
}

/// Proof that this CPU has AVX-512F, for the trajectory draw's word
/// screen: only [`ScreenLanes::detect`] makes one, so a stream detects
/// once and screens every chunk on the lanes it was handed.
#[derive(Clone, Copy)]
pub(crate) struct ScreenLanes(());

impl ScreenLanes {
    /// The lanes, where this CPU has AVX-512F.
    pub(crate) fn detect() -> Option<Self> {
        avx512f().then_some(ScreenLanes(()))
    }

    /// Bit `k` set iff word `k` of `halves` — halves `2k` (low) and
    /// `2k + 1` (high), as the generator's `next_u64` pairs them — is
    /// below `bounds[k]` (`BELOW`) or at most it, for
    /// `k < bounds.len()`; compared eight words a vector, each vector
    /// masked to the words there are.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` holds more than 64 words or `halves` fewer
    /// than two per bound.
    pub(crate) fn screen<const BELOW: bool>(self, halves: &[u32], bounds: &[u64]) -> u64 {
        let words = bounds.len();
        assert!(
            words <= 64 && halves.len() >= 2 * words,
            "a mask is 64 words"
        );
        // SAFETY: `self` exists, so the CPU has AVX-512F (`detect`).
        unsafe { screen_avx512::<BELOW>(&halves[..2 * words], bounds) }
    }
}

#[target_feature(enable = "avx512f")]
fn screen_avx512<const BELOW: bool>(halves: &[u32], bounds: &[u64]) -> u64 {
    // `halves` holds two halves a bound, so its whole vectors pair with
    // those of `bounds` and its tail with theirs.
    let (whole, tail) = bounds.as_chunks::<8>();
    let (words, tail_halves) = halves.as_chunks::<16>();
    let mut mask = 0u64;
    for (v, (words, bounds)) in words.iter().zip(whole).enumerate() {
        // SAFETY: `words` is sixteen halves (eight words) and `bounds`
        // eight bounds, what an unaligned load reads; a word of two
        // halves loads as `next_u64` pairs them, since x86 is
        // little-endian.
        let (words, bounds) = unsafe {
            (
                _mm512_loadu_epi64(words.as_ptr().cast()),
                _mm512_loadu_epi64(bounds.as_ptr().cast()),
            )
        };
        mask |= u64::from(hits::<BELOW>(0xFF, words, bounds)) << (8 * v);
    }
    if !tail.is_empty() {
        let on: __mmask8 = (1 << tail.len()) - 1;
        // SAFETY: a masked load reads the words its mask keeps — the
        // `tail.len()` bounds and `2 · tail.len()` halves left, inside
        // their slices — and no memory past them.
        let (words, bounds) = unsafe {
            (
                _mm512_maskz_loadu_epi64(on, tail_halves.as_ptr().cast()),
                _mm512_maskz_loadu_epi64(on, tail.as_ptr().cast()),
            )
        };
        mask |= u64::from(hits::<BELOW>(on, words, bounds)) << (8 * whole.len());
    }
    mask
}

/// The lanes of `on` where `words` is below `bounds` (`BELOW`) or at
/// most it.
#[target_feature(enable = "avx512f")]
#[inline]
fn hits<const BELOW: bool>(on: __mmask8, words: __m512i, bounds: __m512i) -> __mmask8 {
    if BELOW {
        _mm512_mask_cmplt_epu64_mask(on, words, bounds)
    } else {
        _mm512_mask_cmple_epu64_mask(on, words, bounds)
    }
}

#[target_feature(enable = "avx512f")]
fn run_avx512(amps: &mut [Complex], op: &Op, mats: &[Mat2]) {
    match *op {
        Op::Flip { q } => {
            let bit = pair_bit(amps, q as usize);
            pairs(amps, bit, [], [], |_, partner, []| partner);
        }
        Op::Phase { q, d } => {
            let bit = pair_bit(amps, q as usize);
            let d = complex(d);
            where_set(amps, bit, |v| times(v, d));
        }
        Op::Diagonal { q, d0, d1 } => {
            let bit = pair_bit(amps, q as usize);
            pairs(amps, bit, complex(d0), complex(d1), |own, _, d| {
                times(own, d)
            });
        }
        Op::Real { q, m } => {
            let bit = pair_bit(amps, q as usize);
            let clear = [splat(m[0][0]), splat(m[0][1])];
            let set = [splat(m[1][1]), splat(m[1][0])];
            pairs(amps, bit, clear, set, |own, partner, [a, b]| {
                _mm512_add_pd(_mm512_mul_pd(a, own), _mm512_mul_pd(b, partner))
            });
        }
        Op::Cross {
            q,
            d0,
            b01,
            b10,
            d1,
        } => {
            let bit = pair_bit(amps, q as usize);
            let clear = [splat(d0), alternate(-b01, b01)];
            let set = [splat(d1), alternate(-b10, b10)];
            pairs(amps, bit, clear, set, |own, partner, [d, b]| {
                _mm512_add_pd(_mm512_mul_pd(d, own), _mm512_mul_pd(b, swap_parts(partner)))
            });
        }
        Op::General { q, mat } => {
            let bit = pair_bit(amps, q as usize);
            let [[m00, m01], [m10, m11]] = mats[mat as usize];
            let ([r00, i00], [r01, i01]) = (complex(m00), complex(m01));
            let ([r11, i11], [r10, i10]) = (complex(m11), complex(m10));
            let clear = [r00, i00, r01, i01];
            let set = [r11, i11, r10, i10];
            pairs(amps, bit, clear, set, |own, partner, [ro, io, rp, ip]| {
                _mm512_add_pd(times(own, [ro, io]), times(partner, [rp, ip]))
            });
        }
        Op::Cx { control, target } => {
            let (c, t) = two_bits(amps, control, target);
            if t < 4 {
                let across = partner(t);
                where_set(amps, c, |v| _mm512_permutexvar_pd(across, v));
            } else {
                let on = slots(|s| s & c == c & 3);
                pairs_where(amps, c & !3, t, t, |x, y| {
                    (
                        _mm512_mask_blend_pd(on, x, y),
                        _mm512_mask_blend_pd(on, y, x),
                    )
                });
            }
        }
        Op::Cz { a, b } => {
            let (a, b) = two_bits(amps, a, b);
            where_set(amps, a | b, |v| negate(v));
        }
        Op::Cp { a, b, phase } => {
            let (a, b) = two_bits(amps, a, b);
            let phase = complex(phase);
            where_set(amps, a | b, |v| times(v, phase));
        }
        Op::Swap { a, b } => {
            let (a, b) = two_bits(amps, a, b);
            let (low, high) = (a.min(b), a.max(b));
            if high < 4 {
                let exchange = permutation(|s| [0, 2, 1, 3][s]);
                each(amps, 0, |v| _mm512_permutexvar_pd(exchange, v));
            } else if low < 4 {
                let (on, across) = (slots(|s| s & low != 0), partner(low));
                pairs_where(amps, 0, high, high, |x, y| {
                    (
                        _mm512_mask_blend_pd(on, x, _mm512_permutexvar_pd(across, y)),
                        _mm512_mask_blend_pd(on, _mm512_permutexvar_pd(across, x), y),
                    )
                });
            } else {
                pairs_where(amps, low, high, low | high, |x, y| (y, x));
            }
        }
    }
}

/// The amplitude bits of two distinct qubits of `amps`, checked as the
/// scalar body checks them.
fn two_bits(amps: &[Complex], a: u32, b: u32) -> (usize, usize) {
    let (a, b, n) = (a as usize, b as usize, width(amps));
    assert!(a < n && b < n && a != b);
    (1 << a, 1 << b)
}

/// Hands `f` both halves of every pair on the qubit of amplitude bit
/// `bit`: `f(own, partner, constants)` is the half's new value, with
/// `clear`'s constants where `bit` is clear and `set`'s where it is set.
#[target_feature(enable = "avx512f")]
#[inline]
fn pairs<const N: usize>(
    amps: &mut [Complex],
    bit: usize,
    clear: [__m512d; N],
    set: [__m512d; N],
    f: impl Fn(__m512d, __m512d, [__m512d; N]) -> __m512d,
) {
    if bit < 4 {
        let upper = slots(|s| s & bit != 0);
        let constants = core::array::from_fn(|k| _mm512_mask_blend_pd(upper, clear[k], set[k]));
        let across = partner(bit);
        each(amps, 0, |v| {
            f(v, _mm512_permutexvar_pd(across, v), constants)
        });
    } else {
        pairs_where(amps, 0, bit, bit, |x, y| (f(x, y, clear), f(y, x, set)));
    }
}

/// Replaces every amplitude whose index has each bit of `bits` set by
/// `f` of it; a vector with such slots in part gets its others back
/// unchanged.
#[target_feature(enable = "avx512f")]
#[inline]
fn where_set(amps: &mut [Complex], bits: usize, f: impl Fn(__m512d) -> __m512d) {
    let on = slots(|s| s & bits == bits & 3);
    each(amps, bits & !3, |v| _mm512_mask_blend_pd(on, v, f(v)));
}

/// Replaces every vector whose index has each amplitude bit of `ones`
/// (all from 4 up) set by `f` of it, a run of consecutive vectors at a
/// time.
#[target_feature(enable = "avx512f")]
#[inline]
fn each(amps: &mut [Complex], ones: usize, f: impl Fn(__m512d) -> __m512d) {
    let quads = quads(amps);
    let ones = ones >> 2;
    let replace = |quad: &mut Quad| store(quad, f(load(quad)));
    if ones.is_power_of_two() {
        // One bit, the common case: the upper half of every block.
        for block in quads.chunks_exact_mut(2 * ones) {
            block[ones..].iter_mut().for_each(replace);
        }
        return;
    }
    let run = match ones {
        0 => quads.len(),
        _ => ones & ones.wrapping_neg(),
    };
    let mut v = ones;
    while v < quads.len() {
        quads[v..v + run].iter_mut().for_each(replace);
        v = next_run(v, ones, ones, run);
    }
}

/// Hands `f` every pair of vectors `(x, y)` where `x`'s index has each
/// amplitude bit of `ones` set and of `zeros` clear and `y`'s is `x`'s
/// with the bits of `flip` toggled, and stores the pair it returns. All
/// bits are from 4 up, `flip` is a part of `ones | zeros` and its
/// highest bit is in `zeros`, so `y` lies above `x`.
#[target_feature(enable = "avx512f")]
#[inline]
fn pairs_where(
    amps: &mut [Complex],
    ones: usize,
    zeros: usize,
    flip: usize,
    f: impl Fn(__m512d, __m512d) -> (__m512d, __m512d),
) {
    let quads = quads(amps);
    let (ones, fixed, flip) = (ones >> 2, (ones | zeros) >> 2, flip >> 2);
    let run = fixed & fixed.wrapping_neg();
    let exchange = |xs: &mut [Quad], ys: &mut [Quad]| {
        for (x, y) in xs.iter_mut().zip(ys) {
            let (new_x, new_y) = f(load(x), load(y));
            store(x, new_x);
            store(y, new_y);
        }
    };
    if ones == 0 && flip == fixed {
        // One bit, the common case: the two halves of every block.
        for block in quads.chunks_exact_mut(2 * run) {
            let (xs, ys) = block.split_at_mut(run);
            exchange(xs, ys);
        }
        return;
    }
    let mut v = ones;
    while v < quads.len() {
        let (below, above) = quads.split_at_mut(v ^ flip);
        exchange(&mut below[v..v + run], &mut above[..run]);
        v = next_run(v, fixed, ones, run);
    }
}

/// The first vector of the run after the one at `v`: the free bits
/// (those outside `fixed`) count up by one run, the bits of `ones` stay
/// set and the rest of `fixed` clear.
fn next_run(v: usize, fixed: usize, ones: usize, run: usize) -> usize {
    (((v | fixed) + run) & !fixed) | ones
}

/// A register of at least eight amplitudes as vectors (its length is a
/// power of two, so none is left over).
fn quads(amps: &mut [Complex]) -> &mut [Quad] {
    amps.as_chunks_mut().0
}

#[target_feature(enable = "avx512f")]
#[inline]
fn load(quad: &Quad) -> __m512d {
    // SAFETY: `Complex` is `#[repr(C)]` over two `f64`s, so `quad` is
    // eight `f64`s in a row, which is what an unaligned load reads.
    unsafe { _mm512_loadu_pd(quad.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store(quad: &mut Quad, v: __m512d) {
    // SAFETY: as in `load`; `quad` is borrowed mutably, so the eight
    // `f64`s an unaligned store writes are ours.
    unsafe { _mm512_storeu_pd(quad.as_mut_ptr().cast(), v) }
}

/// The blend mask of the `f64`s of the slots `s ∈ 0..4` that `pick`
/// picks.
fn slots(pick: impl Fn(usize) -> bool) -> __mmask8 {
    (0..4)
        .filter(|&s| pick(s))
        .fold(0, |mask, s| mask | 0b11 << (2 * s))
}

/// The permute that fills slot `s` from slot `from(s)`, both parts.
#[target_feature(enable = "avx512f")]
#[inline]
fn permutation(from: impl Fn(usize) -> usize) -> __m512i {
    let index = |e: usize| (2 * from(e / 2) + e % 2) as i64;
    _mm512_setr_epi64(
        index(0),
        index(1),
        index(2),
        index(3),
        index(4),
        index(5),
        index(6),
        index(7),
    )
}

/// The permute that fills each slot from its partner across amplitude
/// bit `bit` (1 or 2).
#[target_feature(enable = "avx512f")]
#[inline]
fn partner(bit: usize) -> __m512i {
    permutation(|s| s ^ bit)
}

#[target_feature(enable = "avx512f")]
#[inline]
fn splat(x: f64) -> __m512d {
    _mm512_set1_pd(x)
}

/// `(even, odd)` in every slot.
#[target_feature(enable = "avx512f")]
#[inline]
fn alternate(even: f64, odd: f64) -> __m512d {
    _mm512_setr_pd(even, odd, even, odd, even, odd, even, odd)
}

/// The constants of a product with `d`: `d.re` in every part, and
/// `(−d.im, d.im)` in every slot.
#[target_feature(enable = "avx512f")]
#[inline]
fn complex(d: Complex) -> [__m512d; 2] {
    [splat(d.re), alternate(-d.im, d.im)]
}

/// `d · v` per slot with `complex(d)`: `(d.re·v.re + (−d.im)·v.im,
/// d.re·v.im + d.im·v.re)`, `Complex`'s product term for term.
#[target_feature(enable = "avx512f")]
#[inline]
fn times(v: __m512d, [re, im]: [__m512d; 2]) -> __m512d {
    _mm512_add_pd(_mm512_mul_pd(re, v), _mm512_mul_pd(im, swap_parts(v)))
}

/// Each slot's real and imaginary parts traded.
#[target_feature(enable = "avx512f")]
#[inline]
fn swap_parts(v: __m512d) -> __m512d {
    _mm512_permute_pd::<0b0101_0101>(v)
}

/// `−v`: every sign bit flipped, as `f64`'s negation does.
#[target_feature(enable = "avx512f")]
#[inline]
fn negate(v: __m512d) -> __m512d {
    let sign = _mm512_set1_epi64(i64::MIN);
    _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(v), sign))
}
