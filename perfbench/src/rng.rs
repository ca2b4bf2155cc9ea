//! Seeded input generation. SplitMix64: tiny, fast, and the same
//! sequence on every platform, so a seed names one set of inputs.

use pm_systolic::symbol::{Alphabet, PatSym, Pattern, Symbol};

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so inputs
    /// drawn for different purposes never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// `len` random bytes over `alphabet`.
    pub fn bytes(&mut self, alphabet: Alphabet, len: usize) -> Vec<u8> {
        let size = alphabet.size();
        (0..len).map(|_| self.below(size) as u8).collect()
    }

    /// A literal pattern of `len` random symbols over `alphabet`.
    pub fn literal(&mut self, alphabet: Alphabet, len: usize) -> Pattern {
        let size = alphabet.size();
        let symbols = (0..len)
            .map(|_| PatSym::Lit(Symbol::new(self.below(size) as u8)))
            .collect();
        Pattern::new(symbols, alphabet).expect("a non-empty literal pattern is valid")
    }
}

/// Bytes as text symbols.
pub fn symbols(bytes: &[u8]) -> Vec<Symbol> {
    bytes.iter().map(|&b| Symbol::new(b)).collect()
}

/// Writes `pattern` into the cyclic text `text` starting at `at`,
/// wrapping past the end, so a plant can straddle the point where the
/// text repeats. Wild cards take `filler`.
pub fn plant(text: &mut [u8], pattern: &Pattern, at: usize, filler: u8) {
    let len = text.len();
    for (d, sym) in pattern.symbols().iter().enumerate() {
        text[(at + d) % len] = sym.literal().map_or(filler, Symbol::value);
    }
}
