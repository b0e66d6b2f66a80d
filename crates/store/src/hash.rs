//! SHA-256, implemented locally so content addressing does not depend on
//! unavailable external crates.
//!
//! The store uses SHA-256 both for cache keys (hashes of artifact *input
//! descriptions*) and for payload checksums (hashes of artifact *bytes*).
//! A 256-bit digest makes accidental collisions a non-concern at any
//! realistic experiment-matrix size.
//!
//! The block compress runs on the x86-64 SHA extensions when the CPU has
//! them, detected at run time, and in portable Rust otherwise. Both give
//! the same digests, so keys and stored objects do not depend on the CPU.

/// A 256-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lower-case hex rendering (64 characters).
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
            s.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
        }
        s
    }

    /// Parses a 64-character hex string.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 64 || !s.is_ascii() {
            return None;
        }
        let bytes = s.as_bytes();
        let mut out = [0u8; 32];
        for (i, o) in out.iter_mut().enumerate() {
            let hi = (bytes[2 * i] as char).to_digit(16)?;
            let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
            *o = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 state.
#[derive(Debug, Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress);
    }

    /// Finishes the hash and returns the digest.
    #[must_use]
    pub fn finish(self) -> Digest {
        self.pad(compress)
    }

    /// One-shot digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finish()
    }

    /// [`update`](Sha256::update) over a given block compress. Every whole
    /// block of `data` goes to one `compress` call, so an accelerated
    /// compress keeps the state in registers across them.
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.h, &self.buf);
            self.buf_len = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            compress(&mut self.h, &rest[..whole]);
        }
        rest = &rest[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// [`finish`](Sha256::finish) over a given block compress: appends the
    /// `0x80` marker, zeros and the big-endian bit length to the buffered
    /// tail, giving one block, or two when fewer than 9 bytes are left.
    fn pad(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buf_len;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buf[..n]);
        tail[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.h, &tail[..end]);
        let mut out = [0u8; 32];
        for (chunk, v) in out.chunks_exact_mut(4).zip(self.h) {
            chunk.copy_from_slice(&v.to_be_bytes());
        }
        Digest(out)
    }
}

/// Compresses every 64-byte block of `blocks` into `state`, with the SHA
/// extensions when this CPU has them and portably otherwise. There is no
/// option to choose: both give the same state.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available` just confirmed that this CPU supports every
        // target feature `shani::compress` enables.
        unsafe { shani::compress(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// The FIPS 180-4 compress in plain Rust: the only path on CPUs without
/// the SHA extensions, and the reference the tests hold the accelerated
/// path to.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compress on the x86-64 SHA extensions (`sha256rnds2`, `sha256msg1`,
/// `sha256msg2`), after Intel's reference sequence. It keeps the state as
/// the ABEF/CDGH register pair the instructions expect, and keeps it in
/// registers for the whole run of blocks.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether this CPU has every feature [`compress`] enables. The
    /// standard library caches the answer, so this is a load and a test.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses every 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// Callers outside this target feature set must first see
    /// [`available`] return true: the instructions fault on a CPU without
    /// them.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
        // Reverses the bytes of each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 readable bytes; `loadu` has no alignment
        // requirement.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is exactly 64 readable bytes, read as four
            // unaligned 16-byte loads.
            let raw = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            let mut w = [
                _mm_shuffle_epi8(raw[0], bswap),
                _mm_shuffle_epi8(raw[1], bswap),
                _mm_shuffle_epi8(raw[2], bswap),
                _mm_shuffle_epi8(raw[3], bswap),
            ];
            // Sixteen groups of four rounds. `w[0]` holds the group's four
            // message words; the schedule derives each later group's words
            // from the four groups before it.
            for group in 0..16 {
                let k = &K[4 * group..4 * group + 4];
                let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
                let wk = _mm_add_epi32(w[0], k);
                // Two rounds each. The first leaves the new ABEF in `cdgh`
                // and the old ABEF, now the CDGH half, in `abef`; the second
                // puts each name back on its half.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                if group < 12 {
                    let next = _mm_sha256msg2_epu32(
                        _mm_add_epi32(
                            _mm_sha256msg1_epu32(w[0], w[1]),
                            _mm_alignr_epi8(w[3], w[2], 4),
                        ),
                        w[3],
                    );
                    w = [w[1], w[2], w[3], next];
                } else {
                    w = [w[1], w[2], w[3], w[0]];
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; `storeu` has no alignment
        // requirement.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Compress = fn(&mut [u32; 8], &[u8]);

    // NIST FIPS 180-4 test vectors.
    const NIST: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    /// Digests of `n` bytes of `a`, from coreutils `sha256sum`. They sit on
    /// the padding boundaries: 55 bytes is the longest tail that pads to one
    /// block, 56 and 63 need a second block, 64 is a whole block plus an
    /// all-padding block, and 119 is 55 past a block.
    const RUNS_OF_A: [(usize, &str); 5] = [
        (
            55,
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        ),
        (
            56,
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
        ),
        (
            63,
            "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
        ),
        (
            64,
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        ),
        (
            119,
            "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
        ),
    ];

    /// Both compress functions by name. The accelerated one is left out,
    /// with a note that its checks are skipped, on a CPU without the SHA
    /// extensions.
    fn compress_fns() -> Vec<(&'static str, Compress)> {
        let portable: (&'static str, Compress) = ("portable", compress_portable);
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            return vec![
                portable,
                ("shani", |state, blocks| {
                    // SAFETY: this function is only handed out after
                    // `available` confirmed the CPU has every feature
                    // `shani::compress` enables.
                    unsafe { shani::compress(state, blocks) }
                }),
            ];
        }
        static NOTE: std::sync::Once = std::sync::Once::new();
        NOTE.call_once(|| eprintln!("skipped: accelerated compress (no SHA extensions)"));
        vec![portable]
    }

    /// The digest of `parts`, fed in order to [`Sha256`]'s buffering and
    /// padding over the given compress.
    fn digest_with(compress: Compress, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.absorb(part, compress);
        }
        h.pad(compress)
    }

    /// Asserts that `parts`, fed in order, hash to `want` through
    /// [`Sha256`] and through each compress function.
    fn assert_digest(parts: &[&[u8]], want: &str) {
        let mut h = Sha256::new();
        for part in parts {
            h.update(part);
        }
        assert_eq!(h.finish().to_hex(), want);
        for (name, compress) in compress_fns() {
            assert_eq!(digest_with(compress, parts).to_hex(), want, "{name}");
        }
    }

    #[test]
    fn nist_vectors_match_on_every_compress() {
        for (input, want) in NIST {
            assert_digest(&[input], want);
        }
        assert_digest(&[&[b'a'; 1000][..]; 1000], MILLION_A);
    }

    #[test]
    fn padding_boundaries_match_sha256sum() {
        for (n, want) in RUNS_OF_A {
            assert_digest(&[&vec![b'a'; n]], want);
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), Sha256::digest(&data));
    }

    proptest! {
        /// Any input cut at any points gives one digest on every compress.
        #[test]
        fn compress_paths_agree_at_any_split(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            cuts in proptest::collection::vec(0usize..=4096, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut parts = Vec::with_capacity(cuts.len() + 1);
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                parts.push(&data[from..cut]);
                from = cut;
            }
            let want = Sha256::digest(&data);
            for (name, compress) in compress_fns() {
                prop_assert_eq!(digest_with(compress, &parts), want, "{}", name);
            }
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = Sha256::digest(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"a".repeat(63)), None);
    }
}
