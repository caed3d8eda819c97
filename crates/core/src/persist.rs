//! Hand-rolled byte-level persistence.
//!
//! The offline build environment has no serde, so everything the fleet
//! checkpoints to disk is written through this little codec instead:
//! fixed-width little-endian scalars, length-prefixed sequences, and a
//! bounds-checked [`Reader`] on the way back in. The format is *not* a
//! wire protocol — it is a private snapshot format whose only contract
//! is that `read(write(x)) == x` for the same build of this workspace
//! (the runtime's round-trip tests enforce exactly that).
//!
//! Two traits:
//!
//! * [`Persist`] — structural encode/decode for a value;
//! * [`PersistTag`] — a stable identity string for *type registries*:
//!   the runtime's type-erased job store needs to know which concrete
//!   `(problem, neighborhood)` pair to rebuild before it can decode the
//!   payload bytes, and the tag is that key.
//!
//! This module also implements `Persist` for the foreign types the fleet
//! snapshot embeds (device/host specs, time ledgers, neighborhoods, the
//! `rand`-shim RNG) — legal here because the trait is local to this
//! crate.

use crate::bitstring::BitString;
use crate::search::{SearchConfig, SearchResult};
use crate::tabu::{TabuSearch, TabuStrategy};
use lnls_gpu_sim::{DeviceSpec, EngineConfig, HostSpec, LaunchMode, SelectionMode, TimeBook};
use lnls_neighborhood::{FlipMove, KHamming, Neighborhood};
use rand::rngs::StdRng;
use std::fmt;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Decode failure: truncated input, a bad tag, or a value that fails an
/// invariant (e.g. non-UTF-8 where a string was promised).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError(pub String);

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "persist: {}", self.0)
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// A decode error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

/// Bounds-checked sequential reader over a snapshot byte buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::new(format!(
                "truncated input: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Decode one value.
    pub fn read<T: Persist>(&mut self) -> Result<T, PersistError> {
        T::read(self)
    }

    /// Consume and verify a fixed magic prefix — the entry check of
    /// every tagged on-disk artifact (fleet checkpoints, workload
    /// traces). `what` names the artifact in the error message.
    pub fn expect_magic(&mut self, magic: &[u8], what: &str) -> Result<(), PersistError> {
        let got = self
            .take(magic.len())
            .map_err(|_| PersistError::new(format!("not a {what} (truncated magic)")))?;
        if got != magic {
            return Err(PersistError::new(format!("not a {what} (bad magic)")));
        }
        Ok(())
    }
}

/// Structural byte-level encode/decode. See the [module docs](self) for
/// the format contract.
pub trait Persist: Sized {
    /// Append this value's encoding to `out`.
    fn write(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader.
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError>;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }
}

/// Write `bytes` to `path` through `<path>.tmp` and a rename, so a
/// reader finds the old file or the new one, never half of one. Fleet
/// checkpoints, delta segments and workload traces all land this way.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// A stable identity string for registry-keyed decoding: the runtime
/// maps `TAG` back to the concrete Rust type before decoding its bytes.
/// Keep tags unique and never reuse one for a different layout.
pub trait PersistTag {
    /// The registry key.
    const TAG: &'static str;
}

// -- scalars ----------------------------------------------------------

macro_rules! impl_persist_le {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}
impl_persist_le!(u8, u16, u32, u64, i32, i64);

impl Persist for usize {
    fn write(&self, out: &mut Vec<u8>) {
        (*self as u64).write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let v = u64::read(r)?;
        usize::try_from(v).map_err(|_| PersistError::new("usize overflow"))
    }
}

impl Persist for f64 {
    fn write(&self, out: &mut Vec<u8>) {
        self.to_bits().write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(f64::from_bits(u64::read(r)?))
    }
}

impl Persist for bool {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::read(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PersistError::new(format!("bad bool byte {b}"))),
        }
    }
}

impl Persist for Duration {
    fn write(&self, out: &mut Vec<u8>) {
        self.as_secs().write(out);
        self.subsec_nanos().write(out);
    }
    /// The writer only emits whole seconds plus `nanos < 10⁹`; anything
    /// larger is corrupt (and would overflow `Duration::new`'s carry).
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let secs = u64::read(r)?;
        let nanos = u32::read(r)?;
        if nanos >= 1_000_000_000 {
            return Err(PersistError::new(format!("bad duration: {nanos} subsecond nanos")));
        }
        Ok(Duration::new(secs, nanos))
    }
}

// -- containers -------------------------------------------------------

impl Persist for String {
    fn write(&self, out: &mut Vec<u8>) {
        self.len().write(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = usize::read(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::new("non-UTF-8 string"))
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        self.len().write(out);
        for item in self {
            item.write(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = usize::read(r)?;
        // Guard against absurd prefixes on corrupt input: each element
        // needs at least one byte.
        if len > r.remaining() {
            return Err(PersistError::new(format!("sequence length {len} exceeds input")));
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::read(r)?);
        }
        Ok(v)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
        self.2.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::read(r)?, B::read(r)?, C::read(r)?))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.write(out);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::read(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::read(r)?)),
            b => Err(PersistError::new(format!("bad option tag {b}"))),
        }
    }
}

// -- workspace types --------------------------------------------------

impl Persist for BitString {
    fn write(&self, out: &mut Vec<u8>) {
        self.len().write(out);
        let mut bits = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            bits.push(self.get(i));
        }
        // One byte per bit would bloat long strings; pack 8 per byte.
        self.len().div_ceil(8).write(out);
        for chunk in bits.chunks(8) {
            let mut b = 0u8;
            for (i, &bit) in chunk.iter().enumerate() {
                b |= (bit as u8) << i;
            }
            out.push(b);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = usize::read(r)?;
        let nbytes = usize::read(r)?;
        if nbytes != len.div_ceil(8) {
            return Err(PersistError::new("bitstring length/byte-count mismatch"));
        }
        let bytes = r.take(nbytes)?;
        let mut s = BitString::zeros(len);
        for i in 0..len {
            if (bytes[i / 8] >> (i % 8)) & 1 == 1 {
                s.set(i, true);
            }
        }
        Ok(s)
    }
}

impl Persist for FlipMove {
    fn write(&self, out: &mut Vec<u8>) {
        let bits = self.bits();
        (bits.len() as u8).write(out);
        for &b in bits {
            b.write(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let k = u8::read(r)? as usize;
        if k == 0 || k > 4 {
            return Err(PersistError::new(format!("bad flip-move arity {k}")));
        }
        let mut bits = [0u32; 4];
        for b in bits.iter_mut().take(k) {
            *b = u32::read(r)?;
        }
        if !bits[..k].windows(2).all(|w| w[0] < w[1]) {
            return Err(PersistError::new("flip-move bits not strictly sorted"));
        }
        Ok(FlipMove::from_sorted(&bits[..k]))
    }
}

impl Persist for StdRng {
    fn write(&self, out: &mut Vec<u8>) {
        for w in self.state() {
            w.write(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = u64::read(r)?;
        }
        Ok(StdRng::from_state(s))
    }
}

impl Persist for TimeBook {
    fn write(&self, out: &mut Vec<u8>) {
        self.kernel_s.write(out);
        self.overhead_s.write(out);
        self.h2d_s.write(out);
        self.d2h_s.write(out);
        self.bytes_h2d.write(out);
        self.bytes_d2h.write(out);
        self.launches.write(out);
        self.host_s.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(TimeBook {
            kernel_s: r.read()?,
            overhead_s: r.read()?,
            h2d_s: r.read()?,
            d2h_s: r.read()?,
            bytes_h2d: r.read()?,
            bytes_d2h: r.read()?,
            launches: r.read()?,
            host_s: r.read()?,
        })
    }
}

/// Specs carry `&'static str` names. Decoding reuses the preset name
/// when the string matches one; an unrecognized (custom) name is leaked
/// once per load — snapshot loading is rare enough that this is the
/// honest dependency-free trade.
fn static_name(name: String, presets: &[&'static str]) -> &'static str {
    presets
        .iter()
        .find(|p| **p == name)
        .copied()
        .unwrap_or_else(|| Box::leak(name.into_boxed_str()))
}

impl Persist for EngineConfig {
    fn write(&self, out: &mut Vec<u8>) {
        self.copy_engines.write(out);
        self.concurrent_kernels.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let cfg = EngineConfig { copy_engines: r.read()?, concurrent_kernels: r.read()? };
        if cfg.copy_engines == 0 || cfg.concurrent_kernels == 0 {
            return Err(PersistError::new("engine layout needs at least one engine per pool"));
        }
        Ok(cfg)
    }
}

impl Persist for SelectionMode {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(match self {
            SelectionMode::HostArgmin => 0,
            SelectionMode::DeviceArgmin => 1,
        });
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match u8::read(r)? {
            0 => SelectionMode::HostArgmin,
            1 => SelectionMode::DeviceArgmin,
            b => return Err(PersistError::new(format!("bad selection mode {b}"))),
        })
    }
}

impl Persist for LaunchMode {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(match self {
            LaunchMode::PerIteration => 0,
            LaunchMode::PersistentSpan => 1,
        });
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match u8::read(r)? {
            0 => LaunchMode::PerIteration,
            1 => LaunchMode::PersistentSpan,
            b => return Err(PersistError::new(format!("bad launch mode {b}"))),
        })
    }
}

impl Persist for DeviceSpec {
    fn write(&self, out: &mut Vec<u8>) {
        self.name.to_string().write(out);
        self.sm_count.write(out);
        self.warp_size.write(out);
        self.clock_hz.write(out);
        self.mem_bandwidth.write(out);
        self.lat_global.write(out);
        self.lat_texture_hit.write(out);
        self.texture_hit_rate.write(out);
        self.lat_shared.write(out);
        self.issue_cycles.write(out);
        self.sfu_issue_factor.write(out);
        self.coalesce_segment.write(out);
        self.max_threads_per_sm.write(out);
        self.max_blocks_per_sm.write(out);
        self.max_warps_per_sm.write(out);
        self.max_threads_per_block.write(out);
        self.shared_words_per_sm.write(out);
        self.launch_overhead_s.write(out);
        self.pcie_latency_s.write(out);
        self.pcie_bandwidth.write(out);
        self.engines.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let name: String = r.read()?;
        let presets = [
            DeviceSpec::gtx280().name,
            DeviceSpec::gtx280_paper().name,
            DeviceSpec::g80().name,
            DeviceSpec::tesla_c1060().name,
        ];
        Ok(DeviceSpec {
            name: static_name(name, &presets),
            sm_count: r.read()?,
            warp_size: r.read()?,
            clock_hz: r.read()?,
            mem_bandwidth: r.read()?,
            lat_global: r.read()?,
            lat_texture_hit: r.read()?,
            texture_hit_rate: r.read()?,
            lat_shared: r.read()?,
            issue_cycles: r.read()?,
            sfu_issue_factor: r.read()?,
            // The profiler bins addresses by segment bits.
            coalesce_segment: match r.read()? {
                s if u32::is_power_of_two(s) => s,
                s => return Err(PersistError::new(format!("coalescing segment of {s} bytes"))),
            },
            max_threads_per_sm: r.read()?,
            max_blocks_per_sm: r.read()?,
            max_warps_per_sm: r.read()?,
            max_threads_per_block: r.read()?,
            shared_words_per_sm: r.read()?,
            launch_overhead_s: r.read()?,
            pcie_latency_s: r.read()?,
            pcie_bandwidth: r.read()?,
            engines: r.read()?,
        })
    }
}

impl Persist for HostSpec {
    fn write(&self, out: &mut Vec<u8>) {
        self.name.to_string().write(out);
        self.clock_hz.write(out);
        self.cpi_alu.write(out);
        self.cpi_sfu.write(out);
        self.cpi_mem.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let name: String = r.read()?;
        Ok(HostSpec {
            name: static_name(name, &[HostSpec::xeon_3ghz().name]),
            clock_hz: r.read()?,
            cpi_alu: r.read()?,
            cpi_sfu: r.read()?,
            cpi_mem: r.read()?,
        })
    }
}

// -- search configuration and results ---------------------------------

impl Persist for SearchConfig {
    fn write(&self, out: &mut Vec<u8>) {
        self.max_iters.write(out);
        self.target_fitness.write(out);
        self.time_limit.write(out);
        self.seed.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SearchConfig {
            max_iters: r.read()?,
            target_fitness: r.read()?,
            time_limit: r.read()?,
            seed: r.read()?,
        })
    }
}

impl Persist for TabuStrategy {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            TabuStrategy::SolutionRing { len } => {
                out.push(0);
                len.write(out);
            }
            TabuStrategy::MoveRing { len } => {
                out.push(1);
                len.write(out);
            }
            TabuStrategy::Attribute { tenure } => {
                out.push(2);
                tenure.write(out);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::read(r)? {
            0 => Ok(TabuStrategy::SolutionRing { len: r.read()? }),
            1 => Ok(TabuStrategy::MoveRing { len: r.read()? }),
            2 => Ok(TabuStrategy::Attribute { tenure: r.read()? }),
            b => Err(PersistError::new(format!("bad tabu-strategy tag {b}"))),
        }
    }
}

impl Persist for TabuSearch {
    fn write(&self, out: &mut Vec<u8>) {
        self.config.write(out);
        self.strategy.write(out);
        self.aspiration.write(out);
        self.keep_history.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(TabuSearch {
            config: r.read()?,
            strategy: r.read()?,
            aspiration: r.read()?,
            keep_history: r.read()?,
        })
    }
}

impl Persist for SearchResult {
    fn write(&self, out: &mut Vec<u8>) {
        self.best.write(out);
        self.best_fitness.write(out);
        self.iterations.write(out);
        self.success.write(out);
        self.evals.write(out);
        self.wall.write(out);
        self.book.write(out);
        self.backend.write(out);
        self.history.write(out);
        self.trajectory.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SearchResult {
            best: r.read()?,
            best_fitness: r.read()?,
            iterations: r.read()?,
            success: r.read()?,
            evals: r.read()?,
            wall: r.read()?,
            book: r.read()?,
            backend: r.read()?,
            history: r.read()?,
            trajectory: r.read()?,
        })
    }
}

// -- neighborhoods ----------------------------------------------------

impl Persist for KHamming {
    fn write(&self, out: &mut Vec<u8>) {
        self.dim().write(out);
        self.k().write(out);
    }
    /// `KHamming::new` asserts its shape; decoding must not panic on
    /// corrupt input, so the shape is re-checked here as a
    /// [`PersistError`], and so is the size `C(n, k)`, which must fit
    /// `u64`.
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = usize::read(r)?;
        let k = usize::read(r)?;
        if k == 0 || k > 4 || k > n {
            return Err(PersistError::new(format!("invalid neighborhood shape n={n}, k={k}")));
        }
        if lnls_neighborhood::checked_binomial(n as u64, k as u64).is_none() {
            return Err(PersistError::new(format!("neighborhood size C({n}, {k}) overflows u64")));
        }
        Ok(KHamming::new(n, k))
    }
}

impl PersistTag for KHamming {
    const TAG: &'static str = "k-hamming";
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip<T: Persist + PartialEq + fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let mut r = Reader::new(&bytes);
        let back: T = r.read().expect("decode");
        assert_eq!(&back, v);
        assert_eq!(r.remaining(), 0, "trailing bytes");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&(-7i64));
        roundtrip(&3.25f64);
        roundtrip(&true);
        roundtrip(&Duration::from_nanos(1_234_567_891));
        roundtrip(&"héllo".to_string());
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Some(vec![-1i64, 5]));
        roundtrip(&Option::<u64>::None);
        roundtrip(&(7u64, "pair".to_string()));
        roundtrip(&(1u32, 2u32, -3i64));
        roundtrip(&vec![(0u32, 1u32, 5i64), (1, 2, -7)]);
    }

    /// A subsecond field of a whole second or more is corrupt: at
    /// `u64::MAX` seconds its carry would overflow `Duration::new`.
    #[test]
    fn duration_with_overflowing_nanos_is_an_error() {
        let mut bytes = u64::MAX.to_bytes();
        1_000_000_000u32.write(&mut bytes);
        assert_eq!(bytes.len(), 12);
        let err = Reader::new(&bytes).read::<Duration>().unwrap_err();
        assert!(err.to_string().contains("bad duration"), "{err}");
    }

    #[test]
    fn expect_magic_accepts_and_rejects() {
        let mut buf = b"LNLSTRC\x01".to_vec();
        42u64.write(&mut buf);
        let mut r = Reader::new(&buf);
        r.expect_magic(b"LNLSTRC\x01", "workload trace").expect("good magic");
        assert_eq!(r.read::<u64>().unwrap(), 42);

        let mut r = Reader::new(&buf);
        let err = r.expect_magic(b"LNLSFLT\x03", "fleet checkpoint").unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        let mut r = Reader::new(&buf[..3]);
        let err = r.expect_magic(b"LNLSTRC\x01", "workload trace").unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn bitstring_roundtrip_all_lengths() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 7, 8, 9, 63, 64, 65, 130] {
            let s = BitString::random(&mut rng, n);
            roundtrip(&s);
        }
    }

    #[test]
    fn rng_roundtrip_preserves_stream() {
        let mut rng = StdRng::seed_from_u64(42);
        let _: u64 = rng.gen(); // advance off the seed point
        let bytes = rng.to_bytes();
        let mut back: StdRng = Reader::new(&bytes).read().unwrap();
        let want: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
        let got: Vec<u64> = (0..8).map(|_| back.gen()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn spec_roundtrip_reuses_preset_name() {
        let spec = DeviceSpec::gtx280();
        let bytes = spec.to_bytes();
        let back: DeviceSpec = Reader::new(&bytes).read().unwrap();
        assert_eq!(back, spec);
        let host = HostSpec::xeon_3ghz();
        let back: HostSpec = Reader::new(&host.to_bytes()).read().unwrap();
        assert_eq!(back, host);
    }

    #[test]
    fn a_spec_whose_segment_is_not_a_power_of_two_is_refused() {
        let spec = DeviceSpec { coalesce_segment: 96, ..DeviceSpec::g80() };
        let err = Reader::new(&spec.to_bytes()).read::<DeviceSpec>().unwrap_err();
        assert!(err.to_string().contains("coalescing segment of 96 bytes"), "{err}");
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let bytes = "a string".to_string().to_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 2]);
        assert!(r.read::<String>().is_err());
        let mut r = Reader::new(&[]);
        assert!(r.read::<u64>().is_err());
    }

    #[test]
    fn hoods_roundtrip() {
        for k in 1..=4 {
            roundtrip(&KHamming::new(12, k));
        }
    }

    /// Decode a neighborhood from its encoded shape, reporting the error.
    fn decode_hood(shape: [usize; 2]) -> Result<KHamming, String> {
        let mut bytes = Vec::new();
        for v in shape {
            v.write(&mut bytes);
        }
        Reader::new(&bytes).read().map_err(|e| e.to_string())
    }

    #[test]
    fn k_hamming_decode_rejects_an_overflowing_size() {
        for shape in [[1 << 40, 2], [1 << 40, 3], [1 << 20, 4]] {
            let err = decode_hood(shape).unwrap_err();
            assert!(err.contains("overflows u64"), "{shape:?}: {err}");
        }
        // C(n, 1) = n always fits u64, so no dimension overflows it.
        assert_eq!(decode_hood([1 << 40, 1]).unwrap().size(), 1 << 40);
        // The largest n whose C(n, k) fits decodes with its exact size;
        // the next one is refused.
        for (k, max_n, size) in [
            (2, 6_074_001_000, 18_446_744_070_963_499_500),
            (3, 4_801_280, 18_446_738_006_366_306_560),
        ] {
            assert_eq!(decode_hood([max_n, k]).unwrap().size(), size, "k={k}");
            let err = decode_hood([max_n + 1, k]).unwrap_err();
            assert!(err.contains("overflows u64"), "k={k}: {err}");
        }
    }
}
