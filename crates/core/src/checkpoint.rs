//! Binary session-checkpoint codec (the `PPCK` format) and its one file
//! write and read.
//!
//! [`crate::session::AlsSession::checkpoint_bytes`] snapshots a session's
//! complete sweep-to-sweep state between steps — config, factors with
//! their version counters, Gram matrices, PP regime state, the
//! dimension-tree engine's intermediate cache, kernel stats, and the
//! fitness trace — so [`crate::session::AlsSession::resume_from_bytes`] can
//! continue the run **bit-identically**: the cache must travel with the
//! factors, or the first post-restore sweep would recontract intermediates
//! the uninterrupted run reused. [`write_file`] stores such bytes through a
//! temp-file rename and [`read_file`] loads them back.
//!
//! Layout: `b"PPCK"` magic, a `u32` format version, the payload length,
//! an FNV-1a-64 checksum of the payload, then the payload. All integers
//! are little-endian; floats are stored as raw IEEE-754 bits (exact
//! round-trip, including NaN fitness placeholders). The input tensor is
//! deliberately *not* stored — datasets are rebuilt deterministically from
//! their specs — but its FNV hash is, and resume refuses a tensor whose
//! bytes do not match.

use crate::result::{SweepKind, SweepRecord};
use pp_dtree::{Intermediate, KernelStats};
use pp_tensor::fnv::Fnv;
use pp_tensor::{DenseTensor, Matrix, SemiSparseTensor, Shape};
use std::path::Path;
use std::sync::Arc;

pub(crate) const MAGIC: [u8; 4] = *b"PPCK";
/// Format 2 added the representation tag to cached intermediates (dense
/// vs semi-sparse) and the semi-sparse kernel counters to the stats block.
/// Format 3 dropped the fields the program can no longer set: the
/// lookahead and fitness-tracking config bytes, and the transpose and
/// speculation counters of the stats block. Sessions no longer make
/// semi-sparse intermediates, and the layout kept its slots for them: the
/// writer emits tag 0 only and zeros for the three semi-sparse counters,
/// and the reader validates a tag-1 entry and drops it.
pub(crate) const VERSION: u32 = 3;

/// `u64` slots of the stats block after the kernel ledger's nine fields,
/// kept so version 3 reads on: five once held the packed-GEMM and CSF
/// kernel counters, three the semi-sparse counters. The writer fills
/// them with zeros and the reader skips them.
pub(crate) const RETIRED_STATS_SLOTS: usize = 8;

/// Write checkpoint `bytes` to `path` through a temporary file and a
/// rename, so a torn write never shadows the previous good checkpoint.
pub fn write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("ppck.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Read the checkpoint bytes at `path`; the error names the file.
pub fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// FNV-1a 64-bit over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// FNV-1a 64-bit fingerprint of a tensor (dims then element bits, each a
/// little-endian `u64`, as a checkpoint lays them out): the tensor's
/// [`DenseTensor::fingerprint`], hashed once and remembered by it (and
/// by clones made after) until a write.
pub fn tensor_fingerprint(t: &DenseTensor) -> u64 {
    t.fingerprint()
}

/// FNV-1a 64-bit fingerprint of a sparse tensor (dims, nnz, sorted
/// coordinates, value bits), domain-separated from the dense fingerprint:
/// the tensor's [`pp_tensor::SparseTensor::fingerprint`], hashed once and
/// kept with its entries.
pub fn sparse_fingerprint(t: &pp_tensor::sparse::SparseTensor) -> u64 {
    t.fingerprint()
}

/// Little-endian payload builder.
pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub(crate) fn u8_(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool_(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub(crate) fn u64_(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize_(&mut self, v: usize) {
        self.u64_(v as u64);
    }

    pub(crate) fn f64_(&mut self, v: f64) {
        self.u64_(v.to_bits());
    }

    pub(crate) fn matrix(&mut self, m: &Matrix) {
        self.usize_(m.rows());
        self.usize_(m.cols());
        for &x in m.data() {
            self.f64_(x);
        }
    }

    pub(crate) fn matrices(&mut self, ms: &[Matrix]) {
        self.usize_(ms.len());
        for m in ms {
            self.matrix(m);
        }
    }

    pub(crate) fn tensor(&mut self, t: &DenseTensor) {
        self.usize_(t.order());
        for &d in t.shape().dims() {
            self.usize_(d);
        }
        for &x in t.data() {
            self.f64_(x);
        }
    }

    pub(crate) fn u64s(&mut self, vs: &[u64]) {
        self.usize_(vs.len());
        for &v in vs {
            self.u64_(v);
        }
    }

    pub(crate) fn usizes(&mut self, vs: &[usize]) {
        self.usize_(vs.len());
        for &v in vs {
            self.usize_(v);
        }
    }

    // The two field kinds only a semi-sparse entry (tag 1) holds; only the
    // tests still write one.
    #[cfg(test)]
    pub(crate) fn u32s(&mut self, vs: &[u32]) {
        self.usize_(vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    #[cfg(test)]
    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        self.usize_(vs.len());
        for &v in vs {
            self.f64_(v);
        }
    }

    pub(crate) fn intermediate(&mut self, e: &Intermediate) {
        self.usizes(&e.mode_order);
        self.u64s(&e.versions);
        // Representation tag: 0 = dense (1, semi-sparse, is read only).
        self.u8_(0);
        self.tensor(&e.tensor);
    }

    pub(crate) fn stats(&mut self, s: &KernelStats) {
        self.f64_(s.ttm_secs);
        self.f64_(s.mttv_secs);
        self.f64_(s.hadamard_secs);
        self.f64_(s.solve_secs);
        self.f64_(s.other_secs);
        self.u64_(s.ttm_flops);
        self.u64_(s.mttv_flops);
        self.u64_(s.ttm_count);
        self.u64_(s.mttv_count);
        for _ in 0..RETIRED_STATS_SLOTS {
            self.u64_(0);
        }
    }

    /// Length-prefixed opaque byte blob — lets one checkpoint nest another
    /// complete frame (a streaming session wraps its inner ALS session's
    /// checkpoint this way, so the inner codec stays a black box).
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.usize_(b.len());
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn sweep(&mut self, r: &SweepRecord) {
        self.u8_(match r.kind {
            SweepKind::Exact => 0,
            SweepKind::PpInit => 1,
            SweepKind::PpApprox => 2,
        });
        self.f64_(r.secs);
        self.f64_(r.fitness);
        self.f64_(r.cumulative_secs);
    }

    /// Frame the accumulated payload: magic, version, length, checksum.
    pub(crate) fn frame(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + 24);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.buf).to_le_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Checked little-endian payload reader.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Verify the frame (magic, version, length, checksum) and position
    /// the reader at the payload start.
    pub(crate) fn open(bytes: &'a [u8]) -> Result<Self, String> {
        if bytes.len() < 24 {
            return Err("checkpoint truncated: missing header".into());
        }
        if bytes[..4] != MAGIC {
            return Err("not a PPCK checkpoint (bad magic)".into());
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            ));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let payload = &bytes[24..];
        if payload.len() != len {
            return Err(format!(
                "checkpoint length mismatch: header says {len}, got {}",
                payload.len()
            ));
        }
        if fnv1a(payload) != sum {
            return Err("checkpoint corrupt: FNV checksum mismatch".into());
        }
        Ok(Reader {
            buf: payload,
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err("checkpoint truncated: payload ends mid-field".into());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// All payload bytes consumed?
    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn u8_(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool_(&mut self) -> Result<bool, String> {
        match self.u8_()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid bool byte {v}")),
        }
    }

    pub(crate) fn u64_(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn usize_(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64_()?).map_err(|_| "usize overflow".to_string())
    }

    /// The count of a field about to be allocated, whose elements take at
    /// least `elem_bytes` of the payload each. A count the checksum let
    /// through (a hostile file) can then never ask for more memory than
    /// the payload's remaining bytes could fill — fail, don't abort.
    pub(crate) fn count(&mut self, what: &str, elem_bytes: usize) -> Result<usize, String> {
        let n = self.usize_()?;
        self.fits(n, elem_bytes, || format!("{what} count {n}"))
    }

    /// `n` if `n` elements of `elem_bytes` each fit in the payload left.
    fn fits(
        &self,
        n: usize,
        elem_bytes: usize,
        what: impl Fn() -> String,
    ) -> Result<usize, String> {
        let left = self.buf.len() - self.pos;
        match n.checked_mul(elem_bytes) {
            Some(bytes) if bytes <= left => Ok(n),
            _ => Err(format!(
                "implausible {}: more than the {left} payload bytes left",
                what()
            )),
        }
    }

    pub(crate) fn f64_(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64_()?))
    }

    pub(crate) fn matrix(&mut self) -> Result<Matrix, String> {
        let rows = self.usize_()?;
        let cols = self.usize_()?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| "matrix size overflow".to_string())?;
        self.fits(n, 8, || format!("matrix size {rows}x{cols}"))?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f64_()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    pub(crate) fn matrices(&mut self) -> Result<Vec<Matrix>, String> {
        let n = self.count("matrix", 16)?;
        (0..n).map(|_| self.matrix()).collect()
    }

    pub(crate) fn tensor(&mut self) -> Result<DenseTensor, String> {
        let order = self.count("tensor mode", 8)?;
        let dims: Vec<usize> = (0..order)
            .map(|_| self.usize_())
            .collect::<Result<_, _>>()?;
        let n = dims
            .iter()
            .try_fold(1usize, |a, &d| a.checked_mul(d))
            .ok_or_else(|| "tensor size overflow".to_string())?;
        self.fits(n, 8, || format!("tensor size {dims:?}"))?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f64_()?);
        }
        Ok(DenseTensor::from_vec(Shape::new(dims), data))
    }

    pub(crate) fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.count("u64", 8)?;
        (0..n).map(|_| self.u64_()).collect()
    }

    pub(crate) fn usizes(&mut self) -> Result<Vec<usize>, String> {
        let n = self.count("usize", 8)?;
        (0..n).map(|_| self.usize_()).collect()
    }

    pub(crate) fn u32_(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u32s(&mut self) -> Result<Vec<u32>, String> {
        let n = self.count("u32", 4)?;
        (0..n).map(|_| self.u32_()).collect()
    }

    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.count("f64", 8)?;
        (0..n).map(|_| self.f64_()).collect()
    }

    /// A cached intermediate, or `None` for a semi-sparse one (tag 1, made
    /// by builds whose sparse `msdt` ran the semi-sparse chain): it is
    /// decoded and validated, then dropped, so its session resumes with
    /// the entry recomputed or never needed.
    pub(crate) fn intermediate(&mut self) -> Result<Option<Intermediate>, String> {
        let mode_order = self.usizes()?;
        let versions = self.u64s()?;
        match self.u8_()? {
            0 => Ok(Some(Intermediate {
                tensor: Arc::new(self.tensor()?),
                mode_order,
                versions,
            })),
            1 => {
                let dims = self.usizes()?;
                let r = self.usize_()?;
                let inds = self.u32s()?;
                let panels = self.f64s()?;
                SemiSparseTensor::from_parts(dims, inds, panels, r)
                    .map_err(|e| format!("inconsistent semi-sparse intermediate: {e}"))?;
                Ok(None)
            }
            v => Err(format!("invalid intermediate representation tag {v}")),
        }
    }

    pub(crate) fn stats(&mut self) -> Result<KernelStats, String> {
        let stats = KernelStats {
            ttm_secs: self.f64_()?,
            mttv_secs: self.f64_()?,
            hadamard_secs: self.f64_()?,
            solve_secs: self.f64_()?,
            other_secs: self.f64_()?,
            ttm_flops: self.u64_()?,
            mttv_flops: self.u64_()?,
            ttm_count: self.u64_()?,
            mttv_count: self.u64_()?,
        };
        for _ in 0..RETIRED_STATS_SLOTS {
            self.u64_()?;
        }
        Ok(stats)
    }

    /// Length-prefixed opaque byte blob (see [`Writer::bytes`]).
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.count("byte", 1)?;
        Ok(self.take(n)?.to_vec())
    }

    pub(crate) fn sweep(&mut self) -> Result<SweepRecord, String> {
        let kind = match self.u8_()? {
            0 => SweepKind::Exact,
            1 => SweepKind::PpInit,
            2 => SweepKind::PpApprox,
            v => return Err(format!("invalid sweep kind {v}")),
        };
        Ok(SweepRecord {
            kind,
            secs: self.f64_()?,
            fitness: self.f64_()?,
            cumulative_secs: self.f64_()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn primitive_round_trip() {
        let mut w = Writer::new();
        w.u8_(7);
        w.bool_(true);
        w.u64_(u64::MAX);
        w.usize_(42);
        w.f64_(f64::NAN);
        w.f64_(f64::NEG_INFINITY);
        w.matrix(&Matrix::from_vec(2, 3, (0..6).map(|i| i as f64).collect()));
        w.tensor(&DenseTensor::from_vec(
            Shape::new(vec![2, 2]),
            vec![1.0, 2.0, 3.0, 4.0],
        ));
        w.u64s(&[1, 2, 3]);
        w.usizes(&[4, 5]);
        let bytes = w.frame();

        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.u8_().unwrap(), 7);
        assert!(r.bool_().unwrap());
        assert_eq!(r.u64_().unwrap(), u64::MAX);
        assert_eq!(r.usize_().unwrap(), 42);
        assert!(r.f64_().unwrap().is_nan());
        assert_eq!(r.f64_().unwrap(), f64::NEG_INFINITY);
        let m = r.matrix().unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.data()[5], 5.0);
        let t = r.tensor().unwrap();
        assert_eq!(t.shape().dims(), &[2, 2]);
        assert_eq!(r.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.usizes().unwrap(), vec![4, 5]);
        assert!(r.exhausted());
    }

    fn open_err(bytes: &[u8]) -> String {
        match Reader::open(bytes) {
            Err(e) => e,
            Ok(_) => panic!("expected a frame error"),
        }
    }

    #[test]
    fn frame_rejects_corruption() {
        let mut w = Writer::new();
        w.u64_(123);
        let mut bytes = w.frame();
        assert!(Reader::open(&bytes[..10]).is_err(), "truncated header");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(open_err(&bytes).contains("checksum"));
        bytes[last] ^= 1;
        bytes[0] = b'X';
        assert!(open_err(&bytes).contains("magic"));
        bytes[0] = b'P';
        bytes[4] = 9; // version
        assert!(open_err(&bytes).contains("version"));
        // A frame of the previous format, whose stats block and config
        // carried fields this one dropped, is refused by its version.
        bytes[4] = 2;
        assert_eq!(
            open_err(&bytes),
            "unsupported checkpoint version 2 (expected 3)"
        );
    }

    #[test]
    fn truncation_at_every_byte_is_a_clean_error() {
        // A file cut short anywhere — mid-header, mid-length, mid-payload —
        // must produce Err, never a panic or a partial parse.
        let mut w = Writer::new();
        w.u64_(7);
        w.matrix(&Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let bytes = w.frame();
        for cut in 0..bytes.len() {
            let r = Reader::open(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail the frame check");
        }
    }

    #[test]
    fn payload_ending_mid_field_is_reported() {
        // A frame can be checksum-valid yet logically short for the reader
        // (e.g. written by a buggy producer): field reads must fail cleanly.
        let mut w = Writer::new();
        w.u64_(1);
        let bytes = w.frame();
        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.u64_().unwrap(), 1);
        let e = r.u64_().expect_err("reading past the payload must fail");
        assert!(e.contains("mid-field"), "{e}");
        let mut r2 = Reader::open(&bytes).unwrap();
        let e2 = r2.matrix().expect_err("matrix past payload must fail");
        assert!(e2.contains("mid-field"), "{e2}");
    }

    #[test]
    fn bytes_blob_round_trips_and_rejects_truncation() {
        let inner: Vec<u8> = (0..100u8).collect();
        let mut w = Writer::new();
        w.bytes(&inner);
        w.u64_(0xdead);
        let bytes = w.frame();
        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.bytes().unwrap(), inner);
        assert_eq!(r.u64_().unwrap(), 0xdead);
        assert!(r.exhausted());

        // A blob whose declared length exceeds the payload must error,
        // before anything is allocated: the count is bounded by the bytes
        // left.
        let mut w2 = Writer::new();
        w2.usize_(1 << 20); // length prefix with no data behind it
        let bytes2 = w2.frame();
        let mut r2 = Reader::open(&bytes2).unwrap();
        let e = r2.bytes().expect_err("oversized blob length");
        assert!(e.contains("implausible byte count 1048576"), "{e}");
    }

    #[test]
    fn corrupt_semisparse_intermediate_is_a_decode_error() {
        // A checksum-valid frame whose semi-sparse payload is inconsistent
        // (an index past its extent, tuples out of order) must fail the
        // decode — before, it panicked deep inside a later scatter.
        let encode = |inds: &[u32]| {
            let mut w = Writer::new();
            w.usizes(&[0, 1]); // mode_order
            w.u64s(&[0, 0, 0]); // versions
            w.u8_(1); // semi-sparse
            w.usizes(&[3, 4]); // level extents
            w.usize_(2); // rank
            w.u32s(inds);
            w.f64s(&[1.0, 2.0, 3.0, 4.0]);
            w.frame()
        };
        let decode = |bytes: &[u8]| Reader::open(bytes).unwrap().intermediate();
        let good = decode(&encode(&[0, 1, 2, 3])).expect("well-formed payload");
        assert!(good.is_none(), "a well-formed semi-sparse entry is dropped");
        let e = decode(&encode(&[0, 1, 2, 9]))
            .err()
            .expect("index 9 ≥ extent 4");
        assert!(
            e.contains("inconsistent") && e.contains("out of range"),
            "{e}"
        );
        let e = decode(&encode(&[2, 3, 0, 1]))
            .err()
            .expect("unsorted tuples");
        assert!(e.contains("ascending"), "{e}");
    }

    #[test]
    fn fingerprints_keep_their_values() {
        // A resume compares the stored fingerprint against the rebuilt
        // input's, so its value is part of the PPCK format. Dense: order 1,
        // order 3 and a shape with an empty mode. Sparse tensors need
        // order ≥ 2 and positive extents: order 2, order 3, and a tensor
        // with no stored entry.
        let fill = |idx: &[usize]| {
            let lin = idx.iter().fold(0usize, |a, &i| a * 7 + i);
            (lin as f64 * 0.37).sin() - 0.25
        };
        for (dims, want) in [
            (vec![5usize], 0xbb1d_dcb8_d356_bd78u64),
            (vec![4, 3, 5], 0xd355_6b17_103e_8a07),
            (vec![3, 0, 2], 0x2928_a835_48f5_e007),
        ] {
            let t = DenseTensor::from_fn(dims.clone(), fill);
            let got = tensor_fingerprint(&t);
            assert_eq!(got, want, "dense {dims:?}: {got:#018x}");
        }
        use pp_tensor::sparse::SparseTensor;
        for (dims, inds, want) in [
            (
                vec![4usize, 6],
                vec![0usize, 5, 3, 1, 0, 5, 2, 2],
                0xd13c_b6b8_f1a8_333cu64,
            ),
            (
                vec![3, 4, 2],
                vec![2, 3, 1, 0, 0, 0, 1, 2, 1],
                0x5d3a_e18d_a1a2_2089,
            ),
            (vec![3, 4, 2], vec![], 0xa5fd_e8ee_5510_002b),
        ] {
            let vals = (0..inds.len() / dims.len())
                .map(|e| 1.5 - e as f64 * 0.75)
                .collect();
            let t = SparseTensor::from_coo(dims.clone(), inds, vals);
            let got = sparse_fingerprint(&t);
            assert_eq!(got, want, "sparse {dims:?}: {got:#018x}");
        }
    }

    #[test]
    fn implausible_counts_fail_without_allocating() {
        // u64::MAX as a count must be rejected by the plausibility bound,
        // not attempted as an allocation.
        let mut w = Writer::new();
        w.u64_(u64::MAX);
        let bytes = w.frame();
        let mut r = Reader::open(&bytes).unwrap();
        assert!(r.u64s().expect_err("count").contains("implausible"));
        let mut r2 = Reader::open(&bytes).unwrap();
        assert!(r2.bytes().expect_err("blob count").contains("implausible"));
    }

    /// Dims whose product passed the old `1 << 32` bound still asked the
    /// allocator for 32 GiB, which aborts the process; now a size beyond
    /// the payload left is an `Err` naming the field.
    #[test]
    fn forged_dims_beyond_the_payload_are_errors() {
        let mut w = Writer::new();
        w.usize_(1 << 16);
        w.usize_(1 << 16);
        w.f64_(1.0);
        let bytes = w.frame();
        let err = Reader::open(&bytes).unwrap().matrix().expect_err("matrix");
        assert!(err.contains("matrix size 65536x65536"), "{err}");
        let mut w = Writer::new();
        w.usize_(2);
        w.usize_(1 << 16);
        w.usize_(1 << 16);
        let bytes = w.frame();
        let err = Reader::open(&bytes).unwrap().tensor().expect_err("tensor");
        assert!(err.contains("tensor size [65536, 65536]"), "{err}");
        // Counts are bounded by their element size: four u32s fit in 16
        // bytes, and a fifth does not.
        for (n, ok) in [(4, true), (5, false)] {
            let mut w = Writer::new();
            w.usize_(n);
            for _ in 0..16 {
                w.u8_(7);
            }
            let bytes = w.frame();
            let got = Reader::open(&bytes).unwrap().u32s();
            assert_eq!(got.is_ok(), ok, "{got:?}");
        }
    }
}
