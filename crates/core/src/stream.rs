//! Streaming / online CP for evolving tensors.
//!
//! A [`StreamingSession`] wraps an [`AlsSession`] whose input grows along
//! one designated **evolving mode** (for a time-lapse, the time mode):
//! slices arrive, the time-mode factor gains warm-started rows, and ALS
//! resumes on the extended tensor. The interesting part is what does *not*
//! get recomputed or moved. The input is stored **evolving-mode-major**
//! ([`pp_dtree::InputTensor::evolving`]): every layout leads with the
//! evolving mode, so absorbing a slice is one tail append — the slice is
//! laid out straight into the input's grown tail and read back from there
//! ([`pp_dtree::InputTensor::append_evolving`]) — and first-level
//! dimension-tree contractions over mode sets that contain the evolving
//! mode are extended by contracting **only the new slice** and appending
//! onto the cached intermediate in place ([`DimTreeEngine::extend_mode`]
//! with [`CacheUpdate::Incremental`]) — an arrival costs in proportion to
//! the slice, not the tensor. The session's workspace outlives every
//! arrival: the intermediates whose length an arrival changes re-length
//! the buffers it holds instead of mapping fresh memory. Deeper
//! intermediates and PP pair operators are dropped: the PP regime resets
//! to its gate, which stays closed until an exact sweep on the extended
//! tensor has measured drift, and re-enters
//! once the factors settle around it (see DESIGN.md §1j).
//!
//! The correctness contract is the one the rest of the repo uses
//! everywhere: the incremental path is **bit-identical** to the
//! [`CacheUpdate::Recompute`] oracle — the same session driven through the
//! same arrival and sweep schedule with every surviving cache entry
//! recomputed from the full (rebuilt) tensor — at any thread count and on
//! either communication backend. (A *cold* session on the final tensor is
//! deliberately not the reference: surviving cache entries legitimately
//! change which of several mathematically equal contraction chains the
//! multi-sweep tree walks.)

use crate::checkpoint::{fnv1a, Reader, Writer};
use crate::config::AlsConfig;
use crate::result::AlsReport;
use crate::session::{AlsSession, SessionKind, Step};
use pp_dtree::{CacheUpdate, DimTreeEngine, FactorState, TreePolicy};
use pp_tensor::matrix::hadamard_chain_skip;
use pp_tensor::solve::solve_gram;
use pp_tensor::{DenseTensor, Matrix};

/// Domain separator distinguishing streaming checkpoints from plain
/// session checkpoints inside the shared `PPCK` framing.
fn stream_sentinel() -> u64 {
    fnv1a(b"PPSTREAM")
}

/// A CP decomposition of a tensor that grows along one mode.
///
/// Drive it as: [`StreamingSession::run_window`] on the initial tensor,
/// then alternate [`StreamingSession::arrive`] (append a slice) and
/// `run_window` (spend that arrival's sweep budget). The inner session's
/// trace accumulates across arrivals.
pub struct StreamingSession {
    session: AlsSession,
    evolving: usize,
    update: CacheUpdate,
    sweeps_per_arrival: usize,
    arrivals_done: usize,
}

impl StreamingSession {
    /// New streaming session over the initial tensor. `evolving` is the
    /// mode slices will extend; each window (the initial one included)
    /// runs at most `sweeps_per_arrival` sweeps. `update` selects the
    /// incremental cache path or the recompute oracle; both produce
    /// bit-identical results.
    pub fn new(
        initial: &DenseTensor,
        cfg: &AlsConfig,
        kind: SessionKind,
        evolving: usize,
        sweeps_per_arrival: usize,
        update: CacheUpdate,
    ) -> Self {
        assert_ne!(
            kind,
            SessionKind::NonNeg,
            "streaming supports the exact and pp session kinds"
        );
        assert!(
            evolving < initial.order(),
            "evolving mode {evolving} out of range for order {}",
            initial.order()
        );
        assert!(
            sweeps_per_arrival > 0,
            "sweeps per arrival must be positive"
        );
        let mut cfg = cfg.clone();
        cfg.max_sweeps = sweeps_per_arrival;
        StreamingSession {
            session: AlsSession::new_dense(initial, &cfg, kind, Some(evolving)),
            evolving,
            update,
            sweeps_per_arrival,
            arrivals_done: 0,
        }
    }

    /// The wrapped session (trace, factors, fitness, stats).
    pub fn session(&self) -> &AlsSession {
        &self.session
    }

    /// Current factor matrices; the evolving mode's factor has one row per
    /// index seen so far.
    pub fn factors(&self) -> &[Matrix] {
        self.session.factors()
    }

    /// The accumulated sweep trace across all windows.
    pub fn report(&self) -> &AlsReport {
        self.session.report()
    }

    /// Fitness after the most recent sweep (NaN before the first).
    pub fn last_fitness(&self) -> f64 {
        self.session.last_fitness()
    }

    /// The designated evolving mode.
    pub fn evolving_mode(&self) -> usize {
        self.evolving
    }

    /// Slices accepted so far.
    pub fn arrivals_done(&self) -> usize {
        self.arrivals_done
    }

    /// Sweeps performed so far, across all windows.
    pub fn sweeps_done(&self) -> usize {
        self.session.sweeps_done()
    }

    /// Current extent of the evolving mode.
    pub fn extent(&self) -> usize {
        self.session.factors()[self.evolving].rows()
    }

    /// Which cache-update path arrivals take.
    pub fn update(&self) -> CacheUpdate {
        self.update
    }

    /// Advance one sweep of the current window.
    pub fn step(&mut self) -> Step {
        self.session.step()
    }

    /// Whether the current window is out of budget (or converged).
    pub fn is_finished(&self) -> bool {
        self.session.is_finished()
    }

    /// Run the current window to completion (at most the per-arrival sweep
    /// budget; earlier if the Δ criterion fires).
    pub fn run_window(&mut self) {
        while let Step::Swept(_) = self.session.step() {}
    }

    /// Seal the session into its final output (factors plus the trace
    /// accumulated across every window).
    pub fn finish(self) -> crate::result::AlsOutput {
        self.session.finish()
    }

    /// Auxiliary memory currently held (cache + PP operators), in f64
    /// elements — the scheduler's admission-control metric.
    pub fn cache_memory_elems(&self) -> usize {
        self.session.cache_memory_elems()
    }

    /// Append `slice` along the evolving mode and open a fresh sweep
    /// window. The slice must match the session's dims on every other
    /// mode. It is laid out once, straight into the input's grown tail
    /// ([`pp_dtree::InputTensor::append_evolving`]), and read from there.
    /// New rows of the evolving-mode factor are warm-started from the
    /// least-squares fit of the slice against the frozen other factors; the
    /// dimension-tree cache is extended per `self.update`, on the session's
    /// own workspace, which the arrival keeps; the PP regime resets to its
    /// gate (Alg. 2 line 2), so the window starts with an exact sweep and
    /// operators are rebuilt only once the drift criterion re-opens.
    pub fn arrive(&mut self, slice: &DenseTensor) {
        let e = self.evolving;
        let update = self.update;
        let sweeps_per_arrival = self.sweeps_per_arrival;
        let p = &mut self.session;
        let _threads = p.cfg.thread_guard();
        assert_eq!(
            slice.order(),
            p.fs.order(),
            "arriving slice order does not match the session"
        );
        for m in 0..p.fs.order() {
            if m != e {
                assert_eq!(
                    slice.dim(m),
                    p.fs.factor(m).rows(),
                    "arriving slice dim mismatch on mode {m}"
                );
            }
        }
        assert!(slice.dim(e) > 0, "arriving slice must be non-empty");

        // The slice, laid out straight into the input's grown tail — once,
        // for the input, the warm start and the cache extension alike (its
        // norm, one serial pass, rides beside). `slice_input` is that tail
        // where it is placed, a copy of it where not; it holds the input's
        // storage and is dropped when this arrival returns, so the next
        // append grows the input in place.
        let input = &mut p.input;
        let (mut slice_input, slice_norm_sq) =
            rayon::join(|| input.append_evolving(slice), || slice.norm_sq());

        // Warm-start rows for the evolving mode: solve the normal
        // equations of the slice against the frozen other factors —
        // `rows = M_slice · Γ^{-1}` with `M_slice` the slice's MTTKRP for
        // mode `e` (the evolving-mode factor never enters its own MTTKRP,
        // so a zero placeholder suffices).
        let rank = p.cfg.rank;
        let order = p.fs.order();
        let init: Vec<Matrix> = (0..order)
            .map(|m| {
                if m == e {
                    Matrix::zeros(slice.dim(e), rank)
                } else {
                    p.fs.factor(m).clone()
                }
            })
            .collect();
        let fs_slice = FactorState::new(init);
        let mut scratch = DimTreeEngine::new(TreePolicy::Standard, order).with_caching_disabled();
        let m_slice = scratch.mttkrp(&mut slice_input, &fs_slice, e);
        let gamma = hadamard_chain_skip(&p.grams, e);
        let new_rows = solve_gram(&gamma, &m_slice).0;

        // Extend the factor, its Gram, and the tree cache — in that order,
        // so `extend_mode` sees post-bump versions (the input already
        // holds the slice).
        p.fs.extend_rows(e, &new_rows);
        p.grams[e] = p.fs.factor(e).gram();
        // The PP regime restarts at its gate against the extended tensor
        // (Alg. 2 line 2). Before the cache extension, because an order-3
        // pair operator *is* a cached first-level intermediate, and a
        // shared payload would be copied rather than extended in place.
        if let Some(pp) = &mut p.pp {
            pp.reset(p.fs.factors());
        }
        p.engine
            .extend_mode(&mut p.input, &p.fs, e, &mut slice_input, update);
        p.t_norm_sq += slice_norm_sq;

        // Open the next sweep window.
        p.cfg.max_sweeps = p.progress.reopen(sweeps_per_arrival);
        self.arrivals_done += 1;
    }

    /// Serialize the streaming state: an outer `PPCK` frame carrying the
    /// stream sentinel, the arrival bookkeeping, and the inner session's
    /// complete checkpoint as an opaque blob.
    pub fn checkpoint_bytes(&self, tag: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64_(stream_sentinel());
        w.u64_(tag);
        w.usize_(self.evolving);
        w.u8_(match self.update {
            CacheUpdate::Incremental => 0,
            CacheUpdate::Recompute => 1,
        });
        w.usize_(self.sweeps_per_arrival);
        w.usize_(self.arrivals_done);
        w.usize_(self.extent());
        w.bytes(&self.session.checkpoint_bytes(tag));
        w.frame()
    }

    /// Read a streaming checkpoint and continue. `rebuild(extent)` must
    /// reproduce the input tensor as of `extent` evolving-mode indices
    /// (e.g. `pp_datagen::timelapse::TimelapseStream::prefix`); the
    /// inner session's fingerprint check verifies it.
    pub fn resume_from_bytes(
        bytes: &[u8],
        rebuild: impl FnOnce(usize) -> DenseTensor,
    ) -> Result<(StreamingSession, u64), String> {
        let mut r = Reader::open(bytes)?;
        if r.u64_()? != stream_sentinel() {
            return Err("not a streaming checkpoint (sentinel mismatch)".into());
        }
        let tag = r.u64_()?;
        let evolving = r.usize_()?;
        let update = match r.u8_()? {
            0 => CacheUpdate::Incremental,
            1 => CacheUpdate::Recompute,
            v => return Err(format!("invalid cache-update kind {v}")),
        };
        let sweeps_per_arrival = r.usize_()?;
        let arrivals_done = r.usize_()?;
        let extent = r.usize_()?;
        if sweeps_per_arrival == 0 {
            return Err("streaming checkpoint has a zero sweep budget".into());
        }
        let inner = r.bytes()?;
        if !r.exhausted() {
            return Err("checkpoint has trailing bytes".into());
        }
        let t = rebuild(extent);
        if evolving >= t.order() || t.dim(evolving) != extent {
            return Err(format!(
                "rebuilt tensor does not match the checkpoint (want extent {extent} on mode {evolving})"
            ));
        }
        let (session, inner_tag) = AlsSession::resume_dense(&inner, &t, Some(evolving))?;
        if inner_tag != tag {
            return Err("stream checkpoint tag does not match its inner session".into());
        }
        Ok((
            StreamingSession {
                session,
                evolving,
                update,
                sweeps_per_arrival,
                arrivals_done,
            },
            tag,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_datagen::timelapse::{TimelapseConfig, TimelapseStream, TIME_MODE};

    // Mode extents chosen so every first-level contraction — of the
    // initial tensor, of an arriving slice, and of the extended tensor —
    // clears the GEMM small-work threshold: slice-vs-full bitwise parity
    // then follows from the packed kernel's per-row invariance.
    fn stream_cfg() -> TimelapseConfig {
        TimelapseConfig {
            height: 12,
            width: 10,
            bands: 8,
            times: 7,
            materials: 3,
            noise: 1e-3,
        }
    }

    fn drive(
        stream: &TimelapseStream,
        cfg: &AlsConfig,
        kind: SessionKind,
        update: CacheUpdate,
    ) -> StreamingSession {
        let mut ss = StreamingSession::new(&stream.initial(), cfg, kind, TIME_MODE, 4, update);
        ss.run_window();
        for i in 0..stream.n_arrivals() {
            ss.arrive(&stream.slice(i));
            ss.run_window();
        }
        ss
    }

    fn assert_streams_bitwise(a: &StreamingSession, b: &StreamingSession) {
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.sweeps.len(), rb.sweeps.len());
        for (x, y) in ra.sweeps.iter().zip(rb.sweeps.iter()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.fitness.to_bits(), y.fitness.to_bits());
        }
        for (fa, fb) in a.factors().iter().zip(b.factors()) {
            assert_eq!(fa.data(), fb.data());
        }
    }

    #[test]
    fn incremental_matches_recompute_oracle_bitwise_exact() {
        let stream = TimelapseStream::new(&stream_cfg(), 17, 3, 2).unwrap();
        let cfg = AlsConfig::new(8).with_tol(0.0);
        let inc = drive(&stream, &cfg, SessionKind::Exact, CacheUpdate::Incremental);
        let rec = drive(&stream, &cfg, SessionKind::Exact, CacheUpdate::Recompute);
        assert_streams_bitwise(&inc, &rec);
        assert_eq!(inc.extent(), 7);
        assert_eq!(inc.arrivals_done(), 2);
    }

    #[test]
    fn incremental_matches_recompute_oracle_bitwise_pp_msdt() {
        let stream = TimelapseStream::new(&stream_cfg(), 23, 3, 2).unwrap();
        let cfg = AlsConfig::new(8)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_tol(0.0);
        let inc = drive(&stream, &cfg, SessionKind::Pp, CacheUpdate::Incremental);
        let rec = drive(&stream, &cfg, SessionKind::Pp, CacheUpdate::Recompute);
        assert_streams_bitwise(&inc, &rec);
    }

    #[test]
    fn arrivals_extend_the_time_factor_and_trace() {
        let stream = TimelapseStream::new(&stream_cfg(), 5, 3, 2).unwrap();
        let cfg = AlsConfig::new(4).with_tol(0.0);
        let mut ss = StreamingSession::new(
            &stream.initial(),
            &cfg,
            SessionKind::Exact,
            TIME_MODE,
            3,
            CacheUpdate::Incremental,
        );
        ss.run_window();
        assert_eq!(ss.extent(), 3);
        assert_eq!(ss.report().sweeps.len(), 3);
        for i in 0..stream.n_arrivals() {
            ss.arrive(&stream.slice(i));
            assert!(!ss.is_finished(), "arrival must reopen the window");
            ss.run_window();
            assert_eq!(ss.extent(), 3 + 2 * (i + 1));
            assert_eq!(ss.report().sweeps.len(), 3 * (i + 2));
        }
        // The streamed factorization stays a sensible decomposition of the
        // final tensor (warm starts did not derail ALS).
        assert!(ss.last_fitness() > 0.8, "fitness {}", ss.last_fitness());
    }

    #[test]
    fn an_arrival_leaves_the_input_to_grow_in_place() {
        // The slice is read back from a shared run of the input's tail.
        // That view must be gone when `arrive` returns: if it outlived the
        // arrival, the next append would find the input's storage shared
        // and copy all of it to a new address. Arrivals of one step after
        // the first (which doubles the capacity, 8 → 16 steps) fit, so the
        // input stays where it is through every later one.
        let cfg_t = TimelapseConfig {
            times: 15,
            ..stream_cfg()
        };
        let stream = TimelapseStream::new(&cfg_t, 13, 8, 1).unwrap();
        let cfg = AlsConfig::new(4).with_tol(0.0);
        let mut ss = StreamingSession::new(
            &stream.initial(),
            &cfg,
            SessionKind::Exact,
            TIME_MODE,
            1,
            CacheUpdate::Incremental,
        );
        ss.run_window();
        let at = |ss: &StreamingSession| ss.session.input.dense().unwrap().data().as_ptr();
        ss.arrive(&stream.slice(0));
        let grown = at(&ss);
        for i in 1..stream.n_arrivals() {
            ss.arrive(&stream.slice(i));
            assert_eq!(at(&ss), grown, "arrival {i} moved the input");
            ss.run_window();
        }
        assert_eq!(
            ss.session.input.canonical().data(),
            stream.prefix(15).data()
        );
    }

    #[test]
    fn stream_checkpoint_roundtrip_is_bit_identical() {
        let stream = TimelapseStream::new(&stream_cfg(), 31, 3, 2).unwrap();
        let cfg = AlsConfig::new(8)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_tol(0.0);
        let straight = drive(&stream, &cfg, SessionKind::Pp, CacheUpdate::Incremental);

        // Interrupt mid-window after the first arrival: checkpoint,
        // resume against the rebuilt prefix, finish the schedule.
        let mut ss = StreamingSession::new(
            &stream.initial(),
            &cfg,
            SessionKind::Pp,
            TIME_MODE,
            4,
            CacheUpdate::Incremental,
        );
        ss.run_window();
        ss.arrive(&stream.slice(0));
        let _ = ss.step(); // mid-window cut
        let bytes = ss.checkpoint_bytes(0xCAFE);
        drop(ss);
        let (mut resumed, tag) =
            StreamingSession::resume_from_bytes(&bytes, |extent| stream.prefix(extent)).unwrap();
        assert_eq!(tag, 0xCAFE);
        assert_eq!(resumed.arrivals_done(), 1);
        assert_eq!(resumed.extent(), 5);
        resumed.run_window();
        for i in 1..stream.n_arrivals() {
            resumed.arrive(&stream.slice(i));
            resumed.run_window();
        }
        assert_streams_bitwise(&straight, &resumed);
    }

    #[test]
    fn resume_rejects_foreign_and_corrupt_checkpoints() {
        let stream = TimelapseStream::new(&stream_cfg(), 7, 3, 2).unwrap();
        let initial = stream.initial();
        let cfg = AlsConfig::new(4).with_tol(0.0);

        let resume_err = |res: Result<(StreamingSession, u64), String>| match res {
            Err(e) => e,
            Ok(_) => panic!("expected a resume error"),
        };

        // A plain session checkpoint is not a streaming checkpoint.
        let mut plain = AlsSession::new(&initial, &cfg, SessionKind::Exact);
        let _ = plain.step();
        let plain_bytes = plain.checkpoint_bytes(1);
        let err = resume_err(StreamingSession::resume_from_bytes(&plain_bytes, |_| {
            initial.clone()
        }));
        assert!(err.contains("sentinel"), "{err}");

        // And a streaming checkpoint is not a plain session checkpoint.
        let mut ss = StreamingSession::new(
            &initial,
            &cfg,
            SessionKind::Exact,
            TIME_MODE,
            2,
            CacheUpdate::Incremental,
        );
        ss.run_window();
        let bytes = ss.checkpoint_bytes(9);
        assert!(AlsSession::resume_from_bytes(&bytes, &initial).is_err());

        // Flipping a byte is refused by the checksum, not a panic.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let err = resume_err(StreamingSession::resume_from_bytes(&bad, |_| {
            initial.clone()
        }));
        assert!(err.contains("checksum"), "{err}");

        // Truncation is refused cleanly at any cut.
        let err = resume_err(StreamingSession::resume_from_bytes(
            &bytes[..bytes.len() - 3],
            |_| initial.clone(),
        ));
        assert!(
            err.contains("truncated") || err.contains("length mismatch"),
            "{err}"
        );

        // A rebuild with the wrong extent is refused before resume.
        let err = resume_err(StreamingSession::resume_from_bytes(&bytes, |_| {
            stream.prefix(4)
        }));
        assert!(err.contains("extent"), "{err}");
    }
}
