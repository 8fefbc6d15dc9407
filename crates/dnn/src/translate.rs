//! Column-granular translation reuse for the cached walk.
//!
//! The prober sends each stripe family at many column shifts: the same
//! nonzero input columns, moved. Every op of the cached walk is a window
//! over columns, so away from the map edges a node's output column `q` at
//! one shift equals column `q - d` of an earlier shift's walk, where `d` is
//! the input offset divided by the node's cumulative stride (paper §6.2
//! predicts exactly these repeated responses). This module finds those
//! columns and lets the walk copy them instead of recomputing them.
//!
//! * [`WalkMemo`] keeps the last [`MEMO_CAPACITY`] cached walks, keyed by
//!   the bits of their input's span columns (the stripe's amplitude
//!   column). Of each walk it keeps only what reuse reads: every map node's
//!   span, and every conv node's raw (pre-epilogue) output — the latter
//!   only once its key has been seen before, so a one-off image costs no
//!   memory.
//! * [`Reuse`] follows one walk against the memo's walks of the same key at
//!   another offset (`Δ ≠ 0`: an identical query is never served from the
//!   memo). Per node and source it marks the output columns that are
//!   *translate-equal*: bit-equal, in every stage, to the source's column
//!   `q - d`. An output column is marked when that column exists and every
//!   input column `x` of its window is translate-equal, which holds when
//!   `x` is inside the current span and already marked, or outside both
//!   the current span and the source's span (at `x - d_in`) with equal
//!   baseline column classes ([`column_classes`]; padding is the all-zero
//!   class). Marks are conservative: a column they miss is recomputed.
//!
//! A marked conv column is copied from the source's raw output, read over
//! the baseline; the epilogue then runs over the whole span as usual. The
//! copied bits are the bits the kernel would compute, so which walks the
//! memo holds — which depends on how the prober's workers interleave —
//! changes speed, never a result.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use hd_tensor::colspan::{ColSpan, SpanDelta};
use hd_tensor::Tensor3;

/// Walks a [`WalkMemo`] keeps: well below a probe family's 12 or 24
/// shifts, and enough for the offsets 2 and 4 that stride-2 and stride-4
/// nodes need, also while two workers interleave the shifts (shift `t`
/// then finds `t - 2 ..= t - 5`).
pub(crate) const MEMO_CAPACITY: usize = 4;

/// The class of every column holding only `+0.0` bits, and of padding.
const ZERO_CLASS: u32 = 0;

/// Per-column classes of `m`: bit-equal columns share a class, and a
/// column of `+0.0` bits only is [`ZERO_CLASS`], the class of the zeros a
/// conv pads the map with.
pub(crate) fn column_classes(m: &Tensor3) -> Vec<u32> {
    let (w, rows) = (m.w(), m.c() * m.h());
    let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
    (0..w)
        .map(|x| {
            let bits: Vec<u32> = (0..rows).map(|r| m.data()[r * w + x].to_bits()).collect();
            if bits.iter().all(|&b| b == 0) {
                return ZERO_CLASS;
            }
            let next = ids.len() as u32 + 1;
            *ids.entry(bits).or_insert(next)
        })
        .collect()
}

/// What identifies a walk's input for reuse: its span and the bits of the
/// columns inside it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct InputKey {
    span: ColSpan,
    bits: Vec<u32>,
}

impl InputKey {
    /// The key of `delta`, the input as the cached walk holds it; `None`
    /// for an empty span (nothing to translate).
    pub(crate) fn of(delta: &SpanDelta) -> Option<Self> {
        let span = delta.span();
        (!span.is_empty()).then(|| InputKey {
            span,
            bits: delta.cols().data().iter().map(|v| v.to_bits()).collect(),
        })
    }

    /// Whether `other` holds the same columns at another offset.
    fn is_translate_of(&self, other: &InputKey) -> bool {
        self.span.lo() != other.span.lo() && self.bits == other.bits
    }
}

/// One remembered node: the span of every stage, and for a conv node its
/// raw output.
#[derive(Debug, Default)]
pub(crate) struct MemoNode {
    /// The output span (`None` for a vector).
    pub(crate) span: Option<ColSpan>,
    /// The raw (pre-epilogue) output of a conv node.
    pub(crate) raw: Option<SpanDelta>,
}

/// One remembered walk.
#[derive(Debug)]
pub(crate) struct MemoWalk {
    key: InputKey,
    nodes: Vec<MemoNode>,
}

/// Constant-capacity memo of recent cached walks (see the module docs).
/// Cloning gives an empty memo: what it holds only ever saves time.
///
/// A panic while the lock is held leaves a valid memo (every update is
/// one `VecDeque` call on whole entries), so a poisoned lock is entered
/// as it is.
#[derive(Debug, Default)]
pub(crate) struct WalkMemo {
    walks: Mutex<VecDeque<Arc<MemoWalk>>>,
}

impl Clone for WalkMemo {
    fn clone(&self) -> Self {
        WalkMemo::default()
    }
}

impl WalkMemo {
    /// The remembered walks whose input translates `key`, nearest offset
    /// first.
    pub(crate) fn sources(&self, key: &InputKey) -> Vec<Arc<MemoWalk>> {
        let walks = self.walks.lock().unwrap_or_else(PoisonError::into_inner);
        let mut found: Vec<Arc<MemoWalk>> = walks
            .iter()
            .filter(|w| key.is_translate_of(&w.key))
            .cloned()
            .collect();
        drop(walks);
        found.sort_by_key(|w| w.key.span.lo().abs_diff(key.span.lo()));
        found
    }

    /// Remembers a walk, replacing one of the same input and dropping the
    /// oldest beyond [`MEMO_CAPACITY`]. The first walk of a key keeps its
    /// spans only: a key seen once (a warm-up image, say) may never come
    /// back, and its conv outputs would hold memory for nothing.
    pub(crate) fn insert(&self, key: InputKey, mut nodes: Vec<MemoNode>) {
        let mut walks = self.walks.lock().unwrap_or_else(PoisonError::into_inner);
        if !walks.iter().any(|w| w.key.bits == key.bits) {
            nodes.iter_mut().for_each(|n| n.raw = None);
        }
        let walk = Arc::new(MemoWalk { key, nodes });
        walks.retain(|w| w.key != walk.key);
        walks.push_front(walk);
        walks.truncate(MEMO_CAPACITY);
    }
}

/// An input edge of a node, as [`Reuse::mark`] reads it.
pub(crate) struct Edge<'c> {
    /// The input node.
    pub(crate) node: usize,
    /// Its output span in the current walk.
    pub(crate) span: ColSpan,
    /// Its baseline output's column classes (one per column).
    pub(crate) classes: &'c [u32],
}

/// The columns a node's output column reads from each input: output
/// column `q` reads input columns `q * stride - pad + i` for `i < taps`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Window {
    pub(crate) taps: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
}

impl Window {
    /// A residual add's window: the column itself.
    pub(crate) const IDENTITY: Window = Window {
        taps: 1,
        stride: 1,
        pad: 0,
    };
}

/// One remembered walk as a source for the current one.
struct Source {
    walk: Arc<MemoWalk>,
    /// Per node walked so far: the column offset from the source (current
    /// column `q` faces the source's `q - shift`), if it is an integer.
    shift: Vec<Option<isize>>,
    /// Per node walked so far: per column of the current span, whether it
    /// is translate-equal to the source's column `q - shift`.
    marks: Vec<Vec<bool>>,
}

impl Source {
    /// Whether input column `x` of `edge` (padding when outside the map)
    /// is translate-equal between the walks at offset `d`.
    fn input_equal(&self, edge: &Edge, d: isize, x: isize) -> bool {
        let cur = edge.span;
        if x >= 0 && cur.contains(x as usize) {
            return self.marks[edge.node][x as usize - cur.lo()];
        }
        let xs = x - d;
        let in_source = self.walk.nodes[edge.node]
            .span
            .is_some_and(|s| xs >= 0 && s.contains(xs as usize));
        let class = |x: isize| {
            usize::try_from(x)
                .ok()
                .and_then(|x| edge.classes.get(x))
                .copied()
                .unwrap_or(ZERO_CLASS)
        };
        !in_source && class(x) == class(xs)
    }
}

/// One walk's translation reuse against the memo (see the module docs).
pub(crate) struct Reuse {
    sources: Vec<Source>,
    /// Conv output columns copied so far.
    pub(crate) cols_reused: u64,
}

impl Reuse {
    /// Reuse against `sources`, none of which has the current input's
    /// offset.
    pub(crate) fn new(sources: Vec<Arc<MemoWalk>>) -> Self {
        Reuse {
            sources: sources
                .into_iter()
                .map(|walk| Source {
                    walk,
                    shift: Vec::new(),
                    marks: Vec::new(),
                })
                .collect(),
            cols_reused: 0,
        }
    }

    /// Marks the input node (node 0): its whole span faces every source's.
    pub(crate) fn mark_input(&mut self, key: &InputKey) {
        for src in &mut self.sources {
            let d = key.span.lo() as isize - src.walk.key.span.lo() as isize;
            src.shift.push(Some(d));
            src.marks.push(vec![true; key.span.width()]);
        }
    }

    /// Marks the next node, whose output `out` — its span and map width,
    /// `None` for a vector — reads `window` of each of `inputs`. A node
    /// whose inputs face a source at different offsets, or at one the
    /// window's stride does not divide, gets no marks against it.
    pub(crate) fn mark(&mut self, inputs: &[Edge], window: Window, out: Option<(ColSpan, usize)>) {
        for src in &mut self.sources {
            let shifts: Option<Vec<isize>> = inputs.iter().map(|e| src.shift[e.node]).collect();
            let d_in = shifts.and_then(|s| {
                let first = *s.first()?;
                s.iter().all(|&d| d == first).then_some(first)
            });
            let step = window.stride as isize;
            let d_out = d_in.filter(|d| d % step == 0).map(|d| d / step);
            let marks = match (out, d_in, d_out) {
                (Some((span, out_w)), Some(d_in), Some(d_out)) => span
                    .range()
                    .map(|q| {
                        let qs = q as isize - d_out;
                        let x0 = (q * window.stride) as isize - window.pad as isize;
                        (0..out_w as isize).contains(&qs)
                            && inputs.iter().all(|e| {
                                (x0..x0 + window.taps as isize).all(|x| src.input_equal(e, d_in, x))
                            })
                    })
                    .collect(),
                _ => Vec::new(),
            };
            src.shift.push(d_out.filter(|_| out.is_some()));
            src.marks.push(marks);
        }
    }

    /// For each column of conv node `id`'s current span, the source to
    /// copy it from, if any marked it (nearest offset first).
    pub(crate) fn plan(&self, id: usize, width: usize) -> Vec<Option<usize>> {
        (0..width)
            .map(|j| {
                self.sources.iter().position(|s| {
                    s.walk.nodes[id].raw.is_some() && s.marks[id].get(j).copied().unwrap_or(false)
                })
            })
            .collect()
    }

    /// Fills the columns of conv node `id`'s raw output `dst` (over
    /// `span`) that `plan` (from [`Reuse::plan`]) assigns a source, from
    /// that source's raw output read over `base`, the baseline's raw
    /// output. Adjacent columns from the same side of one source's span
    /// are copied row by row as one run.
    pub(crate) fn copy_columns(
        &mut self,
        id: usize,
        plan: &[Option<usize>],
        span: ColSpan,
        base: &Tensor3,
        dst: &mut Tensor3,
    ) {
        let sw = dst.w();
        let mut j = 0;
        while j < plan.len() {
            let Some(e) = plan[j] else {
                j += 1;
                continue;
            };
            let source = &self.sources[e];
            #[expect(
                clippy::expect_used,
                reason = "plan() picks only sources that marked the node, so hold its raw output at an integer shift"
            )]
            let (d, raw) = source.shift[id]
                .zip(source.walk.nodes[id].raw.as_ref())
                .expect("a planned source holds the node");
            // A marked column's source column lies inside the map.
            let qs = ((span.lo() + j) as isize - d) as usize;
            let inside = raw.span().contains(qs);
            // The run: following columns from the same source and side.
            let n = plan[j..]
                .iter()
                .enumerate()
                .take_while(|&(i, p)| *p == Some(e) && raw.span().contains(qs + i) == inside)
                .count();
            let (src, src_w, at) = if inside {
                (raw.cols().data(), raw.span().width(), qs - raw.span().lo())
            } else {
                (base.data(), base.w(), qs)
            };
            for (row, out) in dst.data_mut().chunks_exact_mut(sw).enumerate() {
                let from = row * src_w + at;
                out[j..j + n].copy_from_slice(&src[from..from + n]);
            }
            self.cols_reused += n as u64;
            j += n;
        }
    }
}
