//! DRAM bus trace events — exactly what a hardware bus probe (HMTT-style)
//! would capture: time, address, direction, and burst size. Contents are
//! deliberately absent (the threat model assumes encrypted data).

use hd_tensor::cast;
use std::fmt;

/// Bus transfer direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Chip reads from DRAM.
    Read,
    /// Chip writes to DRAM.
    Write,
}

/// One observed DRAM burst.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Time of the burst in picoseconds from trace start.
    pub time_ps: u64,
    /// Starting byte address.
    pub addr: u64,
    /// Direction.
    pub kind: AccessKind,
    /// Burst length in bytes.
    pub bytes: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            AccessKind::Read => "R",
            AccessKind::Write => "W",
        };
        write!(
            f,
            "{:>12}ps {k} 0x{:08x} +{}",
            self.time_ps, self.addr, self.bytes
        )
    }
}

/// One contiguous DRAM transfer as the device issues it: `bytes` at `addr`
/// in `kind` direction, split into bursts of `burst_bytes`. The bursts'
/// times are spread evenly over `[start_ps + offset_ps, start_ps +
/// offset_ps + window_ps]`, first burst at the start and last at the end.
///
/// [`Transfer::burst`] is the one definition of what the bus shows for a
/// transfer; [`TraceSink::transfer`] defaults to feeding those bursts to
/// [`TraceSink::event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Transfer {
    /// Start of the transfer's phase, in picoseconds from trace start.
    pub start_ps: u64,
    /// Offset of the first burst within the phase.
    pub offset_ps: u64,
    /// Time from the first burst to the last.
    pub window_ps: u64,
    /// Starting byte address.
    pub addr: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Burst length in bytes (a zero length counts as one byte).
    pub burst_bytes: u64,
    /// Direction.
    pub kind: AccessKind,
}

impl Transfer {
    /// Number of bursts the transfer takes (0 for an empty transfer).
    pub fn bursts(&self) -> u64 {
        self.bytes.div_ceil(self.burst_bytes.max(1))
    }

    /// Burst `i` (`i < self.bursts()`) as the bus shows it. Address and
    /// time arithmetic saturates, so a hostile transfer cannot panic.
    pub fn burst(&self, i: u64) -> TraceEvent {
        let burst = self.burst_bytes.max(1);
        let n = self.bursts();
        let frac = if n == 1 {
            0.0
        } else {
            i as f64 / (n - 1) as f64
        };
        let time_ps = self
            .start_ps
            .saturating_add(self.offset_ps)
            .saturating_add(cast::f64_round_to_u64(frac * self.window_ps as f64));
        let skip = i.saturating_mul(burst);
        TraceEvent {
            time_ps,
            addr: self.addr.saturating_add(skip),
            kind: self.kind,
            bytes: burst.min(self.bytes.saturating_sub(skip)),
        }
    }

    /// The last burst (burst 0 of an empty transfer).
    pub fn last_burst(&self) -> TraceEvent {
        self.burst(self.bursts().saturating_sub(1))
    }

    /// One past the last byte address (saturating).
    pub fn end(&self) -> u64 {
        self.addr.saturating_add(self.bytes)
    }
}

/// A consumer of bus events as the device emits them.
///
/// This is the streaming observation surface: a hardware bus probe hands
/// the attacker one burst at a time, and an incremental analyzer (e.g.
/// `hd-trace`'s `StreamingAnalyzer`) can fold each event into running
/// state instead of materializing the full event vector. The buffered
/// [`Trace`] is itself a sink (it just pushes), so golden-trace fixtures
/// and CSV interchange keep working unchanged.
///
/// The device hands over each contiguous DRAM transfer whole, through
/// [`TraceSink::transfer`]. Its default expands the transfer into its
/// bursts ([`Transfer::burst`]) and feeds them to [`TraceSink::event`] in
/// order, so a sink that only implements `event` sees exactly the burst
/// stream. A sink may override `transfer` to consume the address range in
/// one step, but its state afterwards must equal what the bursts fed
/// through `event` would have left.
///
/// The contract mirrors what the bus delivers:
///
/// * events arrive in nondecreasing `time_ps` order (the device emits
///   chronologically; analyzers may treat violations as errors),
/// * one device run feeds exactly one sink from start to finish — sinks
///   carry per-run state and are not reused across runs,
/// * `event` and `transfer` must not panic on any input; analyzers report
///   malformed streams when their `finish`-style method is called.
pub trait TraceSink {
    /// Consumes one bus event.
    fn event(&mut self, e: TraceEvent);

    /// Consumes one whole transfer; equivalent to feeding its bursts, in
    /// order, to [`TraceSink::event`].
    fn transfer(&mut self, t: Transfer) {
        for i in 0..t.bursts() {
            self.event(t.burst(i));
        }
    }
}

/// A full run's worth of bus events, in chronological order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Chronological events.
    pub events: Vec<TraceEvent>,
}

/// The buffering sink: retains every event. This is the thin adapter that
/// keeps golden-trace fixtures byte-identical under the streaming API.
impl TraceSink for Trace {
    fn event(&mut self, e: TraceEvent) {
        self.events.push(e);
    }
}

impl Trace {
    /// Total bytes transferred in the given direction.
    pub fn total_bytes(&self, kind: AccessKind) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.bytes)
            .sum()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Error parsing a CSV trace.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number and reason).
    Malformed {
        /// Line number.
        line: usize,
        /// What was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "i/o error: {e}"),
            ParseTraceError::Malformed { line, reason } => {
                write!(f, "malformed trace line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseTraceError {}

impl From<std::io::Error> for ParseTraceError {
    fn from(e: std::io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

impl Trace {
    /// Writes the trace as CSV (`time_ps,kind,addr,bytes`) — the natural
    /// interchange format for traces captured by real bus probes.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn to_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "time_ps,kind,addr,bytes")?;
        for e in &self.events {
            let k = match e.kind {
                AccessKind::Read => 'R',
                AccessKind::Write => 'W',
            };
            writeln!(w, "{},{k},0x{:x},{}", e.time_ps, e.addr, e.bytes)?;
        }
        Ok(())
    }

    /// Parses a CSV trace produced by [`Trace::to_csv`] (or converted from
    /// a hardware probe's log).
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on I/O failure or malformed rows.
    pub fn from_csv<R: std::io::BufRead>(r: R) -> Result<Trace, ParseTraceError> {
        let mut events = Vec::new();
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || (i == 0 && line.starts_with("time_ps")) {
                continue;
            }
            let mut parts = line.split(',');
            let mut field = |reason| {
                parts.next().ok_or(ParseTraceError::Malformed {
                    line: i + 1,
                    reason,
                })
            };
            let time_ps =
                field("missing time")?
                    .trim()
                    .parse()
                    .map_err(|_| ParseTraceError::Malformed {
                        line: i + 1,
                        reason: "bad time",
                    })?;
            let kind = match field("missing kind")?.trim() {
                "R" | "r" => AccessKind::Read,
                "W" | "w" => AccessKind::Write,
                _ => {
                    return Err(ParseTraceError::Malformed {
                        line: i + 1,
                        reason: "kind must be R or W",
                    })
                }
            };
            let addr_s = field("missing addr")?.trim();
            let addr = if let Some(hex) = addr_s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                addr_s.parse()
            }
            .map_err(|_| ParseTraceError::Malformed {
                line: i + 1,
                reason: "bad addr",
            })?;
            let bytes =
                field("missing bytes")?
                    .trim()
                    .parse()
                    .map_err(|_| ParseTraceError::Malformed {
                        line: i + 1,
                        reason: "bad bytes",
                    })?;
            if addr.checked_add(bytes).is_none() {
                return Err(ParseTraceError::Malformed {
                    line: i + 1,
                    reason: "addr + bytes overflows",
                });
            }
            events.push(TraceEvent {
                time_ps,
                addr,
                kind,
                bytes,
            });
        }
        Ok(Trace { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_by_direction() {
        let t = Trace {
            events: vec![
                TraceEvent {
                    time_ps: 0,
                    addr: 0,
                    kind: AccessKind::Read,
                    bytes: 64,
                },
                TraceEvent {
                    time_ps: 10,
                    addr: 64,
                    kind: AccessKind::Write,
                    bytes: 32,
                },
                TraceEvent {
                    time_ps: 20,
                    addr: 128,
                    kind: AccessKind::Read,
                    bytes: 64,
                },
            ],
        };
        assert_eq!(t.total_bytes(AccessKind::Read), 128);
        assert_eq!(t.total_bytes(AccessKind::Write), 32);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn csv_roundtrip() {
        let t = Trace {
            events: vec![
                TraceEvent {
                    time_ps: 0,
                    addr: 0x1000,
                    kind: AccessKind::Write,
                    bytes: 64,
                },
                TraceEvent {
                    time_ps: 120,
                    addr: 0x2000,
                    kind: AccessKind::Read,
                    bytes: 32,
                },
            ],
        };
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let parsed = Trace::from_csv(buf.as_slice()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn csv_accepts_decimal_addresses_and_skips_header() {
        let csv = "time_ps,kind,addr,bytes\n5,R,4096,64\n";
        let t = Trace::from_csv(csv.as_bytes()).unwrap();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].addr, 4096);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(Trace::from_csv("1,X,0x0,64\n".as_bytes()).is_err());
        assert!(Trace::from_csv("nope\n".as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_an_address_range_that_overflows() {
        let err = Trace::from_csv("0,W,0xffffffffffffffff,64\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            ParseTraceError::Malformed {
                line: 1,
                reason: "addr + bytes overflows"
            }
        ));
        // A range that ends just below the top of the address space is fine.
        assert!(Trace::from_csv("0,W,0xffffffffffffff00,64\n".as_bytes()).is_ok());
    }

    fn transfer(bytes: u64, burst_bytes: u64, window_ps: u64) -> Transfer {
        Transfer {
            start_ps: 1000,
            offset_ps: 30,
            window_ps,
            addr: 0x4000,
            bytes,
            burst_bytes,
            kind: AccessKind::Write,
        }
    }

    #[test]
    fn transfer_bursts_tile_the_range_and_spread_over_the_window() {
        let t = transfer(200, 64, 90);
        assert_eq!(t.bursts(), 4);
        let bursts: Vec<_> = (0..t.bursts()).map(|i| t.burst(i)).collect();
        // Times: start + offset + round(i / 3 * window).
        let times: Vec<u64> = bursts.iter().map(|b| b.time_ps).collect();
        assert_eq!(times, vec![1030, 1060, 1090, 1120]);
        let addrs: Vec<u64> = bursts.iter().map(|b| b.addr).collect();
        assert_eq!(addrs, vec![0x4000, 0x4040, 0x4080, 0x40c0]);
        let sizes: Vec<u64> = bursts.iter().map(|b| b.bytes).collect();
        assert_eq!(sizes, vec![64, 64, 64, 8], "the last burst is partial");
        assert_eq!(t.last_burst(), bursts[3]);
        assert_eq!(t.end(), 0x4000 + 200);
        assert!(bursts.iter().all(|b| b.kind == AccessKind::Write));
    }

    #[test]
    fn single_burst_transfer_lands_at_the_window_start() {
        let t = transfer(64, 64, 500);
        assert_eq!(t.bursts(), 1);
        assert_eq!(t.burst(0).time_ps, 1030);
        assert_eq!(t.burst(0).bytes, 64);
        assert_eq!(transfer(0, 64, 500).bursts(), 0);
        // A zero burst length counts as one byte instead of dividing by 0.
        assert_eq!(transfer(3, 0, 0).bursts(), 3);
    }

    #[test]
    fn default_transfer_feeds_the_bursts_to_event() {
        let mut sink = Trace::default();
        let t = transfer(130, 64, 7);
        sink.transfer(t);
        sink.transfer(transfer(0, 64, 7));
        let want: Vec<_> = (0..t.bursts()).map(|i| t.burst(i)).collect();
        assert_eq!(sink.events, want);
        assert_eq!(sink.total_bytes(AccessKind::Write), 130);
    }

    #[test]
    fn hostile_transfer_saturates_instead_of_overflowing() {
        let t = Transfer {
            start_ps: u64::MAX - 1,
            offset_ps: 10,
            window_ps: u64::MAX,
            addr: u64::MAX - 64,
            bytes: 256,
            burst_bytes: 64,
            kind: AccessKind::Read,
        };
        assert_eq!(t.end(), u64::MAX);
        let last = t.last_burst();
        assert_eq!(last.time_ps, u64::MAX);
        assert_eq!(last.addr, u64::MAX);
    }

    #[test]
    fn display_format() {
        let e = TraceEvent {
            time_ps: 1234,
            addr: 0x1000,
            kind: AccessKind::Write,
            bytes: 64,
        };
        let s = e.to_string();
        assert!(s.contains("W"));
        assert!(s.contains("0x00001000"));
    }
}
