//! The NVM device front-end: content store plus timing.

use crate::bank::Bank;
use crate::config::NvmConfig;
use crate::start_gap::StartGap;
use crate::stats::NvmStats;
use crate::store::LineStore;
use crate::wear::WearTracker;
use crate::write_queue::WriteQueue;
use lelantus_obs::{CycleCategory, Event, EventKind, HeatLane, HistKind, LayerRecorder};
use lelantus_types::{Cycles, PhysAddr, LINE_BYTES, REGION_BYTES};

/// The simulated non-volatile memory device.
///
/// Stores real line contents (sparsely; unwritten lines read as zero,
/// matching NVM shipped in an erased state) and models per-bank timing
/// with row buffers and a merging write queue.
///
/// # Examples
///
/// ```
/// use lelantus_nvm::{NvmConfig, NvmDevice};
/// use lelantus_types::{Cycles, PhysAddr};
///
/// let mut dev = NvmDevice::new(NvmConfig::default());
/// let a = PhysAddr::new(0x40);
/// let ack = dev.write_line(a, [1; 64], Cycles::ZERO);
/// let (data, _done) = dev.read_line(a, ack);
/// assert_eq!(data, [1; 64]);
/// ```
#[derive(Debug, Clone)]
pub struct NvmDevice {
    config: NvmConfig,
    banks: Vec<Bank>,
    /// Rank of each bank.
    bank_rank: Vec<usize>,
    /// `log2(row_buffer_bytes)`: a device address shifted right by it
    /// is its row id.
    row_shift: u32,
    /// Per-rank data-bus availability.
    bus_busy: Vec<Cycles>,
    write_queue: WriteQueue,
    /// Line contents keyed by *device* (post-leveling) address.
    contents: LineStore,
    wear: WearTracker,
    leveler: Option<StartGap>,
    stats: NvmStats,
    /// The machine's one layer recorder: this device's bank service,
    /// queue stalls, bank heat and queue events, plus whatever the
    /// layers above record through [`NvmDevice::recorder_mut`]. Every
    /// view is off until a recorder with views on replaces it.
    rec: LayerRecorder,
}

impl NvmDevice {
    /// Creates a device from `config` with every view off.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NvmConfig::validate`]).
    pub fn new(config: NvmConfig) -> Self {
        config.validate().expect("invalid NVM configuration");
        let banks = (0..config.total_banks()).map(|_| Bank::new()).collect();
        let bank_rank = (0..config.total_banks()).map(|b| b / config.banks_per_rank).collect();
        let write_queue = WriteQueue::new(config.write_queue_capacity);
        let leveler = config
            .wear_leveling
            .map(|sg| StartGap::new(config.capacity_bytes / LINE_BYTES as u64, sg));
        Self {
            bus_busy: vec![Cycles::ZERO; config.ranks],
            row_shift: config.row_buffer_bytes.trailing_zeros(),
            config,
            banks,
            bank_rank,
            write_queue,
            contents: LineStore::new(),
            wear: WearTracker::new(),
            leveler,
            stats: NvmStats::default(),
            rec: LayerRecorder::default(),
        }
    }

    /// Records one bank array access into the heat grid (no-op when
    /// the heatmap is off). Attribution is by the *logical* address the
    /// stack requested — the same space the metadata layout carves up —
    /// so metadata areas light up at their layout offsets regardless of
    /// wear leveling.
    #[inline]
    fn heat(&mut self, lane: HeatLane, addr: PhysAddr) {
        self.rec.heat(lane, addr.as_u64() / REGION_BYTES);
    }

    /// The layer recorder (every view of every layer).
    pub fn recorder(&self) -> &LayerRecorder {
        &self.rec
    }

    /// Mutable recorder access, for the layers above, the system
    /// layer's drains, and installing a recorder with views on.
    pub fn recorder_mut(&mut self) -> &mut LayerRecorder {
        &mut self.rec
    }

    /// Device (post-leveling) line address of a logical address.
    #[inline]
    fn map_addr(&self, addr: PhysAddr) -> PhysAddr {
        let line = addr.line_align();
        match &self.leveler {
            None => line,
            Some(sg) => {
                let slot = sg.logical_to_physical(line.as_u64() / LINE_BYTES as u64);
                PhysAddr::new(slot * LINE_BYTES as u64)
            }
        }
    }

    /// Advances the wear-leveling gap when due, relocating one line.
    fn leveling_tick(&mut self, now: Cycles) {
        let Some(sg) = &mut self.leveler else { return };
        sg.record_write();
        if let Some((from, to)) = sg.pending_move() {
            let from_addr = PhysAddr::new(from * LINE_BYTES as u64);
            let to_addr = PhysAddr::new(to * LINE_BYTES as u64);
            if let Some(data) = self.contents.remove(from_addr.as_u64()) {
                self.contents.put(to_addr.as_u64(), data);
            } else {
                self.contents.remove(to_addr.as_u64());
            }
            self.leveler.as_mut().expect("leveler present").complete_move();
            self.stats.leveling_moves += 1;
            // Charge the relocation: one array read + one array write.
            self.array_access(from_addr, now, false);
            self.array_access(to_addr, now, true);
            self.stats.line_reads += 1;
            self.stats.line_writes += 1;
            // Relocations have no logical requester; attribute them to
            // the device slots being moved.
            self.heat(HeatLane::BankRead, from_addr);
            self.heat(HeatLane::BankWrite, to_addr);
            self.wear.record_line_write(to_addr);
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    /// Accumulated statistics (write-queue figures folded in).
    pub fn stats(&self) -> NvmStats {
        let wq = self.write_queue.stats();
        NvmStats { forwarded_reads: wq.forwarded_reads, merged_writes: wq.merged, ..self.stats }
    }

    /// Wear tracker for endurance reporting.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Bank of a device line address: its line number, or with lines
    /// not interleaved its row id, modulo the bank count (which need
    /// not be a power of two).
    #[inline]
    fn bank_index(&self, addr: PhysAddr) -> usize {
        let a = addr.as_u64();
        let unit =
            if self.config.line_interleave { a / LINE_BYTES as u64 } else { a >> self.row_shift };
        (unit % self.banks.len() as u64) as usize
    }

    /// Array write at a *device* address, then the wear-leveling tick
    /// it counts towards.
    fn array_write(&mut self, addr: PhysAddr, now: Cycles) -> Cycles {
        let done = self.array_access(addr, now, true);
        self.leveling_tick(now);
        done
    }

    /// Array access at a *device* (post-leveling) line address.
    fn array_access(&mut self, addr: PhysAddr, now: Cycles, is_write: bool) -> Cycles {
        let bank_idx = self.bank_index(addr);
        let row = addr.as_u64() >> self.row_shift;
        let miss_latency = Cycles::new(if is_write {
            self.config.write_latency
        } else {
            self.config.read_latency
        });
        let hit_latency = if is_write {
            // Writes to an open row still pay the array write; the row
            // buffer only saves the activation, modelled as the
            // difference between read miss and hit cost.
            Cycles::new(
                self.config
                    .write_latency
                    .saturating_sub(self.config.read_latency - self.config.row_hit_latency),
            )
        } else {
            Cycles::new(self.config.row_hit_latency)
        };
        let access = self.banks[bank_idx].access(row, now, hit_latency, miss_latency);
        if access.row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.energy_pj +=
            if is_write { self.config.write_energy_pj } else { self.config.read_energy_pj };
        // The 64-byte transfer serializes on the rank's shared data bus.
        let rank = self.bank_rank[bank_idx];
        let start = access.done_at.max(self.bus_busy[rank]);
        let done = start + Cycles::new(self.config.bus_cycles);
        self.bus_busy[rank] = done;
        done
    }

    /// Reads the 64-byte line containing `addr`, returning the data and
    /// the completion instant. A line with a queued write is forwarded
    /// from the queue at SRAM speed.
    pub fn read_line(&mut self, addr: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles) {
        let line = addr.line_align();
        let device = self.map_addr(line);
        let done = if self.write_queue.forward(line) {
            now + Cycles::new(1)
        } else {
            self.stats.line_reads += 1;
            self.heat(HeatLane::BankRead, line);
            let done = self.array_access(device, now, false);
            self.rec.seg(now, done, CycleCategory::BankService);
            done
        };
        (self.contents.get(device.as_u64()).unwrap_or([0; LINE_BYTES]), done)
    }

    /// Posts a 64-byte line write. Returns the acknowledgement instant:
    /// immediate when the write queue has room, or delayed by a
    /// synchronous drain when it is full.
    pub fn write_line(&mut self, addr: PhysAddr, data: [u8; LINE_BYTES], now: Cycles) -> Cycles {
        let line = addr.line_align();
        // Content becomes visible immediately (reads forward from the
        // queue until the array write drains).
        self.poke_line(line, data);
        let pre_len = self.write_queue.len();
        match self.write_queue.push(line, now) {
            None => {
                if let Some(log) = self.rec.events_mut() {
                    let depth = self.write_queue.len();
                    log.emit(Event {
                        cycle: now,
                        kind: EventKind::QueueAdmit {
                            addr: line.as_u64(),
                            depth: depth as u32,
                            merged: depth == pre_len,
                        },
                    });
                    log.record(HistKind::WriteQueueDepth, depth as u64);
                }
                now + Cycles::new(1)
            }
            Some(drained) => {
                // The drained write has been eligible since it was
                // enqueued; the controller retires it opportunistically,
                // so the array access starts at the later of its
                // enqueue time and bank availability — not at the
                // pushing request's (possibly far later) time.
                let device = self.map_addr(drained.addr);
                let done = self.array_write(device, drained.enqueued_at);
                self.stats.line_writes += 1;
                self.heat(HeatLane::BankWrite, drained.addr);
                self.wear.record_line_write(device);
                if let Some(log) = self.rec.events_mut() {
                    let depth = self.write_queue.len();
                    log.emit(Event {
                        cycle: now,
                        kind: EventKind::QueueDrain {
                            addr: drained.addr.as_u64(),
                            depth: depth.saturating_sub(1) as u32,
                        },
                    });
                    log.emit(Event {
                        cycle: now,
                        kind: EventKind::QueueAdmit {
                            addr: line.as_u64(),
                            depth: depth as u32,
                            merged: false,
                        },
                    });
                    log.record(HistKind::WriteQueueDepth, depth as u64);
                }
                // The pusher stalls only until queue space exists.
                let ack = done.max(now + Cycles::new(1));
                // A full queue stalls the pusher on the drain: that
                // back-pressure is the queue-wait component.
                self.rec.seg(now, ack, CycleCategory::QueueWait);
                ack
            }
        }
    }

    /// Writes a line *durably*: straight to the array, bypassing the
    /// volatile write queue (used by write-through counter management,
    /// whose whole point is that the update is persistent immediately —
    /// paper §V-E). Any queued volatile write to the same line is
    /// superseded.
    pub fn write_line_durable(
        &mut self,
        addr: PhysAddr,
        data: [u8; LINE_BYTES],
        now: Cycles,
    ) -> Cycles {
        let line = addr.line_align();
        let device = self.map_addr(line);
        self.contents.put(device.as_u64(), data);
        // Remove a stale queued write so it cannot clobber this one.
        self.write_queue.discard(line);
        let done = self.array_write(device, now);
        self.rec.seg(now, done, CycleCategory::BankService);
        self.stats.line_writes += 1;
        self.heat(HeatLane::BankWrite, line);
        self.wear.record_line_write(device);
        done
    }

    /// Drains every queued write to the array (persist barrier / end of
    /// simulation), returning the instant the last write completes.
    pub fn flush(&mut self, now: Cycles) -> Cycles {
        let mut done = now;
        let drained = self.write_queue.drain_all();
        let mut remaining = drained.len();
        for w in drained {
            let device = self.map_addr(w.addr);
            let t = self.array_write(device, w.enqueued_at);
            // Only the tail of a drain that outlives the barrier's
            // issue time is attributable wait at the barrier.
            self.rec.seg(now, t, CycleCategory::BankService);
            self.stats.line_writes += 1;
            self.heat(HeatLane::BankWrite, w.addr);
            self.wear.record_line_write(device);
            remaining -= 1;
            if let Some(log) = self.rec.events_mut() {
                log.emit(Event {
                    cycle: now,
                    kind: EventKind::QueueDrain { addr: w.addr.as_u64(), depth: remaining as u32 },
                });
            }
            done = done.max(t);
        }
        done
    }

    /// Functional (un-timed, un-charged) line write. Models boot-time
    /// initialization (e.g. factory counter state), test setup and
    /// tampering; datapath writes go through [`NvmDevice::write_line`]
    /// or [`NvmDevice::write_line_durable`], which charge the access.
    pub fn poke_line(&mut self, addr: PhysAddr, data: [u8; LINE_BYTES]) {
        let device = self.map_addr(addr);
        self.contents.put(device.as_u64(), data);
    }

    /// Functional (un-timed) view of a line's current contents, queued
    /// writes included: the line store is the one record of what NVM
    /// holds, and the timed reads return the same bytes.
    pub fn peek_line(&self, addr: PhysAddr) -> [u8; LINE_BYTES] {
        let device = self.map_addr(addr);
        self.contents.get(device.as_u64()).unwrap_or([0; LINE_BYTES])
    }

    /// Whether the line containing `addr` was ever written, by any path
    /// (un-timed; a line never written reads as zero).
    pub fn holds_line(&self, addr: PhysAddr) -> bool {
        self.contents.get(self.map_addr(addr).as_u64()).is_some()
    }

    /// Device (post-leveling) address a logical line currently maps to
    /// (diagnostics; identity when leveling is off).
    pub fn device_addr_of(&self, addr: PhysAddr) -> PhysAddr {
        self.map_addr(addr)
    }

    /// Start-Gap leveling moves so far (0 when disabled).
    pub fn leveling_moves(&self) -> u64 {
        self.stats.leveling_moves
    }

    /// Pending writes in the queue (diagnostics).
    pub fn queued_writes(&self) -> usize {
        self.write_queue.len()
    }

    /// Number of distinct lines ever written (content-store footprint).
    pub fn resident_lines(&self) -> usize {
        self.contents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NvmDevice {
        NvmDevice::new(NvmConfig { write_queue_capacity: 4, ..NvmConfig::default() })
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mut d = dev();
        let (data, done) = d.read_line(PhysAddr::new(0x1000), Cycles::ZERO);
        assert_eq!(data, [0; 64]);
        assert_eq!(done, Cycles::new(60 + 4), "array read plus bus transfer");
        assert_eq!(d.stats().line_reads, 1);
    }

    #[test]
    fn write_then_read_forwards_from_queue() {
        let mut d = dev();
        d.write_line(PhysAddr::new(0x80), [3; 64], Cycles::ZERO);
        let (data, done) = d.read_line(PhysAddr::new(0x80), Cycles::new(10));
        assert_eq!(data, [3; 64]);
        assert_eq!(done, Cycles::new(11), "forwarded read is fast");
        assert_eq!(d.stats().forwarded_reads, 1);
        assert_eq!(d.stats().line_reads, 0);
    }

    #[test]
    fn queue_overflow_causes_array_writes() {
        let mut d = dev();
        for i in 0..4 {
            d.write_line(PhysAddr::new(i * 64), [i as u8; 64], Cycles::ZERO);
        }
        assert_eq!(d.stats().line_writes, 0);
        d.write_line(PhysAddr::new(4 * 64), [4; 64], Cycles::ZERO);
        assert_eq!(d.stats().line_writes, 1);
    }

    #[test]
    fn flush_drains_everything() {
        let mut d = dev();
        for i in 0..3 {
            d.write_line(PhysAddr::new(i * 64), [1; 64], Cycles::ZERO);
        }
        let done = d.flush(Cycles::new(100));
        assert_eq!(d.stats().line_writes, 3);
        assert!(done > Cycles::new(100));
        assert_eq!(d.wear().total_line_writes(), 3);
    }

    #[test]
    fn same_line_writes_merge() {
        let mut d = dev();
        for _ in 0..10 {
            d.write_line(PhysAddr::new(0x40), [7; 64], Cycles::ZERO);
        }
        d.flush(Cycles::ZERO);
        assert_eq!(d.stats().line_writes, 1, "merged writes hit the array once");
        assert_eq!(d.stats().merged_writes, 9);
    }

    #[test]
    fn row_buffer_hits_are_faster() {
        let mut d = NvmDevice::new(NvmConfig {
            line_interleave: false, // keep a 4 KB row on one bank
            ..NvmConfig::default()
        });
        let (_, t1) = d.read_line(PhysAddr::new(0x0), Cycles::ZERO);
        let (_, t2) = d.read_line(PhysAddr::new(0x40), t1);
        assert_eq!(t1, Cycles::new(64));
        assert_eq!(t2 - t1, Cycles::new(15 + 4), "row hit plus bus transfer");
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn banks_operate_in_parallel() {
        let mut d = NvmDevice::new(NvmConfig::default());
        // Consecutive lines interleave across banks: the array accesses
        // overlap fully; only the two 4-cycle bus transfers serialize.
        let (_, t1) = d.read_line(PhysAddr::new(0x0), Cycles::ZERO);
        let (_, t2) = d.read_line(PhysAddr::new(0x40), Cycles::ZERO);
        assert_eq!(t1, Cycles::new(64));
        assert_eq!(t2, Cycles::new(68), "second transfer queues behind the first");
    }

    #[test]
    fn bank_row_and_rank_match_the_division_formula() {
        // 3 ranks of 5 banks: the bank count is not a power of two.
        for line_interleave in [true, false] {
            let config = NvmConfig {
                ranks: 3,
                banks_per_rank: 5,
                row_buffer_bytes: 2048,
                line_interleave,
                ..NvmConfig::default()
            };
            let d = NvmDevice::new(config.clone());
            let lines = (0..40_000u64).chain((0..64).map(|i| (1 << 34) - 1 - i));
            for addr in lines.map(|l| PhysAddr::new(l * 64)) {
                let a = addr.as_u64();
                let unit = if line_interleave { a / 64 } else { a / config.row_buffer_bytes };
                let bank = (unit % config.total_banks() as u64) as usize;
                assert_eq!(d.bank_index(addr), bank, "{addr:?}");
                assert_eq!(a >> d.row_shift, a / config.row_buffer_bytes, "{addr:?}");
                assert_eq!(d.bank_rank[bank], bank / config.banks_per_rank, "{addr:?}");
            }
        }
    }

    #[test]
    fn peek_matches_write() {
        let mut d = dev();
        d.write_line(PhysAddr::new(0x123), [9; 64], Cycles::ZERO);
        assert_eq!(d.peek_line(PhysAddr::new(0x100)), [9; 64]);
        assert_eq!(d.resident_lines(), 1);
    }
}

#[cfg(test)]
mod leveling_tests {
    use super::*;
    use crate::start_gap::StartGapConfig;

    fn leveled(psi: u64) -> NvmDevice {
        NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            wear_leveling: Some(StartGapConfig { gap_write_interval: psi }),
            write_queue_capacity: 4,
            ..NvmConfig::default()
        })
    }

    #[test]
    fn contents_survive_gap_moves() {
        let mut d = leveled(3);
        // Write several lines, forcing drains and gap moves.
        for i in 0..64u64 {
            d.write_line(PhysAddr::new(i * 64), [i as u8; 64], Cycles::ZERO);
        }
        d.flush(Cycles::ZERO);
        assert!(d.leveling_moves() > 0, "gap must have moved");
        // Every logical line still reads back its own data.
        for i in 0..64u64 {
            let (data, _) = d.read_line(PhysAddr::new(i * 64), Cycles::ZERO);
            assert_eq!(data, [i as u8; 64], "line {i} corrupted by leveling");
        }
    }

    #[test]
    fn hammering_one_line_spreads_physical_wear() {
        // Start-Gap needs a full revolution (N·ψ writes) to migrate a
        // given line, so exercise a tiny device with an aggressive ψ.
        let run = |leveling: bool| {
            let mut d = NvmDevice::new(NvmConfig {
                capacity_bytes: 16 << 10, // 256 lines
                wear_leveling: leveling.then_some(StartGapConfig { gap_write_interval: 1 }),
                write_queue_capacity: 4,
                ..NvmConfig::default()
            });
            let home = d.device_addr_of(PhysAddr::new(0x40));
            let mut slots_visited = std::collections::HashSet::new();
            // 2000 durable writes to one logical line.
            for i in 0..2000u64 {
                d.write_line_durable(PhysAddr::new(0x40), [i as u8; 64], Cycles::ZERO);
                slots_visited.insert(d.device_addr_of(PhysAddr::new(0x40)));
            }
            d.flush(Cycles::ZERO);
            // The hammered line must still hold its last value.
            assert_eq!(d.peek_line(PhysAddr::new(0x40)), [(1999 % 256) as u8; 64]);
            (home, slots_visited.len(), d.wear().touched_regions())
        };
        let (home_plain, slots_plain, regions_plain) = run(false);
        let (_home, slots_leveled, regions_leveled) = run(true);
        assert_eq!(slots_plain, 1, "no leveling: the line never moves");
        // 2000 moves over 257 slots ≈ 7.8 revolutions: the hot line
        // migrated once per revolution.
        assert!(
            slots_leveled >= 7,
            "the hammered line must migrate each revolution: {slots_leveled}"
        );
        assert!(regions_leveled > regions_plain, "gap sweeps spread wear across regions");
        let _ = home_plain;
    }

    #[test]
    fn leveling_overhead_is_about_one_percent() {
        let mut d = leveled(100);
        for i in 0..5000u64 {
            d.write_line_durable(PhysAddr::new((i % 512) * 64), [1; 64], Cycles::ZERO);
        }
        let moves = d.leveling_moves();
        // ψ=100 ⇒ ~1 move per 100 writes.
        assert!((40..=60).contains(&moves), "moves {moves} out of expected band");
    }

    #[test]
    fn queued_lines_read_back_their_last_bytes_across_relocations() {
        use rand::{Rng, SeedableRng};
        // 256 lines leveled at ψ = 1 and a 4-entry queue: the gap
        // relocates lines, queued ones included, every few writes.
        let mut d = NvmDevice::new(NvmConfig {
            capacity_bytes: 16 << 10,
            wear_leveling: Some(StartGapConfig { gap_write_interval: 1 }),
            write_queue_capacity: 4,
            ..NvmConfig::default()
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51ab);
        let mut last = [[0u8; LINE_BYTES]; 12];
        // Device slot of each line at its latest write.
        let mut written_at = [PhysAddr::new(0); 12];
        let mut moved_forwards = 0;
        for step in 0..6000u64 {
            let line = rng.gen_range(0..last.len());
            let addr = PhysAddr::new(line as u64 * 64 + rng.gen_range(0..64));
            let now = Cycles::new(step * 10);
            let mut data = [rng.gen::<u8>(); LINE_BYTES];
            data[..8].copy_from_slice(&step.to_le_bytes());
            match rng.gen_range(0..10) {
                0..=3 => {
                    d.write_line(addr, data, now);
                }
                4..=5 => {
                    d.write_line_durable(addr, data, now);
                }
                _ => {
                    let forwarded = d.stats().forwarded_reads;
                    let (got, done) = d.read_line(addr, now);
                    assert_eq!(got, last[line], "line {line}, step {step}");
                    if d.stats().forwarded_reads > forwarded {
                        assert_eq!(done, now + Cycles::new(1), "forwarded at queue speed");
                        moved_forwards += (d.device_addr_of(addr) != written_at[line]) as u32;
                    }
                    continue;
                }
            }
            last[line] = data;
            written_at[line] = d.device_addr_of(addr);
        }
        let stats = d.stats();
        assert!(stats.merged_writes > 0 && stats.forwarded_reads > 0);
        assert!(moved_forwards > 0, "some forwarded line moved after its write");
        assert!(d.queued_writes() > 0);
        d.flush(Cycles::ZERO);
        for (line, want) in last.iter().enumerate() {
            assert_eq!(d.peek_line(PhysAddr::new(line as u64 * 64)), *want, "line {line}");
        }
    }

    #[test]
    fn peek_poke_respect_mapping() {
        let mut d = leveled(2);
        d.poke_line(PhysAddr::new(0x80), [9; 64]);
        assert_eq!(d.peek_line(PhysAddr::new(0x80)), [9; 64]);
        // Trigger some moves, then logical views must be stable.
        for i in 0..32u64 {
            d.write_line_durable(PhysAddr::new(0x1000 + i * 64), [i as u8; 64], Cycles::ZERO);
        }
        assert_eq!(d.peek_line(PhysAddr::new(0x80)), [9; 64]);
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;

    #[test]
    fn writes_cost_more_energy_than_reads() {
        let mut d = NvmDevice::new(NvmConfig { write_queue_capacity: 1, ..NvmConfig::default() });
        d.read_line(PhysAddr::new(0), Cycles::ZERO);
        let after_read = d.stats().energy_pj;
        d.write_line_durable(PhysAddr::new(64), [1; 64], Cycles::ZERO);
        let after_write = d.stats().energy_pj - after_read;
        assert_eq!(after_read, 1_000);
        assert_eq!(after_write, 12_000);
        assert!((d.stats().energy_mj() - 13e-6).abs() < 1e-12);
    }

    #[test]
    fn queued_writes_charge_energy_when_drained() {
        let mut d = NvmDevice::new(NvmConfig { write_queue_capacity: 8, ..NvmConfig::default() });
        for i in 0..4u64 {
            d.write_line(PhysAddr::new(i * 64), [1; 64], Cycles::ZERO);
        }
        assert_eq!(d.stats().energy_pj, 0, "no array access yet");
        d.flush(Cycles::ZERO);
        assert_eq!(d.stats().energy_pj, 4 * 12_000);
    }
}
