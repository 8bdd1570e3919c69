package gpu

import (
	"slices"

	"scord/internal/cache"
	"scord/internal/core"
	"scord/internal/mem"
)

// Fixed micro-architectural latencies not in config (minor constants).
const (
	blockFenceLat  = 10
	deviceFenceLat = 25
	barrierLat     = 6
	l2BankBusy     = 2 // cycles a bank is occupied per access
	pktHeader      = 8 // bytes of routing/command header per packet
)

// service handles warp c's request at the current cycle.
func (d *Device) service(c *Ctx) {
	d.active = c
	r := &c.req
	now := d.eng.Now()
	// The probe reads the simulated clock only and is detached (nil) by
	// default — the hot path pays one predictable branch and zero
	// allocations.
	if d.probe != nil {
		d.probe.Tick(now)
	}
	switch r.kind {
	case reqExit:
		d.warpExit(c)

	case reqWork:
		d.st.Instructions++
		d.sms[c.block.sm].ctr.Instructions++
		d.ph.Issue += r.cycles
		d.eng.At(now+r.cycles, c.resumeEvent)

	case reqFence:
		d.st.Instructions++
		d.st.Fences++
		sm := d.sms[c.block.sm]
		sm.ctr.Instructions++
		lat := uint64(blockFenceLat)
		if r.scope == ScopeDevice {
			// HRF operational semantics: a device-scope fence makes the
			// SM's weak stores globally visible and discards possibly
			// stale lines, so subsequent loads refetch.
			lat = deviceFenceLat
			flushed := sm.l1.FlushAllWith(d.mem, func(base mem.Addr) {
				d.l2Access(base, now, false, true)
			})
			lat += 2 * uint64(flushed)
		}
		if d.det != nil {
			d.det.OnFence(c.Block, c.Warp, r.scope)
		}
		if d.sink != nil {
			d.sink.Fence(c.Block, c.Warp, r.scope, now, false)
		}
		d.ph.Fence += lat
		d.eng.At(now+lat, c.resumeEvent)

	case reqBarrier:
		d.st.Instructions++
		d.st.Barriers++
		d.sms[c.block.sm].ctr.Instructions++
		bs := c.block
		bs.waiting = append(bs.waiting, c)
		if len(bs.waiting) == bs.live {
			d.releaseBarrier(bs)
		}

	case reqMem:
		d.eng.At(d.serviceMem(c, &r.mem), c.resumeEvent)
	}
}

func (d *Device) warpExit(c *Ctx) {
	d.liveWarps--
	bs := c.block
	bs.live--
	switch {
	case bs.live == 0:
		d.blockDone(bs)
	case len(bs.waiting) == bs.live && bs.live > 0:
		// Remaining warps are all parked at a barrier the exited warps
		// will never reach; release them (the CUDA early-return idiom).
		d.releaseBarrier(bs)
	}
}

// releaseBarrier advances the block's barrier ID and resumes every parked
// warp. A barrier also acts as a block-scope fence for each participant.
func (d *Device) releaseBarrier(bs *blockState) {
	bs.barrierID++
	warps := bs.waiting
	slices.SortFunc(warps, func(a, b *Ctx) int { return a.Warp - b.Warp })
	if d.det != nil {
		for _, w := range warps {
			d.det.OnFence(w.Block, w.Warp, ScopeBlock)
		}
	}
	if d.sink != nil {
		// The marker precedes the per-warp implicit fences, mirroring the
		// calls the detector just received.
		d.sink.Barrier(bs.id, bs.barrierID, len(warps), d.eng.Now())
		for _, w := range warps {
			d.sink.Fence(w.Block, w.Warp, ScopeBlock, d.eng.Now(), true)
		}
	}
	at := d.eng.Now() + barrierLat
	d.ph.Barrier += uint64(barrierLat) * uint64(len(warps))
	for _, w := range warps {
		d.eng.At(at, w.resumeEvent)
	}
	bs.waiting = warps[:0]
}

// l2Access charges one L2 lookup (and DRAM on a miss) for the line holding
// a, becoming ready at the given cycle. meta marks race-metadata traffic;
// write dirties the line. It returns the completion cycle.
func (d *Device) l2Access(a mem.Addr, ready uint64, meta, write bool) uint64 {
	line := d.l2.LineBase(a)
	bank := d.bankOf(line)
	start := d.l2Ports[bank].Claim(ready, l2BankBusy)

	hit, ev := d.l2.Access(line)
	if meta {
		d.st.L2MetaAccesses++
	} else {
		d.st.L2DataAccesses++
	}
	done := start + uint64(d.cfg.L2HitLat)
	l2Part := done - ready // bank contention + hit latency
	var dramPart uint64
	if !hit {
		if meta {
			d.st.L2MetaMisses++
			d.st.DRAMMetaAccesses++
		} else {
			d.st.L2DataMisses++
			d.st.DRAMDataAccesses++
		}
		pre := done
		done = d.dram.Access(line, done)
		dramPart = done - pre
		if ev.Valid && ev.Dirty {
			// Write back the displaced dirty line, off the critical path.
			if uint64(ev.Base) >= d.metaBase() {
				d.st.DRAMMetaAccesses++
			} else {
				d.st.DRAMDataAccesses++
			}
			d.dram.Access(ev.Base, done)
		}
	}
	if write {
		d.l2.MarkDirty(line)
	}
	if meta {
		// Metadata traffic is detector overhead wholesale, wherever it is
		// served from.
		d.ph.DetectorMeta += l2Part + dramPart
	} else {
		d.ph.L2 += l2Part
		d.ph.DRAM += dramPart
	}
	return done
}

func (d *Device) metaBase() uint64 { return uint64(d.cfg.DeviceMemBytes) }

// transaction is one coalesced per-line access of a vector memory op.
type transaction struct {
	line mem.Addr
	idxs []int // indices into the op's lane arrays
}

// coalesce groups the lanes of addrs into one transaction per cache line,
// in order of each line's first lane, with every transaction's lanes in
// lane order. The result lives in the device's scratch slices.
func (d *Device) coalesce(addrs []mem.Addr) []transaction {
	mask := ^mem.Addr(d.cfg.LineSize - 1)
	txs := d.txBuf[:0]
	for _, a := range addrs {
		line := a & mask
		found := false
		for t := range txs {
			if txs[t].line == line {
				found = true
				break
			}
		}
		if !found {
			txs = append(txs, transaction{line: line})
		}
	}
	// Every lane lands in exactly one transaction, so the appends below
	// stay within laneBuf's capacity and never move the idxs slices.
	if cap(d.laneBuf) < len(addrs) {
		d.laneBuf = make([]int, 0, len(addrs))
	}
	idxs := d.laneBuf[:0]
	for t := range txs {
		start := len(idxs)
		for i, a := range addrs {
			if a&mask == txs[t].line {
				idxs = append(idxs, i)
			}
		}
		txs[t].idxs = idxs[start:]
	}
	d.txBuf = txs
	return txs
}

// serviceMem executes one warp-level memory operation: functional effects
// under the HRF visibility model happen at issue, race checks are
// presented to the detector in issue order, and timing flows through the
// L1/NOC/L2/DRAM stack. It returns the cycle the warp may resume.
func (d *Device) serviceMem(c *Ctx, op *memOp) uint64 {
	sm := d.sms[c.block.sm]
	now := d.eng.Now()
	d.st.Instructions++
	d.st.MemOps++
	sm.ctr.Instructions++
	sm.ctr.MemOps++
	if op.kind == core.KindAtomic {
		d.st.Atomics++
	}

	txs := d.coalesce(op.addrs)

	detOn := d.det != nil
	extra := 0
	if detOn && !d.cfg.Detector.DisableNOCTiming {
		extra = d.cfg.Detector.ExtraPacketBytes
	}

	// Strong operations and device-scope atomics bypass the L1 and act at
	// the shared L2 level; weak accesses and block-scope atomics act on
	// the SM-local L1.
	bypass := op.volatile
	if op.kind == core.KindAtomic {
		bypass = op.scope == ScopeDevice
	}

	finish := now
	for ti := range txs {
		tx := &txs[ti]
		issue := max64(now, sm.lsuFree)
		sm.lsuFree = issue + 1

		// L1 residency first (functional fill on a miss), so functional
		// execution and timing agree on hit/miss.
		l1Hit := false
		if !bypass {
			l1Hit = sm.l1.Contains(tx.line)
			if !l1Hit {
				_, ev := sm.l1.Access(tx.line)
				if ev.Valid && ev.Dirty {
					cache.WritebackWords(ev, d.mem)
					d.l2Access(ev.Base, issue, false, true)
				}
				sm.l1.FillFrom(tx.line, d.mem)
			}
		}

		// Functional execution and detector checks, in lane order.
		metaLines := d.metaLines[:0]
		for _, i := range tx.idxs {
			a := op.addrs[i]
			if detOn && op.atomicOp == core.AtomicRelease {
				// The release pattern's fence precedes its atomic write,
				// so the metadata must record the post-fence IDs.
				d.det.OnAtomicOp(c.Block, c.Warp, core.AtomicRelease, uint64(a), op.scope)
			}
			d.execWord(sm, op, i, a)
			if !detOn && d.sink == nil {
				continue
			}
			access := core.Access{
				Kind:     op.kind,
				Scope:    op.scope,
				Strong:   op.volatile || op.kind == core.KindAtomic,
				Addr:     uint64(a),
				Block:    c.Block,
				Warp:     c.Warp,
				Barrier:  c.block.barrierID,
				Site:     c.site,
				Cycle:    issue,
				Lane:     c.lane,
				Diverged: c.diverged,
			}
			if d.sink != nil {
				// One record per lane carries (Access, AtomicOp); each replay
				// target reconstructs its exact call sequence from it,
				// including ScoRD's release-before-check rule.
				d.sink.Access(access, op.atomicOp, 4)
			}
			if detOn {
				res := d.det.CheckAccess(access)
				ml := mem.Addr(res.MetaAddr) &^ mem.Addr(d.cfg.LineSize-1)
				if len(metaLines) == 0 || metaLines[len(metaLines)-1] != ml {
					metaLines = append(metaLines, ml)
				}
				if op.atomicOp != core.AtomicRelease {
					d.det.OnAtomicOp(c.Block, c.Warp, op.atomicOp, uint64(a), op.scope)
				}
			}
		}
		d.metaLines = metaLines

		// Timing.
		words := len(tx.idxs)
		var txDone, checkArrive uint64
		isWrite := op.kind != core.KindLoad
		bank := d.bankOf(tx.line)
		switch {
		case bypass:
			reqBytes := pktHeader
			if isWrite {
				reqBytes += words * 4
			}
			arrive := d.net.ToL2(sm.id, bank, reqBytes, issue, extra)
			l2done := d.l2Access(tx.line, arrive, false, isWrite)
			respBytes := pktHeader
			if !isWrite || op.kind == core.KindAtomic {
				respBytes += words * 4
			}
			txDone = d.net.FromL2(bank, sm.id, respBytes, l2done)
			d.ph.NOC += (arrive - issue) + (txDone - l2done)
			checkArrive = arrive

		case l1Hit:
			d.st.L1Accesses++
			d.st.L1Hits++
			sm.ctr.L1Accesses++
			sm.ctr.L1Hits++
			txDone = issue + uint64(d.cfg.L1HitLat)
			d.ph.L1 += uint64(d.cfg.L1HitLat)
			checkArrive = txDone
			if detOn && !d.cfg.Detector.DisableNOCTiming {
				// Even an L1 hit sends a check packet to the detector
				// behind the L2 interconnect (Figure 6).
				checkArrive = d.net.ToL2(sm.id, bank, pktHeader, issue, extra)
				d.ph.DetectorMeta += checkArrive - issue
			}

		default: // L1 miss: fetch the line
			d.st.L1Accesses++
			sm.ctr.L1Accesses++
			probeDone := issue + uint64(d.cfg.L1HitLat)
			arrive := d.net.ToL2(sm.id, bank, pktHeader, probeDone, extra)
			l2done := d.l2Access(tx.line, arrive, false, false)
			txDone = d.net.FromL2(bank, sm.id, pktHeader+d.cfg.LineSize, l2done)
			d.ph.L1 += probeDone - issue
			d.ph.NOC += (arrive - probeDone) + (txDone - l2done)
			checkArrive = arrive
		}

		if detOn {
			stall := d.detectorCheck(checkArrive, metaLines)
			if !bypass && l1Hit && stall > 0 && !d.cfg.Detector.DisableLHDTiming {
				// An L1 hit may not retire while the detector inbox is
				// full — the LHD overhead of Figure 10.
				d.st.DetectorStalls += stall
				sm.ctr.DetectorStalls += stall
				d.ph.DetectorStall += stall
				txDone += stall
			}
		}
		if txDone > finish {
			finish = txDone
		}
	}
	return finish
}

// detectorCheck models the detector unit's occupancy — ChecksPerCycle
// checks per cycle, a bounded inbox, and metadata traffic through the
// L2 — and returns how many cycles the inbox was over-full at arrival.
func (d *Device) detectorCheck(arrive uint64, metaLines []mem.Addr) (stall uint64) {
	rate := uint64(d.cfg.Detector.ChecksPerCycle)
	if rate == 0 {
		rate = uint64(d.cfg.L2Banks) // detection logic replicated per L2 slice
	}
	// Bounded-slack work-conserving server, in check-slot units (one slot
	// = 1/rate cycle): backlog builds under sustained overload, while
	// out-of-order early arrivals absorb only tracked idle capacity.
	start := d.detPort.Claim(arrive*rate, 1) / rate
	queued := start - arrive
	if queued > uint64(d.cfg.Detector.InboxSize) {
		stall = queued - uint64(d.cfg.Detector.InboxSize)
	}
	if !d.cfg.Detector.DisableMDTiming {
		t := start
		for _, ml := range metaLines {
			// A one-line latch in the metadata accessor merges charges for
			// back-to-back checks hitting the same metadata line (the
			// common case for coalesced accesses and the 16:1 cache).
			if ml == d.metaLatchLine && start-d.metaLatchAt <= 16 {
				continue
			}
			t = d.l2Access(ml, t, true, true)
			d.metaLatchLine, d.metaLatchAt = ml, start
		}
	}
	return stall
}

// execWord applies the functional effect of one lane's access under the
// HRF visibility model. Lines touched by weak accesses or block-scope
// atomics are already resident in the SM's L1.
func (d *Device) execWord(sm *smState, op *memOp, i int, a mem.Addr) {
	switch op.kind {
	case core.KindLoad:
		if op.volatile {
			// Strong load: reads the global value, except that the SM's
			// own pending weak stores (dirty words) forward locally.
			if v, dirty, ok := sm.l1.DirtyWord(a); ok && dirty {
				op.out[i] = v
			} else {
				op.out[i] = d.mem.Read(a)
			}
		} else {
			op.out[i] = sm.l1.ReadWord(a)
		}

	case core.KindStore:
		if op.volatile {
			d.mem.Write(a, op.vals[i])
			sm.l1.UpdateWordIfPresent(a, op.vals[i])
		} else {
			sm.l1.WriteWord(a, op.vals[i])
		}

	case core.KindAtomic:
		if op.scope == ScopeBlock {
			// Block-scope atomics take effect on the SM-local L1 copy:
			// visible within the SM, invisible to other SMs until a
			// device fence or eviction — the root of scoped-atomic races.
			old := sm.l1.ReadWord(a)
			sm.l1.WriteWord(a, d.applyAtomic(op, i, old))
			op.out[i] = old
		} else {
			old := d.mem.Read(a)
			d.mem.Write(a, d.applyAtomic(op, i, old))
			sm.l1.UpdateWordIfPresent(a, d.mem.Read(a))
			op.out[i] = old
		}
	}
}

func (d *Device) applyAtomic(op *memOp, i int, old uint32) uint32 {
	switch op.atomicOp {
	case core.AtomicCAS:
		if old == op.cmps[i] {
			return op.vals[i]
		}
		return old
	case core.AtomicExch, core.AtomicRelease:
		return op.vals[i]
	case core.AtomicMaxOp:
		if op.vals[i] > old {
			return op.vals[i]
		}
		return old
	case core.AtomicAcquire:
		return old // acquire reads the sync variable
	default: // AtomicOther = add
		return old + op.vals[i]
	}
}

func (d *Device) bankOf(line mem.Addr) int {
	// XOR-folded bank hashing, as in real L2 slice selectors: strided
	// streams (e.g. the metadata region, which advances two lines per data
	// line) spread over all banks instead of aliasing onto a subset.
	n := uint64(line) / uint64(d.cfg.LineSize)
	n ^= n >> 4
	n ^= n >> 9
	return int(n % uint64(d.cfg.L2Banks))
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
