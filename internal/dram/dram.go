// Package dram models the GPU's GDDR5-style memory system: multiple
// independent channels, banks with open-row policy, and the timing
// constraints of Table V (tRRD, tRCD, tRAS, tRP, tRC, tCL). The model is a
// timing calculator: given a transaction's address and the cycle it becomes
// ready, it returns the cycle its data is available, advancing per-bank
// state. Values are not stored here — the mem package holds them.
package dram

import (
	"scord/internal/config"
	"scord/internal/mem"
)

type bank struct {
	openRow      int64  // -1 when precharged
	busyUntil    uint64 // data bus / bank occupancy
	lastActivate uint64 // for tRC between activates
	actEnd       uint64 // activate completion (for tRAS before precharge)
}

type channel struct {
	banks        []bank
	lastActivate uint64 // for tRRD across banks in a channel
}

// DRAM is the collection of channels. Not safe for concurrent use.
type DRAM struct {
	cfg        config.Config
	channels   []channel
	rowBytes   uint64
	accesses   uint64
	chAccesses []uint64 // per-channel transaction counts, indexed by channel
}

// New builds the DRAM model from the hardware configuration.
func New(cfg config.Config) *DRAM {
	d := &DRAM{
		cfg:        cfg,
		channels:   make([]channel, cfg.MemChannels),
		rowBytes:   2048,
		chAccesses: make([]uint64, cfg.MemChannels),
	}
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.BanksPerChan)
		for b := range d.channels[i].banks {
			d.channels[i].banks[b].openRow = -1
		}
	}
	return d
}

// mapAddr interleaves consecutive lines across channels, then banks.
func (d *DRAM) mapAddr(a mem.Addr) (ch, bk int, row int64) {
	lineSz := uint64(d.cfg.LineSize)
	lineNum := uint64(a) / lineSz
	ch = int(lineNum % uint64(d.cfg.MemChannels))
	perChan := lineNum / uint64(d.cfg.MemChannels)
	bk = int(perChan % uint64(d.cfg.BanksPerChan))
	perBank := perChan / uint64(d.cfg.BanksPerChan)
	row = int64(perBank * lineSz / d.rowBytes)
	return ch, bk, row
}

// Access schedules one line-sized transaction (read or writeback — the
// timing is symmetric in this model) that becomes ready at cycle ready.
// It returns the completion cycle.
func (d *DRAM) Access(a mem.Addr, ready uint64) uint64 {
	chIdx, bkIdx, row := d.mapAddr(a)
	c := &d.channels[chIdx]
	b := &c.banks[bkIdx]
	d.accesses++
	d.chAccesses[chIdx]++

	start := max64(ready, b.busyUntil)
	var dataAt uint64
	if b.openRow == row {
		// Row-buffer hit: CAS + burst.
		dataAt = start + uint64(d.cfg.TCL)
	} else {
		// Row miss: respect tRC since the previous activate on this bank
		// and tRRD since the last activate on this channel; precharge the
		// open row (after tRAS) then activate + CAS.
		actReady := start
		if b.openRow >= 0 {
			pre := max64(start, b.actEnd) // precharge no earlier than tRAS after activate
			actReady = pre + uint64(d.cfg.TRP)
		}
		actReady = max64(actReady, b.lastActivate+uint64(d.cfg.TRC))
		actReady = max64(actReady, c.lastActivate+uint64(d.cfg.TRRD))
		b.lastActivate = actReady
		c.lastActivate = actReady
		b.actEnd = actReady + uint64(d.cfg.TRAS)
		b.openRow = row
		dataAt = actReady + uint64(d.cfg.TRCD) + uint64(d.cfg.TCL)
	}
	done := dataAt + uint64(d.cfg.BurstCycles)
	b.busyUntil = done
	return done
}

// Accesses returns the number of transactions scheduled so far.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// ChannelAccesses copies the per-channel transaction counts (indexed by
// channel). The per-channel split shows which channels a workload loads —
// the cycle-domain sampler in internal/obs snapshots it every interval.
func (d *DRAM) ChannelAccesses() []uint64 {
	out := make([]uint64, len(d.chAccesses))
	copy(out, d.chAccesses)
	return out
}

// ChannelAccessesInto copies the per-channel counts into dst, which must
// have one element per channel. The allocation-free variant for callers
// that snapshot repeatedly.
func (d *DRAM) ChannelAccessesInto(dst []uint64) {
	copy(dst, d.chAccesses)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
