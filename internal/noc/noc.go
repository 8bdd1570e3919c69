// Package noc models the interconnect between the SMs and the shared L2
// slices: per-SM injection links, per-L2-bank ejection links, and a fixed
// pipeline latency. Bandwidth is expressed in bytes per cycle per link;
// packets serialize on both endpoints, which is where the congestion in
// Figures 8 and 10 comes from — ScoRD enlarges every request packet and
// adds metadata traffic, and atomic-heavy irregular applications (1DC, the
// graph workloads) feel it most.
package noc

import "scord/internal/stats"

// Network tracks link occupancy. Port indices: SM-side ports are the SM
// ids; L2-side ports are bank ids. Each direction has its own links.
type Network struct {
	latency uint64
	bw      uint64 // bytes per cycle per link
	smInj   []Port
	smEj    []Port
	l2Inj   []Port
	l2Ej    []Port
	s       *stats.Stats
}

// New builds a network with the given one-way pipeline latency (cycles),
// per-link bandwidth (bytes/cycle), and port counts.
func New(latency, bytesPerCycle, numSM, numL2 int, s *stats.Stats) *Network {
	if bytesPerCycle <= 0 {
		panic("noc: bandwidth must be positive")
	}
	return &Network{
		latency: uint64(latency),
		bw:      uint64(bytesPerCycle),
		smInj:   make([]Port, numSM),
		smEj:    make([]Port, numSM),
		l2Inj:   make([]Port, numL2),
		l2Ej:    make([]Port, numL2),
		s:       s,
	}
}

func (n *Network) flits(bytes int) uint64 {
	f := (uint64(bytes) + n.bw - 1) / n.bw
	if f == 0 {
		f = 1
	}
	return f
}

func (n *Network) transfer(src, dst *Port, bytes int, ready uint64, extraBytes int) uint64 {
	f := n.flits(bytes + extraBytes)
	n.s.NOCFlits += f
	if extraBytes > 0 {
		n.s.NOCExtraFlits += n.flits(bytes+extraBytes) - n.flits(bytes)
	}
	start := src.Claim(ready, f)
	arrive := start + f + n.latency
	eStart := dst.Claim(arrive, f)
	return eStart + f
}

// ToL2 sends a packet from SM sm to L2 bank bank. extraBytes is the
// detector payload riding on the packet (0 when detection is off or NOC
// timing attribution is disabled). It returns the arrival cycle.
func (n *Network) ToL2(sm, bank, bytes int, ready uint64, extraBytes int) uint64 {
	return n.transfer(&n.smInj[sm], &n.l2Ej[bank], bytes, ready, extraBytes)
}

// FromL2 sends a response packet from L2 bank bank back to SM sm.
func (n *Network) FromL2(bank, sm, bytes int, ready uint64) uint64 {
	return n.transfer(&n.l2Inj[bank], &n.smEj[sm], bytes, ready, 0)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
