// Package config defines the hardware and detector configuration of the
// simulated GPU. The default values reproduce Table V of the ScoRD paper
// (ISCA 2020); the Low/High memory presets drive the Figure 11 sensitivity
// study.
package config

import "fmt"

// DetectorMode selects how per-word race metadata is stored.
type DetectorMode int

const (
	// ModeOff disables race detection entirely (the "no race detection"
	// baseline every figure normalizes against).
	ModeOff DetectorMode = iota
	// ModeFull4B is the paper's base design: one 8-byte metadata entry for
	// every 4-byte word of device memory (200% memory overhead), no
	// software caching.
	ModeFull4B
	// ModeCached is ScoRD: a direct-mapped software cache keeping one
	// metadata entry per MetaCacheRatio-th word, identified by a 4-bit tag
	// (12.5% memory overhead at the default ratio of 16).
	ModeCached
	// ModeGran8B tracks races at 8-byte granularity (one entry per two
	// words, 100% overhead). Used for the Table VII false-positive study.
	ModeGran8B
	// ModeGran16B tracks races at 16-byte granularity (one entry per four
	// words, 50% overhead). Used for the Table VII false-positive study.
	ModeGran16B
)

func (m DetectorMode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeFull4B:
		return "base-4B"
	case ModeCached:
		return "scord"
	case ModeGran8B:
		return "gran-8B"
	case ModeGran16B:
		return "gran-16B"
	default:
		return fmt.Sprintf("DetectorMode(%d)", int(m))
	}
}

// Detector holds the race-detector configuration (Section IV of the paper).
type Detector struct {
	Mode DetectorMode

	// MetaCacheRatio is the words-per-metadata-entry ratio of the software
	// cache in ModeCached. The paper's default keeps one entry for every
	// 16th 4-byte segment.
	MetaCacheRatio int

	// InboxSize bounds the detector's request buffer. L1 hits must also be
	// checked; when the inbox is full the L1 stalls (the "LHD" overhead of
	// Figure 10).
	InboxSize int

	// ChecksPerCycle is the detector's aggregate service rate. The
	// detection logic is replicated across the L2 slices it hangs off
	// (Figure 6); zero means "one per L2 bank".
	ChecksPerCycle int

	// ExtraPacketBytes is the additional payload (warp ID, block ID, fence
	// IDs, 16-bit lock bloom) each memory request carries to the detector
	// when detection is on (the "NOC" overhead of Figure 10).
	ExtraPacketBytes int

	// Timing attribution toggles for the Figure 10 breakdown. Each turns
	// off the *timing* cost of one overhead source while leaving detection
	// behaviour intact.
	DisableLHDTiming bool // L1-hit checks no longer occupy/stall
	DisableNOCTiming bool // request packets carry no extra bytes
	DisableMDTiming  bool // metadata reads/writes take zero time

	// ITS enables the Independent-Thread-Scheduling extension of Section
	// VI: metadata additionally records the accessing thread (lane) when a
	// warp has diverged, catching intra-warp races.
	ITS bool

	// AcqRel enables the explicit acquire/release extension of Section VI
	// (PTX 6.0): an acquire acts as a fence of its scope, and a release as
	// a fence followed by a releasing Exch. The section's release counter
	// and per-warp release file are not modelled, since no detection
	// condition reads them.
	AcqRel bool
}

// Config is the full hardware configuration of the simulated GPU.
// The zero value is not useful; start from Default().
type Config struct {
	// Execution hierarchy (Table V).
	NumSMs          int // streaming multiprocessors
	WarpSize        int // threads per warp
	MaxThreadsBlock int // max threads per block
	MaxBlocksPerSM  int // resident blocks per SM
	MaxWarpsPerSM   int // resident warps per SM

	// L1 data cache, private per SM.
	L1Size   int // bytes
	L1Assoc  int
	LineSize int // bytes, shared by L1 and L2
	L1HitLat int // cycles

	// L2 cache, shared.
	L2Size   int
	L2Assoc  int
	L2HitLat int
	L2Banks  int // independently schedulable L2 slices

	// Interconnect between SMs and L2.
	NOCLat        int // base one-way latency in cycles
	NOCBytesPerCy int // per-link bandwidth, bytes per cycle

	// DRAM (GDDR5-style timing, Table V).
	MemChannels  int
	BanksPerChan int
	TRRD         int
	TRCD         int
	TRAS         int
	TRP          int
	TRC          int
	TCL          int
	BurstCycles  int // cycles to stream one 128B line after CAS

	// Device memory arena available to programs, in bytes. Scaled down
	// from a real GPU so metadata arrays stay small; benchmarks allocate
	// well under this.
	DeviceMemBytes int

	// Seed drives every pseudo-random choice (inputs, graph generation) so
	// simulations are reproducible.
	Seed int64

	Detector Detector
}

// Default returns the paper's Table V configuration with ScoRD's default
// detector parameters.
func Default() Config {
	return Config{
		NumSMs:          15,
		WarpSize:        32,
		MaxThreadsBlock: 1024,
		MaxBlocksPerSM:  8,
		MaxWarpsPerSM:   32,

		L1Size:   16 * 1024,
		L1Assoc:  4,
		LineSize: 128,
		L1HitLat: 4,

		L2Size:   1536 * 1024,
		L2Assoc:  8,
		L2HitLat: 30,
		L2Banks:  12,

		NOCLat:        8,
		NOCBytesPerCy: 16,

		MemChannels:  12,
		BanksPerChan: 8,
		TRRD:         6,
		TRCD:         12,
		TRAS:         28,
		TRP:          12,
		TRC:          40,
		TCL:          12,
		BurstCycles:  4,

		// Scaled with the suite's inputs so that, as on a real board, hot
		// working sets exceed one sixteenth of device memory — the regime
		// in which ScoRD's 16:1 software metadata cache actually folds
		// addresses (and can in rare cases alias, Table VI).
		DeviceMemBytes: 2 * 1024 * 1024,
		Seed:           1,

		Detector: Detector{
			Mode:             ModeOff,
			MetaCacheRatio:   16,
			InboxSize:        12,
			ChecksPerCycle:   4,
			ExtraPacketBytes: 24,
		},
	}
}

// LowMemory returns the constrained memory-subsystem preset used by the
// left bars of Figure 11: a quarter of the L2 capacity and fewer DRAM
// channels — small enough that the suite working sets stop fitting.
func LowMemory() Config {
	c := Default()
	c.L2Size = 384 * 1024
	c.MemChannels = 8
	c.L2Banks = 8
	return c
}

// HighMemory returns the generous memory-subsystem preset used by the
// right bars of Figure 11: double the L2 capacity and more DRAM channels.
func HighMemory() Config {
	c := Default()
	c.L2Size = 3072 * 1024
	c.MemChannels = 16
	c.L2Banks = 16
	return c
}

// ParseMode maps the mode names shared by the CLIs and the serve API
// onto DetectorMode values.
func ParseMode(s string) (DetectorMode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "base":
		return ModeFull4B, nil
	case "scord":
		return ModeCached, nil
	case "gran8":
		return ModeGran8B, nil
	case "gran16":
		return ModeGran16B, nil
	}
	return 0, fmt.Errorf("unknown mode %q (off|base|scord|gran8|gran16)", s)
}

// WithDetector returns a copy of c with the detector mode set. All other
// detector parameters keep their existing values.
func (c Config) WithDetector(m DetectorMode) Config {
	c.Detector.Mode = m
	return c
}

// Validate reports configuration errors a Device cannot run with.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("config: NumSMs must be positive, got %d", c.NumSMs)
	case c.WarpSize <= 0:
		return fmt.Errorf("config: WarpSize must be positive, got %d", c.WarpSize)
	case c.MaxThreadsBlock%c.WarpSize != 0:
		return fmt.Errorf("config: MaxThreadsBlock %d not a multiple of WarpSize %d", c.MaxThreadsBlock, c.WarpSize)
	case c.LineSize <= 0 || c.LineSize%4 != 0:
		return fmt.Errorf("config: LineSize must be a positive multiple of 4, got %d", c.LineSize)
	case c.L1Assoc <= 0 || c.L2Assoc <= 0:
		return fmt.Errorf("config: cache associativities must be positive, got L1 %d, L2 %d", c.L1Assoc, c.L2Assoc)
	case c.L1Size%(c.LineSize*c.L1Assoc) != 0:
		return fmt.Errorf("config: L1Size %d not divisible by LineSize*Assoc %d", c.L1Size, c.LineSize*c.L1Assoc)
	case c.L2Size%(c.LineSize*c.L2Assoc) != 0:
		return fmt.Errorf("config: L2Size %d not divisible by LineSize*Assoc %d", c.L2Size, c.LineSize*c.L2Assoc)
	case c.MemChannels <= 0:
		return fmt.Errorf("config: MemChannels must be positive, got %d", c.MemChannels)
	case c.DeviceMemBytes <= 0 || c.DeviceMemBytes%c.LineSize != 0:
		return fmt.Errorf("config: DeviceMemBytes must be a positive multiple of LineSize, got %d", c.DeviceMemBytes)
	case c.Detector.Mode == ModeCached && c.Detector.MetaCacheRatio <= 0:
		return fmt.Errorf("config: MetaCacheRatio must be positive in ModeCached, got %d", c.Detector.MetaCacheRatio)
	}
	return nil
}
