package config

import "testing"

func TestDefaultMatchesTableV(t *testing.T) {
	c := Default()
	// The headline parameters of the paper's Table V.
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"SMs", c.NumSMs, 15},
		{"warp size", c.WarpSize, 32},
		{"max threads/block", c.MaxThreadsBlock, 1024},
		{"blocks/SM", c.MaxBlocksPerSM, 8},
		{"warps/SM", c.MaxWarpsPerSM, 32},
		{"L1 size", c.L1Size, 16 * 1024},
		{"L1 assoc", c.L1Assoc, 4},
		{"line size", c.LineSize, 128},
		{"L2 size", c.L2Size, 1536 * 1024},
		{"L2 assoc", c.L2Assoc, 8},
		{"channels", c.MemChannels, 12},
		{"tRRD", c.TRRD, 6},
		{"tRCD", c.TRCD, 12},
		{"tRAS", c.TRAS, 28},
		{"tRP", c.TRP, 12},
		{"tRC", c.TRC, 40},
		{"tCL", c.TCL, 12},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d (Table V)", ch.name, ch.got, ch.want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.WarpSize = -1 },
		func(c *Config) { c.MaxThreadsBlock = 100 },
		func(c *Config) { c.LineSize = 100 },
		func(c *Config) { c.L1Size = 777 },
		func(c *Config) { c.L1Assoc = 0 },
		func(c *Config) { c.L2Assoc = 0 },
		func(c *Config) { c.L2Size = 777 },
		func(c *Config) { c.MemChannels = 0 },
		func(c *Config) { c.DeviceMemBytes = 100 },
		func(c *Config) {
			c.Detector.Mode = ModeCached
			c.Detector.MetaCacheRatio = 0
		},
	}
	for i, mut := range bad {
		c := Default()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestWithDetectorIsValueCopy(t *testing.T) {
	c := Default()
	c2 := c.WithDetector(ModeCached)
	if c.Detector.Mode != ModeOff || c2.Detector.Mode != ModeCached {
		t.Fatal("WithDetector mutated the receiver or failed to set")
	}
}

func TestModeStrings(t *testing.T) {
	want := map[DetectorMode]string{
		ModeOff: "off", ModeFull4B: "base-4B", ModeCached: "scord",
		ModeGran8B: "gran-8B", ModeGran16B: "gran-16B",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

func TestMemoryPresetsOrdered(t *testing.T) {
	low, def, high := LowMemory(), Default(), HighMemory()
	if !(low.L2Size < def.L2Size && def.L2Size < high.L2Size) ||
		!(low.MemChannels < def.MemChannels && def.MemChannels < high.MemChannels) {
		t.Fatal("Figure 11 presets not ordered")
	}
}
