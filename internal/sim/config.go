// Package sim assembles the full simulated systems — cores, cache
// hierarchy, NoC, CALM policy, and memory backends (direct DDR or
// CXL-attached) — and runs the warmup/measure experiment loop. It is the
// paper's ChampSim+DRAMSim3 harness equivalent.
package sim

import (
	"fmt"

	"coaxial/internal/cache"
	"coaxial/internal/calm"
	"coaxial/internal/cxl"
	"coaxial/internal/dram"
	"coaxial/internal/noc"
)

// MemKind selects the memory attachment technology.
type MemKind uint8

const (
	// DirectDDR attaches DRAM channels over on-package DDR PHYs
	// (the baseline in Fig. 3a).
	DirectDDR MemKind = iota
	// CXLAttached replaces every DDR interface with CXL channels fronting
	// type-3 devices (Fig. 3b).
	CXLAttached
)

// Config describes one simulated system (Table III).
type Config struct {
	// Name labels the configuration in results ("ddr-baseline",
	// "coaxial-4x", ...).
	Name string

	// Cores is the simulated core count (12: the paper's scaled-down
	// 144-core/12-channel system at the same 12:1 core:MC ratio).
	Cores int
	// ActiveCores bounds how many cores execute work (Fig. 11 utilization
	// study); 0 means all.
	ActiveCores int

	Mesh noc.Mesh

	// L1/L2 are per-core private cache configurations.
	L1 cache.Config
	L2 cache.Config
	// LLCSliceBytes/LLCAssoc/LLCLatency configure the shared LLC (one
	// slice per core tile).
	LLCSliceBytes int
	LLCAssoc      int
	LLCLatency    int64

	// MSHRs bounds outstanding memory-line misses per core.
	MSHRs int
	// FillLatency is the pipeline latency of filling a returning line up
	// the hierarchy to the core.
	FillLatency int64

	Kind MemKind
	// Channels is the number of memory interfaces: DDR channels for
	// DirectDDR, CXL channels for CXLAttached.
	Channels int
	// DDR configures each DDR channel (direct or on the type-3 device).
	DDR dram.Config
	// CXL configures each CXL channel (CXLAttached only); CXL.DDR is
	// overwritten with the DDR field above for consistency.
	CXL cxl.ChannelConfig

	// CALM selects the concurrent LLC/memory access mechanism.
	CALM calm.Config
}

// Validate checks configuration invariants.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: config %q: cores must be >= 1", c.Name)
	}
	if c.Channels < 1 {
		return fmt.Errorf("sim: config %q: channels must be >= 1", c.Name)
	}
	if c.ActiveCores < 0 || c.ActiveCores > c.Cores {
		return fmt.Errorf("sim: config %q: active cores out of range", c.Name)
	}
	if c.LLCSliceBytes <= 0 || c.LLCAssoc <= 0 {
		return fmt.Errorf("sim: config %q: LLC geometry unset", c.Name)
	}
	if c.Kind == CXLAttached {
		// Out-of-envelope link parameters would not fail later: a zero
		// goodput serializes in one cycle (an infinitely fast link).
		// The negated comparisons reject NaN too.
		x := c.CXL
		switch {
		case x.DDRChannels < 1:
			return fmt.Errorf("sim: config %q: CXL device needs >= 1 DDR channel", c.Name)
		case x.IngressDepth < 1:
			return fmt.Errorf("sim: config %q: CXL ingress depth must be >= 1", c.Name)
		case !(x.Link.RXGoodputGBs > 0) || !(x.Link.TXGoodputGBs > 0):
			return fmt.Errorf("sim: config %q: CXL link goodput must be > 0 GB/s (rx %v, tx %v)",
				c.Name, x.Link.RXGoodputGBs, x.Link.TXGoodputGBs)
		case !(x.Link.PortNS >= 0):
			return fmt.Errorf("sim: config %q: CXL port latency must be >= 0 ns (got %v)", c.Name, x.Link.PortNS)
		case x.Link.ReqHeaderBytes < 1:
			return fmt.Errorf("sim: config %q: CXL request header must be >= 1 byte", c.Name)
		}
	}
	return nil
}

// active returns the number of executing cores.
func (c Config) active() int {
	if c.ActiveCores == 0 {
		return c.Cores
	}
	return c.ActiveCores
}

// Baseline returns the DDR-based baseline: 12 cores, 2 MB LLC/core, one
// DDR5-4800 channel (Table III, left column).
func Baseline() Config {
	return defaultSystem("ddr-baseline", DirectDDR, 1, 2<<20, calm.Config{Kind: calm.Off})
}

// Coaxial2x returns COAXIAL-2x: 2 CXL channels, full 2 MB LLC/core
// (iso-LLC, Table II).
func Coaxial2x() Config {
	return defaultSystem("coaxial-2x", CXLAttached, 2, 2<<20, calm.Default())
}

// Coaxial4x returns COAXIAL-4x, the paper's default COAXIAL: 4 CXL
// channels, LLC halved to 1 MB/core (balanced, Table II).
func Coaxial4x() Config {
	return defaultSystem("coaxial-4x", CXLAttached, 4, 1<<20, calm.Default())
}

// Coaxial5x returns COAXIAL-5x: 5 CXL channels at iso-pin (Table II; 17%
// extra die area).
func Coaxial5x() Config {
	return defaultSystem("coaxial-5x", CXLAttached, 5, 2<<20, calm.Default())
}

// CoaxialAsym returns COAXIAL-asym: 4 CXL-asym channels (20RX/12TX lanes),
// each fronting two DDR channels (§IV-D), LLC at 1 MB/core.
func CoaxialAsym() Config {
	c := defaultSystem("coaxial-asym", CXLAttached, 4, 1<<20, calm.Default())
	c.CXL.Link = cxl.AsymmetricX8()
	c.CXL.DDRChannels = 2
	return c
}

// CoaxialPooled returns a CXL-pooled rack configuration: 2 symmetric CXL
// channels, each fronting a two-DDR-channel type-3 pool device with a
// deeper ingress queue (the §VIII scalable-server direction, where several
// hosts share pooled devices and each host's share of the pool looks like
// fewer, fatter channels). LLC stays at 1 MB/core as in COAXIAL-4x.
func CoaxialPooled() Config {
	c := defaultSystem("coaxial-pooled", CXLAttached, 2, 1<<20, calm.Default())
	c.CXL.DDRChannels = 2
	c.CXL.IngressDepth = 128
	return c
}

// defaultSystem builds the shared Table III parameters.
func defaultSystem(name string, kind MemKind, channels int, llcPerCore int, cm calm.Config) Config {
	ddr := dram.DefaultConfig()
	return Config{
		Name:  name,
		Cores: 12,
		Mesh:  noc.Default12(),
		L1: cache.Config{
			SizeBytes:     32 << 10,
			Assoc:         8,
			LatencyCycles: 4,
		},
		L2: cache.Config{
			SizeBytes:     512 << 10,
			Assoc:         8,
			LatencyCycles: 8,
		},
		LLCSliceBytes: llcPerCore,
		LLCAssoc:      16,
		LLCLatency:    20,
		MSHRs:         16,
		FillLatency:   12,
		Kind:          kind,
		Channels:      channels,
		DDR:           ddr,
		CXL: cxl.ChannelConfig{
			Link:         cxl.SymmetricX8(),
			DDR:          ddr,
			DDRChannels:  1,
			IngressDepth: 64,
		},
		CALM: cm,
	}
}

// WithCALM returns a copy running a different CALM mechanism (Fig. 7).
func (c Config) WithCALM(cm calm.Config) Config {
	c.CALM = cm
	c.Name = c.Name + "+" + cm.Kind.String()
	return c
}

// WithActiveCores returns a copy with only n cores executing (Fig. 11).
func (c Config) WithActiveCores(n int) Config {
	c.ActiveCores = n
	c.Name = fmt.Sprintf("%s@%dc", c.Name, n)
	return c
}

// WithCXLPortNS returns a copy with a different CXL port latency: 12.5 ns
// per traversal is the paper's 50 ns premium, 17.5 ns the pessimistic
// 70 ns, and 2.5 ns the OMI-class 10 ns projection (Fig. 10, §VII).
func (c Config) WithCXLPortNS(ns float64) Config {
	c.CXL.Link = c.CXL.Link.WithPortNS(ns)
	c.Name = fmt.Sprintf("%s@%.1fns", c.Name, ns*4)
	return c
}
