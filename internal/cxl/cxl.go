// Package cxl models a CXL.mem channel: the processor- and device-side CXL
// port pipelines, the serial PCIe link with direction-dependent
// serialization delays and occupancy (queuing), and the type-3 device whose
// DDR controller(s) the requests terminate at.
//
// Latency model (paper §V): each of the four port traversals (CPU egress,
// device ingress, device egress, CPU ingress) costs 12.5 ns of flit
// packing, encoding/decoding and packet processing. The PCIe bus adds a
// serialization delay set by direction, bus width, and goodput: a 64B line
// is received (DRAM->CPU) in 2.5 ns on a symmetric x8 channel (26 GB/s
// goodput) and transmitted (CPU->DRAM) in 5.5 ns (13 GB/s goodput). The
// asymmetric 20RX/12TX variant receives in 2 ns (32 GB/s) and transmits in
// 9 ns (10 GB/s). Unloaded read adder: 4 x 12.5 + 2.5 = 52.5 ns.
package cxl

import (
	"coaxial/internal/clock"
	"coaxial/internal/dram"
	"coaxial/internal/memreq"
)

// LinkParams captures one CXL channel's interface timing and bandwidth.
type LinkParams struct {
	// Name identifies the configuration in reports.
	Name string
	// PortNS is the one-way latency of a single CXL port traversal in ns
	// (12.5 by default; the 70 ns sensitivity study uses 17.5; an
	// OMI-class 10 ns interface uses 2.5).
	PortNS float64
	// RXGoodputGBs is the DRAM->CPU goodput after header overheads.
	RXGoodputGBs float64
	// TXGoodputGBs is the CPU->DRAM goodput after header overheads.
	TXGoodputGBs float64
	// ReqHeaderBytes is the size of a read request message on the TX link.
	ReqHeaderBytes int
}

// SymmetricX8 returns the default x8 CXL channel: 32 pins, 16 per
// direction, 26/13 GB/s RX/TX goodput.
func SymmetricX8() LinkParams {
	return LinkParams{Name: "x8", PortNS: 12.5, RXGoodputGBs: 26, TXGoodputGBs: 13, ReqHeaderBytes: 8}
}

// AsymmetricX8 returns the CXL-asym channel (§IV-D): the same 32 pins
// repurposed as 20 RX and 12 TX, for 32/10 GB/s RX/TX goodput.
func AsymmetricX8() LinkParams {
	return LinkParams{Name: "x8-asym", PortNS: 12.5, RXGoodputGBs: 32, TXGoodputGBs: 10, ReqHeaderBytes: 8}
}

// WithPortNS returns a copy with a different per-traversal port latency,
// used by the latency sensitivity studies (50 ns premium = 12.5 ns/port,
// 70 ns = 17.5, OMI-class 10 ns = 2.5).
func (p LinkParams) WithPortNS(ns float64) LinkParams {
	p.PortNS = ns
	return p
}

// portCycles returns one port traversal in cycles.
func (p LinkParams) portCycles() int64 { return clock.Cycles(p.PortNS) }

// rxSerCycles returns the RX serialization of a 64B line.
func (p LinkParams) rxSerCycles() int64 {
	return clock.SerializationCycles(memreq.LineSize, p.RXGoodputGBs)
}

// txDataSerCycles returns the TX serialization of a 64B write.
func (p LinkParams) txDataSerCycles() int64 {
	return clock.SerializationCycles(memreq.LineSize, p.TXGoodputGBs)
}

// txReqSerCycles returns the TX serialization of a read request header.
func (p LinkParams) txReqSerCycles() int64 {
	return clock.SerializationCycles(p.ReqHeaderBytes, p.TXGoodputGBs)
}

// UnloadedReadAdderNS returns the minimum latency the channel adds to a
// read, for documentation and tests (52.5 ns for the default symmetric x8).
func (p LinkParams) UnloadedReadAdderNS() float64 {
	return 4*p.PortNS + clock.NS(p.rxSerCycles())
}

// ChannelConfig describes one CXL channel and its type-3 device.
type ChannelConfig struct {
	Link LinkParams
	// DDR configures each DDR channel on the type-3 device.
	DDR dram.Config
	// DDRChannels is the number of DDR channels behind this CXL channel
	// (1 for symmetric x8; 2 for CXL-asym, §IV-D).
	DDRChannels int
	// IngressDepth bounds requests accepted but not yet handed to the
	// device's DDR controllers (CXL controller message queues).
	IngressDepth int
}

// DefaultChannelConfig returns a symmetric x8 channel with one DDR5-4800
// channel on the device.
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{
		Link:         SymmetricX8(),
		DDR:          dram.DefaultConfig(),
		DDRChannels:  1,
		IngressDepth: 64,
	}
}

// Stats counts link-level activity.
type Stats struct {
	ReadsForwarded  uint64
	WritesForwarded uint64
	RespDelivered   uint64
	// RetryCycles accumulates cycles requests spent waiting at the device
	// for a DDR controller queue slot (backpressure).
	RetryCycles uint64
}

// waiting is a request stalled at the device ingress on DDR backpressure.
type waiting struct {
	req   *memreq.Request
	since int64 //lint:unit cycles
}

// Channel is a single host's CXL channel: one Port attached to a private
// PooledDevice that fronts the channel's own DDR controller(s). The link,
// ingress admission, stalled retry, and response path are the Port's and
// the device's (pooled.go); Channel only runs both halves in one Tick, so
// a sim.System can use it as an ordinary self-clocked memory backend.
// Every other backend method (Enqueue, Complete, counters, retired-write
// collection, Idle) is the Port's, promoted.
type Channel struct {
	*Port
}

// NewChannel builds a CXL channel. systemSubChannels densifies the DDR
// address decode as for direct channels. cfg must come from a validated
// sim.Config (IngressDepth and DDRChannels >= 1).
func NewChannel(cfg ChannelConfig, systemSubChannels int) *Channel {
	// One allocation holds the channel, its private device and its port
	// (and, for one DDR channel, the device's channel list).
	a := &struct {
		Channel
		dev   PooledDevice
		port  Port
		ports [1]*Port
		ddr   [1]*dram.Channel
	}{}
	a.dev.ddr, a.dev.ports = a.ddr[:0], a.ports[:0]
	a.dev.init(PooledDeviceConfig{DDR: cfg.DDR, DDRChannels: cfg.DDRChannels}, systemSubChannels)
	a.dev.attach(&a.port, cfg.Link, cfg.IngressDepth, 0)
	a.Port = &a.port
	return &a.Channel
}

// Tick implements memreq.Backend: the host half (deliver due responses,
// admit due ingress onto the TX link), then the device half (retry
// stalled requests, drain link arrivals into the DDR controllers, tick
// the DDR channels). Re-ticking an already-simulated cycle is a no-op so
// the event-driven loop can sync a lazily-skipped channel to the global
// clock before reading counters; the device half has no guard of its own.
func (c *Channel) Tick(now int64) {
	if now <= c.now {
		return
	}
	c.Port.Tick(now)
	c.dev.TickDevice(now)
}

// NextEvent implements memreq.Backend: the earlier of the port's next
// response delivery or ingress admission and the device's next link
// arrival or DDR event. Cycles skipped on that basis are provable no-ops
// for both halves (see Port.NextEvent and PooledDevice.NextEvent).
func (c *Channel) NextEvent(now int64) int64 {
	return min(c.Port.NextEvent(now), c.dev.NextEvent(now))
}

// DDR exposes the device's DDR channels (validation taps and tests).
func (c *Channel) DDR() []*dram.Channel { return c.dev.DDR() }

// ForEachPending visits every request currently inside the channel or its
// device: the port's queues plus the private device's DDR controllers. For
// validation walks; fn must not mutate the channel.
func (c *Channel) ForEachPending(fn func(*memreq.Request)) {
	c.Port.ForEachPending(fn)
	for _, d := range c.dev.ddr {
		d.ForEachPending(fn)
	}
}
