package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"coaxial"
)

// digest fingerprints every field of a simulated result. JSON encodes
// each float with the shortest representation that round-trips, so equal
// digests mean bit-identical results, and a result decoded from the
// service's wire format digests like the original.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// digestSet holds the first digest seen for each point of a run. Every
// later result of the same point must match it: the simulator is
// deterministic, so any difference is a defect.
type digestSet map[string]string

// check records d as label's digest, or compares it with the one
// recorded.
func (s digestSet) check(label, d string) error {
	prev, ok := s[label]
	if !ok {
		s[label] = d
		return nil
	}
	if prev != d {
		return fmt.Errorf("%s: result digest %s differs from %s of an earlier run of the same point", label, d, prev)
	}
	return nil
}

// checkValidated is the gate on a validated run: the validation harness
// must report no violation, and the result must equal the unvalidated
// runs of the same point.
func checkValidated(s digestSet, label, d string, err error) error {
	var verr *coaxial.ValidationError
	if errors.As(err, &verr) {
		return fmt.Errorf("%s: validation harness: %w", label, err)
	}
	if err != nil {
		return fmt.Errorf("%s: validated run: %w", label, err)
	}
	if s[label] == "" {
		return fmt.Errorf("%s: no unvalidated result to compare the validated one with", label)
	}
	if s[label] != d {
		return fmt.Errorf("%s: validated result digest %s differs from unvalidated %s", label, d, s[label])
	}
	return nil
}

// simCounts accumulates the exact per-layer counters of simulated
// results.
type simCounts struct {
	points             int
	retired            uint64
	cycles             int64
	llcMPKI            float64
	queueNS, util, cxl float64
	calmed, truePos    uint64
	rowHits, rowMisses uint64
	rackPoints         int
	devP99, fairness   float64
}

func (c *simCounts) add(r coaxial.Result) {
	c.points++
	c.retired += r.Retired
	c.cycles += r.Cycles
	c.llcMPKI += r.LLCMPKI
	c.queueNS += r.QueueNS
	c.util += r.Utilization
	c.cxl += r.CXLNS
	c.calmed += r.CALM.CALMed
	c.truePos += r.CALM.TruePos
	c.rowHits += r.DRAM.RowHits
	c.rowMisses += r.DRAM.RowMisses
}

// addRack counts a rack result: its host summary, plus the DRAM activity
// and queueing tails of the shared pool devices and the hosts' fairness.
func (c *simCounts) addRack(rr coaxial.RackResult) {
	c.add(rr.Summary())
	c.rackPoints++
	c.fairness += rr.FairnessIndex
	p99 := 0.0
	for _, d := range rr.Devices {
		c.rowHits += d.DRAM.RowHits
		c.rowMisses += d.DRAM.RowMisses
		p99 = max(p99, d.QueueP99NS)
	}
	c.devP99 += p99
}

// report sets the count metrics: per-point means of the simulated
// figures and pooled ratios. hostNS is the host time the points took.
func (c *simCounts) report(r *report, hostNS float64) {
	n := float64(max(c.points, 1))
	r.set("cpu.retired", float64(c.retired)/n)
	r.set("sim.cycles", float64(c.cycles)/n)
	r.set("sim.host_ns_per_cycle", ratio(hostNS, float64(c.cycles)))
	r.set("cache.llc_mpki", c.llcMPKI/n)
	r.set("calm.useful_ratio", ratio(float64(c.truePos), float64(c.calmed)))
	r.set("dram.row_hit_ratio", ratio(float64(c.rowHits), float64(c.rowHits+c.rowMisses)))
	r.set("dram.queue_ns", c.queueNS/n)
	r.set("dram.utilization", c.util/n)
	r.set("cxl.port_ns", c.cxl/n)
	rn := float64(max(c.rackPoints, 1))
	r.set("rack.device_queue_p99_ns", c.devP99/rn)
	r.set("rack.fairness", c.fairness/rn)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
