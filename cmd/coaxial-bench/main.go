// Command coaxial-bench turns `go test -bench` output into the repo's
// BENCH_pr<N>.json snapshot format, and checks fresh benchmark output
// against a checked-in snapshot for CI's perf-smoke gate.
//
// Emit a snapshot (benchmarks repeated via -count keep their fastest run):
//
//	go test -run '^$' -bench . -benchtime 5x -count 2 . |
//	    coaxial-bench -pr 6 -baseline BENCH_pr2.json -note "..." > BENCH_pr6.json
//
// Gate on regression (fails when any benchmark present in both the fresh
// output and the snapshot is more than -factor times slower):
//
//	go test -run '^$' -bench 'BenchmarkRunWindowLoaded$' -benchtime 3x . |
//	    coaxial-bench -check BENCH_pr6.json -factor 2
//
// When the bench run used -benchmem, allocs/op and B/op are recorded in
// the snapshot (allocs_per_op, bytes_per_op) and the check mode
// additionally fails on more than -alloc-factor growth in allocations per
// op — the cheap CI proxy for the zero-alloc hot-path discipline
// alloccheck enforces statically.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"time"
)

// benchLine matches a testing benchmark result row, with the optional
// -benchmem columns:
// BenchmarkName/sub-8  5  248123456 ns/op  [1024 B/op  12 allocs/op]
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9]+) allocs/op)?`)

// benchMetrics are the per-benchmark figures parseBench collects.
type benchMetrics struct {
	ns, allocs, bytes map[string]float64
}

// parseBench reads `go test -bench` output, returning ns/op per benchmark
// name (GOMAXPROCS suffix stripped) and, when the run used -benchmem,
// allocs/op and B/op. Repeated names (-count > 1) keep the minimum of
// each metric independently: the fastest run is the least noise-polluted
// time estimate, and the smallest allocation figures are the steady-state
// floor (warm-up runs can only allocate more).
func parseBench(f *os.File) (benchMetrics, error) {
	out := make(map[string]float64)
	allocs := make(map[string]float64)
	bytes := make(map[string]float64)
	keepMin := func(m map[string]float64, name, field, line string) error {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return fmt.Errorf("bad figure %q in %q: %w", field, line, err)
		}
		if prev, ok := m[name]; !ok || v < prev {
			m[name] = v
		}
		return nil
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if err := keepMin(out, m[1], m[2], line); err != nil {
			return benchMetrics{}, err
		}
		if m[3] != "" {
			if err := keepMin(bytes, m[1], m[3], line); err != nil {
				return benchMetrics{}, err
			}
			if err := keepMin(allocs, m[1], m[4], line); err != nil {
				return benchMetrics{}, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return benchMetrics{}, err
	}
	if len(out) == 0 {
		return benchMetrics{}, fmt.Errorf("no benchmark results on stdin")
	}
	return benchMetrics{ns: out, allocs: allocs, bytes: bytes}, nil
}

// snapshot is the subset of the BENCH_pr<N>.json schema both modes need.
// Allocs is absent from snapshots cut before -benchmem was added; the
// check mode then skips the allocation gate.
type snapshot struct {
	PR         int                `json:"pr"`
	Benchmarks map[string]float64 `json:"benchmarks"`
	Allocs     map[string]float64 `json:"allocs_per_op,omitempty"`
}

func readSnapshot(path string) (snapshot, error) {
	var s snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func main() {
	var (
		pr          = flag.Int("pr", 0, "PR number for the emitted snapshot")
		note        = flag.String("note", "", "free-form note recorded in the snapshot")
		baseline    = flag.String("baseline", "", "prior BENCH_pr<N>.json to record baselines and speedups against")
		check       = flag.String("check", "", "check mode: snapshot to compare stdin against instead of emitting")
		factor      = flag.Float64("factor", 2.0, "check mode: maximum allowed slowdown vs the snapshot")
		allocFactor = flag.Float64("alloc-factor", 2.0, "check mode: maximum allowed allocs/op growth vs the snapshot (needs -benchmem on both sides)")
	)
	flag.Parse()

	bm, err := parseBench(os.Stdin)
	if err != nil {
		fail(err)
	}
	cur, curAllocs := bm.ns, bm.allocs

	if *check != "" {
		snap, err := readSnapshot(*check)
		if err != nil {
			fail(err)
		}
		compared, failed := 0, 0
		for name, ref := range snap.Benchmarks {
			got, ok := cur[name]
			if !ok {
				continue
			}
			compared++
			ratio := got / ref
			status := "ok"
			if ratio > *factor {
				status = "REGRESSION"
				failed++
			}
			fmt.Printf("%-50s %12.0f -> %12.0f ns/op (%.2fx) %s\n", name, ref, got, ratio, status)
			// Allocation gate: only when both the snapshot and the fresh
			// run carry allocs/op for this benchmark. A zero-alloc
			// reference tolerates a small absolute drift instead of an
			// infinite ratio.
			refA, okRef := snap.Allocs[name]
			gotA, okGot := curAllocs[name]
			if !okRef || !okGot {
				continue
			}
			aStatus := "ok"
			if (refA == 0 && gotA > 8) || (refA > 0 && gotA/refA > *allocFactor) {
				aStatus = "ALLOC REGRESSION"
				failed++
			}
			fmt.Printf("%-50s %12.0f -> %12.0f allocs/op %s\n", name, refA, gotA, aStatus)
		}
		if compared == 0 {
			fail(fmt.Errorf("no benchmark in stdin matches any name in %s (renamed benchmarks silently skip the gate)", *check))
		}
		if failed > 0 {
			fail(fmt.Errorf("%d gate(s) regressed beyond %.1fx time / %.1fx allocs vs %s", failed, *factor, *allocFactor, *check))
		}
		fmt.Printf("%d benchmarks within %.1fx of %s\n", compared, *factor, *check)
		return
	}

	doc := map[string]any{
		"pr":         *pr,
		"date":       time.Now().Format("2006-01-02"),
		"go":         "make bench (go test -run '^$' -bench <name> .)",
		"note":       *note,
		"benchmarks": round(cur),
	}
	if len(curAllocs) > 0 {
		doc["allocs_per_op"] = curAllocs
		doc["bytes_per_op"] = bm.bytes
	}
	if *baseline != "" {
		snap, err := readSnapshot(*baseline)
		if err != nil {
			fail(err)
		}
		base := make(map[string]float64)
		speed := make(map[string]float64)
		for name, ref := range snap.Benchmarks {
			if got, ok := cur[name]; ok && got > 0 {
				base[name] = ref
				speed[name] = math.Round(100*ref/got) / 100
			}
		}
		doc[fmt.Sprintf("baselines_pr%d", snap.PR)] = base
		doc[fmt.Sprintf("speedups_vs_pr%d", snap.PR)] = speed
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fail(err)
	}
}

// round trims ns/op to two decimals (the precision the per-step
// nanosecond benchmarks report); window-scale values round to whole ns.
func round(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = math.Round(v*100) / 100
	}
	return out
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "coaxial-bench: %v\n", err)
	os.Exit(1)
}
