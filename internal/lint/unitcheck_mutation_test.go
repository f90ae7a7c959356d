package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/loader"
)

// unitMutation plants one dimension bug into a real simulator source file
// via the loader's overlay and demands that unitcheck catches it. The
// mutations mirror the bug classes the analyzer exists for: dropped
// conversions, doubled conversions, swapped arguments, and raw casts
// smuggling ns values into cycle-valued state.
type unitMutation struct {
	name string
	// file is repo-relative; old must occur exactly once and is replaced
	// by new.
	file     string
	old, new string
	// extra packages to list alongside the mutated one so overlay-added
	// imports resolve from source (dependencies before importers).
	patterns []string
	// wantSub must appear in at least one unitcheck diagnostic in file.
	wantSub string
}

func unitMutations() []unitMutation {
	return []unitMutation{
		{
			name:     "cxl-port-conversion-dropped",
			file:     "internal/cxl/pooled.go",
			old:      "port:         link.portCycles(),",
			new:      "port:         int64(link.PortNS),",
			patterns: []string{"coaxial/internal/cxl"},
			wantSub:  "declared cycles, got ns",
		},
		{
			name:     "cxl-complete-raw-portns",
			file:     "internal/cxl/pooled.go",
			old:      "ready := now + p.port\n\tstart := ready",
			new:      "ready := now + int64(p.link.PortNS)\n\tstart := ready",
			patterns: []string{"coaxial/internal/cxl"},
			wantSub:  "cross-dimension arithmetic: cycles + ns",
		},
		{
			name:     "cxl-enqueue-compare-ns",
			file:     "internal/cxl/pooled.go",
			old:      "if at < p.now {",
			new:      "if at < int64(clock.NS(p.now)) {",
			patterns: []string{"coaxial/internal/cxl"},
			wantSub:  "comparing cycles to ns",
		},
		{
			name:     "cxl-serialization-args-swapped",
			file:     "internal/cxl/cxl.go",
			old:      "return clock.SerializationCycles(memreq.LineSize, p.RXGoodputGBs)",
			new:      "return clock.SerializationCycles(int(p.RXGoodputGBs), float64(memreq.LineSize))",
			patterns: []string{"coaxial/internal/cxl"},
			wantSub:  "is GB/s, parameter is declared bytes",
		},
		{
			name:     "dram-rcd-double-converted",
			file:     "internal/dram/subchannel.go",
			old:      "import (\n\t\"math\"\n\t\"math/bits\"\n\n\t\"coaxial/internal/memreq\"\n)",
			new:      "import (\n\t\"math\"\n\t\"math/bits\"\n\n\t\"coaxial/internal/clock\"\n\t\"coaxial/internal/memreq\"\n)",
			patterns: []string{"coaxial/internal/clock", "coaxial/internal/dram"},
			wantSub:  "cross-dimension arithmetic: cycles + ns",
		},
		{
			name:     "noc-latency-returns-ns",
			file:     "internal/noc/noc.go",
			old:      "package noc",
			new:      "package noc\n\nimport \"coaxial/internal/clock\"",
			patterns: []string{"coaxial/internal/clock", "coaxial/internal/noc"},
			wantSub:  "return of ns: Latency is declared to return cycles",
		},
		{
			name:     "cpu-token-ready-in-ns",
			file:     "internal/cpu/core.go",
			old:      "import (\n\t\"math\"\n\n\t\"coaxial/internal/memreq\"",
			new:      "import (\n\t\"math\"\n\n\t\"coaxial/internal/clock\"\n\t\"coaxial/internal/memreq\"",
			patterns: []string{"coaxial/internal/clock", "coaxial/internal/cpu"},
			wantSub:  "assigning ns to field tokenReadyAt, which is declared cycles",
		},
		{
			name:     "stats-gbs-returns-bytes-per-cycle",
			file:     "internal/stats/stats.go",
			old:      "seconds := float64(cycles) / (clock.FreqGHz * 1e9)\n\treturn float64(bytes) / 1e9 / seconds",
			new:      "seconds := float64(cycles) / (clock.FreqGHz * 1e9)\n\t_ = seconds\n\treturn float64(bytes) / float64(cycles)",
			patterns: []string{"coaxial/internal/stats"},
			wantSub:  "return of bytes/cycle: GBs is declared to return GB/s",
		},
		{
			name:     "calm-peak-conversion-dropped",
			file:     "internal/calm/regulated.go",
			old:      "peakBytesCyc: clock.BytesPerCycle(peakGBs),",
			new:      "peakBytesCyc: peakGBs,",
			patterns: []string{"coaxial/internal/calm"},
			wantSub:  "declared bytes/cycle, got GB/s",
		},
	}
}

// secondEdit covers mutations that need a second replacement beyond the
// import-block edit stored in old/new.
var secondEdit = map[string][2]string{
	"cxl-complete-raw-portns": {
		"	host         int\n",
		"	host         int\n\tlink         LinkParams\n",
	},
	"cxl-enqueue-compare-ns": {
		"import (\n\t\"math\"\n",
		"import (\n\t\"math\"\n\n\t\"coaxial/internal/clock\"\n",
	},
	"dram-rcd-double-converted": {
		"s.casReady[bnk] = now + s.t.RCD",
		"s.casReady[bnk] = now + int64(clock.NS(s.t.RCD))",
	},
	"noc-latency-returns-ns": {
		"return int64(h) * m.HopCycles",
		"return int64(clock.NS(int64(h) * m.HopCycles))",
	},
	"cpu-token-ready-in-ns": {
		"c.tokenReadyAt = c.computeTokenReady()",
		"c.tokenReadyAt = int64(clock.NS(c.computeTokenReady()))",
	},
}

func TestUnitCheckMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation suite shells out to go list per case")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range unitMutations() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(orig)
			if strings.Count(src, m.old) != 1 {
				t.Fatalf("mutation anchor occurs %d times in %s, want 1:\n%s",
					strings.Count(src, m.old), m.file, m.old)
			}
			mutated := strings.Replace(src, m.old, m.new, 1)
			if extra, ok := secondEdit[m.name]; ok {
				if strings.Count(mutated, extra[0]) != 1 {
					t.Fatalf("second anchor occurs %d times in %s, want 1:\n%s",
						strings.Count(mutated, extra[0]), m.file, extra[0])
				}
				mutated = strings.Replace(mutated, extra[0], extra[1], 1)
			}

			prog, err := loader.LoadOverlay(root,
				map[string][]byte{path: []byte(mutated)}, m.patterns...)
			if err != nil {
				t.Fatalf("load with mutation: %v", err)
			}
			diags, err := lint.Run(prog, []*analysis.Analyzer{
				lint.NewUnitCheck(lint.DefaultUnitConfig()),
			})
			if err != nil {
				t.Fatalf("lint run: %v", err)
			}

			var hit bool
			var inFile []string
			for _, d := range diags {
				if d.Analyzer != "unitcheck" || !strings.HasSuffix(d.Pos.Filename, m.file) {
					continue
				}
				inFile = append(inFile, d.String())
				if strings.Contains(d.Message, m.wantSub) {
					hit = true
				}
			}
			if !hit {
				t.Errorf("mutation not caught: want a unitcheck diagnostic containing %q in %s; got %d in file:\n%s",
					m.wantSub, m.file, len(inFile), strings.Join(inFile, "\n"))
				for _, d := range diags {
					t.Logf("all: %s", d)
				}
			}
		})
	}
}
