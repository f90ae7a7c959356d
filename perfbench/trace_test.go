package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFoldChargesFramesToLayers(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"coaxial/internal/dram.(*SubChannel).Tick", "coaxial/internal/sim.(*System).step"}, "dram"},
		// Standard-library and helper frames are charged to the nearest
		// repository caller.
		{[]string{"runtime.mallocgc", "runtime.newobject", "coaxial/internal/cpu.(*Core).Tick"}, "cpu"},
		{[]string{"sort.Search", "coaxial/internal/stats.(*Histogram).Add", "coaxial/internal/dram.(*SubChannel).complete", "coaxial/internal/sim.(*System).step"}, "dram"},
		{[]string{"coaxial/internal/clock.NSToCycles", "coaxial/internal/cxl.(*Channel).Tick"}, "cxl"},
		{[]string{"coaxial/internal/memreq.(*Arena).Alloc", "coaxial/internal/cache.(*Cache).Fill"}, "memreq"},
		{[]string{"coaxial/internal/trace.(*Synthetic).Next"}, "trace"},
		{[]string{"coaxial/internal/rack.(*rack).step"}, "rack"},
		{[]string{"coaxial.(*Runner).warmForHost.func1", "sync.(*Once).doSlow"}, "coaxial"},
		{[]string{"coaxial/internal/area.TableII"}, "coaxial"},
		{[]string{"coaxial/internal/validate.(*Oracle).Observe", "coaxial/internal/dram.(*SubChannel).issue"}, "sim"},
		{[]string{"encoding/json.(*encodeState).marshal", "coaxial/internal/serve.writeJSON", "net/http.HandlerFunc.ServeHTTP"}, "serve"},
		{[]string{"slices.SortFunc[go.shape.[]coaxial/internal/dram.entry]", "coaxial/internal/noc.(*Mesh).Route"}, "noc"},
		{[]string{"net/http.(*persistConn).readLoop", "main.(*daemon).submitAndWait"}, "harness"},
		// No repository frame: the runtime's own work, or other.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFramePackage(t *testing.T) {
	for fn, want := range map[string]string{
		"coaxial/internal/dram.(*SubChannel).Tick":     "coaxial/internal/dram",
		"coaxial.(*Runner).RunMix":                     "coaxial",
		"runtime.mallocgc":                             "runtime",
		"main.main":                                    "main",
		"net/http.(*conn).serve":                       "net/http",
		"coaxial/internal/lint/analysis.Run":           "coaxial/internal/lint/analysis",
		"slices.Sort[go.shape.[]coaxial/internal/x.T]": "slices",
		"coaxial/internal/sim.(*System).step.func1":    "coaxial/internal/sim",
	} {
		if got := framePackage(fn); got != want {
			t.Errorf("framePackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldMapCoversEveryPackage fails when a package is added under
// internal/ without deciding which layer its profile samples belong to.
func TestFoldMapCoversEveryPackage(t *testing.T) {
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		gos, _ := filepath.Glob(filepath.Join(path, "*.go"))
		nonTest := 0
		for _, g := range gos {
			if !strings.HasSuffix(g, "_test.go") {
				nonTest++
			}
		}
		if nonTest == 0 {
			return nil
		}
		pkg := "coaxial/" + filepath.ToSlash(strings.TrimPrefix(path, "../"))
		if _, ok := foldMap[pkg]; !ok {
			t.Errorf("package %s has no layer in foldMap", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := foldMap["coaxial"]; !ok {
		t.Error("root package has no layer")
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

// TestProfileFoldAccountsForEverySample profiles this process and checks
// that the decoder reads the samples and the fold places every one.
func TestProfileFoldAccountsForEverySample(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tab := foldProfile(p)
	if tab.total == 0 {
		t.Fatal("no samples decoded")
	}
	var sum int64
	for _, l := range layers {
		sum += tab.samples[l]
	}
	if sum != tab.total {
		t.Errorf("layers hold %d of %d samples", sum, tab.total)
	}
	if tab.samples["harness"] == 0 {
		t.Errorf("spin loop in package main not charged to harness: %v", tab.samples)
	}
	var out bytes.Buffer
	tab.write(&out, 1)
	if !strings.Contains(out.String(), "accounted for: true") {
		t.Errorf("table:\n%s", out.String())
	}
}
