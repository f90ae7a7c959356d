// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public entry points for a fixed time,
// checks that every simulated result is correct, and prints every metric
// by name and unit, ending with a one-line JSON result. With --trace 1 it
// instead reports per-layer figures from a CPU profile and spans, and
// writes them under --out. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	outDir   string
	out      io.Writer
}

var workloads = []string{"loaded-mix", "rack-pooled", "serve-sweep"}

// tailRates are the nominal samples per second of each workload's timed
// loop, from which its tail percentiles are chosen (see tail): the rates
// of the code the benchmark was defined on, on a 2-CPU host, rounded
// down. Fixing them keeps a tail at one percentile however fast the
// program under test runs.
var tailRates = map[string]float64{"loaded-mix": 3, "rack-pooled": 1.2, "serve-sweep": 40}

// nominal is the sample count the run's tails are chosen for.
func (c runConfig) nominal() int { return int(tailRates[c.workload] * c.dur.Seconds()) }

func main() {
	var (
		cfg     runConfig
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&seconds, "seconds", 10, "seconds the timed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span, profile and layer files")
	flag.Parse()
	cfg.dur = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.out = os.Stdout
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	rep, err := run(context.Background(), cfg)
	if err == nil {
		err = rep.write(os.Stdout, cfg.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg runConfig) (*report, error) {
	fmt.Fprintf(cfg.out, "workload %s seed %d seconds %.0f trace %v\n", cfg.workload, cfg.seed, cfg.dur.Seconds(), cfg.trace)
	switch cfg.workload {
	case "loaded-mix":
		return runSim(ctx, cfg, loadedPanel())
	case "rack-pooled":
		return runSim(ctx, cfg, rackPanel())
	case "serve-sweep":
		return runServe(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// profileHz is the traced run's CPU sampling rate, five times the
// runtime/pprof default so that small layers get samples. Setting it
// before the profile starts makes the runtime print a warning that the
// rate is already set; the profile records and uses the rate set here.
const profileHz = 500

// startProfile starts the CPU profiler; the returned function stops it
// and returns the gzipped profile.
func startProfile() (stop func() []byte, err error) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}, nil
}

// writeTrace folds the traced loop's CPU profile into layers, sets the
// per-layer self-time metrics, prints the layer table, and writes the
// profile, the table and the spans under cfg.outDir.
func writeTrace(cfg runConfig, rep *report, tr *tracer, prof []byte, kinstr float64) error {
	p, err := parseProfile(prof)
	if err != nil {
		return err
	}
	t := foldProfile(p)
	for _, l := range layers {
		rep.set(l+".self_ns_per_kinstr", perKinstr(t.ns[l], kinstr))
	}
	fmt.Fprintf(cfg.out, "per-layer CPU self time over %.0f simulated kinstr:\n", kinstr)
	t.write(cfg.out, kinstr)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	f, err := os.Create(base + ".layers.txt")
	if err != nil {
		return err
	}
	t.write(f, kinstr)
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	if err := tr.writeJSONL(base + ".spans.jsonl"); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "trace files: %s.{layers.txt,cpu.pprof,spans.jsonl}\n", base)
	return nil
}
