package lint_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/loader"
)

// allocMutations plants allocation bugs into real hot-path sources — the
// regressions alloccheck exists to catch: per-tick buffer resets with a
// fresh make, un-hinted append growth, stray fmt construction, interface
// boxing of scalars, map allocation inside a drain, a field retaining a
// per-tick slice, and a deleted //lint:alloc justification resurrecting
// the finding it covered. One bug per class, spread across the sim, cpu,
// dram, and cxl layers.
func allocMutations() []concMutation {
	return []concMutation{
		{
			name:     "sim-drain-fresh-make-instead-of-reslice",
			file:     "internal/sim/system.go",
			old:      `		s.coreEvents[i] = evs[:0]`,
			new:      `		s.coreEvents[i] = make([]memEvent, 0)`,
			patterns: []string{"coaxial/internal/sim"},
			wantSub:  "escapes (stored into an element)",
		},
		{
			name: "sim-duecores-append-without-hint",
			file: "internal/sim/system.go",
			old:  `	due := s.dueCores[:0]`,
			new:  `	due := []int{}`,
			// Drop the retaining store so the un-hinted growth, not the
			// field escape, is the finding under test.
			second: [2]string{
				"	s.dueCores = due\n",
				"	_ = due\n",
			},
			patterns: []string{"coaxial/internal/sim"},
			wantSub:  "append in a loop grows due, which was created without a capacity hint",
		},
		{
			name: "sim-complete-sprintf-trace",
			file: "internal/sim/system.go",
			old: `		s.val.lc.OnComplete(r, now) //lint:alloc validation hook; allocates only when recording an invariant failure
	}
	if r.Kind == memreq.Write {`,
			new: `		s.val.lc.OnComplete(r, now) //lint:alloc validation hook; allocates only when recording an invariant failure
	}
	_ = fmt.Sprintf("complete %x at %d", r.Addr, now)
	if r.Kind == memreq.Write {`,
			patterns: []string{"coaxial/internal/sim"},
			wantSub:  "call to fmt.Sprintf allocates in hot path",
		},
		{
			name:     "sim-onissue-justification-deleted",
			file:     "internal/sim/system.go",
			old:      `		s.val.lc.OnIssue(r, at) //lint:alloc validation hook; allocates only when recording an invariant failure`,
			new:      `		s.val.lc.OnIssue(r, at)`,
			patterns: []string{"coaxial/internal/sim"},
			wantSub:  "call to OnIssue allocates in hot path",
		},
		{
			name: "cpu-tick-boxes-scalar",
			file: "internal/cpu/core.go",
			old: `	c.lastTick = now
	c.issueDeferred(now)`,
			new: `	c.lastTick = now
	var trace interface{} = now
	_ = trace
	c.issueDeferred(now)`,
			patterns: []string{"coaxial/internal/cpu"},
			wantSub:  "interface boxing in hot path",
		},
		{
			name: "cpu-resolvemiss-map-literal",
			file: "internal/cpu/core.go",
			old: `	s := c.pending[idx]
	last := len(c.pending) - 1`,
			new: `	s := c.pending[idx]
	trace := map[uint64]int64{line: when}
	_ = trace
	last := len(c.pending) - 1`,
			patterns: []string{"coaxial/internal/cpu"},
			wantSub:  "map literal always allocates",
		},
		{
			name: "cpu-rob-alloc-boxes-interprocedurally",
			file: "internal/cpu/core.go",
			old: `	seq := c.tailSeq
	c.tailSeq++`,
			new: `	seq := c.tailSeq
	var dbg interface{} = seq
	_ = dbg
	c.tailSeq++`,
			patterns: []string{"coaxial/internal/cpu"},
			wantSub:  "call to alloc allocates in hot path",
		},
		{
			name: "dram-tick-make-map",
			file: "internal/dram/subchannel.go",
			old: `	// Move due arrivals into the scheduler queues.
	arrived := false`,
			new: `	// Move due arrivals into the scheduler queues.
	seen := make(map[uint64]bool)
	_ = seen
	arrived := false`,
			patterns: []string{"coaxial/internal/dram"},
			wantSub:  "make of a map always allocates",
		},
		{
			name: "dram-arrival-loop-invariant-map",
			file: "internal/dram/subchannel.go",
			old: `		arrived = true
		row, bnk, grp := s.decode(r.Addr)`,
			new: `		arrived = true
		prio := map[int]int{0: 1}
		_ = prio[0]
		row, bnk, grp := s.decode(r.Addr)`,
			patterns: []string{"coaxial/internal/dram"},
			wantSub:  "map literal always allocates",
		},
		{
			name: "cxl-tick-retains-fresh-slice",
			file: "internal/cxl/pooled.go",
			old: `	p.now = now

	for {
		r, ok := p.responses.PopDue(now)`,
			new: `	p.now = now
	p.traceBuf = make([]int64, 0)

	for {
		r, ok := p.responses.PopDue(now)`,
			second: [2]string{
				"	dev          *PooledDevice\n",
				"	dev          *PooledDevice\n\ttraceBuf []int64\n",
			},
			patterns: []string{"coaxial/internal/cxl"},
			wantSub:  "escapes (stored into field traceBuf)",
		},
	}
}

func TestAllocCheckMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation suite shells out to go list per case")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allocMutations() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			runConcMutation(t, root, "alloccheck", func() *analysis.Analyzer {
				return lint.NewAllocCheck(lint.DefaultAllocConfig())
			}, m)
		})
	}
}

// mutateAndLint applies one mutation, runs alloccheck alone, and returns
// the diagnostics plus the mutated file contents (for applying fixes).
func mutateAndLint(t *testing.T, root string, m concMutation) ([]analysis.Diagnostic, string, []byte) {
	t.Helper()
	path := filepath.Join(root, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(orig), m.old) != 1 {
		t.Fatalf("mutation anchor occurs %d times, want 1", strings.Count(string(orig), m.old))
	}
	text := strings.Replace(string(orig), m.old, m.new, 1)
	if m.second[0] != "" {
		if strings.Count(text, m.second[0]) != 1 {
			t.Fatalf("second anchor occurs %d times, want 1", strings.Count(text, m.second[0]))
		}
		text = strings.Replace(text, m.second[0], m.second[1], 1)
	}
	mutated := []byte(text)
	prog, err := loader.LoadOverlay(root, map[string][]byte{path: mutated}, m.patterns...)
	if err != nil {
		t.Fatalf("load with mutation: %v", err)
	}
	diags, err := lint.Run(prog, []*analysis.Analyzer{lint.NewAllocCheck(lint.DefaultAllocConfig())})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	return diags, path, mutated
}

// applyFixFor finds the diagnostic matching wantSub, requires it to carry
// a suggested fix, applies the fix against the in-memory mutated file, and
// returns the result.
func applyFixFor(t *testing.T, diags []analysis.Diagnostic, wantSub, path string, content []byte) string {
	t.Helper()
	// Interprocedural summaries repeat the site message inside the caller
	// finding's reason chain; the fix rides on the site finding itself.
	var picked *analysis.Diagnostic
	for i := range diags {
		if strings.Contains(diags[i].Message, wantSub) && diags[i].Fix != nil {
			picked = &diags[i]
			break
		}
	}
	if picked == nil {
		t.Fatalf("no diagnostic containing %q with a suggested fix; got %d diagnostics", wantSub, len(diags))
	}
	files := map[string][]byte{path: content}
	read := func(name string) ([]byte, error) {
		b, ok := files[name]
		if !ok {
			return nil, errors.New("unexpected file " + name)
		}
		return b, nil
	}
	write := func(name string, b []byte) error { files[name] = b; return nil }
	if _, err := analysis.ApplyFixes([]analysis.Diagnostic{*picked}, read, write); err != nil {
		t.Fatalf("applying fix: %v", err)
	}
	return string(files[path])
}

// TestAllocCheckCapacityHintFix: the un-hinted append finding carries an
// edit that sizes the slice to the ranged collection.
func TestAllocCheckCapacityHintFix(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m := concMutation{
		file: "internal/sim/system.go",
		old:  `	due := s.dueCores[:0]`,
		new:  `	due := []int{}`,
		second: [2]string{
			"	s.dueCores = due\n",
			"	_ = due\n",
		},
		patterns: []string{"coaxial/internal/sim"},
	}
	diags, path, mutated := mutateAndLint(t, root, m)
	fixed := applyFixFor(t, diags, "append in a loop grows due", path, mutated)
	want := "due := make([]int, 0, len(s.cores))"
	if !strings.Contains(fixed, want) {
		t.Errorf("capacity-hint fix did not produce %q", want)
	}
}

// TestAllocCheckHoistFix: a loop-invariant read-only map literal inside a
// hot loop gets hoisted above the loop.
func TestAllocCheckHoistFix(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m := concMutation{
		file: "internal/dram/subchannel.go",
		old: `		arrived = true
		row, bnk, grp := s.decode(r.Addr)`,
		new: `		arrived = true
		prio := map[int]int{0: 1}
		_ = prio[0]
		row, bnk, grp := s.decode(r.Addr)`,
		patterns: []string{"coaxial/internal/dram"},
	}
	diags, path, mutated := mutateAndLint(t, root, m)
	fixed := applyFixFor(t, diags, "map literal always allocates", path, mutated)
	// The defining statement moves above the loop; its old line empties.
	hoisted := "prio := map[int]int{0: 1}\n\tfor {"
	if !strings.Contains(fixed, hoisted) {
		t.Errorf("hoist fix did not move the allocation above the loop; got:\n%s",
			excerptAround(fixed, "prio :="))
	}
	if strings.Count(fixed, "prio := map[int]int{0: 1}") != 1 {
		t.Errorf("hoist fix duplicated the allocation:\n%s", excerptAround(fixed, "prio :="))
	}
}

// excerptAround returns a few lines surrounding the first occurrence of
// sub, for failure messages.
func excerptAround(s, sub string) string {
	i := strings.Index(s, sub)
	if i < 0 {
		return "(absent)"
	}
	lo, hi := i-200, i+200
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
