package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"coaxial"
)

func TestDigestSetCatchesPlantedMismatch(t *testing.T) {
	s := digestSet{}
	if err := s.check("p", "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := s.check("p", "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := s.check("p", "bbbb"); err == nil {
		t.Error("a differing digest of the same point passed")
	}
}

func TestCheckValidated(t *testing.T) {
	s := digestSet{"p": "aaaa"}
	if err := checkValidated(s, "p", "aaaa", nil); err != nil {
		t.Errorf("clean validated run failed: %v", err)
	}
	if err := checkValidated(s, "p", "bbbb", nil); err == nil {
		t.Error("validated result differing from unvalidated passed")
	}
	verr := fmt.Errorf("run: %w", &coaxial.ValidationError{})
	if err := checkValidated(s, "p", "aaaa", verr); err == nil {
		t.Error("validation violation passed")
	}
	if err := checkValidated(s, "q", "aaaa", nil); err == nil {
		t.Error("validated run without an unvalidated reference passed")
	}
	if err := checkValidated(s, "p", "aaaa", errors.New("boom")); err == nil {
		t.Error("failed validated run passed")
	}
}

// tinyPanel is a real but tiny simulated point: one active core at tiny
// windows.
func tinyPanel() []simPoint {
	cfg := coaxial.Coaxial4x().WithActiveCores(1)
	w, _ := coaxial.WorkloadByName("gcc")
	return []simPoint{{
		label: "tiny",
		run: func(ctx context.Context, r *coaxial.Runner) (outcome, error) {
			res, err := r.RunMix(ctx, cfg, []coaxial.Workload{w})
			d, derr := digest(res)
			if err == nil {
				err = derr
			}
			return outcome{digest: d, res: res}, err
		},
	}}
}

func tinyRun(t *testing.T) (*simRun, *coaxial.Runner) {
	var out strings.Builder
	s := newSimRun(newReport(), 1, tinyPanel(), &out)
	r := coaxial.NewRunner(coaxial.WithSeed(1), coaxial.WithWindows(2_000, 200, 2_000))
	o, err := s.panel[0].run(context.Background(), r)
	s.rep.op(err)
	s.rep.op(s.digests.check("tiny", o.digest))
	return s, r
}

func TestGatePassesAtTinyWindows(t *testing.T) {
	s, r := tinyRun(t)
	l := s.loop(context.Background(), r, 0, false)
	s.gate(context.Background(), r)
	if s.rep.failed != 0 || l.points != 1 {
		t.Fatalf("clean tiny run: %d failed (%v), %d points", s.rep.failed, s.rep.failures, l.points)
	}
}

func TestGateFailsOnPlantedDigestMismatch(t *testing.T) {
	s, r := tinyRun(t)
	s.digests["tiny"] = "0000000000000000" // planted: not what the simulator produces
	s.gate(context.Background(), r)
	if s.rep.failed != 1 || !strings.Contains(strings.Join(s.rep.failures, "\n"), "differs") {
		t.Fatalf("planted mismatch: %d failed (%v)", s.rep.failed, s.rep.failures)
	}
	s.loop(context.Background(), r, 0, false)
	if s.rep.failed != 2 {
		t.Fatalf("planted mismatch in the timed loop: %d failed", s.rep.failed)
	}
}

func TestServedPointEqualsDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a served point")
	}
	j := jobSpec{"coaxial-4x", "gcc", 5}
	d, err := startDaemon(1, newEngineStats())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	st, _, err := d.submitAndWait(context.Background(), j.request(false))
	if err != nil {
		t.Fatal(err)
	}
	got, err := pointDigest(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := directCheck(context.Background(), j, got); err != nil {
		t.Error(err)
	}
	if err := directCheck(context.Background(), j, "0000000000000000"); err == nil {
		t.Error("planted served digest passed the direct check")
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader("coaxial_serve_jobs{state=\"done\"} 3\ncoaxial_serve_points_started_total 7\n# HELP x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["coaxial_serve_points_started_total"] != 7 || m[`coaxial_serve_jobs{state="done"}`] != 3 {
		t.Errorf("parsed %v", m)
	}
}
