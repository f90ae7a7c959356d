package coaxial

import (
	"context"
	"reflect"
	"testing"
)

// leaf is one scalar field of a struct type, by name and index path.
type leaf struct {
	name string
	path []int
}

// leaves lists every leaf field of struct type t, depth first.
func leaves(t reflect.Type, name string, prefix []int) []leaf {
	var out []leaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := append(append([]int(nil), prefix...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leaves(f.Type, name+"."+f.Name, path)...)
			continue
		}
		out = append(out, leaf{name: name + "." + f.Name, path: path})
	}
	return out
}

// perturb changes one leaf field in place. A kind it cannot perturb fails
// the test, so a field of a new kind must be taught to the key first.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		t.Fatalf("%s: cannot perturb a %s field; extend SuiteJob.Key and this test", name, v.Kind())
	}
}

// TestPointKeyCoversEveryField walks every leaf of Config and RunConfig:
// changing any field but Config.Name and RunConfig.OnProgress must change
// the point key, so a field added later cannot silently alias two
// different simulations.
func TestPointKeyCoversEveryField(t *testing.T) {
	w := oneWorkload(t, "gcc")[0]
	ignored := map[string]bool{"Config.Name": true, "RunConfig.OnProgress": true}
	for _, base := range []Config{Baseline(), Coaxial4x()} {
		job := SuiteJob{Config: base, Workload: w}
		rc := DefaultRunConfig()
		want := job.Key(rc)
		for _, l := range leaves(reflect.TypeOf(base), "Config", nil) {
			j := job
			perturb(t, l.name, reflect.ValueOf(&j.Config).Elem().FieldByIndex(l.path))
			if got := j.Key(rc); (got == want) != ignored[l.name] {
				t.Errorf("%s %s: key changed = %v, want %v", base.Name, l.name, got != want, !ignored[l.name])
			}
		}
		for _, l := range leaves(reflect.TypeOf(rc), "RunConfig", nil) {
			r := rc
			perturb(t, l.name, reflect.ValueOf(&r).Elem().FieldByIndex(l.path))
			if got := job.Key(r); (got == want) != ignored[l.name] {
				t.Errorf("%s %s: key changed = %v, want %v", base.Name, l.name, got != want, !ignored[l.name])
			}
		}
	}

	// The rate-mode form and its per-core expansion are one simulation; a
	// different per-core assignment is not.
	mix := MixWorkloads(0, 12)
	rate := SuiteJob{Config: Baseline(), Workload: mix[0]}
	perCore := SuiteJob{Config: Baseline(), Workloads: rate.perCore()}
	if rate.Key(DefaultRunConfig()) != perCore.Key(DefaultRunConfig()) {
		t.Error("rate-mode job and its per-core expansion have different keys")
	}
	if (SuiteJob{Config: Baseline(), Workloads: mix}).Key(DefaultRunConfig()) == rate.Key(DefaultRunConfig()) {
		t.Error("a mix aliases a rate-mode job")
	}

	// Rack names are labels too; the rack topology is not.
	preset, err := TopologyPresetByName("coaxial-pooled")
	if err != nil {
		t.Fatal(err)
	}
	rk := preset.WithHosts(2).Rack
	hw := [][]Workload{{w}, {w}}
	renamed := rk
	renamed.Name = "other"
	renamed.Hosts = append([]Config(nil), rk.Hosts...)
	renamed.Hosts[1].Name = "other-host"
	rackKey := SuiteJob{Rack: &rk, HostWorkloads: hw}.Key(DefaultRunConfig())
	if (SuiteJob{Rack: &renamed, HostWorkloads: hw}).Key(DefaultRunConfig()) != rackKey {
		t.Error("renaming a rack or its hosts changed the key")
	}
	three := preset.WithHosts(3).Rack
	if (SuiteJob{Rack: &three, HostWorkloads: [][]Workload{{w}, {w}, {w}}}).Key(DefaultRunConfig()) == rackKey {
		t.Error("a 3-host rack aliases a 2-host rack")
	}
}

// TestPointKeyRenamesBitIdentical: for every preset, WithCALM(c.CALM),
// WithActiveCores(c.Cores) and a plain rename share the unrenamed
// config's key, and their Results are deeply equal once Result.Config is
// set aside — the names the key ignores reach no simulated quantity.
func TestPointKeyRenamesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation driver")
	}
	rc := tinyRC()
	rc.FunctionalWarmupInstr = 20_000
	w := oneWorkload(t, "stream-copy")[0]
	for _, c := range []Config{Baseline(), Coaxial2x(), Coaxial4x(), Coaxial5x(), CoaxialAsym(), CoaxialPooled()} {
		want, err := Run(c, w, rc)
		if err != nil {
			t.Fatal(err)
		}
		renamed := c
		renamed.Name = "renamed"
		for _, v := range []Config{c.WithCALM(c.CALM), c.WithActiveCores(c.Cores), renamed} {
			if (SuiteJob{Config: v, Workload: w}).Key(rc) != (SuiteJob{Config: c, Workload: w}).Key(rc) {
				t.Errorf("%s: key differs from %s's", v.Name, c.Name)
			}
			got, err := Run(v, w, rc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Config != v.Name {
				t.Errorf("%s: Result.Config = %q", v.Name, got.Config)
			}
			got.Config = want.Config
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: result differs from %s's:\n got %+v\nwant %+v", v.Name, c.Name, got, want)
			}
		}
	}
}

// declareQuickReport declares what coaxial-report -all -quick declares:
// the main sweep once per output reading it (Figs. 2b, 5, 9 and Tables
// IV, V), then Figs. 6, 7, 8, 10 and 11.
func declareQuickReport(p *Plan) {
	wl := RepresentativeWorkloads()
	for i := 0; i < 5; i++ {
		p.MainResults(wl)
	}
	p.Fig6Mixes(3)
	p.Fig7CALM(wl)
	p.Fig8Configs(wl)
	p.Fig10LatencySensitivity(wl)
	p.Fig11Utilization(wl)
}

// TestPlanQuickReportPoints pins the -all -quick plan's size: 234
// declared points collapse to 138 distinct simulations (Fig. 7's serial
// baseline and CALM-70 COAXIAL, Figs. 8 and 10's baseline and 4x points,
// and Fig. 11's 12-core pair all repeat the main sweep).
func TestPlanQuickReportPoints(t *testing.T) {
	p := NewRunner(WithRunConfig(tinyRC())).Plan()
	declareQuickReport(p)
	if requested, distinct := p.Points(); requested != 234 || distinct != 138 {
		t.Fatalf("plan declares %d points, %d distinct; want 234, 138", requested, distinct)
	}
}

// TestPlanMatchesDirectDrivers runs every figure and ablation driver
// through one shared plan and checks each driver's rows are deeply equal
// to the same driver run alone as its own plan.
func TestPlanMatchesDirectDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation driver")
	}
	rc := tinyRC()
	wl := oneWorkload(t, "stream-copy")
	w := wl[0]
	p := NewRunner(WithRunConfig(rc)).Plan()
	// Figs. 7 and 11 first declare the main sweep's points under other
	// names, so the main rows must come back stamped with their own.
	fig7 := p.Fig7CALM(wl)
	fig11 := p.Fig11Utilization(wl)
	main := p.MainResults(wl)
	fig6 := p.Fig6Mixes(1)
	fig8 := p.Fig8Configs(wl)
	fig10 := p.Fig10LatencySensitivity(wl)
	abl := p.Ablations(w)
	if requested, distinct := p.Points(); distinct >= requested {
		t.Fatalf("shared plan dedupes nothing: %d requested, %d distinct", requested, distinct)
	}
	p.Run(context.Background())

	same := func(name string, planned func() (any, error), direct func() (any, error)) {
		t.Helper()
		got, err := planned()
		if err != nil {
			t.Fatalf("%s through the plan: %v", name, err)
		}
		want, err := direct()
		if err != nil {
			t.Fatalf("%s alone: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: planned rows differ from the direct driver's:\n got %+v\nwant %+v", name, got, want)
		}
	}
	same("main", anyRows(main), func() (any, error) { return MainResults(wl, rc) })
	same("fig6", anyRows(fig6), func() (any, error) { return Fig6Mixes(1, rc) })
	same("fig7", anyRows(fig7), func() (any, error) { return Fig7CALM(wl, rc) })
	same("fig8", anyRows(fig8), func() (any, error) { return Fig8Configs(wl, rc) })
	same("fig10", anyRows(fig10), func() (any, error) { return Fig10LatencySensitivity(wl, rc) })
	same("fig11", anyRows(fig11), func() (any, error) { return Fig11Utilization(wl, rc) })
	same("ablations", anyRows(abl), func() (any, error) { return RunAblations(w, rc) })
}

// anyRows erases a driver reader's row type.
func anyRows[T any](read func() (T, error)) func() (any, error) {
	return func() (any, error) { return read() }
}
