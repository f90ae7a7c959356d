package lint_test

import (
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/analysistest"
)

// fixtureUnitConfig rebinds the dimension seeds to the hermetic unitfix
// fixture package: the same conventions as the repository configuration,
// with the declaration table pointing at the fixture's stand-in
// conversions, plus two stale entries the analyzer must report.
func fixtureUnitConfig() lint.UnitConfig {
	cfg := lint.DefaultUnitConfig()
	cfg.Scope = []string{"unitfix"}
	cfg.Decls = map[string]string{
		"unitfix.FreqGHz":     "GHz",
		"unitfix.toCycles":    "ns -> cycles",
		"unitfix.toNS":        "cycles -> ns",
		"unitfix.hopCycles":   "-> cycles",
		"unitfix.Timing.*":    "cycles",
		"unitfix.Link.PortNS": "ns",
		// Stale: no such field or function.
		"unitfix.Link.RetryCycles": "cycles",
		"unitfix.gone":             "-> cycles",
	}
	return cfg
}

func TestUnitCheck(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{
		lint.NewUnitCheck(fixtureUnitConfig()),
	}, "unitfix")
}
